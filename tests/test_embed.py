from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_table
from gram_mover.embed import (
    EmbeddingTable,
    SgnsConfig,
    Vocab,
    _noise_cumulative,
    _noise_lookup,
    _NoiseSampler,
    _train_document,
    build_vocab,
    load_vectors,
    nearest_neighbors,
    save_vectors,
    train_sgns,
)
from gram_mover.tokenize import pretokenized
from oracles import cosine_distance, materialized_noise_table, sgns_document_update


class TestBuildVocab:
    def test_threshold(self):
        vocab = build_vocab(["a", "a", "b"], min_count=2)
        assert vocab.tokens == ["a"]

    def test_lexicographic_tie(self):
        vocab = build_vocab(["a", "a", "b", "b"], min_count=1)
        assert vocab.index["a"] == 0
        assert vocab.index["b"] == 1

    def test_descending_frequency(self):
        vocab = build_vocab(["b", "b", "b", "a"], min_count=1)
        assert vocab.tokens == ["b", "a"]

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=1)

    def test_nothing_retained(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], min_count=2)

    @given(tokens=st.lists(st.sampled_from("abcde"), min_size=1, max_size=50))
    def test_bijection(self, tokens):
        vocab = build_vocab(tokens, min_count=1)
        assert sorted(vocab.index.values()) == list(range(len(vocab)))
        assert all(vocab.tokens[i] == t for t, i in vocab.index.items())


class TestCosineDistance:
    def test_identical_direction(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_opposite(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0

    def test_zero_vector_is_maximal_ignorance(self, caplog):
        with caplog.at_level("WARNING"):
            assert cosine_distance(np.zeros(2), np.array([1.0, 0.0])) == 1.0
        assert any("zero vector" in r.message for r in caplog.records)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_distance(np.zeros(2), np.zeros(3))

    @given(
        u=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        v=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    def test_symmetry_exact(self, u, v):
        u, v = np.array(u), np.array(v)
        assert cosine_distance(u, v) == cosine_distance(v, u)

    @given(
        u=st.lists(st.floats(-5, 5), min_size=3, max_size=3).filter(
            lambda x: any(abs(c) > 1e-3 for c in x)
        ),
        v=st.lists(st.floats(-5, 5), min_size=3, max_size=3).filter(
            lambda x: any(abs(c) > 1e-3 for c in x)
        ),
        scale=st.floats(0.01, 100.0),
    )
    def test_scale_invariance(self, u, v, scale):
        u, v = np.array(u), np.array(v)
        assert cosine_distance(scale * u, v) == pytest.approx(
            cosine_distance(u, v), abs=1e-12
        )


class TestNearestNeighbors:
    def test_hand_example(self):
        table = make_table({"a": [1, 0], "b": [0.9, 0.1], "c": [0, 1]})
        assert [t for t, _ in nearest_neighbors(table, "a", 1)] == ["b"]

    def test_absent_token(self):
        table = make_table({"a": [1, 0]})
        assert nearest_neighbors(table, "zzz", 3) == []

    def test_k_covers_whole_vocab(self):
        table = make_table({"a": [1, 0], "b": [0.9, 0.1], "c": [0, 1]})
        names = [t for t, _ in nearest_neighbors(table, "a", 10)]
        assert names == ["b", "c"]

    def test_tie_breaks_by_vocab_index(self):
        table = make_table({"q": [1, 0], "t1": [0, 1], "t2": [0, 1]})
        names = [t for t, _ in nearest_neighbors(table, "q", 2)]
        assert names == ["t1", "t2"]

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60))
    def test_matches_brute_force(self, seed, size):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(size, 4))
        table = make_table({f"t{i}": vectors[i] for i in range(size)})
        query = f"t{rng.integers(size)}"
        got = nearest_neighbors(table, query, k=5)

        units = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        qi = int(query[1:])
        sims = units @ units[qi]
        expected = sorted(
            ((i, sims[i]) for i in range(size) if i != qi),
            key=lambda pair: (-pair[1], pair[0]),
        )[:5]
        assert [t for t, _ in got] == [f"t{i}" for i, _ in expected]
        assert [s for _, s in got] == pytest.approx([s for _, s in expected])


class TestVectorFile:
    def test_round_trip(self, tmp_path):
        table = make_table({"a": [0.5, -1.25], "b": [3.0, 2.5], "c": [0.1, 0.2]})
        path = tmp_path / "vectors.vec"
        save_vectors(table, path)
        loaded = load_vectors(path)
        assert loaded.vocab.tokens == ["a", "b", "c"]
        np.testing.assert_allclose(loaded.vectors, table.vectors, atol=1e-6)

    def test_whitespace_token_escaped(self, tmp_path):
        table = make_table({"a b": [1.0, 0.0], "c\\d": [0.0, 1.0]})
        path = tmp_path / "vectors.vec"
        save_vectors(table, path)
        assert load_vectors(path).vocab.tokens == ["a b", "c\\d"]

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.vec"
        path.write_text("5 2\na 1.0 2.0\nb 3.0 4.0\nc 5.0 6.0\nd 7.0 8.0\n")
        with pytest.raises(ValueError, match="row count"):
            load_vectors(path)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "wide.vec"
        path.write_text("2 2\na 1.0 2.0\nb 3.0 4.0 5.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_vectors(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 2\na 1.0 oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_vectors(path)


def _template_corpus():
    # x and y share every context; z lives in a disjoint sub-language.
    docs = []
    for i in range(300):
        shared = "x" if i % 2 == 0 else "y"
        docs.append(pretokenized([f"l{i % 7}", shared, f"r{i % 5}"]))
        docs.append(pretokenized([f"p{i % 7}", "z", f"q{i % 5}"]))
    return docs


class TestNoiseLookup:
    @pytest.mark.parametrize("size", [1, 7, 1_000, 1_000_000])
    def test_equals_the_materialized_table(self, size):
        rng = np.random.default_rng(size)
        for _ in range(5):
            counts = rng.integers(1, 1_000, size=int(rng.integers(1, 300)))
            table = materialized_noise_table(counts, size)
            draws = rng.integers(0, size, size=(40, 5))
            got = _noise_lookup(_noise_cumulative(counts), draws, size)
            assert np.array_equal(got, table[draws])
            assert np.array_equal(_NoiseSampler(counts, size)(draws), table[draws])
            if size <= 1_000:
                every = _noise_lookup(_noise_cumulative(counts), np.arange(size), size)
                assert np.array_equal(every, table)
                assert np.array_equal(_NoiseSampler(counts, size)(np.arange(size)), table)

    def test_positions_past_a_rounded_down_total_take_the_last_id(self):
        counts = np.arange(1, 11)
        weights = counts ** 0.75
        assert np.cumsum(weights / weights.sum())[-1] < 1.0  # rounds down
        size = 2**60  # the top draw's position rounds up to 1.0
        draws = np.array([0, size // 2, size - 1])
        got = _noise_lookup(_noise_cumulative(counts), draws, size)
        assert got[-1] == len(counts) - 1


@st.composite
def _document_cases(draw):
    """A subsampled document with the settings and tables of one update."""
    vocab_size = draw(st.integers(2, 8))
    kept = draw(st.lists(st.integers(0, vocab_size - 1), min_size=2, max_size=12))
    counts = draw(st.lists(st.integers(1, 50), min_size=vocab_size, max_size=vocab_size))
    if draw(st.booleans()):
        # noise on 2-3 ids of a small vocab: negatives often equal their context
        hot = draw(st.sets(st.integers(0, vocab_size - 1), min_size=2, max_size=min(3, vocab_size)))
        counts = [count if i in hot else 0 for i, count in enumerate(counts)]
    return dict(
        kept=kept,
        counts=counts,
        window=draw(st.integers(1, 15)),  # mostly longer than the document
        negatives=draw(st.integers(1, 4)),
        dimension=draw(st.integers(1, 6)),
        size=draw(st.sampled_from([1, 7, 100, 10_000])),
        step=draw(st.floats(0.05, 0.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestTrainDocument:
    """One document's update against a float64 loop over its pairs that reads
    the rows as they stood at the start of the document."""

    @settings(deadline=None, max_examples=150)
    @given(case=_document_cases())
    @example(case=dict(
        kept=[0, 1, 0, 1, 1], counts=[5, 3, 0], window=3, negatives=4, dimension=4,
        size=100, step=0.3, seed=7,
    ))
    def test_matches_the_pairwise_oracle(self, case):
        kept = np.asarray(case["kept"], dtype=np.int32)
        counts = np.asarray(case["counts"], dtype=np.int64)
        config = SgnsConfig(
            dimension=case["dimension"], window=case["window"],
            negatives=case["negatives"], noise_table_size=case["size"],
        )
        tables = np.random.default_rng(case["seed"])
        syn0 = tables.uniform(-1, 1, (len(counts), config.dimension)).astype(np.float32)
        syn1 = tables.uniform(-1, 1, (len(counts), config.dimension)).astype(np.float32)
        rng = np.random.default_rng(case["seed"])
        replay = copy.deepcopy(rng)
        step = np.float32(case["step"])

        got0, got1 = syn0.copy(), syn1.copy()
        _train_document(
            kept, got0, got1, _NoiseSampler(counts, config.noise_table_size), config, rng, step
        )

        # the documented draw order: spans first, then negatives in pair order
        n = len(kept)
        spans = replay.integers(1, config.window + 1, size=n)
        pairs = sum(min(pos + span, n - 1) - max(pos - span, 0) for pos, span in enumerate(spans))
        draws = replay.integers(0, config.noise_table_size, size=(pairs, config.negatives))
        assert replay.bit_generator.state == rng.bit_generator.state
        negatives = materialized_noise_table(counts, config.noise_table_size)[draws]

        want0, want1 = sgns_document_update(kept, spans, negatives, syn0, syn1, float(step))
        for got, before, want in ((got0, syn0, want0), (got1, syn1, want1)):
            # float32 sums of hundreds of terms, against float64
            tolerance = 2e-5 * (1.0 + np.abs(want).max())
            np.testing.assert_allclose(got - before.astype(np.float64), want, rtol=0, atol=tolerance)


class TestTrainSgns:
    CONFIG = SgnsConfig(
        dimension=16, window=2, epochs=3, min_count=1, subsample_threshold=0,
        noise_table_size=10_000, seed=3,
    )

    def test_context_sharing_beats_disjoint(self):
        table = train_sgns(_template_corpus(), self.CONFIG)
        xy = cosine_distance(table.vector("x"), table.vector("y"))
        xz = cosine_distance(table.vector("x"), table.vector("z"))
        assert xy < xz

    def test_bitwise_reproducible(self):
        docs = _template_corpus()[:80]
        first = train_sgns(docs, self.CONFIG)
        second = train_sgns(docs, self.CONFIG)
        assert np.array_equal(first.vectors, second.vectors)

    def test_degenerate_corpus(self):
        with pytest.raises(ValueError, match="degenerate"):
            train_sgns([pretokenized(["a"])], self.CONFIG)

    def test_mixed_granularity_rejected(self):
        from gram_mover.tokenize import char_ngrams

        with pytest.raises(ValueError, match="granularit"):
            train_sgns([pretokenized(["a", "b"]), char_ngrams("abcd", 3)], self.CONFIG)


class TestEmbeddingTable:
    def test_row_alignment_enforced(self):
        vocab = Vocab(tokens=["a"], index={"a": 0}, counts=None)
        with pytest.raises(ValueError):
            EmbeddingTable(vocab=vocab, vectors=np.zeros((2, 3)))

    def test_unit_vectors_zero_row_stays_zero(self):
        table = make_table({"a": [0.0, 0.0], "b": [3.0, 4.0]})
        units = table.unit_vectors()
        assert np.array_equal(units[0], [0.0, 0.0])
        np.testing.assert_allclose(units[1], [0.6, 0.8])
