"""Transport core: exactness against a vertex-enumeration oracle and an
optimality certificate, the lower-bound chain, and pruned search
equivalence."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRAM3, make_cost, make_histogram, make_table, random_instance
from gram_mover import mover
from gram_mover.cli import _INDEX_ARRAYS, load_index, save_index
from gram_mover.mover import (
    COSINE,
    EUCLIDEAN,
    CostMatrix,
    GramHistogram,
    MoverIndex,
    SearchStats,
    SolverError,
    TransportPlan,
    build_index,
    cost_matrix,
    emd_exact,
    mover_distance,
    nbow,
    rwmd,
    topk_query,
    wcd,
)
from gram_mover.tokenize import TokenSeq, char_ngrams
from oracles import certify_optimal, exhaustive_topk, oracle_emd

seeds = st.integers(0, 2**32 - 1)


def _tokens(*tokens: str) -> TokenSeq:
    return TokenSeq(tokens=tokens, granularity=GRAM3)


class TestNbow:
    TABLE = make_table({"abc": [1, 0], "bcd": [0, 1]})

    def test_frequency_normalization(self):
        hist = nbow(_tokens("abc", "abc", "bcd"), self.TABLE)
        np.testing.assert_allclose(hist.weights, [2 / 3, 1 / 3])

    def test_oov_dropped_before_normalization(self):
        hist = nbow(_tokens("abc", "zzz"), self.TABLE)
        np.testing.assert_allclose(hist.weights, [1.0])

    def test_all_oov(self):
        with pytest.raises(ValueError, match="no embeddable tokens"):
            nbow(_tokens("zzz", "yyy"), self.TABLE)

    def test_support_sorted_unique(self):
        hist = nbow(_tokens("bcd", "abc", "bcd"), self.TABLE)
        assert hist.support.tolist() == [0, 1]


class TestGramHistogram:
    @pytest.mark.parametrize(
        "support, weights, message",
        [
            ([0, 1], [np.nan, 1.0], "positive"),
            ([0, 1], [0.0, 1.0], "positive"),
            ([0, 1], [0.5, 0.25], "sum to 1"),
            ([1, 0], [0.5, 0.5], "unique and sorted"),
            ([0, 0], [0.5, 0.5], "unique and sorted"),
        ],
        ids=["nan weight", "zero weight", "short sum", "unsorted", "repeated"],
    )
    def test_rejected(self, support, weights, message):
        with pytest.raises(ValueError, match=message):
            GramHistogram(support=np.asarray(support), weights=np.asarray(weights))


class TestCostMatrix:
    def test_identical_token_zero(self):
        table = make_table({"x": [1, 2]})
        hist = make_histogram([1.0], support=[0])
        matrix = cost_matrix(hist, hist, table, COSINE)
        assert matrix.values.tolist() == [[0.0]]

    def test_orthogonal_cosine(self):
        table = make_table({"x": [1, 0], "y": [0, 1]})
        a = make_histogram([1.0], support=[0])
        b = make_histogram([1.0], support=[1])
        assert cost_matrix(a, b, table, COSINE).values[0, 0] == pytest.approx(1.0)

    def test_euclidean_hand_value(self):
        table = make_table({"x": [1, 0], "y": [3, 4]})
        a = make_histogram([1.0], support=[0])
        b = make_histogram([1.0], support=[1])
        value = cost_matrix(a, b, table, EUCLIDEAN).values[0, 0]
        assert value == pytest.approx(np.sqrt(20.0))

    def test_unknown_metric(self):
        table = make_table({"x": [1, 0]})
        hist = make_histogram([1.0], support=[0])
        with pytest.raises(ValueError, match="metric"):
            cost_matrix(hist, hist, table, "manhattan")

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CostMatrix(values=np.array([[0.2, -0.1], [0.3, 0.4]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 0), (1, 1)])
    def test_non_finite_entries_rejected(self, bad, at):
        values = np.array([[0.2, 0.1], [0.3, 0.4]])
        values[at] = bad
        with pytest.raises(ValueError, match="finite"):
            CostMatrix(values=values)
        values[1 - at[0], at[1]] = -0.1  # a negative entry too: finiteness is checked first
        with pytest.raises(ValueError, match="finite"):
            CostMatrix(values=values)


class TestEmdExact:
    def test_identical_histograms(self):
        hist = make_histogram([0.25, 0.75])
        distance, plan = emd_exact(hist, hist, make_cost([[0.0, 0.5], [0.5, 0.0]]))
        assert distance == 0.0
        np.testing.assert_allclose(np.diag(plan.flow), hist.weights)

    def test_forced_single_edge(self):
        a = make_histogram([1.0])
        b = make_histogram([1.0])
        distance, _ = emd_exact(a, b, make_cost([[0.7]]))
        assert distance == pytest.approx(0.7)

    def test_two_by_two(self):
        a = make_histogram([0.5, 0.5])
        b = make_histogram([0.5, 0.5])
        cost = make_cost([[0.1, 0.9], [0.8, 0.2]])
        distance, plan = emd_exact(a, b, cost)
        assert distance == pytest.approx(0.15, abs=1e-12)
        np.testing.assert_allclose(plan.flow.sum(axis=1), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(plan.flow.sum(axis=0), [0.5, 0.5], atol=1e-9)

    def test_shape_mismatch(self):
        a = make_histogram([0.5, 0.5])
        b = make_histogram([1.0])
        with pytest.raises(ValueError, match="shape"):
            emd_exact(a, b, make_cost([[0.1]]))

    @settings(deadline=None, max_examples=60)
    @given(seed=seeds)
    def test_matches_vertex_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b, cost = random_instance(rng, max_support=4)
        distance, plan = emd_exact(a, b, cost)
        assert distance == pytest.approx(oracle_emd(a.weights, b.weights, cost.values), abs=1e-9)
        assert np.all(plan.flow >= 0)

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_matches_oracle_on_tied_costs(self, seed):
        # heavy cost ties exercise degenerate pivots
        rng = np.random.default_rng(seed)
        a, b, cost = random_instance(rng, max_support=4, rounded=True)
        distance, _ = emd_exact(a, b, cost)
        assert distance == pytest.approx(oracle_emd(a.weights, b.weights, cost.values), abs=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = make_histogram(rng.dirichlet(np.ones(m)))
        b = make_histogram(rng.dirichlet(np.ones(n)))
        values = rng.random((m, n))
        forward, _ = emd_exact(a, b, make_cost(values))
        backward, _ = emd_exact(b, a, make_cost(values.T))
        assert abs(forward - backward) < 1e-9

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_self_distance_exactly_zero(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        hist = make_histogram(rng.dirichlet(np.ones(m)))
        values = rng.random((m, m))
        np.fill_diagonal(values, 0.0)
        distance, _ = emd_exact(hist, hist, make_cost(values))
        assert distance == 0.0

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds)
    def test_uniform_weights_degenerate(self, seed):
        # equal masses force ties in every pivot's ratio test
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 7))
        hist = make_histogram(np.ones(size))
        other = make_histogram(np.ones(size))
        values = np.round(rng.random((size, size)), 2)
        distance, plan = emd_exact(hist, other, make_cost(values))
        assert distance <= float(values.max()) + 1e-12
        np.testing.assert_allclose(plan.flow.sum(axis=1), hist.weights, atol=1e-9)


class TestOptimalityCertificate:
    """Duality certificate at realistic support sizes, where vertex
    enumeration is out of reach. Uniform weights and rounded costs make
    nearly every pivot degenerate and the optimum highly non-unique."""

    @staticmethod
    def _check(seed, size):
        rng = np.random.default_rng(seed)
        hist = make_histogram(np.ones(size))
        values = np.round(rng.random((size, size)), int(rng.integers(1, 3)))
        distance, plan = emd_exact(hist, hist, make_cost(values))
        certify_optimal(hist.weights, hist.weights, values, plan, tol=1e-9)
        assert distance == pytest.approx(float((plan.flow * values).sum()), abs=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(seed=seeds)
    def test_certified_at_45(self, seed):
        self._check(seed, 45)

    @settings(deadline=None, max_examples=8)
    @given(seed=seeds)
    def test_certified_at_200(self, seed):
        self._check(seed, 200)

    def test_certificate_rejects_suboptimal_plan(self):
        a = make_histogram([0.5, 0.5])
        cost = make_cost([[0.1, 0.9], [0.8, 0.2]])
        _, plan = emd_exact(a, a, cost)
        swapped = TransportPlan(
            flow=plan.flow[::-1].copy(),
            row_potential=plan.row_potential,
            column_potential=plan.column_potential,
            pivots=plan.pivots,
        )
        with pytest.raises(AssertionError, match="duality gap"):
            certify_optimal(a.weights, a.weights, cost.values, swapped, tol=1e-9)


def _instance_up_to_45(rng):
    """Random instance of up to 45×45; half of them take uniform weights and
    one-decimal costs, so that most pivots are degenerate."""
    m, n = (int(size) for size in rng.integers(1, 46, size=2))
    degenerate = bool(rng.integers(2))
    a = make_histogram(np.ones(m) if degenerate else rng.dirichlet(np.ones(m)))
    b = make_histogram(np.ones(n) if degenerate else rng.dirichlet(np.ones(n)))
    values = rng.random((m, n))
    if degenerate:
        values = np.round(values, 1)
    return a, b, make_cost(values)


class TestCutoff:
    """A solve given a cutoff completes exactly as without one, or stops
    only when its certified optimum exceeds the cutoff."""

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_completes_unchanged_or_stops_above_the_optimum(self, seed):
        rng = np.random.default_rng(seed)
        a, b, cost = _instance_up_to_45(rng)
        distance, plan = emd_exact(a, b, cost)
        certify_optimal(a.weights, b.weights, cost.values, plan, tol=1e-9)
        cutoff = float(distance * rng.uniform(0.5, 1.5) + rng.uniform(-1e-3, 1e-3))
        try:
            cut_distance, cut_plan = emd_exact(a, b, cost, cutoff=cutoff)
        except mover._StoppedEarly:
            assert distance > cutoff
            return
        assert distance <= cutoff + 1e-12
        assert cut_distance == distance
        assert cut_plan.pivots == plan.pivots
        for name in ("flow", "row_potential", "column_potential"):
            assert getattr(cut_plan, name).tobytes() == getattr(plan, name).tobytes(), name

    @settings(deadline=None, max_examples=30)
    @given(seed=seeds)
    def test_every_bound_is_below_the_certified_optimum(self, seed):
        rng = np.random.default_rng(seed)
        a, b, cost = _instance_up_to_45(rng)
        distance, plan = emd_exact(a, b, cost)
        certify_optimal(a.weights, b.weights, cost.values, plan, tol=1e-9)
        bounds = []

        def recording(function):
            def record(*args):
                bounds.append(function(*args))
                return bounds[-1]

            return record

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mover, "_reduction_bound", recording(mover._reduction_bound))
            patch.setattr(mover, "_pivot_bound", recording(mover._pivot_bound))
            _, bounded_plan = emd_exact(a, b, cost, cutoff=np.finfo(np.float64).max)
        assert bounded_plan.pivots == plan.pivots
        # the reduction, then one bound per pricing step, the last at the optimum
        assert len(bounds) == plan.pivots + 2
        assert max(bounds) <= distance + 1e-12
        assert bounds[-1] == pytest.approx(distance, abs=1e-12)

    def test_stops_before_the_basis_when_the_reduction_exceeds_the_cutoff(self):
        a = make_histogram([0.5, 0.5])
        cost = make_cost([[0.4, 0.9], [0.8, 0.3]])  # optimum 0.35, reduction bound 0.35
        with pytest.raises(mover._StoppedEarly) as caught:
            emd_exact(a, a, cost, cutoff=0.3)
        assert caught.value.pivots == 0
        distance, _ = emd_exact(a, a, cost, cutoff=0.35)
        assert distance == pytest.approx(0.35, abs=1e-15)


def _start_instance(rng, kind):
    """An instance whose greedy start is checked: `_instance_up_to_45`'s, a
    self-distance with a zero diagonal, or one of 1×n and m×1."""
    if kind == "any":
        return _instance_up_to_45(rng)
    size = int(rng.integers(1, 46))
    if kind == "self":
        hist = make_histogram(np.ones(size) if rng.integers(2) else rng.dirichlet(np.ones(size)))
        values = rng.random((size, size))
        np.fill_diagonal(values, 0.0)
        return hist, hist, make_cost(values)
    a = make_histogram([1.0])
    b = make_histogram(np.ones(size) if rng.integers(2) else rng.dirichlet(np.ones(size)))
    values = np.round(rng.random((1, size)), 1)
    if kind == "column":
        return b, a, make_cost(values.T)
    return a, b, make_cost(values)


class TestStartTree:
    """The greedy start is a spanning tree rooted at the one line it leaves
    open, with a feasible flow and potentials tight on its arcs; the cost the
    greedy scan sums is that flow's cost, so it bounds the optimum."""

    @settings(deadline=None, max_examples=80)
    @given(seed=seeds, kind=st.sampled_from(["any", "self", "row", "column"]))
    def test_spanning_tree_with_feasible_flow_and_tight_potentials(self, seed, kind):
        rng = np.random.default_rng(seed)
        a, b, cost = _start_instance(rng, kind)
        values = cost.values
        m, n = values.shape
        arcs, upper = mover._greedy_arcs(a.weights, b.weights, values)
        parent, flow_up, depth, children, potential = mover._start_tree(arcs, values)

        assert parent.count(-1) == 1  # every line but the root has a parent: m + n - 1 arcs
        root = parent.index(-1)
        tree = [node for node in range(m + n) if node != root]
        for node in tree:
            assert (node < m) != (parent[node] < m)  # arcs join a row and a column
            assert depth[node] == depth[parent[node]] + 1
            assert children[parent[node]].count(node) == 1
            up, steps = node, 0
            while up != root:
                up, steps = parent[up], steps + 1
                assert steps <= m + n
        assert depth[root] == 0 and potential[root] == 0.0
        assert sum(len(c) for c in children) == m + n - 1

        flow = np.zeros((m, n))
        for node in tree:
            i, j = (node, parent[node] - m) if node < m else (parent[node], node - m)
            flow[i, j] = flow_up[node]
            assert values[i, j] - potential[i] - potential[m + j] == pytest.approx(0.0, abs=1e-12)
        assert np.all(flow >= 0)
        np.testing.assert_allclose(flow.sum(axis=1), a.weights, rtol=0, atol=1e-9)
        np.testing.assert_allclose(flow.sum(axis=0), b.weights, rtol=0, atol=1e-9)
        assert upper == pytest.approx(float((flow * values).sum()), rel=1e-12, abs=1e-15)
        assert upper >= emd_exact(a, b, cost)[0] - 1e-12
        if kind == "self":  # the cost-0 diagonal comes first: the start is optimal
            assert float((flow * values).sum()) == 0.0


class TestLowerBounds:
    def test_rwmd_zero_on_identity(self):
        hist = make_histogram([0.5, 0.5])
        cost = make_cost([[0.0, 0.4], [0.4, 0.0]])
        assert rwmd(hist, hist, cost) == 0.0

    def test_rwmd_tight_on_two_by_two(self):
        a = make_histogram([0.5, 0.5])
        b = make_histogram([0.5, 0.5])
        assert rwmd(a, b, make_cost([[0.1, 0.9], [0.8, 0.2]])) == pytest.approx(0.15)

    def test_wcd_zero_on_identity(self):
        table = make_table({"x": [1, 0], "y": [0, 1]})
        hist = make_histogram([0.5, 0.5], support=[0, 1])
        assert wcd(hist, hist, table) == 0.0

    def test_wcd_singleton_equals_ground_distance(self):
        table = make_table({"x": [1, 0], "y": [3, 4]})
        a = make_histogram([1.0], support=[0])
        b = make_histogram([1.0], support=[1])
        assert wcd(a, b, table) == pytest.approx(np.sqrt(20.0))

    @settings(deadline=None, max_examples=60)
    @given(seed=seeds)
    def test_rwmd_below_emd(self, seed):
        rng = np.random.default_rng(seed)
        a, b, cost = random_instance(rng, max_support=6)
        distance, _ = emd_exact(a, b, cost)
        assert rwmd(a, b, cost) <= distance + 1e-9

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds)
    def test_wcd_below_emd_euclidean(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 6))
        vectors = rng.normal(size=(size, 3))
        table = make_table({f"t{i}": vectors[i] for i in range(size)})
        a = make_histogram(rng.dirichlet(np.ones(size)), support=range(size))
        b = make_histogram(rng.dirichlet(np.ones(size)), support=range(size))
        cost = cost_matrix(a, b, table, EUCLIDEAN)
        distance, _ = emd_exact(a, b, cost)
        assert wcd(a, b, table) <= distance + 1e-9


class TestMoverDistance:
    def test_identical_documents(self):
        table = make_table({"abc": [1, 0], "bcd": [0, 1]})
        doc = _tokens("abc", "bcd")
        assert mover_distance(doc, doc, table) == 0.0

    def test_identical_surface_text(self):
        grams = char_ngrams("Cut a carrot", 3)
        rng = np.random.default_rng(0)
        table = make_table({g: rng.normal(size=3) for g in set(grams.tokens)})
        assert mover_distance(grams, grams, table) == 0.0

    def test_against_oracle_with_hand_table(self):
        table = make_table(
            {"aa": [1.0, 0.0], "bb": [0.8, 0.6], "cc": [0.0, 1.0], "dd": [-1.0, 0.0]}
        )
        doc_a = _tokens("aa", "bb", "aa")
        doc_b = _tokens("cc", "dd", "cc")
        a, b = nbow(doc_a, table), nbow(doc_b, table)
        cost = cost_matrix(a, b, table, COSINE)
        assert mover_distance(doc_a, doc_b, table) == pytest.approx(
            oracle_emd(a.weights, b.weights, cost.values), abs=1e-9
        )


def _random_corpus(rng, size, vocab_size=60, dim=8):
    vectors = rng.normal(size=(vocab_size, dim))
    table = make_table({f"g{i}": vectors[i] for i in range(vocab_size)})
    docs = []
    for d in range(size):
        length = int(rng.integers(3, 12))
        tokens = tuple(f"g{rng.integers(vocab_size)}" for _ in range(length))
        docs.append((f"doc{d:03d}", TokenSeq(tokens=tokens, granularity=GRAM3)))
    return table, docs


class TestTopkQuery:
    def test_identity_query_ranks_first(self):
        rng = np.random.default_rng(5)
        table, docs = _random_corpus(rng, 20)
        index = build_index(docs, table, COSINE)
        result = topk_query(docs[7][1], index, k=3)
        assert result[0] == (docs[7][0], 0.0)

    def test_k_exceeding_index_returns_full_ranking(self):
        rng = np.random.default_rng(6)
        table, docs = _random_corpus(rng, 8)
        index = build_index(docs, table, COSINE)
        result = topk_query(docs[0][1], index, k=50)
        assert len(result) == 8
        assert sorted(result, key=lambda r: (r[1], r[0])) == result

    @pytest.mark.parametrize("metric", [COSINE, EUCLIDEAN])
    def test_pruned_equals_unpruned(self, metric):
        rng = np.random.default_rng(7)
        table, docs = _random_corpus(rng, 60)
        index = build_index(docs, table, metric)
        for q in range(0, 10):
            stats = SearchStats()
            pruned = topk_query(docs[q][1], index, k=5, stats=stats)
            assert pruned == exhaustive_topk(docs[q][1], docs, table, metric, 5)
            assert stats.exact_evaluations <= len(index.entries)  # the exhaustive solves

    def test_pruning_skips_work_on_spread_corpus(self):
        rng = np.random.default_rng(8)
        table, docs = _random_corpus(rng, 120)
        index = build_index(docs, table, COSINE)
        stats = SearchStats()
        topk_query(docs[0][1], index, k=3, stats=stats)
        assert stats.bound_computations == 120
        assert stats.exact_evaluations < 120
        assert stats.pruned == 120 - stats.exact_evaluations - stats.early_stopped
        assert stats.held == stats.certified == 0  # without `keep` every candidate is kept

    @settings(deadline=None, max_examples=25)
    @example(seed=134)  # Euclidean k=2: pruning without slack dropped a tie
    @example(seed=215)  # Euclidean k=4 and k=5, likewise
    @given(seed=seeds)
    def test_pruned_equals_exhaustive_under_heavy_ties(self, seed):
        # six tokens on a small integer grid make many equal distances; the
        # centroid bound can then sit an ulp above an exact tie
        rng = np.random.default_rng(seed)
        vectors = rng.integers(-2, 3, size=(6, 3))
        table = make_table({f"t{i}": vectors[i] for i in range(6)})

        def doc():
            ids = rng.integers(0, 6, size=int(rng.integers(2, 7)))
            return TokenSeq(tokens=tuple(f"t{i}" for i in ids), granularity=GRAM3)

        docs = [(f"d{d:02d}", doc()) for d in range(40)]
        query = doc()
        for metric in (COSINE, EUCLIDEAN):
            index = build_index(docs, table, metric)
            for k in range(1, 6):
                # pruning stops solves early too, once it holds k distances
                stats = SearchStats()
                pruned = topk_query(query, index, k, stats=stats)
                assert pruned == exhaustive_topk(query, docs, table, metric, k), (metric, k)
                assert stats.bound_computations == (
                    stats.exact_evaluations + stats.early_stopped + stats.pruned + stats.held
                )

    @pytest.mark.parametrize("metric", [COSINE, EUCLIDEAN])
    def test_early_stopping_keeps_the_exhaustive_hits(self, metric):
        rng = np.random.default_rng(11)
        table, docs = _random_corpus(rng, 80, vocab_size=120)
        index = build_index(docs, table, metric)
        stats = SearchStats()
        for q in range(0, 80, 8):
            hits = topk_query(docs[q][1], index, k=5, stats=stats)
            assert hits == exhaustive_topk(docs[q][1], docs, table, metric, 5)
        assert stats.early_stopped > 0
        assert stats.bound_computations == 10 * 80
        assert stats.bound_computations == (
            stats.exact_evaluations + stats.early_stopped + stats.pruned + stats.held
        )

    @settings(deadline=None, max_examples=40)
    @given(
        seed=seeds,
        decimals=st.sampled_from([1, 2]),
        kept=st.sampled_from(["nothing", "everything", "random"]),
    )
    def test_keep_equals_exhaustive_then_filter_under_heavy_ties(self, seed, decimals, kept):
        # vectors rounded to one or two decimals and documents drawn from a
        # small pool make many equal distances between distinct doc ids
        rng = np.random.default_rng(seed)
        vectors = np.round(rng.uniform(-1, 1, size=(6, 3)), decimals)
        table = make_table({f"t{i}": vectors[i] for i in range(6)})

        def doc():
            ids = rng.integers(0, 6, size=int(rng.integers(2, 7)))
            return TokenSeq(tokens=tuple(f"t{i}" for i in ids), granularity=GRAM3)

        pool = [doc() for _ in range(8)]
        docs = [(f"d{d:02d}", pool[int(rng.integers(len(pool)))]) for d in range(40)]
        if kept == "random":
            chosen = {doc_id for doc_id, _ in docs if rng.random() < rng.random()}
        else:
            chosen = {doc_id for doc_id, _ in docs} if kept == "everything" else set()
        query = pool[0] if rng.integers(2) else doc()
        for metric in (COSINE, EUCLIDEAN):
            index = build_index(docs, table, metric)
            for k in range(1, 7):
                stats = SearchStats()
                hits = topk_query(query, index, k, stats=stats, keep=chosen.__contains__)
                expected = exhaustive_topk(query, docs, table, metric, k)
                assert hits == [hit for hit in expected if hit[0] in chosen], (metric, k)
                assert stats.bound_computations == (
                    stats.exact_evaluations + stats.early_stopped + stats.pruned + stats.held
                )
                if kept == "everything":  # the same path as without `keep`
                    plain = SearchStats()
                    assert topk_query(query, index, k, stats=plain) == hits
                    assert plain == stats and stats.held == stats.certified == 0

    def test_kept_hit_tied_with_a_dropped_smaller_doc_id(self):
        # "a" and "b" hold the same tokens, so their distances tie exactly;
        # "a" ranks first by doc id, so with k = 1 dropping it leaves no hit,
        # and with k = 2 "b" stays. The greedy plan costs 1/3 against an
        # optimum of 1/5, so only a certification solve can decide the tie.
        table = make_table({"aa": [1.0, 0.0], "bb": [0.6, 0.8], "cc": [0.0, 1.0], "dd": [0.8, -0.6]})
        query = _tokens("aa", "aa", "bb")
        doc = _tokens("aa", "aa", "dd")
        docs = [("b", doc), ("a", doc), ("c", _tokens("cc"))]
        index = build_index(docs, table, COSINE)
        drop_a = "a".__ne__
        for k, kept in ((1, []), (2, ["b"]), (3, ["b", "c"])):
            stats = SearchStats()
            hits = topk_query(query, index, k, stats=stats, keep=drop_a)
            assert hits == [hit for hit in exhaustive_topk(query, docs, table, COSINE, k) if hit[0] != "a"]
            assert [doc_id for doc_id, _ in hits] == kept
            assert stats.held == stats.certified == 1

    def test_keep_solves_only_kept_hits(self):
        rng = np.random.default_rng(15)
        table, docs = _random_corpus(rng, 60)
        index = build_index(docs, table, COSINE)
        asked = []

        def keep(doc_id):
            asked.append(doc_id)
            return doc_id.endswith("7")

        stats = SearchStats()
        hits = topk_query(docs[7][1], index, k=5, stats=stats, keep=keep)
        assert hits == [h for h in exhaustive_topk(docs[7][1], docs, table, COSINE, 5) if h[0].endswith("7")]
        assert len(asked) == len(set(asked)) == 60 - stats.pruned  # once per visited candidate
        assert stats.exact_evaluations <= sum(doc_id.endswith("7") for doc_id in asked)

    @staticmethod
    def _count_greedy_plans(monkeypatch) -> list:
        """Record every greedy plan built, upper bounds and start trees alike."""
        plans = []
        greedy = mover._greedy_arcs
        monkeypatch.setattr(mover, "_greedy_arcs", lambda *args: plans.append(args) or greedy(*args))
        return plans

    def test_keep_rejecting_everything_ranks_only_the_seed(self, monkeypatch):
        # with no kept hit no dropped candidate's rank matters: only the
        # first k, which seed the cutoff, get a greedy plan
        rng = np.random.default_rng(15)
        table, docs = _random_corpus(rng, 60)
        index = build_index(docs, table, COSINE)
        plans = self._count_greedy_plans(monkeypatch)
        stats = SearchStats()
        assert topk_query(docs[7][1], index, k=5, stats=stats, keep=lambda doc_id: False) == []
        assert stats.certified == stats.exact_evaluations == 0
        assert len(plans) <= 5
        assert stats.upper_bounds == len(plans)
        assert stats.held == 60 - stats.pruned

    def test_kept_exact_duplicate_is_a_hit_without_certification(self, monkeypatch):
        # no dropped candidate's bound reaches distance 0, so nothing is
        # ranked past the seed: k - 1 upper bounds and the hit's start tree
        rng = np.random.default_rng(17)
        table, docs = _random_corpus(rng, 60)
        index = build_index(docs, table, COSINE)
        query_id, query = docs[7]
        plans = self._count_greedy_plans(monkeypatch)
        stats = SearchStats()
        assert topk_query(query, index, k=5, stats=stats, keep=query_id.__eq__) == [(query_id, 0.0)]
        assert stats.certified == 0 and stats.exact_evaluations == 1
        assert len(plans) == 5
        assert stats.upper_bounds == 4

    def test_k_beyond_the_index_under_keep_returns_every_kept_document(self):
        # the cutoff never becomes finite: every candidate is visited and
        # every dropped one seeds it
        rng = np.random.default_rng(18)
        table, docs = _random_corpus(rng, 12)
        index = build_index(docs, table, COSINE)
        chosen = {doc_id for doc_id, _ in docs[::3]}
        stats = SearchStats()
        hits = topk_query(docs[1][1], index, k=50, stats=stats, keep=chosen.__contains__)
        expected = exhaustive_topk(docs[1][1], docs, table, COSINE, 50)
        assert hits == [hit for hit in expected if hit[0] in chosen]
        assert len(hits) == len(chosen) == stats.exact_evaluations
        assert stats.pruned == stats.early_stopped == 0
        assert stats.held == stats.upper_bounds == 12 - len(chosen)

    def test_keep_stats_repeat_exactly(self):
        rng = np.random.default_rng(19)
        table, docs = _random_corpus(rng, 60)
        index = build_index(docs, table, COSINE)
        runs = []
        for _ in range(2):
            stats = SearchStats()
            hits = [
                topk_query(docs[q][1], index, k=5, stats=stats, keep=lambda doc_id: doc_id[-1] in "37")
                for q in range(0, 60, 6)
            ]
            runs.append((hits, stats))
        assert runs[0] == runs[1]
        assert runs[0][1].upper_bounds > 0 and runs[0][1].certified > 0

    def test_euclidean_query_centroid_computed_once(self, monkeypatch):
        rng = np.random.default_rng(16)
        table, docs = _random_corpus(rng, 20)
        index = build_index(docs, table, EUCLIDEAN)
        calls = []
        centroid = mover._centroid
        monkeypatch.setattr(mover, "_centroid", lambda hist, table: calls.append(hist) or centroid(hist, table))
        topk_query(docs[0][1], index, k=3)
        assert len(calls) == 20 + 1

    def test_pivot_count_repeats_exactly(self):
        rng = np.random.default_rng(10)
        table, docs = _random_corpus(rng, 40)
        index = build_index(docs, table, COSINE)
        counts = []
        for _ in range(2):
            stats = SearchStats()
            for q in range(4):
                topk_query(docs[q][1], index, k=5, stats=stats)
            counts.append((stats.exact_evaluations, stats.pivots))
        assert counts[0] == counts[1]
        assert counts[0][1] > 0

    @pytest.mark.parametrize("metric", [COSINE, EUCLIDEAN])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_distances_equal_mover_distance_exactly(self, metric, pruning):
        # the index, the search and the pair-wise distance build their
        # ground costs through one code path, so not even rounding differs;
        # without pruning, k spans the whole index, so that every candidate
        # is solved to the end
        rng = np.random.default_rng(9)
        table, docs = _random_corpus(rng, 50)
        tokens = dict(docs)
        index = build_index(docs, table, metric)
        for q in range(0, 50, 7):
            stats = SearchStats()
            hits = topk_query(docs[q][1], index, k=8 if pruning else 50, stats=stats)[:8]
            if not pruning:
                assert stats.exact_evaluations == 50
            assert hits == exhaustive_topk(docs[q][1], docs, table, metric, 8)
            for doc_id, distance in hits:
                assert distance == mover_distance(docs[q][1], tokens[doc_id], table, metric)

    def test_tie_broken_by_doc_id(self):
        table = make_table({"aa": [1, 0], "bb": [0, 1]})
        doc = _tokens("aa", "bb")
        index = build_index([("z", doc), ("a", doc), ("m", doc)], table, COSINE)
        assert topk_query(doc, index, k=3) == [("a", 0.0), ("m", 0.0), ("z", 0.0)]

    def test_k_must_be_positive(self):
        table = make_table({"aa": [1, 0]})
        index = build_index([("d", _tokens("aa"))], table, COSINE)
        with pytest.raises(ValueError):
            topk_query(_tokens("aa"), index, k=0)

    def test_empty_index(self):
        table = make_table({"aa": [1, 0]})
        index = build_index([], table, COSINE)
        with pytest.raises(ValueError, match="empty"):
            topk_query(_tokens("aa"), index, k=1)


class TestIndexPersistence:
    @pytest.mark.parametrize("metric", [COSINE, EUCLIDEAN])
    @pytest.mark.parametrize("pruning", [True, False])
    def test_loaded_index_returns_the_same_hits(self, tmp_path, metric, pruning):
        # both construction paths build their ground rows lazily from the
        # table, so the hits agree exactly, distances included; without
        # pruning, k spans the whole index, so that every candidate is
        # solved to the end
        rng = np.random.default_rng(12)
        table, docs = _random_corpus(rng, 40)
        index = build_index(docs, table, metric)
        path = tmp_path / "index.npz"
        save_index(path, index, GRAM3, "gram3-sgns", 0)
        loaded, granularity, method, _ = load_index(path)
        assert (loaded.metric, granularity, method) == (metric, GRAM3, "gram3-sgns")
        assert "rows" not in vars(index) and "rows" not in vars(loaded)  # not built yet
        k = 6 if pruning else 40
        for q in range(0, 40, 6):
            hits = topk_query(docs[q][1], index, k)
            assert topk_query(docs[q][1], loaded, k) == hits
            assert hits[:6] == exhaustive_topk(docs[q][1], docs, table, metric, 6)

    def test_saved_index_loads_with_equal_arrays_and_hits(self, tmp_path):
        rng = np.random.default_rng(15)
        table, docs = _random_corpus(rng, 30)
        docs.insert(4, ("unembeddable", _tokens("zz")))
        index = build_index(docs, table, COSINE)
        assert index.skipped == ["unembeddable"]
        path = tmp_path / "index.npz"
        save_index(path, index, GRAM3, "gram3-sgns", 0)
        loaded = load_index(path)[0]
        for name in ("doc_ids", "offsets", "supports", "weights", "skipped"):
            built, stored = np.asarray(getattr(index, name)), np.asarray(getattr(loaded, name))
            assert built.dtype == stored.dtype and np.array_equal(built, stored), name
        for q in range(0, 30, 5):
            assert topk_query(docs[q][1], loaded, 5) == topk_query(docs[q][1], index, 5)

    def test_save_index_writes_exactly_the_declared_arrays(self, tmp_path):
        rng = np.random.default_rng(16)
        table, docs = _random_corpus(rng, 8)
        path = tmp_path / "index.npz"
        save_index(path, build_index(docs, table, COSINE), GRAM3, "gram3-sgns", 7)
        with np.load(path, allow_pickle=False) as data:
            assert sorted(data.files) == sorted(_INDEX_ARRAYS)
            for name, (kind, ndim) in _INDEX_ARRAYS.items():
                assert (data[name].dtype.kind, data[name].ndim) == (kind, ndim), name


class TestBenchmarkContract:
    """What the traced benchmark run reads from the package."""

    @pytest.mark.parametrize("metric", [COSINE, EUCLIDEAN])
    def test_bound_and_solve_of_a_pair_share_one_cost_object(self, monkeypatch, metric):
        rng = np.random.default_rng(13)
        table, docs = _random_corpus(rng, 30)
        index = build_index(docs, table, metric)
        bounded, solved = [], []

        def recording(calls, function):
            def record(a, b, cost, **options):  # `emd_exact` also gets a cutoff
                calls.append((a, b, cost))
                return function(a, b, cost, **options)

            return record

        monkeypatch.setattr(mover, "rwmd", recording(bounded, mover.rwmd))
        monkeypatch.setattr(mover, "emd_exact", recording(solved, mover.emd_exact))
        topk_query(docs[0][1], index, k=4)
        assert len(bounded) == 30 and 4 <= len(solved) < 30
        bound_costs = {id(b): cost for _, b, cost in bounded}
        for a, b, cost in solved:
            assert a is bounded[0][0]
            assert bound_costs[id(b)] is cost

    def test_entries_expose_doc_id_and_support(self):
        rng = np.random.default_rng(14)
        table, docs = _random_corpus(rng, 12)
        index = build_index(docs, table, COSINE)
        tokens = dict(docs)
        assert [entry.doc_id for entry in index.entries] == list(tokens)
        for entry in index.entries:
            assert len(entry.hist.support) == len(set(tokens[entry.doc_id].tokens))

    def test_every_traced_function_exists(self):
        trace = Path(__file__).resolve().parent.parent / "bench" / "trace.py"
        traced = next(
            node.value
            for node in ast.parse(trace.read_text()).body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
        )
        names = [(item.elts[0].value, item.elts[1].value) for item in traced.elts]
        assert ("mover", "emd_exact") in names
        for module, function in names:
            assert callable(getattr(importlib.import_module(f"gram_mover.{module}"), function))


class TestBuildIndex:
    def test_unembeddable_doc_skipped_and_logged(self, caplog):
        table = make_table({"aa": [1, 0]})
        docs = [("good", _tokens("aa")), ("bad", _tokens("zz"))]
        with caplog.at_level("WARNING"):
            index = build_index(docs, table, COSINE)
        assert [e.doc_id for e in index.entries] == ["good"]
        assert index.skipped == ["bad"]
        assert any("bad" in r.getMessage() for r in caplog.records)

    def test_unknown_metric_raises_instead_of_skipping(self):
        table = make_table({"aa": [1, 0]})
        with pytest.raises(ValueError, match="metric"):
            build_index([("good", _tokens("aa"))], table, "manhattan")


class TestMoverIndexChecks:
    """`MoverIndex` checks its CSR arrays when built, with no file involved."""

    TABLE = make_table({"aa": [1, 0], "bb": [0, 1], "cc": [1, 1]})

    @staticmethod
    def _arrays(**changed):
        """Two documents, {aa, bb} and {cc}, with the arrays in `changed`
        replaced."""
        arrays = {
            "doc_ids": np.array(["d0", "d1"]),
            "offsets": np.array([0, 2, 3]),
            "supports": np.array([0, 1, 2]),
            "weights": np.array([0.5, 0.5, 1.0]),
        }
        return {**arrays, **{name: np.array(value) for name, value in changed.items()}}

    def test_each_entry_views_its_run_of_the_arrays(self):
        index = MoverIndex(self.TABLE, COSINE, **self._arrays())
        assert [entry.doc_id for entry in index.entries] == ["d0", "d1"]
        assert index.entries[1].hist.support.tolist() == [2]
        for entry in index.entries:
            assert np.shares_memory(entry.hist.support, index.supports)
            assert np.shares_memory(entry.hist.weights, index.weights)

    @pytest.mark.parametrize(
        "changed, message",
        [
            ({"doc_ids": ["d0"]}, "doc_ids has 1 entries, but offsets delimits 2 documents"),
            ({"offsets": [1, 2, 3]}, "offsets must start at 0"),
            ({"offsets": [0, 0, 3]}, "offsets must start at 0, rise at every document"),
            ({"offsets": [0, 2, 4]}, "and end at 3, the length of supports"),
            ({"weights": [0.5, 0.5]}, "weights has 2 entries, supports has 3"),
            ({"supports": [0, 1, 3]}, r"supports holds ids outside \[0, 3\)"),
            ({"supports": [-1, 1, 2]}, r"supports holds ids outside \[0, 3\)"),
        ],
        ids=[
            "doc_ids", "offsets start", "empty document", "offsets end", "weights",
            "support past vocabulary", "negative support",
        ],
    )
    def test_arrays_that_do_not_fit_together_are_rejected(self, changed, message):
        with pytest.raises(ValueError, match=message):
            MoverIndex(self.TABLE, COSINE, **self._arrays(**changed))

    def test_bad_histogram_names_its_document(self):
        with pytest.raises(ValueError, match="document 'd1': weights must be strictly positive"):
            MoverIndex(self.TABLE, COSINE, **self._arrays(weights=[0.5, 0.5, np.nan]))

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(ValueError, match="unknown ground metric 'manhattan'"):
            MoverIndex(self.TABLE, "manhattan", **self._arrays())


class TestSolverError:
    def test_carries_instance(self):
        err = SolverError("boom", instance={"a": [1.0]})
        assert err.instance == {"a": [1.0]}
        assert "boom" in str(err)

    def test_emd_exact_attaches_the_instance(self, monkeypatch):
        def fail(a, b, cost, *, cutoff):
            raise SolverError("no convergence")

        monkeypatch.setattr("gram_mover.mover._network_simplex", fail)
        a = make_histogram([0.25, 0.75])
        b = make_histogram([1.0])
        with pytest.raises(SolverError) as caught:
            emd_exact(a, b, make_cost([[0.5], [0.25]]))
        assert caught.value.instance == {
            "a": [0.25, 0.75], "b": [1.0], "cost": [[0.5], [0.25]]
        }

    def test_nan_flow_fails_the_marginal_check(self, monkeypatch):
        def nan_flow(a, b, cost, *, cutoff):
            return np.full(cost.shape, np.nan), np.zeros(len(a)), np.zeros(len(b)), 0

        monkeypatch.setattr("gram_mover.mover._network_simplex", nan_flow)
        a = make_histogram([0.25, 0.75])
        b = make_histogram([1.0])
        with pytest.raises(SolverError, match="marginals") as caught:
            emd_exact(a, b, make_cost([[0.5], [0.25]]))
        assert caught.value.instance["cost"] == [[0.5], [0.25]]
