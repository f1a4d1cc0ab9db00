"""Command-line coverage: configuration precedence, exit codes, artifact
chaining across subcommands, and deterministic corpus synthesis."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import gram_mover
from gram_mover.cli import (
    CliConfig,
    ConfigError,
    build_parser,
    load_index,
    main,
    resolve_config,
)
from gram_mover.corpus import (
    Corpus,
    PairLabel,
    Recipe,
    load_corpus,
    recipe_to_record,
    save_corpus,
)
from gram_mover.embed import SgnsConfig, load_vectors
from gram_mover.mover import CostMatrix, GramHistogram, SolverError, emd_exact
from gram_mover.pipeline import CandidatePair, load_pairs, save_pairs
from gram_mover.synth import generate_corpus, load_truth
from oracles import certify_optimal

SMALL_SYNTH = (
    "--seed", 11, "--train-size", 40, "--planted", 6, "--fresh", 3, "--pool-size", 30,
)
# subsampling off and min_count 1: the tiny corpus must keep every gram
SMALL_SGNS = (
    "--seed", 11, "--dimension", 16, "--window", 3, "--epochs", 2,
    "--min-count", 1, "--subsample-threshold", 0, "--noise-table-size", 10_000,
)


@pytest.fixture(autouse=True)
def _fresh_logging():
    """main() configures the root logger once per process; drop handlers
    around each test so logs always land in the stderr pytest is capturing."""
    root = logging.getLogger()
    for handler in root.handlers[:]:
        root.removeHandler(handler)
    yield
    for handler in root.handlers[:]:
        root.removeHandler(handler)


def run(*argv) -> int:
    return main([str(part) for part in argv])


def parse(*argv):
    return build_parser().parse_args([str(part) for part in argv])


def _tiny_corpus(path):
    recipes = [
        Recipe(
            id="train-0001",
            title="carrot dish",
            ingredients=("ニンジン", "塩"),
            instructions="ニンジンを切って塩を振る",
            published=date(2016, 7, 1),
        ),
        Recipe(
            id="train-0002",
            title="potato dish",
            ingredients=("ジャガイモ", "塩"),
            instructions="ジャガイモを茹でて塩を振る",
            published=date(2016, 7, 2),
        ),
        Recipe(
            id="test-0001",
            title="carrot again",
            ingredients=("ニンジン", "塩"),
            instructions="ニンジンを切って塩を振ります",
            published=date(2016, 11, 2),
        ),
    ]
    save_corpus(Corpus.from_recipes(recipes), path)
    return path


def _pair(query_id, candidate_id, distance, ingredients, label):
    return CandidatePair(
        query_id=query_id,
        candidate_id=candidate_id,
        method="gram3-sgns",
        instruction_distance=distance,
        ingredients_distance=ingredients,
        label=label,
    )


class TestConfigResolution:
    def test_defaults(self):
        config = resolve_config(parse("report"))
        assert config.k == 10
        assert config.threshold == 2
        assert config.granularity == "gram3"
        assert config.metric == "cosine"
        assert config.out == "out"
        assert config.cutoff == date(2016, 10, 31)

    def test_config_file_values_apply(self, tmp_path):
        path = tmp_path / "settings.cfg"
        path.write_text("# retrieval\nk = 3\nseed=9\n\nmetric=euclidean\n", encoding="utf-8")
        config = resolve_config(parse("report", "--config", path))
        assert config.k == 3
        assert config.seed == 9
        assert config.metric == "euclidean"

    def test_cli_flag_beats_config_file(self, tmp_path):
        path = tmp_path / "settings.cfg"
        path.write_text("k=3\nseed=9\n", encoding="utf-8")
        config = resolve_config(parse("report", "--config", path, "--k", 7))
        assert config.k == 7
        assert config.seed == 9

    def test_boolean_coercion(self, tmp_path):
        path = tmp_path / "settings.cfg"
        cases = [
            ("true", True), ("yes", True), ("1", True),
            ("false", False), ("no", False), ("0", False),
        ]
        for raw, expected in cases:
            path.write_text(f"baseline_words={raw}\n", encoding="utf-8")
            config = resolve_config(parse("baseline", "--config", path))
            assert config.baseline_words is expected

    def test_bad_boolean_names_the_field(self, tmp_path):
        path = tmp_path / "settings.cfg"
        path.write_text("baseline_words=maybe\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("baseline", "--config", path))
        assert err.value.field == "baseline_words"

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "settings.cfg"
        path.write_text("bogus=1\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--config", path))
        assert err.value.field == "bogus"
        assert ":1" in str(err.value)

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "settings.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--config", path))
        assert err.value.field == "config"

    def test_missing_config_file(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--config", "no-such.cfg"))
        assert err.value.field == "config"

    def test_cutoff_parsed_and_validated(self):
        config = resolve_config(parse("report", "--cutoff", "2016-07-01"))
        assert config.cutoff == date(2016, 7, 1)
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--cutoff", "2016-13-01"))
        assert err.value.field == "cutoff"

    def test_range_validation_names_the_field(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--k", 0))
        assert err.value.field == "k"
        path = tmp_path / "settings.cfg"
        path.write_text("granularity=gram4\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--config", path))
        assert err.value.field == "granularity"
        path.write_text("typo_rate=1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--config", path))
        assert err.value.field == "typo_rate"

    def test_external_embedding_source_must_exist(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--embedding-source", "no-such.vec"))
        assert err.value.field == "embedding_source"


def _sgns_rejects(name, value) -> bool:
    try:
        SgnsConfig(**{name: value}).validated()
    except ValueError:
        return True
    return False


class TestOneDeclarationPerSetting:
    """`CliConfig` and `SgnsConfig` declare each setting's name, type and
    default; config-file keys, flags and coercion follow them."""

    def test_every_field_is_a_config_file_key_coerced_to_its_type(self, tmp_path):
        vectors = tmp_path / "external.vec"
        vectors.write_text("1 1\na 0.5\n", encoding="utf-8")
        strings = {
            "corpus": "corpus.jsonl", "granularity": "word", "embedding_source": str(vectors),
            "metric": "euclidean", "out": "elsewhere",
        }
        expected = {}
        for f in fields(CliConfig):
            if isinstance(f.default, bool):
                expected[f.name] = not f.default
            elif isinstance(f.default, int):
                expected[f.name] = f.default + 1
            elif isinstance(f.default, float):
                expected[f.name] = f.default / 2
            elif isinstance(f.default, date):
                expected[f.name] = f.default - timedelta(days=1)
            else:
                expected[f.name] = strings[f.name]
        path = tmp_path / "settings.cfg"
        path.write_text(
            "".join(f"{name}={value}\n" for name, value in expected.items()), encoding="utf-8"
        )
        config = resolve_config(parse("synth-corpus", "--config", path))
        hints = get_type_hints(CliConfig)
        for name, value in expected.items():
            assert getattr(config, name) == value, name
            assert isinstance(getattr(config, name), hints[name]), name

    def test_every_sgns_field_but_seed_has_a_flag_of_its_type(self):
        hints = get_type_hints(SgnsConfig)
        for f in fields(SgnsConfig):
            if f.name == "seed":
                continue
            value = getattr(parse("train-embeddings", f"--{f.name.replace('_', '-')}", 3), f.name)
            assert type(value) is hints[f.name] and value == 3, f.name
        assert CliConfig().sgns_config() == SgnsConfig()

    def test_values_sgns_rejects_name_their_field(self, tmp_path):
        path = tmp_path / "settings.cfg"
        rejected = set()
        for f in fields(SgnsConfig):
            for bad in (-1, 0):
                if not _sgns_rejects(f.name, bad):
                    continue
                rejected.add(f.name)
                path.write_text(f"{f.name}={bad}\n", encoding="utf-8")
                with pytest.raises(ConfigError) as err:
                    resolve_config(parse("train-embeddings", "--config", path))
                assert err.value.field == f.name
        # every SGNS field has a bound except the seed and the subsampling threshold
        assert rejected == {f.name for f in fields(SgnsConfig)} - {"seed", "subsample_threshold"}

    def test_nan_subsample_threshold_is_rejected(self, tmp_path):
        assert _sgns_rejects("subsample_threshold", float("nan"))
        path = tmp_path / "settings.cfg"
        path.write_text("subsample_threshold=nan\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("train-embeddings", "--config", path))
        assert err.value.field == "subsample_threshold"

    @pytest.mark.parametrize(
        "command,flag,value,field",
        [
            ("train-embeddings", "--min-count", 0, "min_count"),
            ("train-embeddings", "--initial-step-size", -1, "initial_step_size"),
            ("train-embeddings", "--final-step-size", 0, "final_step_size"),
            ("train-embeddings", "--subsample-threshold", "nan", "subsample_threshold"),
            ("synth-corpus", "--train-size", -1, "train_size"),
            ("synth-corpus", "--planted", -1, "planted"),
            ("synth-corpus", "--fresh", -3, "fresh"),
            ("synth-corpus", "--pool-size", 4, "pool_size"),
            ("synth-corpus", "--planted", 941, "planted"),  # more than the 940 train recipes
        ],
    )
    def test_out_of_bounds_value_exits_2_naming_the_field(
        self, tmp_path, capsys, command, flag, value, field
    ):
        out = tmp_path / "out"
        assert run(command, "--out", out, flag, value) == 2
        assert f"config error: {field}: must be" in capsys.readouterr().err
        assert not out.exists()


class TestThreadsFlag:
    """`--threads` survives only as the value 1, which the benchmark passes to
    every stage; search and training always run on one thread."""

    @pytest.mark.parametrize(
        "command",
        [
            "synth-corpus", "train-embeddings", "build-index", "extract-candidates",
            "baseline", "classify", "report",
        ],
    )
    def test_every_subcommand_parses_threads_1(self, command):
        args = parse(command, "--threads", 1)
        assert args.threads == 1
        resolve_config(args)

    def test_threads_above_one_exits_2_naming_the_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("report", "--out", tmp_path, "--threads", 2)
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_in_a_config_file_is_an_unknown_setting(self, tmp_path, capsys):
        path = tmp_path / "settings.cfg"
        path.write_text("threads = 2\n", encoding="utf-8")
        assert run("report", "--out", tmp_path, "--config", path) == 2
        err = capsys.readouterr().err
        assert "threads" in err and "unknown setting" in err


class TestExitCodes:
    def test_missing_corpus_setting_is_a_config_error(self, tmp_path, capsys):
        assert run("train-embeddings", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "corpus" in err

    def test_invalid_flag_value(self, tmp_path, capsys):
        assert run("synth-corpus", "--out", tmp_path, "--k", 0) == 2
        assert "k: must be >= 1" in capsys.readouterr().err

    def test_missing_vectors_names_the_producer(self, tmp_path, capsys):
        corpus = _tiny_corpus(tmp_path / "corpus.jsonl")
        assert run("build-index", "--corpus", corpus, "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "missing artifact" in err
        assert "train-embeddings" in err

    def test_missing_index_names_the_producer(self, tmp_path, capsys):
        corpus = _tiny_corpus(tmp_path / "corpus.jsonl")
        assert run("extract-candidates", "--corpus", corpus, "--out", tmp_path / "out") == 3
        assert "build-index" in capsys.readouterr().err

    def test_missing_pairs_file(self, tmp_path, capsys):
        missing = tmp_path / "no-such.jsonl"
        assert run("classify", "--out", tmp_path, "--pairs", missing) == 3
        assert "extract-candidates" in capsys.readouterr().err

    def test_report_without_candidates(self, tmp_path, capsys):
        assert run("report", "--out", tmp_path) == 3
        assert "extract-candidates" in capsys.readouterr().err

    def test_malformed_corpus_is_a_plain_error(self, tmp_path, capsys):
        line = recipe_to_record(
            Recipe(
                id="train-0001",
                title="t",
                ingredients=("塩",),
                instructions="塩を振る",
                published=date(2016, 7, 1),
            )
        )
        record = json.loads(line)
        record["id"] = ""
        bad = tmp_path / "corpus.jsonl"
        bad.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert run("build-index", "--corpus", bad, "--out", tmp_path / "out") == 1
        assert "error" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_corpus_and_truth(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("synth-corpus", "--out", out, *SMALL_SYNTH) == 0
        assert capsys.readouterr().out == ""
        corpus = load_corpus(out / "corpus.jsonl")
        assert len(corpus) == 49
        truth = load_truth(out / "truth.jsonl")
        assert len(truth) == 6
        assert all(pair.test_id in corpus and pair.train_id in corpus for pair in truth)

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run("synth-corpus", "--out", out, *SMALL_SYNTH) == 0
        assert (first / "corpus.jsonl").read_bytes() == (second / "corpus.jsonl").read_bytes()
        assert (first / "truth.jsonl").read_bytes() == (second / "truth.jsonl").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("synth-corpus", "--out", first, *SMALL_SYNTH) == 0
        assert run("synth-corpus", "--out", second, "--seed", 12, *SMALL_SYNTH[2:]) == 0
        assert (first / "corpus.jsonl").read_bytes() != (second / "corpus.jsonl").read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth-corpus", "--out", out, *SMALL_SYNTH) == 0
        assert not list(out.glob("*.tmp"))


class TestTrainEmbeddingsCommand:
    def test_logs_the_fixed_ingredient_settings(self, tmp_path, caplog):
        corpus = _tiny_corpus(tmp_path / "corpus.jsonl")
        with caplog.at_level("INFO"):
            assert run(
                "train-embeddings", "--corpus", corpus, "--out", tmp_path, *SMALL_SGNS
            ) == 0
        logged = [
            r.getMessage() for r in caplog.records
            if r.levelname == "INFO" and "ingredient embeddings use fixed settings" in r.getMessage()
        ]
        # --dimension 16 reaches the instruction table only
        assert len(logged) == 1
        assert "dimension=50" in logged[0] and "seed=12" in logged[0]
        assert load_vectors(tmp_path / "embeddings-ingredients.vec").dimension == 50
        assert load_vectors(tmp_path / "embeddings-gram3.vec").dimension == 16

    def test_degenerate_ingredient_lists_fail_here(self, tmp_path, capsys):
        # every recipe lists one ingredient: no ingredient document has a context
        recipes = [
            Recipe(
                id=f"train-{i:04d}",
                title="salted",
                ingredients=("塩",),
                instructions=f"塩を{i}回振って焼く",
                published=date(2016, 7, 1 + i),
            )
            for i in range(8)
        ]
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(Corpus.from_recipes(recipes), corpus)
        assert run("train-embeddings", "--corpus", corpus, "--out", tmp_path, *SMALL_SGNS) == 1
        err = capsys.readouterr().err
        assert "error: ingredient lists" in err
        assert not list(tmp_path.glob("*.vec"))  # neither table is written

    def test_vectors_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a corpus the size of a benchmark round: 200 train recipes, gram3, dimension 50
        corpus, _ = generate_corpus(seed=100, train_size=200, planted=10, fresh=2)
        save_corpus(corpus, tmp_path / "corpus.jsonl")
        source = str(Path(gram_mover.__file__).resolve().parents[1])
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas-threads-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
            subprocess.run(
                [
                    sys.executable, "-m", "gram_mover", "train-embeddings",
                    "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out),
                    "--granularity", "gram3", "--seed", "100", "--dimension", "50",
                    "--window", "5", "--epochs", "4", "--min-count", "1",
                    "--subsample-threshold", "0", "--noise-table-size", "100000",
                ],
                env=env, check=True, capture_output=True,
            )
            written.append({path.name: path.read_bytes() for path in out.glob("embeddings-*.vec")})
        assert sorted(written[0]) == ["embeddings-gram3.vec", "embeddings-ingredients.vec"]
        assert written[0] == written[1]


class TestClassifyCommand:
    def _labeled_pool(self, path):
        pairs = []
        for i in range(8):
            pairs.append(
                _pair(f"test-dup-{i:02d}", f"train-{i:04d}", 0.02 + 0.01 * i, 0,
                      PairLabel.NEAR_DUPLICATE)
            )
        for i in range(16):
            label = PairLabel.NON_DUPLICATE_A if i % 2 else PairLabel.NON_DUPLICATE_B
            pairs.append(
                _pair(f"test-new-{i:02d}", f"train-{100 + i:04d}", 0.5 + 0.02 * i,
                      1 + i % 2, label)
            )
        save_pairs(pairs, path)

    def test_trains_both_models_on_labeled_pairs(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        self._labeled_pool(out / "candidates-gram3-sgns.jsonl")
        assert run("classify", "--out", out) == 0
        assert capsys.readouterr().out == ""
        summary = json.loads((out / "classifier-metrics.json").read_text(encoding="utf-8"))
        assert summary["examples"] == 24
        assert summary["balanced"] == 16
        assert set(summary["models"]) == {"logistic-regression", "random-forest"}
        for model in summary["models"].values():
            assert model["f1"] >= 0.99
            assert model["grid"]
            assert model["best_params"]
        table = (out / "classifier-metrics.txt").read_text(encoding="utf-8")
        assert table.splitlines()[0].startswith("model")
        assert "logistic-regression" in table
        assert "random-forest" in table

    def test_explicit_pairs_flag(self, tmp_path):
        pairs_path = tmp_path / "pool.jsonl"
        self._labeled_pool(pairs_path)
        out = tmp_path / "out"
        assert run("classify", "--out", out, "--pairs", pairs_path) == 0
        assert (out / "classifier-metrics.json").is_file()

    def test_unlabeled_pairs_cannot_train(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        save_pairs(
            [_pair("q", "c", 0.1, 0, PairLabel.UNLABELED)],
            out / "candidates-gram3-sgns.jsonl",
        )
        assert run("classify", "--out", out) == 1
        assert "no labeled pairs" in capsys.readouterr().err

    def test_single_thread_does_not_warn(self, tmp_path, caplog):
        pairs_path = tmp_path / "pool.jsonl"
        self._labeled_pool(pairs_path)
        with caplog.at_level("WARNING"):
            assert run(
                "classify", "--out", tmp_path / "out", "--pairs", pairs_path, "--threads", 1
            ) == 0
        assert not any("threads" in r.getMessage() for r in caplog.records)

    def test_single_class_cannot_train(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        save_pairs(
            [_pair(f"q{i}", f"c{i}", 0.1, 0, PairLabel.NEAR_DUPLICATE) for i in range(3)],
            out / "candidates-gram3-sgns.jsonl",
        )
        assert run("classify", "--out", out) == 1
        assert "cannot undersample" in capsys.readouterr().err


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full artifact chain on a small synthetic corpus, shared by the
    assertions below."""
    logging.getLogger().handlers.clear()
    out = tmp_path_factory.mktemp("chain")
    argv_chain = [
        ["synth-corpus", "--out", out, *SMALL_SYNTH],
        ["train-embeddings", "--corpus", out / "corpus.jsonl", "--out", out, *SMALL_SGNS],
        ["build-index", "--corpus", out / "corpus.jsonl", "--out", out],
        ["extract-candidates", "--corpus", out / "corpus.jsonl", "--out", out, "--k", 5],
        ["baseline", "--corpus", out / "corpus.jsonl", "--out", out, "--k", 5],
        ["report", "--out", out],
    ]
    for argv in argv_chain:
        assert main([str(part) for part in argv]) == 0
    return out


class TestFullChain:
    def test_artifacts_exist(self, chain):
        names = (
            "corpus.jsonl",
            "truth.jsonl",
            "embeddings-gram3.vec",
            "embeddings-ingredients.vec",
            "index-gram3.npz",
            "candidates-gram3-sgns.jsonl",
            "candidates-tfidf-baseline.jsonl",
            "report.json",
            "report.txt",
        )
        for name in names:
            assert (chain / name).is_file()
        assert not list(chain.glob("*.tmp"))

    def test_instruction_vectors_load(self, chain):
        table = load_vectors(chain / "embeddings-gram3.vec")
        assert table.dimension == 16
        assert len(table.vocab.tokens) > 0

    def test_index_roundtrip(self, chain):
        index, granularity, method = load_index(chain / "index-gram3.npz")
        assert granularity == "gram3"
        assert method == "gram3-sgns"
        assert index.metric == "cosine"
        assert len(index.entries) == 40
        assert index.skipped == []
        assert all(entry.doc_id.startswith("train-") for entry in index.entries)

    def test_candidates_are_filtered_test_train_pairs(self, chain):
        pairs = load_pairs(chain / "candidates-gram3-sgns.jsonl")
        assert pairs
        for pair in pairs:
            assert pair.method == "gram3-sgns"
            assert pair.query_id.startswith("test-")
            assert pair.candidate_id.startswith("train-")
            assert pair.instruction_distance >= 0.0
            assert pair.ingredients_distance <= 2
            assert pair.label is PairLabel.UNLABELED

    def test_most_planted_duplicates_recovered(self, chain):
        truth = load_truth(chain / "truth.jsonl")
        pairs = load_pairs(chain / "candidates-gram3-sgns.jsonl")
        found = {(pair.query_id, pair.candidate_id) for pair in pairs}
        hits = sum((pair.test_id, pair.train_id) in found for pair in truth)
        assert hits >= len(truth) - 1

    def test_baseline_candidates_parse(self, chain):
        pairs = load_pairs(chain / "candidates-tfidf-baseline.jsonl")
        assert pairs
        assert all(pair.method == "tfidf-baseline" for pair in pairs)
        assert all(0.0 <= pair.instruction_distance <= 1.0 for pair in pairs)

    def test_report_covers_both_methods(self, chain):
        summary = json.loads((chain / "report.json").read_text(encoding="utf-8"))
        assert set(summary["methods"]) == {"gram3-sgns", "tfidf-baseline"}
        gram = summary["methods"]["gram3-sgns"]
        assert gram["total"] == len(load_pairs(chain / "candidates-gram3-sgns.jsonl"))
        assert gram["labels"]["unlabeled"]["count"] == gram["total"]
        text = (chain / "report.txt").read_text(encoding="utf-8")
        assert "gram3-sgns" in text
        assert "tfidf-baseline" in text

    def test_report_accepts_explicit_pair_files(self, chain, tmp_path):
        out = tmp_path / "solo"
        pairs = chain / "candidates-gram3-sgns.jsonl"
        assert run("report", "--out", out, "--pairs", pairs) == 0
        summary = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(summary["methods"]) == {"gram3-sgns"}

    def test_external_embedding_source(self, chain, tmp_path):
        out = tmp_path / "ext"
        out.mkdir()
        corpus = chain / "corpus.jsonl"
        vectors = chain / "embeddings-gram3.vec"
        code = run(
            "build-index", "--corpus", corpus, "--out", out,
            "--embedding-source", vectors,
        )
        assert code == 0
        index, _, method = load_index(out / "index-gram3.npz")
        assert method == "gram3-external"
        assert len(index.entries) == 40
        ingredients = chain / "embeddings-ingredients.vec"
        (out / "embeddings-ingredients.vec").write_bytes(ingredients.read_bytes())
        assert run("extract-candidates", "--corpus", corpus, "--out", out, "--k", 5) == 0
        external = load_pairs(out / "candidates-gram3-external.jsonl")
        assert external
        assert all(pair.method == "gram3-external" for pair in external)


def _copy_chain_inputs(chain, out):
    """A fresh artifact directory holding the chain's corpus and vectors."""
    out.mkdir()
    for name in ("corpus.jsonl", "embeddings-gram3.vec", "embeddings-ingredients.vec"):
        (out / name).write_bytes((chain / name).read_bytes())
    return out


def _rewrite_index(path, change):
    """Rewrite an index file with `change` applied to its dict of arrays."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    change(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _support_past_vocabulary(arrays):
    arrays["supports"][-1] = len(arrays["tokens"])


def _one_doc_id_too_few(arrays):
    arrays["doc_ids"] = arrays["doc_ids"][:-1]


def _offsets_past_supports(arrays):
    arrays["offsets"][-1] += 3


def _one_weight_too_few(arrays):
    arrays["weights"] = arrays["weights"][:-1]


def _weight_not_positive(arrays):
    arrays["weights"][3] *= -1


def _empty_document(arrays):
    arrays["offsets"][1] = 0


def _support_id_repeated(arrays):
    assert arrays["offsets"][1] >= 2
    arrays["supports"][1] = arrays["supports"][0]


def _vectors_one_row_short(arrays):
    arrays["vectors"] = arrays["vectors"][:-1]


def _token_repeated(arrays):
    arrays["tokens"][1] = arrays["tokens"][0]


def _weights_missing(arrays):
    del arrays["weights"]


class TestExtractionChecks:
    @pytest.mark.parametrize(
        "corrupt, array",
        [
            (_support_past_vocabulary, "supports"),
            (_one_doc_id_too_few, "doc_ids"),
            (_offsets_past_supports, "offsets"),
            (_one_weight_too_few, "weights"),
            (_weight_not_positive, "weights"),
            (_empty_document, "offsets"),
            (_support_id_repeated, "supports"),
            (_vectors_one_row_short, "vectors"),
            (_token_repeated, "tokens"),
            (_weights_missing, "weights"),
            (lambda arrays: None, None),
        ],
        ids=[
            "supports", "doc_ids", "offsets", "weights", "weight not positive",
            "empty document", "support id repeated", "vectors", "tokens", "weights missing",
            "untouched",
        ],
    )
    def test_corrupt_index_arrays_are_rejected(self, chain, tmp_path, capsys, corrupt, array):
        out = _copy_chain_inputs(chain, tmp_path / "corrupt")
        path = out / "index-gram3.npz"
        path.write_bytes((chain / "index-gram3.npz").read_bytes())
        _rewrite_index(path, corrupt)
        capsys.readouterr()
        code = run("extract-candidates", "--corpus", out / "corpus.jsonl", "--out", out, "--k", 5)
        if array is None:
            assert code == 0
            assert len(load_index(path)[0].entries) == 40
            return
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err and array in err
        assert not (out / "candidates-gram3-sgns.jsonl").exists()

    def test_index_metric_must_match_the_configuration(self, chain, tmp_path, capsys):
        out = _copy_chain_inputs(chain, tmp_path / "metric")
        corpus = out / "corpus.jsonl"
        assert run("build-index", "--corpus", corpus, "--out", out, "--metric", "euclidean") == 0
        capsys.readouterr()
        code = run(
            "extract-candidates", "--corpus", corpus, "--out", out, "--metric", "cosine", "--k", 5
        )
        assert code == 2
        assert "metric" in capsys.readouterr().err
        assert not (out / "candidates-gram3-sgns.jsonl").exists()

    def test_solver_failure_leaves_a_replayable_instance(
        self, chain, tmp_path, capsys, monkeypatch
    ):
        out = _copy_chain_inputs(chain, tmp_path / "failure")
        corpus = out / "corpus.jsonl"
        assert run("build-index", "--corpus", corpus, "--out", out) == 0

        def failing_solver(a, b, cost, *, cutoff):
            raise SolverError("forced failure")

        monkeypatch.setattr("gram_mover.mover._network_simplex", failing_solver)
        capsys.readouterr()
        code = run("extract-candidates", "--corpus", corpus, "--out", out, "--k", 5)
        assert code == 4
        err = capsys.readouterr().err
        written = list((out / "solver-failures").glob("*.json"))
        assert len(written) == 1
        assert str(written[0]) in err
        monkeypatch.undo()

        record = json.loads(written[0].read_text(encoding="utf-8"))
        assert "forced failure" in record["message"]
        cost = CostMatrix(values=np.asarray(record["cost"]))
        a = GramHistogram(support=np.arange(len(record["a"])), weights=np.asarray(record["a"]))
        b = GramHistogram(support=np.arange(len(record["b"])), weights=np.asarray(record["b"]))
        _, plan = emd_exact(a, b, cost)
        certify_optimal(a.weights, b.weights, cost.values, plan, tol=1e-9)
