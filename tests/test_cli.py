"""Command-line coverage: configuration precedence, exit codes, artifact
chaining across subcommands, and deterministic corpus synthesis."""

from __future__ import annotations

import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
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
from gram_mover.embed import EmbeddingTable, SgnsConfig, Vocab, load_vectors, save_vectors
from gram_mover.mover import CostMatrix, GramHistogram, SolverError, emd_exact
from gram_mover.pipeline import CandidatePair, load_pairs, save_pairs
from gram_mover.synth import CORPUS_BOUNDS, CUTOFF, CorpusConfig, generate_corpus
from oracles import certify_optimal, load_truth

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
    save_corpus(Corpus(recipes), path)
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

    def test_repeated_key_names_the_key_and_both_lines(self, tmp_path, capsys):
        path = tmp_path / "settings.cfg"
        path.write_text("k=1\n# later\nseed=3\nk = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--config", path))
        assert err.value.field == "k"
        assert f"{path}:4" in err.value.reason and "line 1" in err.value.reason
        assert run("report", "--out", tmp_path / "out", "--config", path) == 2
        assert capsys.readouterr().err.startswith("config error: k: ")

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

    def test_config_file_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "settings.cfg"
        path.write_bytes(b"k=\xff\xfe\n")
        with pytest.raises(ConfigError) as err:
            resolve_config(parse("report", "--config", path))
        assert err.value.field == "config"
        assert err.value.reason.startswith(f"{path}: not UTF-8 text")
        assert run("report", "--out", tmp_path / "out", "--config", path) == 2
        assert capsys.readouterr().err.startswith(f"config error: config: {path}: not UTF-8 text")

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
        SgnsConfig(**{name: value})
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
            if isinstance(f.default, int):
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

    def test_synth_corpus_flags_are_the_corpus_fields_of_their_type(self):
        hints = get_type_hints(CorpusConfig)
        only_synth = set(vars(parse("synth-corpus"))) - set(vars(parse("train-embeddings")))
        assert only_synth == {f.name for f in fields(CorpusConfig)}
        for f in fields(CorpusConfig):
            value = getattr(parse("synth-corpus", f"--{f.name.replace('_', '-')}", 3), f.name)
            assert type(value) is hints[f.name] and value == 3, f.name

    def test_every_sgns_field_but_seed_has_a_flag_of_its_type(self):
        hints = get_type_hints(SgnsConfig)
        for f in fields(SgnsConfig):
            if f.name == "seed":
                continue
            value = getattr(parse("train-embeddings", f"--{f.name.replace('_', '-')}", 3), f.name)
            assert type(value) is hints[f.name] and value == 3, f.name

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
        # every SGNS field has a bound except the subsampling threshold
        assert rejected == {f.name for f in fields(SgnsConfig)} - {"subsample_threshold"}

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


def _past(comparison, bound):
    """The value nearest `bound` that fails `comparison`, and the nearest
    one that passes."""
    below = bound - 1 if isinstance(bound, int) else float(np.nextafter(bound, -np.inf))
    above = bound + 1 if isinstance(bound, int) else float(np.nextafter(bound, np.inf))
    return {">=": (below, bound), ">": (bound, above), "<=": (above, bound)}[comparison]


_SETTING_BOUNDS = [*CliConfig._BOUNDS, *CORPUS_BOUNDS]


class TestBoundsTables:
    """Each owner's bounds table is the only declaration of its settings'
    ranges: a value just past a bound, or NaN, fails wherever the setting
    is built, naming the field."""

    def test_every_numeric_setting_is_bounded(self):
        hints = get_type_hints(CliConfig)
        numeric = {f.name for f in fields(CliConfig) if hints[f.name] in (int, float)}
        assert numeric == {name for name, _, _ in _SETTING_BOUNDS} | {"subsample_threshold"}
        assert set(SgnsConfig._BOUNDS) <= set(CliConfig._BOUNDS)
        assert "_BOUNDS" not in {f.name for f in fields(CliConfig)}

    @pytest.mark.parametrize(
        "name,comparison,bound", _SETTING_BOUNDS, ids=[" ".join(map(str, row)) for row in _SETTING_BOUNDS]
    )
    def test_value_past_the_bound_or_nan_names_the_field(self, tmp_path, name, comparison, bound):
        bad, good = _past(comparison, bound)
        # planted 0 fits any train_size, so only the bound under test can fail
        assert getattr(CliConfig(**{"planted": 0, name: good}), name) == good
        builders = [lambda value: CliConfig(**{name: value})]
        if (name, comparison, bound) in SgnsConfig._BOUNDS:
            builders.append(lambda value: SgnsConfig(**{name: value}))
        if (name, comparison, bound) in CORPUS_BOUNDS:
            builders.append(lambda value: CorpusConfig(**{"planted": 0, name: value}))
            builders.append(lambda value: generate_corpus(**{"train_size": 3, "planted": 0, name: value}))
        path = tmp_path / "settings.cfg"
        for value in (bad, float("nan")):
            for build in builders:
                with pytest.raises(ConfigError) as err:
                    build(value)
                assert err.value.field == name and isinstance(err.value, ValueError)
            path.write_text(f"{name}={value!r}\n", encoding="utf-8")
            with pytest.raises(ConfigError) as err:
                resolve_config(parse("report", "--config", path))
            assert err.value.field == name

    def test_configs_are_frozen(self):
        for config in (SgnsConfig(), CliConfig()):
            with pytest.raises(FrozenInstanceError):
                config.seed = 2
        for config in (CorpusConfig(), CliConfig()):
            with pytest.raises(FrozenInstanceError):
                config.planted = 2


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


class TestNoBaselineWordsSetting:
    """The baseline always runs on 3-grams; the removed word switch is no
    flag and no config-file key."""

    def test_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("baseline", "--out", tmp_path, "--baseline-words")
        assert exit_info.value.code == 2
        assert "--baseline-words" in capsys.readouterr().err

    def test_config_file_key_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "settings.cfg"
        path.write_text("baseline_words=true\n", encoding="utf-8")
        assert run("baseline", "--out", tmp_path, "--config", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: baseline_words:") and "unknown setting" in err


class TestNoVerboseFlag:
    """The package logs nothing below INFO, so there is no switch to show
    more."""

    def test_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("report", "--out", tmp_path, "--verbose")
        assert exit_info.value.code == 2
        assert "--verbose" in capsys.readouterr().err


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

    def test_index_of_no_documents_is_not_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("synth-corpus", "--out", out, "--train-size", 20, "--planted", 2, "--fresh", 1) == 0
        vectors = tmp_path / "one.vec"
        vectors.write_text("1 2\nzzz 0.1 0.2\n", encoding="utf-8")
        capsys.readouterr()
        argv = ("--corpus", out / "corpus.jsonl", "--out", out, "--embedding-source", vectors)
        assert run("build-index", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vectors} embeds no train document (20 skipped)")
        assert f"{out / 'index-gram3.npz'} not written" in err
        assert not list(out.glob("index-*"))

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

    def test_corpus_error_names_the_field_once_and_the_line(self, tmp_path, capsys):
        corpus = _tiny_corpus(tmp_path / "corpus.jsonl")
        lines = corpus.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["published"] = "2016-1-1"
        lines[1] = json.dumps(record, ensure_ascii=False)
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("build-index", "--corpus", corpus, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: published: line 2: expected YYYY-MM-DD, got '2016-1-1'\n"
        )


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
        save_corpus(Corpus(recipes), corpus)
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
        index, granularity, method, _ = load_index(chain / "index-gram3.npz")
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

    def test_extract_log_reports_the_search_work(self, chain, caplog):
        before = (chain / "candidates-gram3-sgns.jsonl").read_bytes()
        with caplog.at_level("INFO"):
            assert run("extract-candidates", "--corpus", chain / "corpus.jsonl", "--out", chain, "--k", 5) == 0
        line = next(r.getMessage() for r in caplog.records if "candidate pairs from" in r.getMessage())
        assert re.search(
            r"\d+ exact distance evaluations, \d+ stopped early, \d+ held, "
            r"\d+ upper bounds, \d+ certified, \d+ pivots",
            line,
        ), line
        assert (chain / "candidates-gram3-sgns.jsonl").read_bytes() == before

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
        index, _, method, _ = load_index(out / "index-gram3.npz")
        assert method == "gram3-external"
        assert len(index.entries) == 40
        ingredients = chain / "embeddings-ingredients.vec"
        (out / "embeddings-ingredients.vec").write_bytes(ingredients.read_bytes())
        code = run(
            "extract-candidates", "--corpus", corpus, "--out", out, "--k", 5,
            "--embedding-source", vectors,
        )
        assert code == 0
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


def _as(name, dtype):
    def change(arrays):
        arrays[name] = arrays[name].astype(dtype)

    return change


def _train_digest_1d(arrays):
    arrays["train_digest"] = arrays["train_digest"].reshape(1)


def _doc_id_repeated(arrays):
    """The first document stored a second time, so every train id is still
    indexed, one of them twice."""
    lo, hi = arrays["offsets"][:2]
    arrays["doc_ids"] = np.append(arrays["doc_ids"], arrays["doc_ids"][0])
    arrays["supports"] = np.append(arrays["supports"], arrays["supports"][lo:hi])
    arrays["weights"] = np.append(arrays["weights"], arrays["weights"][lo:hi])
    arrays["offsets"] = np.append(arrays["offsets"], arrays["offsets"][-1] + hi - lo)


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
            (_as("supports", np.float64), "supports"),
            (_as("offsets", np.float64), "offsets"),
            (_as("vectors", str), "vectors"),
            (_as("weights", str), "weights"),
            (_train_digest_1d, "train_digest"),
            (lambda arrays: None, None),
        ],
        ids=[
            "supports", "doc_ids", "offsets", "weights", "weight not positive",
            "empty document", "support id repeated", "vectors", "tokens", "weights missing",
            "float supports", "float offsets", "string vectors", "string weights",
            "1-d train_digest", "untouched",
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

    def test_nan_weight_names_the_file_and_the_document(self, chain, tmp_path, capsys):
        out = _copy_chain_inputs(chain, tmp_path / "nan")
        path = out / "index-gram3.npz"
        path.write_bytes((chain / "index-gram3.npz").read_bytes())

        def nan_weight(arrays):
            arrays["weights"][arrays["offsets"][1]] = np.nan

        _rewrite_index(path, nan_weight)
        second_doc = str(load_index(chain / "index-gram3.npz")[0].entries[1].doc_id)
        capsys.readouterr()
        code = run("extract-candidates", "--corpus", out / "corpus.jsonl", "--out", out, "--k", 5)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err and "weights" in err and repr(second_doc) in err
        assert not (out / "candidates-gram3-sgns.jsonl").exists()

    @pytest.mark.parametrize(
        "edit, code",
        [
            (lambda r: replace(r, instructions="鍋に水を入れて沸かす"), 2),
            (lambda r: replace(r, instructions_tokens=("鍋", "に", "水")), 2),
            (lambda r: replace(r, title=r.title + "（改）"), 0),
            (lambda r: replace(r, ingredients=r.ingredients[:-1]), 0),
            (None, 0),
        ],
        ids=["instructions", "instructions tokens", "title", "ingredients", "record order"],
    )
    def test_index_from_other_instructions_exits_2(self, chain, tmp_path, capsys, edit, code):
        out = _copy_chain_inputs(chain, tmp_path / "stale")
        corpus = out / "corpus.jsonl"
        assert run("build-index", "--corpus", corpus, "--out", out) == 0
        recipes = list(load_corpus(corpus))
        if edit is None:
            recipes.reverse()
        else:
            at = next(i for i, recipe in enumerate(recipes) if recipe.id == "train-0000")
            recipes[at] = edit(recipes[at])
        save_corpus(Corpus(recipes), corpus)
        capsys.readouterr()
        assert run("extract-candidates", "--corpus", corpus, "--out", out, "--k", 5) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("config error: corpus:")
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

    @pytest.mark.parametrize("days", [-30, 3], ids=["earlier cutoff", "later cutoff"])
    def test_index_from_another_train_split_exits_2(self, chain, tmp_path, capsys, days):
        out = _copy_chain_inputs(chain, tmp_path / "split")
        (out / "index-gram3.npz").write_bytes((chain / "index-gram3.npz").read_bytes())
        cutoff = CUTOFF + timedelta(days=days)
        low, high = sorted((cutoff, CUTOFF))
        moved = [r for r in load_corpus(out / "corpus.jsonl") if low < r.published <= high]
        assert moved  # recipes the index's train side and this one disagree on
        capsys.readouterr()
        code = run(
            "extract-candidates", "--corpus", out / "corpus.jsonl", "--out", out, "--k", 5,
            "--cutoff", cutoff.isoformat(),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: corpus:")
        assert not (out / "candidates-gram3-sgns.jsonl").exists()

    def test_index_with_a_repeated_doc_id_exits_2(self, chain, tmp_path, capsys):
        out = _copy_chain_inputs(chain, tmp_path / "repeated")
        path = out / "index-gram3.npz"
        path.write_bytes((chain / "index-gram3.npz").read_bytes())
        _rewrite_index(path, _doc_id_repeated)
        assert len(load_index(path)[0].entries) == 41
        capsys.readouterr()
        code = run("extract-candidates", "--corpus", out / "corpus.jsonl", "--out", out, "--k", 5)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: corpus:")
        assert not (out / "candidates-gram3-sgns.jsonl").exists()

    def test_index_embedding_source_must_match_the_configuration(self, chain, tmp_path, capsys):
        out = _copy_chain_inputs(chain, tmp_path / "source")
        corpus = out / "corpus.jsonl"
        vectors = out / "embeddings-gram3.vec"
        assert run("build-index", "--corpus", corpus, "--out", out, "--embedding-source", vectors) == 0
        capsys.readouterr()
        code = run("extract-candidates", "--corpus", corpus, "--out", out, "--k", 5)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: embedding_source:")
        assert not list(out.glob("candidates-*.jsonl"))

    @pytest.mark.parametrize("change", ["rescaled", "reordered"])
    def test_index_built_from_other_vectors_exits_2(self, chain, tmp_path, capsys, change):
        # b.vec holds a.vec's tokens with other vectors, or a.vec's rows in
        # another order; either would search the index with the wrong rows
        out = _copy_chain_inputs(chain, tmp_path / "other-vectors")
        corpus = out / "corpus.jsonl"
        built = out / "a.vec"
        built.write_bytes((out / "embeddings-gram3.vec").read_bytes())
        table = load_vectors(built)
        if change == "rescaled":
            other = EmbeddingTable(table.vocab, table.vectors * 2.0 + 0.5)
        else:
            order = np.arange(len(table.vocab.tokens))[::-1]
            tokens = [table.vocab.tokens[i] for i in order]
            other = EmbeddingTable(Vocab(tokens, None), table.vectors[order])
        save_vectors(other, out / "b.vec")
        assert run("build-index", "--corpus", corpus, "--out", out, "--embedding-source", built) == 0
        capsys.readouterr()
        extract = ("extract-candidates", "--corpus", corpus, "--out", out, "--k", 5)
        assert run(*extract, "--embedding-source", out / "b.vec") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: embedding_source:")
        assert str(out / "b.vec") in err and "rerun build-index" in err
        assert not list(out.glob("candidates-*.jsonl"))
        assert run(*extract, "--embedding-source", built) == 0
        assert load_pairs(out / "candidates-gram3-external.jsonl")

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
