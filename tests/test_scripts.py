"""Smoke runs of the study scripts under scripts/ and of README's Library
examples and Quick start commands, which no other test imports: they call
the package's public functions and flags, and break silently when a
signature or a flag changes."""

from __future__ import annotations

import importlib.util
import json
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import pytest

from gram_mover.cli import build_parser
from gram_mover.synth import CorpusConfig

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_planted_experiment_runs_every_method(tmp_path, capsys):
    script = _load("run_planted_experiment")
    out = tmp_path / "result.json"
    argv = [
        "--train-size", "30", "--planted", "3", "--fresh", "2", "--pool-size", "10",
        "--dimension", "8", "--window", "3", "--epochs", "1", "--k", "3",
        "--json", str(out),
    ]
    assert script.main(argv) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert [row["method"] for row in rows] == ["gram3-sgns", "word-sgns", "tfidf-baseline"]
    assert all(0.0 <= row["recall"] <= 1.0 for row in rows)
    assert rows[0]["exact_evaluations"] > 0
    assert "gram3-sgns" in capsys.readouterr().out


def test_planted_experiment_corpus_defaults_are_corpus_config_defaults():
    args = vars(_load("run_planted_experiment").parse_args([]))
    defaults = asdict(CorpusConfig())
    assert {name: args[name] for name in defaults} == defaults


def test_classifier_study_runs_both_model_kinds(tmp_path, capsys):
    script = _load("run_classifier_study")
    out = tmp_path / "result.json"
    assert script.main(["--positives", "6", "--negatives", "30", "--json", str(out)]) == 0
    models = json.loads(out.read_text(encoding="utf-8"))["models"]
    assert sorted(models) == ["logistic-regression", "random-forest"]
    assert all(0.0 <= model["f1"] <= 1.0 for model in models.values())
    printed = capsys.readouterr().out
    assert "logistic-regression" in printed and "random-forest" in printed


def _library_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", library, re.DOTALL)


def test_readme_library_example_runs():
    block = _library_blocks()[0]
    texts = ["にんじんを切って塩を振る", "にんじんを切って煮る", "玉ねぎを切って炒める"] * 4
    names = {"texts": texts}
    exec(block, names)
    hits = names["hits"]
    assert len(hits) == 5
    assert [distance for _, distance in hits] == sorted(distance for _, distance in hits)
    best_id, best = hits[0]
    query = names["char_ngrams"]("にんじんを切る", 3)
    doc = dict(names["docs"])[best_id]
    assert names["mover_distance"](query, doc, names["table"]) == pytest.approx(best, abs=1e-12)


def test_readme_extraction_example_runs():
    blocks = _library_blocks()
    assert len(blocks) == 2
    names: dict = {}
    exec(blocks[1], names)
    test, train, truth = names["test"], names["train"], names["truth"]
    assert names["stats"].queries_total == len(test)
    for pairs, method in ((names["mover_pairs"], "gram3-sgns"), (names["tfidf_pairs"], "tfidf-baseline")):
        assert pairs and {pair.method for pair in pairs} == {method}
        assert all(pair.query_id in test and pair.candidate_id in train for pair in pairs)
    found = {(pair.query_id, pair.candidate_id) for pair in names["mover_pairs"]}
    assert any((t.test_id, t.train_id) in found for t in truth)


def test_readme_quick_start_commands_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", quick_start, re.DOTALL).group(1)
    commands = [
        shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("gram-mover ")
    ]
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
