"""Smoke runs of the study scripts under scripts/, which no other test
imports: they call the package's public functions and break silently when
a signature changes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_classifier_study_runs_both_model_kinds(tmp_path, capsys):
    script = _load("run_classifier_study")
    out = tmp_path / "result.json"
    assert script.main(["--positives", "6", "--negatives", "30", "--json", str(out)]) == 0
    models = json.loads(out.read_text(encoding="utf-8"))["models"]
    assert sorted(models) == ["logistic-regression", "random-forest"]
    assert all(0.0 <= model["f1"] <= 1.0 for model in models.values())
    printed = capsys.readouterr().out
    assert "logistic-regression" in printed and "random-forest" in printed
