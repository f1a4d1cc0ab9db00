"""The traced benchmark run end to end, on one small round: every stage
exits 0, every function it wraps still exists, and it reports every
per-layer metric that BENCHMARK.json declares and the trace computes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import gram_mover

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _run(script: str, *argv: str) -> dict:
    """One benchmark helper in its own process; its last stdout line is JSON."""
    source = str(Path(gram_mover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave bench/ as checked out
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    seed = "100"  # round 0 of benchmark seed 1
    inputs = tmp_path / "inputs"
    _run("gen.py", "--workload", "planted-gram3", "--seed", seed, "--dir", str(inputs))
    traced = _run(
        "trace.py", "--workload", "planted-gram3", "--seed", seed, "--inputs", str(inputs),
        "--out", str(tmp_path / "out"), "--trace-file", str(tmp_path / "trace.json"),
    )
    assert traced["missing"] == []
    assert set(traced["exits"].values()) == {0}, traced["exits"]
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    # bench/run.py adds each stage's cpu_s and offcpu_s from its own timed rounds
    from_trace = [
        name for name in declared
        if not (name.startswith("cli.") and name.endswith((".cpu_s", ".offcpu_s")))
    ]
    assert len(from_trace) == 32
    assert sorted(set(from_trace) - set(traced["metrics"])) == []
