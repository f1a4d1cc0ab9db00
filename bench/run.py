"""Steady benchmark of the gram-mover CLI chain.

    python3 bench/run.py --workload planted-gram3 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`). One run:

1. runs whole rounds of the chain `train-embeddings -> build-index ->
   extract-candidates -> baseline -> classify -> report` until about
   `--seconds` have been measured. Each round first writes inputs of its own
   from `--seed` and the round number (bench/gen.py, untimed). Each stage is
   its own `python -m gram_mover` process at `--threads 1`, timed from
   outside, with CPU time and peak RSS read from that child's own rusage
   (`os.wait4`);
2. with `--trace 1`, runs round 0's stages once more in one process with
   timing wrappers around the package's functions (bench/trace.py);
3. checks every round's outputs against computations made apart from the
   program (bench/check.py, which uses scipy's HiGHS).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics (over all
rounds) with `--trace 0` and the per-layer metrics with `--trace 1`. Each
stage of each round and each checked query is one operation. This process
imports only the standard library, so that no stage inherits a large RSS
high-water mark from it. Outputs stay in bench/out/<workload>-s<seed>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import STAGES, WORKLOADS, round_seed, stage_argv

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("bench") / "out"  # relative to ROOT, the working directory of every child
STAGE_TIMEOUT_S = 100
HELPER_TIMEOUT_S = 100
MB = 1024 * 1024


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GRAM_MOVER_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_stage(argv: list[str], log_path: Path, env: dict[str, str]) -> dict:
    """One `python -m gram_mover` stage: exit code, wall time, and the
    child's own CPU time and peak RSS."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gram_mover", *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / MB,
    }


def run_helper(argv: list[str], log_path: Path, env: dict[str, str]) -> dict | None:
    """A benchmark helper script; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=HELPER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        log_path.write_text(f"timed out after {error.timeout} s\n")
        print(f"{argv[0]} timed out; see {log_path}", file=sys.stderr)
        return None
    log_path.write_text(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{argv[0]} exited {proc.returncode}; see {log_path}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_round(workload, seed: int, rundir: Path, index: int, env) -> dict | None:
    base = rundir / f"round-{index}"
    inputs, out = base / "inputs", base / "out"
    (ROOT / base).mkdir()
    generated = run_helper(
        ["bench/gen.py", "--workload", workload.name, "--seed", str(round_seed(seed, index)), "--dir", str(inputs)],
        ROOT / base / "gen.log",
        env,
    )
    if generated is None:
        return None
    (ROOT / out).mkdir()
    stages = {}
    started = time.perf_counter()
    for stage in STAGES:
        argv = stage_argv(workload, stage, round_seed(seed, index), str(inputs), str(out))
        stages[stage] = run_stage(argv, ROOT / base / f"{stage}.log", env)
    return {"stages": stages, "wall_s": time.perf_counter() - started}


def end_to_end(workload, rounds: list[dict], rundir: Path) -> dict:
    """Set-up time and peak RSS are medians over rounds. The other times
    average over rounds: each round runs other inputs, and their work
    differs more from corpus to corpus than the machine adds noise."""
    stages = [r["stages"] for r in rounds]
    indexes = [ROOT / rundir / f"round-{i}" / "out" / f"index-{workload.granularity}.npz" for i in range(len(rounds))]
    return {
        "setup_s": (statistics.median(s["train-embeddings"]["wall_s"] + s["build-index"]["wall_s"] for s in stages), "s"),
        "extract_qps": (
            workload.queries * len(rounds) / sum(s["extract-candidates"]["wall_s"] for s in stages),
            "1/s",
        ),
        "classify_s": (statistics.mean(s["classify"]["wall_s"] for s in stages), "s"),
        "chain_s": (statistics.mean(r["wall_s"] for r in rounds), "s"),
        "setup_peak_rss_mb": (
            statistics.median(max(s["train-embeddings"]["rss_mb"], s["build-index"]["rss_mb"]) for s in stages),
            "MB",
        ),
        "extract_peak_rss_mb": (statistics.median(s["extract-candidates"]["rss_mb"] for s in stages), "MB"),
        "index_mb": (statistics.median(p.stat().st_size / MB if p.is_file() else 0.0 for p in indexes), "MB"),
    }


def stage_usage(rounds: list[dict]) -> dict:
    metrics = {}
    for stage in STAGES:
        runs = [r["stages"][stage] for r in rounds]
        metrics[f"cli.{stage}.cpu_s"] = (statistics.median(s["cpu_s"] for s in runs), "s")
        metrics[f"cli.{stage}.offcpu_s"] = (
            statistics.median(s["wall_s"] - s["cpu_s"] for s in runs),
            "s",
        )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gram_mover" / "cli.py").is_file():
        print(f"no gram_mover sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rundir = OUT / f"{workload.name}-s{args.seed}"
    shutil.rmtree(ROOT / rundir, ignore_errors=True)
    (ROOT / rundir).mkdir(parents=True)
    env = child_env()

    # whole rounds until the measured time is within half a round of --seconds
    rounds: list[dict] = []
    while not rounds or (
        sum(r["wall_s"] for r in rounds) + 0.5 * statistics.mean(r["wall_s"] for r in rounds)
        <= args.seconds
    ):
        result = run_round(workload, args.seed, rundir, len(rounds), env)
        if result is None:
            return 1
        rounds.append(result)
        print(f"round {len(rounds) - 1}: {result['wall_s']:.2f} s", file=sys.stderr)

    traced = None
    if args.trace:
        traced = run_helper(
            [
                "bench/trace.py", "--workload", workload.name, "--seed", str(round_seed(args.seed, 0)),
                "--inputs", str(rundir / "round-0" / "inputs"), "--out", str(rundir / "traced"),
                "--trace-file", str(rundir / "trace.json"),
            ],
            ROOT / rundir / "trace.log",
            env,
        )

    check_argv = [
        "bench/check.py", "--workload", workload.name, "--seed", str(args.seed),
        "--dir", str(rundir), "--rounds", str(len(rounds)),
    ]
    if args.trace:
        check_argv.append("--traced")
    checked = run_helper(check_argv, ROOT / rundir / "check.log", env)

    # one operation per stage per round (and per traced stage) and per
    # checked query; a non-zero exit or a failed check fails it
    failures: list[str] = []
    stage_runs = [(str(i), {s: r["stages"][s]["exit"] for s in STAGES}) for i, r in enumerate(rounds)]
    if args.trace:
        stage_runs.append(("traced", traced["exits"] if traced else {}))
    attempted = len(stage_runs) * len(STAGES) + len(rounds) * workload.checked_queries
    for label, exits in stage_runs:
        for stage in STAGES:
            errors = checked["stages"][label][stage] if checked else ["not checked"]
            if exits.get(stage) != 0:
                errors = [f"exit {exits.get(stage)}", *errors]
            if errors:
                failures.append(f"round {label} {stage}: {'; '.join(errors)}")
    if checked is None:
        failures += ["query not checked"] * (len(rounds) * workload.checked_queries)
    else:
        for query in checked["queries"]:
            if query["errors"]:
                failures.append(f"round {query['round']} query {query['id']}: {'; '.join(query['errors'])}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    metrics = end_to_end(workload, rounds, rundir)
    if checked is not None:
        for method, recall in sorted(checked["recall"].items()):
            print(f"planted-pair recall {method}: {recall:.3f} (information only)", file=sys.stderr)
    if args.trace:
        metrics = {name: tuple(value) for name, value in traced["metrics"].items()} if traced else {}
        metrics.update(stage_usage(rounds))
        if traced:
            for stage in STAGES:
                overhead = traced["stage_wall_s"][stage] - rounds[0]["stages"][stage]["wall_s"]
                print(f"tracing overhead {stage}: {overhead:+.3f} s", file=sys.stderr)
            for name in traced["missing"]:
                print(f"traced function missing: {name}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": rounds,
        "traced": traced,
        "check": checked,
        "failures": failures,
    }
    (ROOT / rundir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
