"""Workload definitions shared by the benchmark's processes.

Standard library only: `run.py` imports this module, and the process that
starts the timed stages must not load numpy or any workload data (a child's
peak RSS starts from its parent's high-water mark at exec).

Each workload runs the whole CLI chain. Sizes are set so that one chain
round takes about 15 seconds on a 2-core machine: three rounds then fill a
45-second run, and the 48 runs a steadiness check makes over two workloads
(4 + 22 per workload) fit in under an hour with their checks.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = (
    "train-embeddings",
    "build-index",
    "extract-candidates",
    "baseline",
    "classify",
    "report",
)

#: SGNS settings every stage receives
SGNS_FLAGS = (
    "--dimension", "50", "--window", "5", "--min-count", "1",
    "--subsample-threshold", "0", "--noise-table-size", "100000",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    granularity: str
    metric: str
    train_size: int  # train-side recipes in the searchable index
    planted: int  # test-side corrupted copies of train recipes
    fresh: int  # test-side recipes unrelated to the train side
    epochs: int  # instruction SGNS epochs
    pool_positives: int  # annotated pool handed to `classify --pairs`
    pool_negatives: int
    checked_queries: int  # test queries per round verified against HiGHS
    k: int = 10
    threshold: int = 2

    @property
    def queries(self) -> int:
        return self.planted + self.fresh

    @property
    def method(self) -> str:
        return f"{self.granularity}-sgns"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-gram3",
            why="the paper's setting: exact solves on ~45-gram supports set extract_qps, "
            "gram3 SGNS over the whole train side sets setup_s",
            granularity="gram3",
            metric="cosine",
            train_size=200,
            planted=10,
            fresh=2,
            epochs=4,
            pool_positives=3,
            pool_negatives=12,
            checked_queries=1,
        ),
        Workload(
            name="word-batch",
            why="word granularity, many queries: ~15-word transport problems make "
            "per-solve overhead and bounds, not pivots, set extract_qps",
            granularity="word",
            metric="cosine",
            train_size=300,
            planted=52,
            fresh=18,
            epochs=2,
            pool_positives=3,
            pool_negatives=12,
            checked_queries=2,
        ),
    )
}


def round_seed(seed: int, index: int) -> int:
    """Seed of round `index`'s inputs: each round runs on inputs of its own,
    so that one run averages over several corpora and pools."""
    return 100 * seed + index


def stage_argv(workload: Workload, stage: str, seed: int, inputs: str, out: str) -> list[str]:
    """`python -m gram_mover` arguments of one stage; paths are as given.
    `--threads 1` is explicit so that a GRAM_MOVER_THREADS in the
    environment cannot change the work."""
    argv = [stage, "--out", out, "--threads", "1", "--seed", str(seed)]
    argv += ["--granularity", workload.granularity, "--metric", workload.metric]
    argv += ["--k", str(workload.k), "--threshold", str(workload.threshold)]
    argv += list(SGNS_FLAGS) + ["--epochs", str(workload.epochs)]
    if stage in ("train-embeddings", "build-index", "extract-candidates", "baseline"):
        argv += ["--corpus", f"{inputs}/corpus.jsonl"]
    elif stage == "classify":
        argv += ["--pairs", f"{inputs}/pool.jsonl"]
    return argv
