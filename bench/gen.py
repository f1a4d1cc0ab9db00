"""Write one workload's inputs, made from the workload seed.

    python3 bench/gen.py --workload planted-gram3 --seed 1 --dir <inputs dir>

Writes `corpus.jsonl` (train side before the cutoff date, planted copies and
fresh recipes after it), `truth.jsonl` and `pool.jsonl` (a labeled candidate-pair
file for `classify --pairs`). Importing the CLI here also leaves the package's
bytecode compiled before any stage is timed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import gram_mover.cli  # noqa: F401  (compiles every module of the package)
from gram_mover.corpus import save_corpus
from gram_mover.synth import generate_corpus, save_truth, synthetic_classification_pool

from workloads import WORKLOADS

_NEGATIVE_LABELS = ("non-duplicate-a", "non-duplicate-b", "non-duplicate-c")


def write_pool(path: Path, seed: int, positives: int, negatives: int) -> None:
    examples = synthetic_classification_pool(seed=seed, positives=positives, negatives=negatives)
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as handle:
        for i, example in enumerate(examples):
            instruction, ingredients = example.features
            label = (
                "near-duplicate"
                if example.label
                else _NEGATIVE_LABELS[int(rng.integers(len(_NEGATIVE_LABELS)))]
            )
            record = {
                "query_id": f"pool-q{i:04d}",
                "candidate_id": f"pool-c{i:04d}",
                "method": "annotated-pool",
                "instruction_distance": instruction,
                "ingredients_distance": int(ingredients),
                "label": label,
            }
            handle.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)

    corpus, truth = generate_corpus(
        seed=args.seed,
        train_size=workload.train_size,
        planted=workload.planted,
        fresh=workload.fresh,
    )
    save_corpus(corpus, out / "corpus.jsonl")
    save_truth(truth, out / "truth.jsonl")
    write_pool(
        out / "pool.jsonl", args.seed + 1, workload.pool_positives, workload.pool_negatives
    )
    print(json.dumps({"recipes": len(corpus), "planted": len(truth)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
