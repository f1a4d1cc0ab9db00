"""Traced in-process run of the CLI chain, for the per-layer metrics.

    python3 bench/trace.py --workload planted-gram3 --seed 100 \
        --inputs <inputs dir> --out <output dir> --trace-file <trace.json>

Calls `gram_mover.cli.main` for each stage in one process, after replacing
the package functions the program calls through with timing wrappers; no
file under src/ changes. Functions called a few thousand times or fewer
record a span (name, start, end, parent); the per-pair hot paths only count
calls and time. Spans stay in memory and are written to `--trace-file` at
the end, with each layer's self time (its spans minus the time their child
spans cover). A traced function that no longer exists is reported as
missing, and the metrics built on it are left out. Prints one JSON line:
stage exit codes, traced stage wall times and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import gram_mover.cli  # noqa: F401  (loads every module whose attributes are wrapped)

from workloads import STAGES, WORKLOADS, stage_argv

SPAN, COUNT = "span", "count"

#: (module, function, how it is recorded)
TRACED = (
    ("corpus", "load_corpus", SPAN),
    ("embed", "train_sgns", SPAN),
    ("embed", "save_vectors", SPAN),
    ("embed", "load_vectors", SPAN),
    ("embed", "nearest_neighbors", COUNT),
    ("pipeline", "train_ingredient_table", SPAN),
    ("pipeline", "instruction_tokens", COUNT),
    ("pipeline", "extract_with_retriever", SPAN),
    ("pipeline", "build_tfidf_index", SPAN),
    ("pipeline", "tfidf_similarities", SPAN),
    ("pipeline", "ingredients_distance", COUNT),
    ("mover", "build_index", SPAN),
    ("mover", "topk_query", SPAN),
    ("mover", "rwmd", COUNT),
    ("mover", "emd_exact", SPAN),
    ("cli", "save_index", SPAN),
    ("cli", "load_index", SPAN),
    ("classify", "loocv_grid_search", SPAN),
    ("classify", "train_logreg", SPAN),
    ("classify", "train_random_forest", SPAN),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.open: list[int] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self.stage = ""
        # observations made at the wrapped boundaries
        self.rwmd_by_cost: dict[int, float] = {}
        self.tightness: list[float] = []
        self.token_epochs = 0
        self.instruction_train_s = 0.0
        self.supports: list[int] = []
        self.logistic_capped = 0
        self.pairs: Counter = Counter()

    def span(self, name: str, fn, *args, **kwargs):
        at = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.open[-1] if self.open else -1])
        self.open.append(at)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans[at][2] = end
            self.open.pop()
            self.calls[name] += 1
            self.seconds[name] += end - self.spans[at][1]

    def parent_name(self) -> str:
        return self.spans[self.open[-1]][0] if self.open else ""

    def wrapper(self, name: str, fn, mode: str):
        observe = getattr(self, "observe_" + name.replace(".", "_"), None)
        if mode == COUNT:

            def counted(*args, **kwargs):
                started = time.perf_counter()
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - started
                self.seconds[name] += seconds
                self.calls[name] += 1
                if observe:
                    observe(args, kwargs, result, seconds)
                return result

            return counted

        def spanned(*args, **kwargs):
            if name == "pipeline.extract_with_retriever" and len(args) > 4:
                args = (*args[:4], self.counting_retriever(args[4]), *args[5:])
            label = name
            if name == "classify.loocv_grid_search":
                label = f"{name}[{args[1] if len(args) > 1 else kwargs['kind']}]"
            started = time.perf_counter()
            result = self.span(label, fn, *args, **kwargs)
            if observe:
                observe(args, kwargs, result, time.perf_counter() - started)
            return result

        return spanned

    def counting_retriever(self, retrieve):
        def counted(query):
            hits = retrieve(query)
            self.pairs[self.stage, "before"] += len(hits)
            return hits

        return counted

    # observers get (positional args, keyword args, result, seconds) of one call

    def observe_mover_rwmd(self, args, kwargs, bound, _):
        self.rwmd_by_cost[id(args[-1])] = bound

    def observe_mover_emd_exact(self, args, kwargs, result, _):
        bound = self.rwmd_by_cost.get(id(args[-1]))
        if bound is not None and result[0] > 0:
            self.tightness.append(bound / result[0])

    def observe_mover_topk_query(self, args, kwargs, result, _):
        self.rwmd_by_cost.clear()  # this query's cost matrices are released

    def observe_mover_build_index(self, args, kwargs, index, _):
        self.supports += [len(entry.hist.support) for entry in index.entries]

    def observe_embed_train_sgns(self, args, kwargs, table, seconds):
        if self.parent_name() == "pipeline.train_ingredient_table":
            return
        documents = args[0] if args else kwargs["documents"]
        config = args[1] if len(args) > 1 else kwargs["config"]
        self.token_epochs += sum(len(doc) for doc in documents) * config.epochs
        self.instruction_train_s += seconds

    def observe_classify_train_logreg(self, args, kwargs, model, _):
        self.logistic_capped += not model.converged

    def observe_pipeline_extract_with_retriever(self, args, kwargs, pairs, _):
        self.pairs[self.stage, "kept"] += len(pairs)

    def install(self) -> None:
        """Rebind every package attribute that names a traced function, so
        calls through `from .mover import topk_query` are caught too."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "gram_mover"]
        for module_name, name, mode in TRACED:
            original = getattr(sys.modules.get(f"gram_mover.{module_name}"), name, None)
            if original is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            wrapped = self.wrapper(f"{module_name}.{name}", original, mode)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def layers(self) -> dict:
        """Calls, total and self time per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        summary: dict = {}
        for at, (name, start, end, _) in enumerate(self.spans):
            entry = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[at]
        return summary

    def metrics(self) -> dict:
        c, s = self.calls, self.seconds
        out: dict = {}

        def put(name, unit, needs, value):
            if all(c[n] for n in needs):
                out[name] = [value(), unit]

        stage_pairs = "extract-candidates"
        put("embed.train_s", "s", ["embed.train_sgns"], lambda: self.instruction_train_s)
        put("embed.token_epochs_per_s", "1/s", ["embed.train_sgns"], lambda: self.token_epochs / self.instruction_train_s)
        put("embed.ingredient_train_s", "s", ["pipeline.train_ingredient_table"], lambda: s["pipeline.train_ingredient_table"])
        put("tokenize.docs_per_s", "1/s", ["pipeline.instruction_tokens"], lambda: c["pipeline.instruction_tokens"] / s["pipeline.instruction_tokens"])
        put("corpus.load_s", "s", ["corpus.load_corpus"], lambda: s["corpus.load_corpus"])
        put("mover.build_index_s", "s", ["mover.build_index"], lambda: s["mover.build_index"])
        put("cli.save_index_s", "s", ["cli.save_index"], lambda: s["cli.save_index"])
        put("cli.load_index_s", "s", ["cli.load_index"], lambda: s["cli.load_index"])
        put("cli.save_vectors_s", "s", ["embed.save_vectors"], lambda: s["embed.save_vectors"])
        put("cli.load_vectors_s", "s", ["embed.load_vectors"], lambda: s["embed.load_vectors"])
        put("mover.topk_ms_per_query", "ms", ["mover.topk_query"], lambda: 1e3 * s["mover.topk_query"] / c["mover.topk_query"])
        put("mover.exact_solves", "count", ["mover.emd_exact"], lambda: c["mover.emd_exact"])
        put("mover.exact_ms_per_solve", "ms", ["mover.emd_exact"], lambda: 1e3 * s["mover.emd_exact"] / c["mover.emd_exact"])
        put("mover.bound_computations", "count", ["mover.rwmd"], lambda: c["mover.rwmd"])
        put("mover.pruned_share", "ratio", ["mover.rwmd", "mover.emd_exact"], lambda: 1.0 - c["mover.emd_exact"] / c["mover.rwmd"])
        put(
            "mover.bound_us_per_pair", "us", ["mover.rwmd", "mover.topk_query", "mover.emd_exact"],
            lambda: 1e6 * (s["mover.topk_query"] - s["mover.emd_exact"]) / c["mover.rwmd"],
        )
        if self.tightness:
            out["mover.rwmd_tightness"] = [statistics.median(self.tightness), "ratio"]
        if self.supports:
            out["mover.support_mean"] = [statistics.mean(self.supports), "count"]
        put("ingredients.calls", "count", ["pipeline.ingredients_distance"], lambda: c["pipeline.ingredients_distance"])
        put(
            "ingredients.us_per_call", "us", ["pipeline.ingredients_distance"],
            lambda: 1e6 * s["pipeline.ingredients_distance"] / c["pipeline.ingredients_distance"],
        )
        put("ingredients.neighbor_queries", "count", [], lambda: c["embed.nearest_neighbors"])
        put("pipeline.tfidf_index_s", "s", ["pipeline.build_tfidf_index"], lambda: s["pipeline.build_tfidf_index"])
        put(
            "pipeline.tfidf_ms_per_query", "ms", ["pipeline.tfidf_similarities"],
            lambda: 1e3 * s["pipeline.tfidf_similarities"] / c["pipeline.tfidf_similarities"],
        )
        put("pipeline.pairs_before_filter", "count", ["pipeline.extract_with_retriever"], lambda: self.pairs[stage_pairs, "before"])
        put("pipeline.pairs_kept", "count", ["pipeline.extract_with_retriever"], lambda: self.pairs[stage_pairs, "kept"])
        for kind, short, fit in (
            ("logistic-regression", "logistic", "classify.train_logreg"),
            ("random-forest", "forest", "classify.train_random_forest"),
        ):
            search = f"classify.loocv_grid_search[{kind}]"
            put(f"classify.{short}_s", "s", [search], lambda: s[search])
            put(f"classify.{short}_fits", "count", [fit], lambda: c[fit])
            put(f"classify.{short}_ms_per_fit", "ms", [fit], lambda: 1e3 * s[fit] / c[fit])
        put("classify.logistic_capped", "count", ["classify.train_logreg"], lambda: self.logistic_capped)
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    Path(args.out).mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    tracer.install()
    exits, walls = {}, {}
    for stage in STAGES:
        tracer.stage = stage
        argv = stage_argv(workload, stage, args.seed, args.inputs, args.out)
        started = time.perf_counter()
        try:
            exits[stage] = tracer.span(f"stage:{stage}", gram_mover.cli.main, argv)
        except Exception as error:  # a crashing stage fails its operation; the chain goes on
            print(f"{stage}: {type(error).__name__}: {error}", file=sys.stderr)
            exits[stage] = 1
        walls[stage] = time.perf_counter() - started

    Path(args.trace_file).write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "missing": tracer.missing,
                "layers": tracer.layers(),
                "counted": {
                    f"{module}.{name}": {
                        "calls": tracer.calls[f"{module}.{name}"],
                        "total_s": tracer.seconds[f"{module}.{name}"],
                    }
                    for module, name, mode in TRACED
                    if mode == COUNT
                },
                "spans": tracer.spans,
            }
        )
        + "\n"
    )
    print(
        json.dumps(
            {"exits": exits, "stage_wall_s": walls, "metrics": tracer.metrics(), "missing": tracer.missing}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
