"""Check one benchmark run's outputs against computations made apart from
the program.

    python3 bench/check.py --workload planted-gram3 --seed 1 --dir bench/out/planted-gram3-s1 --rounds 3

Nothing here imports gram_mover. Tokens, histograms, ground costs, the
ingredients distance and tf-idf are recomputed from each round's inputs and
written vector files, and mover distances are solved as linear programs with
HiGHS (scipy). With `--traced`, the traced run must also reproduce round 0's
artifacts exactly. Prints one JSON line: the errors per round and stage, the
errors per checked query, and planted-pair recall per method over all rounds.
"""

from __future__ import annotations

import argparse
import json
import re
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from workloads import STAGES, WORKLOADS, round_seed

CUTOFF = "2016-10-31"  # the CLI's default split: train side published on or before it
DISTANCE_TOL = 1e-7  # reported mover distance against the LP optimum
TIE_TOL = 1e-9  # distances this close to the k-th are ties, accepted either way
NEIGHBOR_TIE = 1e-6  # a 3rd/4th neighbor gap below this leaves the filter undecided
TFIDF = "tfidf-baseline"
_ESCAPE = re.compile(r"\\u([0-9a-fA-F]{4})")
_PAREN_SPAN = re.compile(r"[(（][^()（）]*[)）]")


# --- inputs, recomputed independently ----------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def fold_width(text: str) -> str:
    folded = "".join(
        unicodedata.normalize("NFKC", ch)
        if ch == "　" or "！" <= ch <= "～" or "｡" <= ch <= "￮"
        else ch
        for ch in text
    )
    return unicodedata.normalize("NFC", folded)


def tokens(text: str, granularity: str) -> list[str]:
    text = fold_width(text)
    if granularity == "word":
        return text.split()
    if len(text) < 3:
        return [text] if text else []
    return [text[i : i + 3] for i in range(len(text) - 2)]


def canonical(name: str) -> str:
    while True:
        stripped = _PAREN_SPAN.sub("", name)
        if stripped == name:
            break
        name = stripped
    name = "".join(ch for ch in name if unicodedata.category(ch)[0] not in "PS")
    name = "".join(
        chr(ord(ch) + 0x60) if "ぁ" <= ch <= "ゖ" or ch in "ゝゞ" else ch
        for ch in name
    )
    return name.strip()


def read_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        count, dimension = (int(x) for x in handle.readline().split())
        words, rows = [], []
        for line in handle:
            parts = line.rstrip("\n").split(" ")
            words.append(_ESCAPE.sub(lambda m: chr(int(m.group(1), 16)), parts[0]))
            rows.append([float(x) for x in parts[1:]])
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), dimension)
    if len(words) != count:
        raise ValueError(f"{path}: header declares {count} rows, found {len(words)}")
    return words, vectors


def histogram(doc_tokens: list[str], index: dict[str, int]):
    counts = Counter(index[t] for t in doc_tokens if t in index)
    if not counts:
        return None
    support = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[i] for i in support], dtype=np.float64)
    return support, weights / weights.sum()


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0)


def ground_cost(va: np.ndarray, vb: np.ndarray, metric: str) -> np.ndarray:
    if metric == "cosine":
        return np.maximum(1.0 - unit_rows(va) @ unit_rows(vb).T, 0.0)
    return np.sqrt(((va[:, None, :] - vb[None, :, :]) ** 2).sum(axis=2))


def screening_cost(va: np.ndarray, vocab: np.ndarray, metric: str) -> np.ndarray:
    """Query support against the whole vocabulary, for the RWMD screen."""
    if metric == "cosine":
        return np.maximum(1.0 - unit_rows(va) @ unit_rows(vocab).T, 0.0)
    sq = (va**2).sum(axis=1)[:, None] + (vocab**2).sum(axis=1)[None, :] - 2.0 * va @ vocab.T
    return np.sqrt(np.maximum(sq, 0.0))


def transport(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Minimum-cost transport as a linear program solved by HiGHS."""
    m, n = cost.shape
    cells = np.arange(m * n)
    rows = np.concatenate([cells // n, m + cells % n])
    constraints = coo_matrix((np.ones(2 * m * n), (rows, np.tile(cells, 2))), shape=(m + n, m * n))
    result = linprog(
        cost.ravel(),
        A_eq=constraints.tocsr(),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if result.status != 0:
        raise RuntimeError(f"HiGHS: {result.message}")
    return float(result.fun)


class IngredientFilter:
    """Items left unmatched in both lists after exact multiset cancellation,
    then cancellation of each remaining test-side item against the earliest
    remaining train-side item among its 3 nearest vectors by cosine."""

    def __init__(self, path: Path):
        words, vectors = read_vectors(path)
        self.index = {w: i for i, w in enumerate(words)}
        self.words = words
        self.units = unit_rows(vectors)

    def neighbors(self, word: str) -> tuple[set[str], bool]:
        if word not in self.index:
            return set(), False
        at = self.index[word]
        sims = self.units @ self.units[at]
        sims[at] = -np.inf
        order = np.lexsort((np.arange(len(sims)), -sims))
        ambiguous = len(order) > 4 and sims[order[2]] - sims[order[3]] < NEIGHBOR_TIE
        return {self.words[i] for i in order[:3]}, ambiguous

    def distance(self, original: list[str], candidate: list[str]) -> tuple[int, bool]:
        rest_a = [c for c in map(canonical, original) if c]
        rest_b = [c for c in map(canonical, candidate) if c]
        unmatched = Counter(rest_b) - Counter(rest_a)
        survivors_a = list((Counter(rest_a) - Counter(rest_b)).elements())
        survivors_a.sort(key=rest_a.index)
        survivors_b = []
        for item in rest_b:
            if unmatched[item] > 0:
                unmatched[item] -= 1
                survivors_b.append(item)
        ambiguous = False
        left_b = 0
        for item in survivors_b:
            near, tie = self.neighbors(item)
            ambiguous |= tie
            hit = next((i for i, name in enumerate(survivors_a) if name in near), None)
            if hit is None:
                left_b += 1
            else:
                del survivors_a[hit]
        return len(survivors_a) + left_b, ambiguous


# --- per-stage checks ----------------------------------------------------------


class Round:
    """One round's inputs (`inputs/`) and outputs (`out/`)."""

    def __init__(self, workload, base: Path, seed: int):
        self.w = workload
        self.out = base / "out"
        self.seed = seed
        inputs = base / "inputs"
        recipes = read_jsonl(inputs / "corpus.jsonl")
        self.train = [r for r in recipes if r["published"] <= CUTOFF]
        self.test = [r for r in recipes if r["published"] > CUTOFF]
        self.by_id = {r["id"]: r for r in recipes}
        self.pool = read_jsonl(inputs / "pool.jsonl")
        self.truth = read_jsonl(inputs / "truth.jsonl")

    def vectors(self, out: Path) -> list[str]:
        errors = []
        expected = {
            f"embeddings-{self.w.granularity}.vec": {
                t for r in self.train for t in tokens(r["instructions"], self.w.granularity)
            },
            "embeddings-ingredients.vec": {
                c for r in self.train for c in map(canonical, r["ingredients"]) if c
            },
        }
        for name, distinct in expected.items():
            words, vectors = read_vectors(out / name)
            if len(set(words)) != len(words):
                errors.append(f"{name}: duplicate rows")
            if set(words) != distinct:
                errors.append(
                    f"{name}: {len(set(words) - distinct)} extra and "
                    f"{len(distinct - set(words))} missing tokens"
                )
            if not np.all(np.isfinite(vectors)):
                errors.append(f"{name}: non-finite components")
        return errors

    def index(self, out: Path) -> list[str]:
        errors = []
        words, vectors = read_vectors(out / f"embeddings-{self.w.granularity}.vec")
        index = {t: i for i, t in enumerate(words)}
        with np.load(out / f"index-{self.w.granularity}.npz", allow_pickle=False) as data:
            if list(data["tokens"]) != words or not np.array_equal(
                data["vectors"].astype(np.float64), vectors
            ):
                errors.append("index vectors differ from the vector file")
            for key, value in (
                ("metric", self.w.metric),
                ("granularity", self.w.granularity),
                ("method", self.w.method),
            ):
                if str(data[key]) != value:
                    errors.append(f"index {key} {str(data[key])!r}, expected {value!r}")
            hists = {r["id"]: histogram(tokens(r["instructions"], self.w.granularity), index) for r in self.train}
            expected_ids = [i for i, h in hists.items() if h is not None]
            if list(data["doc_ids"]) != expected_ids:
                errors.append("indexed doc ids differ from the embeddable train side")
                return errors
            if list(data["skipped"]) != [i for i, h in hists.items() if h is None]:
                errors.append("skipped ids differ")
            offsets = data["offsets"]
            supports, weights = data["supports"], data["weights"]
            for at, doc_id in enumerate(expected_ids):
                support, expected = hists[doc_id]
                lo, hi = offsets[at], offsets[at + 1]
                if not np.array_equal(supports[lo:hi], support) or not np.allclose(
                    weights[lo:hi], expected, rtol=0, atol=1e-12
                ):
                    errors.append(f"histogram of {doc_id} differs")
                    break
        return errors

    def candidates(self, out: Path, method: str) -> list[str]:
        errors = []
        train_ids = {r["id"] for r in self.train}
        test_ids = {r["id"] for r in self.test}
        per_query = Counter()
        for pair in read_jsonl(out / f"candidates-{method}.jsonl"):
            per_query[pair["query_id"]] += 1
            if pair["query_id"] not in test_ids or pair["candidate_id"] not in train_ids:
                errors.append(f"pair {pair['query_id']}/{pair['candidate_id']} crosses the split")
            if pair["method"] != method:
                errors.append(f"pair method {pair['method']!r}")
            if pair["ingredients_distance"] > self.w.threshold:
                errors.append(f"pair {pair['query_id']}/{pair['candidate_id']} fails the filter")
        if per_query and max(per_query.values()) > self.w.k:
            errors.append("a query has more than k candidates")
        return errors[:5]

    def classifier(self, out: Path) -> list[str]:
        errors = []
        summary = json.loads((out / "classifier-metrics.json").read_text(encoding="utf-8"))
        positives = sum(1 for p in self.pool if p["label"] == "near-duplicate")
        negatives = len(self.pool) - positives
        if summary["examples"] != len(self.pool):
            errors.append(f"examples {summary['examples']}, pool has {len(self.pool)}")
        if summary["balanced"] != 2 * min(positives, negatives):
            errors.append(f"balanced {summary['balanced']}, expected {2 * min(positives, negatives)}")
        if sorted(summary["models"]) != ["logistic-regression", "random-forest"]:
            errors.append(f"models {sorted(summary['models'])}")
        for kind, model in summary["models"].items():
            p, r = model["precision"], model["recall"]
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            if abs(model["f1"] - f1) > 1e-12:
                errors.append(f"{kind}: F1 {model['f1']} is not 2PR/(P+R) = {f1}")
            grid_f1 = [point["f1"] for point in model["grid"]]
            first_best = model["grid"][grid_f1.index(max(grid_f1))]
            if model["f1"] != max(grid_f1) or model["best_params"] != first_best["params"]:
                errors.append(f"{kind}: best grid point is not the first with the largest F1")
        return errors

    def report(self, out: Path) -> list[str]:
        summary = json.loads((out / "report.json").read_text(encoding="utf-8"))
        lines = {
            path.name[len("candidates-") : -len(".jsonl")]: len(read_jsonl(path))
            for path in sorted(out.glob("candidates-*.jsonl"))
        }
        totals = {m: info["total"] for m, info in summary["methods"].items()}
        # a method whose candidate file is empty has no pairs to be reported under
        if totals != {m: n for m, n in lines.items() if n}:
            return [f"report totals {totals}, candidate files hold {lines}"]
        return []

    def full(self, out: Path) -> dict[str, list[str]]:
        checks = {
            "train-embeddings": self.vectors,
            "build-index": self.index,
            "extract-candidates": lambda o: self.candidates(o, self.w.method),
            "baseline": lambda o: self.candidates(o, TFIDF),
            "classify": self.classifier,
            "report": self.report,
        }
        return {stage: guarded(check, out) for stage, check in checks.items()}

    def artifacts(self, stage: str) -> list[str]:
        g = self.w.granularity
        return {
            "train-embeddings": [f"embeddings-{g}.vec", "embeddings-ingredients.vec"],
            "build-index": [f"index-{g}.npz"],
            "extract-candidates": [f"candidates-{self.w.method}.jsonl"],
            "baseline": [f"candidates-{TFIDF}.jsonl"],
            "classify": ["classifier-metrics.json", "classifier-metrics.txt"],
            "report": ["report.json", "report.txt"],
        }[stage]

    def same_outputs(self, out: Path) -> dict[str, list[str]]:
        """Errors per stage where `out` does not reproduce this round's outputs."""
        result = {}
        for stage in STAGES:
            errors = []
            for name in self.artifacts(stage):
                if not (out / name).is_file():
                    errors.append(f"{name} missing")
                elif (out / name).read_bytes() != (self.out / name).read_bytes():
                    errors.append(f"{name} differs from the untraced run")
            result[stage] = errors
        return result

    def recall(self) -> dict[str, tuple[int, int]]:
        """Planted pairs found and planted pairs, per method."""
        truth = {(t["test_id"], t["train_id"]) for t in self.truth}
        found = {}
        for path in sorted(self.out.glob("candidates-*.jsonl")):
            pairs = {(p["query_id"], p["candidate_id"]) for p in read_jsonl(path)}
            found[path.name[len("candidates-") : -len(".jsonl")]] = (len(truth & pairs), len(truth))
        return found

    # --- per-query checks ------------------------------------------------------

    def query_checks(self) -> list[dict]:
        rng = np.random.default_rng(self.seed)
        test_ids = sorted(r["id"] for r in self.test)
        chosen = sorted(rng.choice(test_ids, size=self.w.checked_queries, replace=False))
        words, vectors = read_vectors(self.out / f"embeddings-{self.w.granularity}.vec")
        index = {t: i for i, t in enumerate(words)}
        docs = []
        for r in self.train:
            hist = histogram(tokens(r["instructions"], self.w.granularity), index)
            if hist is not None:
                docs.append((r["id"], *hist))
        filt = IngredientFilter(self.out / "embeddings-ingredients.vec")
        mover = group(read_jsonl(self.out / f"candidates-{self.w.method}.jsonl"))
        tfidf = group(read_jsonl(self.out / f"candidates-{TFIDF}.jsonl"))
        baseline = Tfidf([(r["id"], tokens(r["instructions"], "gram3")) for r in self.train])
        results = []
        for qid in chosen:
            query = self.by_id[qid]
            errors = guarded(
                lambda: self.mover_query(query, docs, vectors, index, filt, mover.get(qid, []))
                + self.tfidf_query(query, baseline, filt, tfidf.get(qid, []))
            )
            results.append({"id": qid, "errors": errors})
        return results

    def mover_query(self, query, docs, vectors, index, filt, reported) -> list[str]:
        hist = histogram(tokens(query["instructions"], self.w.granularity), index)
        if hist is None:
            return [] if not reported else ["unembeddable query has candidates"]
        support, weights = hist
        qv = vectors[support]
        # the benchmark's own RWMD screens the exhaustive ranking
        screen = screening_cost(qv, vectors, self.w.metric)
        flat = np.concatenate([d[1] for d in docs])
        starts = np.cumsum([0] + [len(d[1]) for d in docs[:-1]])
        from_query = weights @ np.minimum.reduceat(screen[:, flat], starts, axis=1)
        from_doc = np.add.reduceat(np.concatenate([d[2] for d in docs]) * screen.min(axis=0)[flat], starts)
        bounds = np.maximum(from_query, from_doc) - 1e-9
        exact: dict[str, float] = {}
        kth = np.inf
        for at in np.argsort(bounds, kind="stable"):
            if bounds[at] > kth + TIE_TOL:
                break
            doc_id, doc_support, doc_weights = docs[at]
            cost = ground_cost(qv, vectors[doc_support], self.w.metric)
            exact[doc_id] = transport(weights, doc_weights, cost)
            if len(exact) >= self.w.k:
                kth = sorted(exact.values())[self.w.k - 1]
        return self.compare(query, exact, kth, reported, filt, "mover")

    def tfidf_query(self, query, baseline, filt, reported) -> list[str]:
        sims = baseline.cosines(tokens(query["instructions"], "gram3"))
        kth_sim = sorted(sims.values(), reverse=True)[self.w.k - 1]
        distances = {doc_id: 1.0 - s for doc_id, s in sims.items()}
        return self.compare(query, distances, 1.0 - kth_sim, reported, filt, "tf-idf")

    def compare(self, query, distances, kth, reported, filt, what) -> list[str]:
        """`reported` must be the top-k by `distances` (ties at the k-th either
        way) after the ingredients filter, with matching distances."""
        errors = []
        seen = set()
        for pair in reported:
            doc_id = pair["candidate_id"]
            seen.add(doc_id)
            if doc_id not in distances or distances[doc_id] > kth + TIE_TOL:
                errors.append(f"{what}: {doc_id} is outside the exhaustive top-{self.w.k}")
                continue
            if abs(pair["instruction_distance"] - distances[doc_id]) > DISTANCE_TOL:
                errors.append(
                    f"{what}: {doc_id} distance {pair['instruction_distance']!r}, "
                    f"independent {distances[doc_id]!r}"
                )
            dist, ambiguous = filt.distance(self.by_id[doc_id]["ingredients"], query["ingredients"])
            if not ambiguous and (dist != pair["ingredients_distance"] or dist > self.w.threshold):
                errors.append(
                    f"{what}: {doc_id} ingredients distance {pair['ingredients_distance']}, "
                    f"independent {dist}, threshold {self.w.threshold}"
                )
        for doc_id, distance in distances.items():
            if distance < kth - TIE_TOL and doc_id not in seen:
                dist, ambiguous = filt.distance(self.by_id[doc_id]["ingredients"], query["ingredients"])
                if dist <= self.w.threshold and not ambiguous:
                    errors.append(f"{what}: {doc_id} at {distance:.6g} passes the filter but is missing")
        return errors


class Tfidf:
    """tf x ln(N/df) vectors over the train side; cosines computed densely
    over the query's terms."""

    def __init__(self, docs: list[tuple[str, list[str]]]):
        self.ids = [doc_id for doc_id, _ in docs]
        self.counts = [Counter(t) for _, t in docs]
        df = Counter(term for counts in self.counts for term in counts)
        self.idf = {term: np.log(len(docs) / n) for term, n in df.items()}
        self.norms = np.array(
            [np.sqrt(sum((tf * self.idf[t]) ** 2 for t, tf in c.items())) for c in self.counts]
        )

    def cosines(self, query: list[str]) -> dict[str, float]:
        terms = sorted(t for t in set(query) if self.idf.get(t, 0.0) > 0.0)
        q = Counter(query)
        idf = np.array([self.idf[t] for t in terms])
        qw = np.array([q[t] for t in terms]) * idf
        dense = np.array([[c.get(t, 0) for t in terms] for c in self.counts], dtype=np.float64) * idf
        qnorm = np.linalg.norm(qw)
        denom = self.norms * qnorm
        dots = dense @ qw if terms else np.zeros(len(self.ids))
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        return dict(zip(self.ids, np.clip(sims, 0.0, 1.0).tolist()))


def group(pairs: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for pair in pairs:
        grouped.setdefault(pair["query_id"], []).append(pair)
    return grouped


def guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as error:  # a missing or malformed output fails the check
        return [f"{type(error).__name__}: {error}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    rundir = Path(args.dir)

    stages, queries = {}, []
    found: dict[str, list[int]] = {}
    for index in range(args.rounds):
        run = Round(workload, rundir / f"round-{index}", round_seed(args.seed, index))
        stages[str(index)] = run.full(run.out)
        for query in run.query_checks():
            queries.append({"round": index, **query})
        for method, (hits, total) in run.recall().items():
            found.setdefault(method, [0, 0])
            found[method][0] += hits
            found[method][1] += total
        if index == 0 and args.traced:
            stages["traced"] = run.same_outputs(rundir / "traced")
    recall = {method: hits / max(1, total) for method, (hits, total) in found.items()}
    print(json.dumps({"stages": stages, "queries": queries, "recall": recall}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
