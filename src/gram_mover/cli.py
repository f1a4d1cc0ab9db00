"""Command-line front end for the near-duplicate detection pipeline.

Subcommands chain through file artifacts in an output directory: train
embeddings, build a retrieval index, extract candidate pairs (mover or
tf-idf baseline), classify labeled pairs, and report method comparisons;
`synth-corpus` generates the planted-duplicate evaluation corpus. Settings
come from CLI flags, then a key=value config file, then defaults. Logs go
to stderr; artifacts are written atomically and are byte-identical for
identical inputs and seed."""

from __future__ import annotations

import argparse
import logging
import json
import os
import sys
import zlib
from dataclasses import asdict, dataclass, fields
from datetime import date
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from .classify import (
    FOREST,
    LOGISTIC,
    examples_from_pairs,
    loocv_grid_search,
    undersample,
)
from .corpus import Corpus, load_corpus, save_corpus, split_by_date
from .embed import EmbeddingTable, SgnsConfig, Vocab, load_vectors, save_vectors, train_sgns
from .mover import (
    COSINE,
    EUCLIDEAN,
    GramHistogram,
    MoverIndex,
    PreparedDoc,
    SolverError,
    build_index,
    topk_query,
)
from .pipeline import (
    GRAM3,
    METHOD_TFIDF,
    ExtractionStats,
    build_instruction_docs,
    compare_methods,
    comparison_text,
    extract_candidates,
    extract_with_retriever,
    ingredient_sgns_config,
    load_pairs,
    save_pairs,
    train_ingredient_table,
)
from .synth import CUTOFF, MAX_INGREDIENTS, generate_corpus, save_truth
from .tokenize import WORD

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid configuration; `field` names the offending setting."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class MissingArtifact(Exception):
    """A required upstream artifact is absent; `producer` is the subcommand
    that writes it."""

    def __init__(self, path: Path, producer: str):
        super().__init__(f"missing artifact {path}; run `gram-mover {producer}` first")
        self.path = path
        self.producer = producer


@dataclass
class CliConfig:
    """Every setting a subcommand reads, with its type and default; a
    config-file key or flag is named after its field. The SGNS fields match
    `SgnsConfig`'s names and defaults."""

    corpus: str | None = None
    cutoff: date = CUTOFF
    granularity: str = GRAM3
    embedding_source: str = "train-sgns"
    metric: str = COSINE
    k: int = 10
    threshold: int = 2
    seed: int = 1
    out: str = "out"
    baseline_words: bool = False
    dimension: int = 100
    window: int = 15
    negatives: int = 5
    epochs: int = 5
    initial_step_size: float = 0.025
    final_step_size: float = 1e-4
    subsample_threshold: float = 1e-4
    min_count: int = 5
    noise_table_size: int = 10_000_000
    train_size: int = 940
    planted: int = 50
    fresh: int = 10
    pool_size: int = 200
    typo_rate: float = 0.02

    def sgns_config(self) -> SgnsConfig:
        return SgnsConfig(**{f.name: getattr(self, f.name) for f in fields(SgnsConfig)})

    def out_dir(self) -> Path:
        return Path(self.out)

    def method(self) -> str:
        suffix = "sgns" if self.embedding_source == "train-sgns" else "external"
        return f"{self.granularity}-{suffix}"


#: each setting's type, from its annotation
_FIELD_TYPES = get_type_hints(CliConfig)

#: (comparison, bound) that each numeric setting must satisfy, except
#: `typo_rate`, a probability, and `subsample_threshold`, which any value
#: <= 0 turns off and only NaN fails
_LOWER_BOUNDS = {
    "k": (">=", 1),
    "threshold": (">=", 0),
    "seed": (">=", 0),
    "dimension": (">=", 1),
    "window": (">=", 1),
    "negatives": (">=", 1),
    "epochs": (">=", 1),
    "initial_step_size": (">", 0),
    "final_step_size": (">", 0),
    "min_count": (">=", 1),
    "noise_table_size": (">=", 1),
    "train_size": (">=", 0),
    "planted": (">=", 0),
    "fresh": (">=", 0),
    "pool_size": (">=", MAX_INGREDIENTS),
}


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments are skipped."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError("config", f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(key, f"{path}:{line_no}: unknown setting")
            values[key] = value.strip()
    return values


def _coerce(field_name: str, raw: str):
    """`raw` as the setting's type; strings stay as they are."""
    kind = _FIELD_TYPES[field_name]
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError("expected a boolean")
        if kind is date:
            return date.fromisoformat(raw)
        if kind in (int, float):
            return kind(raw)
        return raw
    except ValueError as error:
        raise ConfigError(field_name, f"cannot parse {raw!r}: {error}") from error


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """CLI flag > config file > default, validated field by field."""
    config = CliConfig()
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        if not Path(args.config).is_file():
            raise ConfigError("config", f"file not found: {args.config}")
        file_values = read_config_file(args.config)

    for f in fields(CliConfig):
        value = getattr(args, f.name, None)
        if value is None:
            value = file_values.get(f.name)
        if value is not None:
            # flags arrive typed except `--cutoff`; file values are all strings
            setattr(config, f.name, _coerce(f.name, value) if isinstance(value, str) else value)

    _validate(config)
    return config


def _validate(config: CliConfig) -> None:
    if config.granularity not in (GRAM3, WORD):
        raise ConfigError("granularity", f"must be {GRAM3} or {WORD}")
    if config.metric not in (COSINE, EUCLIDEAN):
        raise ConfigError("metric", f"must be {COSINE} or {EUCLIDEAN}")
    for name, (comparison, bound) in _LOWER_BOUNDS.items():
        value = getattr(config, name)
        # written as "not ..." so that NaN fails too
        if not (value > bound if comparison == ">" else value >= bound):
            raise ConfigError(name, f"must be {comparison} {bound}")
    if np.isnan(config.subsample_threshold):
        raise ConfigError("subsample_threshold", "must be a number, not NaN")
    if config.planted > config.train_size:
        raise ConfigError("planted", f"must be <= train_size ({config.train_size})")
    if not 0.0 <= config.typo_rate <= 1.0:
        raise ConfigError("typo_rate", "must be in [0, 1]")
    if config.embedding_source != "train-sgns" and not Path(config.embedding_source).is_file():
        raise ConfigError("embedding_source", f"file not found: {config.embedding_source}")


def _require_corpus(config: CliConfig) -> Corpus:
    if not config.corpus:
        raise ConfigError("corpus", "no corpus path configured")
    if not Path(config.corpus).is_file():
        raise ConfigError("corpus", f"file not found: {config.corpus}")
    return load_corpus(config.corpus)


def _require_artifact(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise MissingArtifact(path, producer)
    return path


def _atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _atomic_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


# --- artifact paths ----------------------------------------------------------


def _vectors_path(out: Path, granularity: str) -> Path:
    return out / f"embeddings-{granularity}.vec"


def _ingredient_vectors_path(out: Path) -> Path:
    return out / "embeddings-ingredients.vec"


def _index_path(out: Path, granularity: str) -> Path:
    return out / f"index-{granularity}.npz"


def _candidates_path(out: Path, method: str) -> Path:
    return out / f"candidates-{method}.jsonl"


def save_solver_failure(out: Path, error: SolverError) -> Path:
    """Write the failed transport instance (`a`, `b`, `cost` and the message)
    as JSON under `<out>/solver-failures/`, named by its CRC-32, so the solve
    can be replayed with `emd_exact`. (zlib, not hashlib: importing hashlib
    loads OpenSSL, about 3 MB of resident memory on every run.)"""
    text = json.dumps({"message": str(error), **error.instance}) + "\n"
    folder = out / "solver-failures"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{zlib.crc32(text.encode()):08x}.json"
    _atomic_text(path, text)
    return path


# --- index persistence -------------------------------------------------------


def save_index(path: Path, index: MoverIndex, granularity: str, method: str) -> None:
    hists = [entry.hist for entry in index.entries]
    supports = np.concatenate([np.zeros(0, dtype=np.int64)] + [hist.support for hist in hists])
    weights = np.concatenate([np.zeros(0, dtype=np.float64)] + [hist.weights for hist in hists])
    offsets = np.zeros(len(hists) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(hist.support) for hist in hists], dtype=np.int64)

    def writer(tmp: Path) -> None:
        # hand savez an open handle: with a bare path it appends ".npz",
        # which would break the temp-file rename
        with open(tmp, "wb") as handle:
            np.savez(
                handle,
                tokens=np.array(index.table.vocab.tokens, dtype=str),
                vectors=index.table.vectors,
                doc_ids=np.array([entry.doc_id for entry in index.entries], dtype=str),
                offsets=offsets,
                supports=supports,
                weights=weights,
                skipped=np.array(index.skipped, dtype=str),
                granularity=np.array(granularity),
                metric=np.array(index.metric),
                method=np.array(method),
            )

    _atomic_write(path, writer)


#: every array `save_index` writes, in its order
_INDEX_ARRAYS = (
    "tokens", "vectors", "doc_ids", "offsets", "supports", "weights",
    "skipped", "granularity", "metric", "method",
)


def _check_index_arrays(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Reject CSR arrays that do not describe one histogram per doc id over
    the stored vocabulary; the error names the file, the array and, where
    one document is at fault, its doc id."""
    tokens, doc_ids, offsets, supports, weights = (
        arrays[name] for name in ("tokens", "doc_ids", "offsets", "supports", "weights")
    )
    if len(set(tokens.tolist())) != len(tokens):
        raise ValueError(f"{path}: tokens holds a token more than once")
    if len(doc_ids) != len(offsets) - 1:
        raise ValueError(
            f"{path}: doc_ids has {len(doc_ids)} entries, "
            f"but offsets delimits {len(offsets) - 1} documents"
        )
    if offsets[0] != 0 or offsets[-1] != len(supports) or np.any(np.diff(offsets) <= 0):
        raise ValueError(
            f"{path}: offsets must start at 0, rise at every document "
            f"and end at {len(supports)}, the length of supports"
        )
    if len(weights) != len(supports):
        raise ValueError(
            f"{path}: weights has {len(weights)} entries, supports has {len(supports)}"
        )
    if len(supports) and (supports.min() < 0 or supports.max() >= len(tokens)):
        raise ValueError(f"{path}: supports holds ids outside [0, {len(tokens)})")
    doc = np.repeat(np.arange(len(doc_ids)), np.diff(offsets))  # document of each support entry
    repeats = (np.diff(supports, prepend=-1) <= 0) & (np.diff(doc, prepend=-1) == 0)
    for array, faults, rule in (
        ("weights", ~(weights > 0), "must be positive"),
        ("supports", repeats, "must be unique and sorted"),
    ):
        if np.any(faults):
            at = str(doc_ids[doc[faults.argmax()]])
            raise ValueError(f"{path}: {array} of document {at!r} {rule}")


def load_index(path: Path) -> tuple[MoverIndex, str, str]:
    """The index `save_index` wrote: each document's histogram is a view into
    the stored CSR arrays. Missing arrays, or arrays that do not fit
    together, raise ValueError naming the file."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    missing = [name for name in _INDEX_ARRAYS if name not in arrays]
    if missing:
        raise ValueError(f"{path}: missing index arrays: {', '.join(missing)}")
    _check_index_arrays(path, arrays)
    granularity = str(arrays["granularity"])
    offsets, supports, weights = arrays["offsets"], arrays["supports"], arrays["weights"]
    bounds = zip(arrays["doc_ids"].tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
    tokens = arrays["tokens"].tolist()
    vocab = Vocab(tokens=tokens, index={t: i for i, t in enumerate(tokens)}, counts=None)
    try:
        table = EmbeddingTable(vocab=vocab, vectors=arrays["vectors"])
        entries = [
            PreparedDoc(doc_id, GramHistogram(supports[lo:hi], weights[lo:hi]))
            for doc_id, lo, hi in bounds
        ]
    except ValueError as error:  # a fault the histogram or the table rejects
        raise ValueError(f"{path}: {error}") from None
    index = MoverIndex(table, str(arrays["metric"]), entries, arrays["skipped"].tolist())
    return index, granularity, str(arrays["method"])


# --- subcommands -------------------------------------------------------------


def _cmd_synth_corpus(config: CliConfig, args: argparse.Namespace) -> int:
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    corpus, truth = generate_corpus(
        seed=config.seed,
        train_size=config.train_size,
        planted=config.planted,
        fresh=config.fresh,
        pool_size=config.pool_size,
        typo_rate=config.typo_rate,
    )
    _atomic_write(out / "corpus.jsonl", lambda tmp: save_corpus(corpus, tmp))
    _atomic_write(out / "truth.jsonl", lambda tmp: save_truth(truth, tmp))
    logger.info(
        "wrote %d recipes (%d planted duplicates) to %s", len(corpus), len(truth), out
    )
    return 0


def _cmd_train_embeddings(config: CliConfig, args: argparse.Namespace) -> int:
    corpus = _require_corpus(config)
    train, _ = split_by_date(corpus, config.cutoff)
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)

    # both tables are trained before either is written, so a failure leaves
    # no vectors behind for the later stages to pick up
    docs = [tokens for _, tokens in build_instruction_docs(train, config.granularity)]
    table = train_sgns(docs, config.sgns_config())
    ingredient_seed = config.seed + 1
    ingredient_settings = asdict(ingredient_sgns_config(ingredient_seed))
    logger.info(
        "ingredient embeddings use fixed settings, not the SGNS flags: %s",
        " ".join(f"{name}={value}" for name, value in ingredient_settings.items()),
    )
    ingredient_table = train_ingredient_table(train, seed=ingredient_seed)

    path = _vectors_path(out, config.granularity)
    _atomic_write(path, lambda tmp: save_vectors(table, tmp))
    logger.info("wrote %d instruction vectors to %s", len(table.vocab.tokens), path)
    ing_path = _ingredient_vectors_path(out)
    _atomic_write(ing_path, lambda tmp: save_vectors(ingredient_table, tmp))
    logger.info("wrote %d ingredient vectors to %s", len(ingredient_table.vocab.tokens), ing_path)
    return 0


def _load_instruction_table(config: CliConfig, out: Path) -> EmbeddingTable:
    if config.embedding_source == "train-sgns":
        path = _require_artifact(_vectors_path(out, config.granularity), "train-embeddings")
    else:
        path = Path(config.embedding_source)
    return load_vectors(path)


def _load_ingredient_table(out: Path) -> EmbeddingTable:
    return load_vectors(_require_artifact(_ingredient_vectors_path(out), "train-embeddings"))


def _cmd_build_index(config: CliConfig, args: argparse.Namespace) -> int:
    corpus = _require_corpus(config)
    train, _ = split_by_date(corpus, config.cutoff)
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    table = _load_instruction_table(config, out)
    index = build_index(build_instruction_docs(train, config.granularity), table, config.metric)
    path = _index_path(out, config.granularity)
    save_index(path, index, config.granularity, config.method())
    logger.info(
        "indexed %d documents (%d skipped) to %s", len(index.entries), len(index.skipped), path
    )
    return 0


def _cmd_extract_candidates(config: CliConfig, args: argparse.Namespace) -> int:
    corpus = _require_corpus(config)
    train, test = split_by_date(corpus, config.cutoff)
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    index_path = _require_artifact(_index_path(out, config.granularity), "build-index")
    index, granularity, method = load_index(index_path)
    for name, built in (("metric", index.metric), ("granularity", granularity)):
        if built != getattr(config, name):
            raise ConfigError(
                name,
                f"{index_path} was built with {name} {built}, "
                f"not {getattr(config, name)}; rerun build-index",
            )
    ingredient_table = _load_ingredient_table(out)

    stats = ExtractionStats()

    def retrieve(query):
        return topk_query(query, index, config.k, pruning=True, stats=stats.search)

    pairs = extract_with_retriever(
        test,
        train,
        method,
        granularity,
        retrieve,
        ingredient_table=ingredient_table,
        threshold=config.threshold,
        stats=stats,
    )
    path = _candidates_path(out, method)
    _atomic_write(path, lambda tmp: save_pairs(pairs, tmp))
    logger.info(
        "%d candidate pairs from %d queries "
        "(%d skipped, %d exact distance evaluations, %d stopped early, %d pivots) to %s",
        len(pairs),
        stats.queries_total,
        len(stats.queries_skipped),
        stats.search.exact_evaluations,
        stats.search.early_stopped,
        stats.search.pivots,
        path,
    )
    return 0


def _cmd_baseline(config: CliConfig, args: argparse.Namespace) -> int:
    corpus = _require_corpus(config)
    train, test = split_by_date(corpus, config.cutoff)
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    ingredient_table = _load_ingredient_table(out)
    stats = ExtractionStats()
    pairs = extract_candidates(
        test,
        train,
        METHOD_TFIDF,
        ingredient_table=ingredient_table,
        k=config.k,
        threshold=config.threshold,
        baseline_words=config.baseline_words,
        stats=stats,
    )
    path = _candidates_path(out, METHOD_TFIDF)
    _atomic_write(path, lambda tmp: save_pairs(pairs, tmp))
    logger.info(
        "%d baseline pairs from %d queries (%d skipped) to %s",
        len(pairs),
        stats.queries_total,
        len(stats.queries_skipped),
        path,
    )
    return 0


def _pair_files(config: CliConfig, args: argparse.Namespace) -> list[Path]:
    if getattr(args, "pairs", None):
        paths = [Path(p) for p in args.pairs]
        for path in paths:
            if not path.is_file():
                raise MissingArtifact(path, "extract-candidates")
        return paths
    found = sorted(config.out_dir().glob("candidates-*.jsonl"))
    if not found:
        raise MissingArtifact(config.out_dir() / "candidates-*.jsonl", "extract-candidates")
    return found


def _cmd_classify(config: CliConfig, args: argparse.Namespace) -> int:
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for path in _pair_files(config, args):
        pairs.extend(load_pairs(path))
    examples = examples_from_pairs(pairs)
    if not examples:
        print("no labeled pairs to classify", file=sys.stderr)
        return 1
    try:
        balanced = undersample(examples, seed=config.seed)
    except ValueError as error:
        print(f"cannot undersample: {error}", file=sys.stderr)
        return 1

    summary: dict = {"examples": len(examples), "balanced": len(balanced), "models": {}}
    lines = ["model  F1  Recall  Precision  hyperparameters"]
    for kind in (LOGISTIC, FOREST):
        result = loocv_grid_search(balanced, kind, seed=config.seed)
        m = result.best_metrics
        summary["models"][kind] = {
            "best_params": result.best_params,
            "f1": m.f1,
            "recall": m.recall,
            "precision": m.precision,
            "grid": [
                {"params": point.params, "f1": point.metrics.f1} for point in result.results
            ],
        }
        lines.append(
            f"{kind}  {m.f1:.2f}  {m.recall:.2f}  {m.precision:.2f}  {result.best_params}"
        )
        logger.info("%s: F1 %.3f with %s", kind, m.f1, result.best_params)
    _atomic_text(out / "classifier-metrics.json", json.dumps(summary, indent=2) + "\n")
    _atomic_text(out / "classifier-metrics.txt", "\n".join(lines) + "\n")
    return 0


def _cmd_report(config: CliConfig, args: argparse.Namespace) -> int:
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    by_method: dict[str, list] = {}
    for path in _pair_files(config, args):
        for pair in load_pairs(path):
            by_method.setdefault(pair.method, []).append(pair)
    summary = compare_methods(by_method)
    _atomic_text(out / "report.json", json.dumps(summary, indent=2, ensure_ascii=False) + "\n")
    _atomic_text(out / "report.txt", comparison_text(summary))
    logger.info("report over %d methods written to %s", len(by_method), out)
    return 0


_COMMANDS = {
    "synth-corpus": _cmd_synth_corpus,
    "train-embeddings": _cmd_train_embeddings,
    "build-index": _cmd_build_index,
    "extract-candidates": _cmd_extract_candidates,
    "baseline": _cmd_baseline,
    "classify": _cmd_classify,
    "report": _cmd_report,
}


def _setting_flag(parser: argparse.ArgumentParser, name: str, **options) -> None:
    """`--name-with-dashes`, typed as the `CliConfig` field `name`."""
    parser.add_argument(
        f"--{name.replace('_', '-')}", dest=name, type=_FIELD_TYPES[name], **options
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value settings file")
    common.add_argument("--corpus", help="recipe corpus (JSON Lines)")
    common.add_argument("--cutoff", help="train/test split date (YYYY-MM-DD)")
    common.add_argument("--granularity", choices=(GRAM3, WORD))
    common.add_argument(
        "--embedding-source",
        dest="embedding_source",
        help="'train-sgns' or a path to a text-format vector file",
    )
    common.add_argument("--metric", choices=(COSINE, EUCLIDEAN))
    _setting_flag(common, "k", help="retrieval depth per query")
    _setting_flag(common, "threshold", help="ingredients-distance filter")
    _setting_flag(common, "seed")
    common.add_argument("--out", help="artifact directory")
    common.add_argument(
        "--threads",
        type=int,
        choices=(1,),
        help="accepted for compatibility and must be 1: every subcommand runs on one thread",
    )
    common.add_argument("--verbose", action="store_true")
    sgns_help = "SGNS setting for the instruction embeddings only; the ingredient table's are fixed"
    for f in fields(SgnsConfig):
        if f.name != "seed":
            _setting_flag(common, f.name, help=sgns_help)
    common.add_argument(
        "--baseline-words",
        dest="baseline_words",
        action="store_const",
        const=True,
        help="run the tf-idf baseline on word tokens instead of 3-grams",
    )

    parser = argparse.ArgumentParser(
        prog="gram-mover",
        description="Near-duplicate recipe detection via a mover's distance over character 3-grams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    synth_parser = sub.add_parser("synth-corpus", parents=[common], help="generate the planted-duplicate corpus")
    for name in ("train_size", "planted", "fresh", "pool_size", "typo_rate"):
        _setting_flag(synth_parser, name)
    sub.add_parser("train-embeddings", parents=[common], help="train instruction and ingredient embeddings")
    sub.add_parser("build-index", parents=[common], help="prepare train-side histograms for search")
    sub.add_parser("extract-candidates", parents=[common], help="mover-distance retrieval + ingredients filter")
    sub.add_parser("baseline", parents=[common], help="tf-idf retrieval + ingredients filter")
    classify_parser = sub.add_parser("classify", parents=[common], help="train and evaluate pair classifiers")
    classify_parser.add_argument("--pairs", nargs="+", help="labeled candidate-pair files")
    report_parser = sub.add_parser("report", parents=[common], help="compare methods over labeled pairs")
    report_parser.add_argument("--pairs", nargs="+", help="candidate-pair files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = resolve_config(args)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](config, args)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2
    except MissingArtifact as error:
        print(str(error), file=sys.stderr)
        return 3
    except SolverError as error:
        path = save_solver_failure(config.out_dir(), error)
        print(f"solver error: {error}; instance written to {path}", file=sys.stderr)
        return 4
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
