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
from collections import Counter
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
from .ingredients import ANNOTATION_THRESHOLD
from .mover import COSINE, METRICS, MoverIndex, SolverError, build_index
from .pipeline import (
    GRAM3,
    GRANULARITIES,
    METHOD_TFIDF,
    ExtractionStats,
    build_instruction_docs,
    compare_methods,
    comparison_text,
    extract_with_retriever,
    ingredient_sgns_config,
    load_pairs,
    mover_retriever,
    save_pairs,
    tfidf_retriever,
    train_ingredient_table,
)
from .settings import ConfigError
from .synth import CUTOFF, CorpusConfig, generate_corpus, save_truth

logger = logging.getLogger(__name__)


class MissingArtifact(Exception):
    """A required upstream artifact is absent; `producer` is the subcommand
    that writes it."""

    def __init__(self, path: Path, producer: str):
        super().__init__(f"missing artifact {path}; run `gram-mover {producer}` first")
        self.path = path
        self.producer = producer


@dataclass(frozen=True)
class CliConfig(CorpusConfig, SgnsConfig):
    """Every setting a subcommand reads, with its type and default; a
    config-file key or flag is named after its field. The SGNS settings,
    `seed` among them, come from `SgnsConfig`, so `train-embeddings` passes
    the whole configuration to `train_sgns`, and the corpus settings from
    `CorpusConfig`. Building one checks every field."""

    corpus: str | None = None
    cutoff: date = CUTOFF
    granularity: str = GRAM3
    embedding_source: str = "train-sgns"
    metric: str = COSINE
    k: int = 10
    threshold: int = ANNOTATION_THRESHOLD
    out: str = "out"

    _BOUNDS = SgnsConfig._BOUNDS + (("k", ">=", 1), ("threshold", ">=", 0))

    def __post_init__(self):
        SgnsConfig.__post_init__(self)
        CorpusConfig.__post_init__(self)
        for name, choices in (("granularity", GRANULARITIES), ("metric", METRICS)):
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(name, f"must be {' or '.join(choices)}, got {value!r}")

    def out_dir(self) -> Path:
        return Path(self.out)

    def method(self) -> str:
        suffix = "sgns" if self.embedding_source == "train-sgns" else "external"
        return f"{self.granularity}-{suffix}"


#: each setting's type, from its annotation
_FIELD_TYPES = get_type_hints(CliConfig)


def read_config_file(path: str) -> dict[str, str]:
    """key=value lines of UTF-8 text; blank lines and #-comments are
    skipped. A key set on two lines is an error naming both."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise ConfigError("config", f"{path}: not UTF-8 text ({error})") from None
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(key, f"{path}:{line_no}: unknown setting")
        if key in set_on:
            raise ConfigError(key, f"{path}:{line_no}: already set on line {set_on[key]}")
        set_on[key] = line_no
        values[key] = value.strip()
    return values


def _coerce(field_name: str, raw: str):
    """`raw` as the setting's type; strings stay as they are."""
    kind = _FIELD_TYPES[field_name]
    try:
        if kind is date:
            return date.fromisoformat(raw)
        if kind in (int, float):
            return kind(raw)
        return raw
    except ValueError as error:
        raise ConfigError(field_name, f"cannot parse {raw!r}: {error}") from error


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """CLI flag > config file > default, checked as `CliConfig` is built;
    the config file and an external embedding file must exist."""
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        if not Path(args.config).is_file():
            raise ConfigError("config", f"file not found: {args.config}")
        file_values = read_config_file(args.config)

    values = {}
    for f in fields(CliConfig):
        value = getattr(args, f.name, None)
        if value is None:
            value = file_values.get(f.name)
        if value is not None:
            # flags arrive typed except `--cutoff`; file values are all strings
            values[f.name] = _coerce(f.name, value) if isinstance(value, str) else value
    config = CliConfig(**values)
    if config.embedding_source != "train-sgns" and not Path(config.embedding_source).is_file():
        raise ConfigError("embedding_source", f"file not found: {config.embedding_source}")
    return config


def _split_corpus(config: CliConfig) -> tuple[Corpus, Corpus, Path]:
    """The configured corpus's train and test sides, and the output
    directory, made only once the corpus is found."""
    if not config.corpus:
        raise ConfigError("corpus", "no corpus path configured")
    if not Path(config.corpus).is_file():
        raise ConfigError("corpus", f"file not found: {config.corpus}")
    train, test = split_by_date(load_corpus(config.corpus), config.cutoff)
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    return train, test, out


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


def train_digest(train: Corpus) -> int:
    """CRC-32 of what `build-index` reads from each train recipe: its id,
    `instructions` and `instructions_tokens`. The records are sorted first,
    so the corpus's record order does not change it. (zlib, not hashlib:
    see `save_solver_failure`.)"""
    records = sorted(
        json.dumps([recipe.id, recipe.instructions, recipe.instructions_tokens], ensure_ascii=False)
        for recipe in train
    )
    return zlib.crc32("\n".join(records).encode())


def save_index(path: Path, index: MoverIndex, granularity: str, method: str, digest: int) -> None:
    """Write the index's CSR arrays as they are, with `digest`, the
    `train_digest` of the recipes it was built from."""

    def writer(tmp: Path) -> None:
        # hand savez an open handle: with a bare path it appends ".npz",
        # which would break the temp-file rename
        with open(tmp, "wb") as handle:
            np.savez(
                handle,
                tokens=np.array(index.table.vocab.tokens, dtype=str),
                vectors=index.table.vectors,
                doc_ids=index.doc_ids,
                offsets=index.offsets,
                supports=index.supports,
                weights=index.weights,
                skipped=np.array(index.skipped, dtype=str),
                granularity=np.array(granularity),
                metric=np.array(index.metric),
                method=np.array(method),
                train_digest=np.array(digest, dtype=np.uint32),
            )

    _atomic_write(path, writer)


#: every array `save_index` writes, with its dtype kind and ndim
_INDEX_ARRAYS = {
    "tokens": ("U", 1), "vectors": ("f", 2), "doc_ids": ("U", 1), "offsets": ("i", 1),
    "supports": ("i", 1), "weights": ("f", 1), "skipped": ("U", 1), "granularity": ("U", 0),
    "metric": ("U", 0), "method": ("U", 0), "train_digest": ("u", 0),
}


def _check_index_arrays(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Reject a missing array and an array of the wrong dtype kind or ndim,
    naming the file and the array. `MoverIndex` checks that the CSR arrays
    fit together, and `GramHistogram` each document's histogram."""
    missing = [name for name in _INDEX_ARRAYS if name not in arrays]
    if missing:
        raise ValueError(f"{path}: missing index arrays: {', '.join(missing)}")
    for name, (kind, ndim) in _INDEX_ARRAYS.items():
        array = arrays[name]
        if array.dtype.kind != kind or array.ndim != ndim:
            raise ValueError(
                f"{path}: {name} is a {array.ndim}-d {array.dtype} array, "
                f"not {ndim}-d of dtype kind {kind!r}"
            )


def load_index(path: Path) -> tuple[MoverIndex, str, str, int]:
    """The index `save_index` wrote, its granularity, method and train
    digest: each document's histogram is a view into the stored CSR arrays.
    Arrays that `_check_index_arrays`, `EmbeddingTable` or `MoverIndex`
    rejects raise ValueError naming the file."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    _check_index_arrays(path, arrays)
    try:
        table = EmbeddingTable(Vocab(arrays["tokens"].tolist(), None), arrays["vectors"])
        csr = (arrays[name] for name in ("doc_ids", "offsets", "supports", "weights"))
        index = MoverIndex(table, str(arrays["metric"]), *csr, arrays["skipped"].tolist())
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    return index, str(arrays["granularity"]), str(arrays["method"]), int(arrays["train_digest"])


# --- subcommands -------------------------------------------------------------


def _cmd_synth_corpus(config: CliConfig, args: argparse.Namespace) -> int:
    out = config.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    corpus, truth = generate_corpus(
        seed=config.seed, **{f.name: getattr(config, f.name) for f in fields(CorpusConfig)}
    )
    _atomic_write(out / "corpus.jsonl", lambda tmp: save_corpus(corpus, tmp))
    _atomic_write(out / "truth.jsonl", lambda tmp: save_truth(truth, tmp))
    logger.info(
        "wrote %d recipes (%d planted duplicates) to %s", len(corpus), len(truth), out
    )
    return 0


def _cmd_train_embeddings(config: CliConfig, args: argparse.Namespace) -> int:
    train, _, out = _split_corpus(config)

    # both tables are trained before either is written, so a failure leaves
    # no vectors behind for the later stages to pick up
    docs = [tokens for _, tokens in build_instruction_docs(train, config.granularity)]
    table = train_sgns(docs, config)
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


def _instruction_vectors(config: CliConfig, out: Path) -> Path:
    if config.embedding_source == "train-sgns":
        return _require_artifact(_vectors_path(out, config.granularity), "train-embeddings")
    return Path(config.embedding_source)


def _load_ingredient_table(out: Path) -> EmbeddingTable:
    return load_vectors(_require_artifact(_ingredient_vectors_path(out), "train-embeddings"))


def _cmd_build_index(config: CliConfig, args: argparse.Namespace) -> int:
    train, _, out = _split_corpus(config)
    vectors = _instruction_vectors(config, out)
    index = build_index(
        build_instruction_docs(train, config.granularity), load_vectors(vectors), config.metric
    )
    path = _index_path(out, config.granularity)
    if not index.entries:
        raise ValueError(
            f"{vectors} embeds no train document ({len(index.skipped)} skipped); "
            f"{path} not written"
        )
    save_index(path, index, config.granularity, config.method(), train_digest(train))
    logger.info(
        "indexed %d documents (%d skipped) to %s", len(index.entries), len(index.skipped), path
    )
    return 0


def _cmd_extract_candidates(config: CliConfig, args: argparse.Namespace) -> int:
    train, test, out = _split_corpus(config)
    index_path = _require_artifact(_index_path(out, config.granularity), "build-index")
    index, granularity, method, digest = load_index(index_path)
    for name, built, configured in (
        ("metric", index.metric, config.metric),
        ("granularity", granularity, config.granularity),
        ("embedding_source", method, config.method()),
    ):
        if built != configured:
            raise ConfigError(
                name,
                f"{index_path} was built for {built}, not {configured}; rerun build-index",
            )
    if config.embedding_source != "train-sgns":
        source = load_vectors(config.embedding_source)
        if source.vocab.tokens != index.table.vocab.tokens or not np.array_equal(
            source.vectors, index.table.vectors
        ):
            raise ConfigError(
                "embedding_source",
                f"{index_path} was built from other vectors than {config.embedding_source}; "
                "rerun build-index",
            )
    indexed = Counter(entry.doc_id for entry in index.entries)
    indexed.update(index.skipped)
    if indexed != Counter(recipe.id for recipe in train):
        raise ConfigError(
            "corpus",
            f"{index_path} was built from another train split than the "
            f"{len(train)} recipes published by {config.cutoff}; rerun build-index",
        )
    if digest != train_digest(train):
        raise ConfigError(
            "corpus",
            f"{index_path} was built from other instructions than the train "
            f"recipes of {config.corpus}; rerun build-index",
        )
    ingredient_table = _load_ingredient_table(out)

    stats = ExtractionStats()
    pairs = extract_with_retriever(
        test,
        train,
        method,
        granularity,
        mover_retriever(index, config.k, stats.search),
        ingredient_table=ingredient_table,
        threshold=config.threshold,
        stats=stats,
    )
    path = _candidates_path(out, method)
    _atomic_write(path, lambda tmp: save_pairs(pairs, tmp))
    logger.info(
        "%d candidate pairs from %d queries "
        "(%d skipped, %d exact distance evaluations, %d stopped early, "
        "%d held, %d upper bounds, %d certified, %d pivots) to %s",
        len(pairs),
        stats.queries_total,
        len(stats.queries_skipped),
        stats.search.exact_evaluations,
        stats.search.early_stopped,
        stats.search.held,
        stats.search.upper_bounds,
        stats.search.certified,
        stats.search.pivots,
        path,
    )
    return 0


def _cmd_baseline(config: CliConfig, args: argparse.Namespace) -> int:
    train, test, out = _split_corpus(config)
    ingredient_table = _load_ingredient_table(out)
    stats = ExtractionStats()
    pairs = extract_with_retriever(
        test,
        train,
        METHOD_TFIDF,
        GRAM3,
        tfidf_retriever(build_instruction_docs(train, GRAM3), config.k),
        ingredient_table=ingredient_table,
        threshold=config.threshold,
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
        raise ValueError("no labeled pairs to classify")
    try:
        balanced = undersample(examples, seed=config.seed)
    except ValueError as error:
        raise ValueError(f"cannot undersample: {error}") from None

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
    common.add_argument("--granularity", choices=GRANULARITIES)
    common.add_argument(
        "--embedding-source",
        dest="embedding_source",
        help="'train-sgns' or a path to a text-format vector file",
    )
    common.add_argument("--metric", choices=METRICS)
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
    sgns_help = "SGNS setting for the instruction embeddings only; the ingredient table's are fixed"
    for f in fields(SgnsConfig):
        if f.name != "seed":
            _setting_flag(common, f.name, help=sgns_help)

    parser = argparse.ArgumentParser(
        prog="gram-mover",
        description="Near-duplicate recipe detection via a mover's distance over character 3-grams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    synth_parser = sub.add_parser("synth-corpus", parents=[common], help="generate the planted-duplicate corpus")
    for f in fields(CorpusConfig):
        _setting_flag(synth_parser, f.name)
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
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        config = resolve_config(args)
        return _COMMANDS[args.command](config, args)
    except ConfigError as error:
        print(f"config error: {error.field}: {error.reason}", file=sys.stderr)
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
