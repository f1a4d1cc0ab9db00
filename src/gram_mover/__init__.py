"""Near-duplicate recipe detection via a mover's distance over character
3-gram embeddings: text normalization, SGNS embedding training, exact
transport with lower-bound pruning, an ingredients-distance filter, a
tf-idf baseline, and a two-feature pair classifier."""

from .corpus import Corpus, PairLabel, Recipe, RecipeParseError, load_corpus, save_corpus, split_by_date
from .embed import (
    EmbeddingTable,
    SgnsConfig,
    Vocab,
    build_vocab,
    load_vectors,
    nearest_neighbors,
    save_vectors,
    train_sgns,
)
from .ingredients import (
    ANNOTATION_THRESHOLD,
    canonicalize_ingredient,
    canonicalize_list,
    ingredients_distance,
    passes_annotation_filter,
)
from .mover import (
    COSINE,
    EUCLIDEAN,
    CostMatrix,
    GramHistogram,
    MoverIndex,
    SearchStats,
    SolverError,
    TransportPlan,
    build_index,
    cost_matrix,
    emd_exact,
    mover_distance,
    nbow,
    rwmd,
    topk_query,
    wcd,
)
from .classify import (
    FOREST,
    LOGISTIC,
    ForestModel,
    LabeledExample,
    LogisticModel,
    Metrics,
    examples_from_pairs,
    f1_score,
    logistic_hessian,
    logistic_loss_and_grad,
    loocv_grid_search,
    metrics,
    train_logreg,
    train_random_forest,
    undersample,
)
from .pipeline import (
    ALL_METHODS,
    GRAM3,
    METHOD_GRAM3_EXTERNAL,
    METHOD_GRAM3_SGNS,
    METHOD_TFIDF,
    METHOD_WORD_EXTERNAL,
    METHOD_WORD_SGNS,
    CandidatePair,
    ExtractionStats,
    TfidfIndex,
    build_instruction_docs,
    build_tfidf_index,
    compare_methods,
    extract_candidates,
    ingredient_sgns_config,
    instruction_tokens,
    load_pairs,
    save_pairs,
    train_ingredient_table,
)
from .synth import PlantedPair, generate_corpus, load_truth, save_truth, synthetic_classification_pool
from .textnorm import (
    fold_kana,
    fold_width,
    strip_parenthetical,
    strip_symbols,
)
from .tokenize import TokenSeq, WORD, char_ngrams, gram_granularity, pretokenized, word_tokens

__all__ = [name for name in dir() if not name.startswith("_")]
