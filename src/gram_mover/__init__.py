"""Near-duplicate recipe detection via a mover's distance over character
3-gram embeddings: text normalization, SGNS embedding training, exact
transport with lower-bound pruning, an ingredients-distance filter, a
tf-idf baseline, and a two-feature pair classifier."""
