"""Mover's distance between token histograms over an embedding ground space.

The exact solver is a primal network simplex on the bipartite transportation
graph. It starts from a greedy matrix-minimum basis that is a spanning tree
as taken: every line (row or column) but one hangs from the arc that retired
it, and the line left open is the root. It keeps the tree in plain lists
(parent, flow to parent, depth, children) and the row and column potentials
in numpy vectors, and prices by the most negative reduced cost over the full
cost matrix. After a long run of degenerate pivots it switches to Bland's
rule (entering arc = first negative reduced cost in row-major order; leaving
arc = smallest-index minimizer), so it cannot cycle.
The plan carries the final potentials, from which optimality can be checked
independently.

A solve can be given a cutoff. It then stops as soon as a dual-feasible
lower bound exceeds the cutoff: first the row-and-column reduction of the
cost, before any basis is built, then at every pivot the current potentials
with each column potential lowered by the most negative reduced cost of its
column. A stopped solve returns no distance. A solve that completes takes
the same pivots as without a cutoff.

Top-k search prunes candidates with the relaxed one-sided lower bound (and
the centroid bound under a Euclidean ground metric), and once it holds k
distances it stops every solve whose distance cannot reach them (early
abandoning), without changing results, ties included. Given a `keep`
predicate, it solves to the optimum only the candidates kept: the others
are ranked, never returned, so past the first k, which seed the cutoff with
their greedy plans, each costs one `keep` call until a kept hit's rank
depends on it. Only then are its reduction bound, its greedy upper bound
and, where those leave its order against the hit open, an exact solve
computed; each bound once, and a solve again only with a higher cutoff
(the threshold algorithm of Fagin, Lotem and Naor, with lower and upper
bounds per candidate).

An index holds its documents in the CSR arrays it is saved as, and checks
them when built. It keeps one float64 ground-row table for its whole
vocabulary, built on first use, and gathers each pair's rows from it:
memory O(vocab · d), not O(total support entries · d).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable

import numpy as np

from .embed import EmbeddingTable
from .tokenize import TokenSeq

logger = logging.getLogger(__name__)

COSINE = "cosine"
EUCLIDEAN = "euclidean"
#: every ground metric
METRICS = (COSINE, EUCLIDEAN)

#: cost entries below this are clamped to zero to stabilize pivoting
COST_CLAMP = 1e-12

_REDUCED_COST_TOL = 1e-12

#: a candidate is pruned only when its lower bound exceeds the k-th best
#: distance by more than this: the bounds are exact only up to rounding (the
#: centroid bound can land an ulp above an equal exact distance), and a
#: pruned tie with a smaller doc id would change the result
_PRUNE_SLACK = 1e-9


class _StoppedEarly(Exception):
    """A solve given a cutoff proved its distance exceeds it; carries the
    pivots taken until then."""

    def __init__(self, pivots: int):
        super().__init__(f"distance exceeds the cutoff after {pivots} pivots")
        self.pivots = pivots


class SolverError(RuntimeError):
    """Network simplex failed to converge; carries the offending instance."""

    def __init__(self, message: str, instance: dict | None = None):
        super().__init__(message)
        self.instance = instance


@dataclass(frozen=True)
class GramHistogram:
    """Normalized bag of tokens: the marginal of the transport problem."""

    support: np.ndarray  # unique sorted token indices
    weights: np.ndarray  # strictly positive, sums to 1

    def __post_init__(self):
        if len(self.support) == 0:
            raise ValueError("histogram support must be non-empty")
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must align")
        if not np.all(self.weights > 0):  # written so that NaN fails too
            raise ValueError("weights must be strictly positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {self.weights.sum()!r}")
        if np.any(np.diff(self.support) <= 0):
            raise ValueError("support must be unique and sorted")


@dataclass(frozen=True)
class CostMatrix:
    values: np.ndarray  # (|supportA|, |supportB|), nonnegative finite

    def __post_init__(self):
        # min and max propagate NaN, so these two reductions see every entry
        lo, hi = self.values.min(), self.values.max()
        if not -np.inf < lo <= hi < np.inf:
            raise ValueError("cost matrix must be finite")
        if lo < 0:
            raise ValueError("cost matrix must be nonnegative")


@dataclass(frozen=True)
class TransportPlan:
    flow: np.ndarray  # (|supportA|, |supportB|), nonnegative
    row_potential: np.ndarray  # (|supportA|,) dual u of the final basis
    column_potential: np.ndarray  # (|supportB|,) dual v: cost - u - v >= -1e-12
    pivots: int  # simplex pivots taken from the starting basis


def nbow(tokens: TokenSeq, table: EmbeddingTable) -> GramHistogram:
    """Counts of in-vocabulary tokens normalized to sum 1; OOV tokens are
    dropped before normalization."""
    index = table.vocab.index
    ids = [index[t] for t in tokens.tokens if t in index]
    if not ids:
        raise ValueError("document has no embeddable tokens")
    support, counts = np.unique(np.asarray(ids, dtype=np.int64), return_counts=True)
    weights = counts.astype(np.float64) / len(ids)
    return GramHistogram(support=support, weights=weights)


def _ground_rows(vectors: np.ndarray, metric: str) -> np.ndarray:
    """The float64 rows every ground cost is built from: unit rows under
    cosine (zero rows stay zero), raw rows under Euclidean."""
    rows = vectors.astype(np.float64)
    if metric == COSINE:
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)
    if metric == EUCLIDEAN:
        return rows
    raise ValueError(f"unknown ground metric {metric!r}")


def _ground_cost(rows_a: np.ndarray, rows_b: np.ndarray, metric: str) -> CostMatrix:
    """Ground distances between two sets of `_ground_rows`."""
    if metric == COSINE:
        cost = 1.0 - rows_a @ rows_b.T
    else:
        sq = (
            np.sum(rows_a ** 2, axis=1)[:, None]
            + np.sum(rows_b ** 2, axis=1)[None, :]
            - 2.0 * rows_a @ rows_b.T
        )
        cost = np.sqrt(np.maximum(sq, 0.0))
    cost[cost < COST_CLAMP] = 0.0
    return CostMatrix(values=cost)


def cost_matrix(
    a: GramHistogram, b: GramHistogram, table: EmbeddingTable, metric: str = COSINE
) -> CostMatrix:
    """Ground distances between all support pairs of the two histograms."""
    return _ground_cost(
        _ground_rows(table.vectors[a.support], metric),
        _ground_rows(table.vectors[b.support], metric),
        metric,
    )


def emd_exact(
    a: GramHistogram, b: GramHistogram, c: CostMatrix, *, cutoff: float = np.inf
) -> tuple[float, TransportPlan]:
    """Exact minimum-cost transport between the two histograms.

    Returns the optimal value and an attaining plan whose marginals match the
    histogram weights to 1e-9, together with the final potentials and the
    number of pivots taken.

    With a finite `cutoff` the solve stops, raising the private
    `_StoppedEarly`, as soon as a dual lower bound on the value exceeds it;
    the value then exceeds the cutoff too, up to rounding. A solve that
    completes returns exactly what it returns without a cutoff.
    """
    cost = np.ascontiguousarray(c.values, dtype=np.float64)
    m, n = cost.shape
    if m != len(a.support) or n != len(b.support):
        raise ValueError("cost matrix shape does not match histogram supports")

    try:
        flow, row_potential, column_potential, pivots = _network_simplex(
            a.weights, b.weights, cost, cutoff=cutoff
        )
        row_err = np.abs(flow.sum(axis=1) - a.weights).max()
        col_err = np.abs(flow.sum(axis=0) - b.weights).max()
        if not (row_err <= 1e-9 and col_err <= 1e-9):  # NaN fails too
            raise SolverError(f"plan marginals off by ({row_err:.3g}, {col_err:.3g})")
    except SolverError as error:
        error.instance = {"a": a.weights.tolist(), "b": b.weights.tolist(), "cost": cost.tolist()}
        raise
    distance = float((flow * cost).sum())
    return distance, TransportPlan(
        flow=flow,
        row_potential=row_potential,
        column_potential=column_potential,
        pivots=pivots,
    )


def _greedy_arcs(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """The greedy matrix-minimum plan: its arcs `(i, j, moved, row_retired)`
    in the order taken, and its cost, the sum of moved · cost over them, an
    upper bound on the optimum.

    Arcs are visited in stable cost order; an arc whose row and column are
    both still open takes min(remaining supply, remaining demand) and retires
    exactly one of the two: the row when it is exhausted, else the column,
    except that the last open row or the last open column is never retired
    (the other line of the arc is). Lines never reopen, so every arc visited
    while both its lines are open is taken, and the scan ends after m + n - 1
    arcs with one line open.
    """
    m, n = cost.shape
    size = m + n
    order = np.argsort(cost, axis=None, kind="stable")
    rows = (order // n).tolist()
    cols = (order % n).tolist()
    cost_items = memoryview(cost)  # element access without numpy scalars
    supply = a.tolist()
    demand = b.tolist()
    row_open = [True] * m
    col_open = [True] * n
    open_rows, open_cols = m, n
    arcs = []
    total = 0.0
    for i, j in zip(rows, cols):
        if row_open[i] and col_open[j]:
            left, wanted = supply[i], demand[j]
            moved = left if left <= wanted else wanted
            supply[i] = left = left - moved
            demand[j] = wanted = wanted - moved
            total += moved * cost_items[i, j]
            row_retired = open_rows > 1 and (open_cols == 1 or left <= wanted)
            arcs.append((i, j, moved, row_retired))
            if len(arcs) == size - 1:
                break
            if row_retired:
                row_open[i] = False
                open_rows -= 1
            else:
                col_open[j] = False
                open_cols -= 1
    return arcs, total


def _start_tree(arcs, cost: np.ndarray):
    """The greedy plan's `arcs` as a rooted spanning tree: lists `parent`
    (-1 at the root), `flow_up` (flow on the arc to the parent), `depth` and
    `children` over node ids (rows 0..m-1, columns m..m+n-1), and the node
    potentials, 0 at the root and tight on every tree arc.

    The root is the line the greedy leaves open. Every other line hangs from
    the arc that retired it, under that arc's other line, which retires later
    or is the root; so in reverse order of taking, every parent is placed
    before its children.
    """
    m, n = cost.shape
    size = m + n
    parent = [-1] * size
    flow_up = [0.0] * size
    depth = [0] * size
    children: list[list[int]] = [[] for _ in range(size)]
    potential = np.zeros(size, dtype=np.float64)
    potential_items = memoryview(potential)  # element access without numpy scalars
    for i, j, moved, row_retired in reversed(arcs):
        node, up = (i, m + j) if row_retired else (m + j, i)
        parent[node] = up
        flow_up[node] = moved
        depth[node] = depth[up] + 1
        children[up].append(node)
        potential_items[node] = cost[i, j] - potential_items[up]
    return parent, flow_up, depth, children, potential


def _reduction_bound(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Lower bound from reducing the cost: u = row minima and v = column
    minima of cost - u, or the other way round. Both pairs leave no reduced
    cost negative, so either dual value bounds the optimum; the larger one
    is returned."""
    row_min = cost.min(axis=1)
    col_min = cost.min(axis=0)
    rows_first = a @ row_min + b @ (cost - row_min[:, None]).min(axis=0)
    cols_first = a @ (cost - col_min).min(axis=1) + b @ col_min
    return float(max(rows_first, cols_first))


def _pivot_bound(
    a: np.ndarray, b: np.ndarray, u: np.ndarray, v: np.ndarray, reduced: np.ndarray
) -> float:
    """Lower bound from the potentials of a basis and their reduced costs:
    lowering each v_j by the most negative reduced cost of its column makes
    the potentials dual feasible."""
    return float(a @ u + b @ (v + np.minimum(reduced.min(axis=0), 0.0)))


def _network_simplex(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray, *, cutoff: float = np.inf
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Primal network simplex on the bipartite transportation graph.

    Returns the optimal flow, the row and column potentials u, v of the final
    basis (u_i + v_j = cost_ij on its arcs, cost - u - v >= -1e-12 on all)
    and the number of pivots taken.

    - Start: the greedy matrix-minimum plan of `_greedy_arcs` as the tree
      of `_start_tree`, so a self-distance starts at its optimum (the
      cost-0 diagonal comes first).
      One pass over its arcs, last taken first, sets every parent, flow,
      depth and potential.
    - Tree: node ids 0..m-1 are rows, m..m+n-1 columns; the spanning tree is
      rooted at the line the greedy leaves open, whose potential is 0, and
      kept in plain lists (parent, flow on the arc to the parent, depth,
      children). A pivot re-hangs the subtree cut off by the leaving arc
      under the entering arc and shifts that subtree's potentials by the
      entering arc's reduced cost; the root never moves.
    - Pricing: most negative reduced cost over the full matrix.
    - Anti-cycling: after more than m + n consecutive degenerate pivots the
      entering arc becomes the first negative one in row-major order (Bland),
      until a pivot moves flow. Leaving-arc ties always break on the smallest
      row-major arc index.
    - Cutoff: with a finite `cutoff`, `_reduction_bound` is checked before
      the basis is built and `_pivot_bound` before every pricing step; once
      either exceeds the cutoff the solve raises `_StoppedEarly`. The checks
      only read the cost and the pricing matrix, so they never change the
      pivots taken.
    """
    m, n = cost.shape
    size = m + n
    bounded = cutoff < np.inf
    if bounded and _reduction_bound(a, b, cost) > cutoff:
        raise _StoppedEarly(0)

    arcs, _ = _greedy_arcs(a, b, cost)
    parent, flow_up, depth, children, potential = _start_tree(arcs, cost)
    u, v = potential[:m], potential[m:]  # views: row and column potentials
    potential_items = memoryview(potential)  # element access without numpy scalars
    root = parent.index(-1)  # pivots never move the root

    pivot_cap = 50 * size * size
    stall = 0  # consecutive degenerate pivots; long stalls engage Bland's rule
    reduced_matrix = np.empty_like(cost)
    reduced = reduced_matrix.ravel()
    for pivots in range(pivot_cap):
        np.subtract(cost, u[:, None], out=reduced_matrix)
        reduced_matrix -= v
        if bounded and _pivot_bound(a, b, u, v, reduced_matrix) > cutoff:
            raise _StoppedEarly(pivots)
        if stall <= size:
            entering = int(reduced.argmin())
            if reduced[entering] >= -_REDUCED_COST_TOL:
                break  # optimal
        else:
            negative = reduced < -_REDUCED_COST_TOL
            entering = int(negative.argmax())
            if not negative[entering]:
                break  # optimal
        enter_i, enter_j = divmod(entering, n)
        theta = _pivot(
            parent, flow_up, depth, children, potential_items,
            float(reduced[entering]), enter_i, enter_j, m, n,
        )
        stall = stall + 1 if theta <= 1e-15 else 0
    else:
        raise SolverError(f"no convergence within {pivot_cap} pivots")

    flow = np.zeros((m, n), dtype=np.float64)
    tree = [node for node in range(size) if node != root]
    rows = [node if node < m else parent[node] for node in tree]
    cols = [parent[node] - m if node < m else node - m for node in tree]
    flow[rows, cols] = [flow_up[node] for node in tree]
    return flow, u, v, pivots


def _pivot(parent, flow_up, depth, children, potential, reduced_cost, enter_i, enter_j, m, n):
    """One basis exchange on entering arc (enter_i, enter_j); returns the flow
    moved around the cycle."""
    # Tree paths from both endpoints up to their junction. Pushing flow onto
    # the entering arc takes it off the next arc on either side, then the
    # signs alternate: on the row side the arcs that lose flow are those whose
    # child is a row, on the column side those whose child is a column.
    row_end, col_end = enter_i, m + enter_j
    row_path, col_path = [], []
    x, y = row_end, col_end
    while depth[x] > depth[y]:
        row_path.append(x)
        x = parent[x]
    while depth[y] > depth[x]:
        col_path.append(y)
        y = parent[y]
    while x != y:
        row_path.append(x)
        col_path.append(y)
        x = parent[x]
        y = parent[y]

    # ratio test in cycle order (column end up to the junction, then down to
    # the row end), remembering on which side the leaving arc sits
    theta = np.inf
    leaving = -1
    leaving_key = -1
    leaving_on_row_side = False
    for on_row_side, path in ((False, col_path), (True, reversed(row_path))):
        for node in path:
            if (node < m) != on_row_side:
                continue  # this arc gains flow
            arc_flow = flow_up[node]
            up = parent[node]
            flat = node * n + (up - m) if node < m else up * n + (node - m)
            if leaving < 0 or arc_flow < theta - 1e-15:
                theta = arc_flow
                leaving, leaving_key, leaving_on_row_side = node, flat, on_row_side
            elif arc_flow - theta <= 1e-15 and flat < leaving_key:
                leaving, leaving_key, leaving_on_row_side = node, flat, on_row_side
                if arc_flow < theta:
                    theta = arc_flow

    if leaving < 0:
        # cannot happen on a balanced transportation polytope: the cycle
        # alternates, so at least one arc runs against the entering arc
        raise SolverError("pivot found no leaving arc")

    theta = max(0.0, theta)
    if theta > 0.0:
        for node in row_path:
            updated = flow_up[node] + (-theta if node < m else theta)
            flow_up[node] = updated if updated > 0.0 else 0.0
        for node in col_path:
            updated = flow_up[node] + (theta if node < m else -theta)
            flow_up[node] = updated if updated > 0.0 else 0.0

    # re-hang: the endpoint inside the subtree cut off by the leaving arc
    # becomes that subtree's root, attached to the other endpoint; the tree
    # path from it up to the leaving arc's child reverses direction
    if leaving_on_row_side:
        inside, outside = row_end, col_end
    else:
        inside, outside = col_end, row_end
    children[parent[leaving]].remove(leaving)
    node, carried, new_parent = inside, theta, outside
    while True:
        up, up_flow = parent[node], flow_up[node]
        parent[node] = new_parent
        flow_up[node] = carried
        children[new_parent].append(node)
        if node == leaving:
            break
        children[up].remove(node)
        node, carried, new_parent = up, up_flow, node

    # the re-hung subtree's potentials shift so that the entering arc's
    # reduced cost becomes zero; its depths are recomputed by one walk
    shift = reduced_cost if inside < m else -reduced_cost
    subtree = [inside]
    for node in subtree:  # grows while it is walked: breadth-first order
        depth[node] = depth[parent[node]] + 1
        potential[node] += shift if node < m else -shift
        subtree += children[node]
    return theta


def _centroid(hist: GramHistogram, table: EmbeddingTable) -> np.ndarray:
    """The weighted mean of a histogram's vectors, in float64."""
    return hist.weights @ table.vectors[hist.support].astype(np.float64)


def wcd(a: GramHistogram, b: GramHistogram, table: EmbeddingTable) -> float:
    """Centroid lower bound: distance between the weighted mean vectors.

    Only valid as a lower bound under the Euclidean ground metric.
    """
    return float(np.linalg.norm(_centroid(a, table) - _centroid(b, table)))


def rwmd(a: GramHistogram, b: GramHistogram, c: CostMatrix) -> float:
    """Relaxed lower bound: each mass moves to its cheapest target; the max of
    the two one-sided relaxations. Valid for any nonnegative cost."""
    from_a = float(a.weights @ c.values.min(axis=1))
    from_b = float(b.weights @ c.values.min(axis=0))
    return max(from_a, from_b)


def mover_distance(
    doc_a: TokenSeq,
    doc_b: TokenSeq,
    table: EmbeddingTable,
    metric: str = COSINE,
) -> float:
    """nbow -> cost matrix -> exact transport, at the documents' granularity."""
    hist_a = nbow(doc_a, table)
    hist_b = nbow(doc_b, table)
    distance, _ = emd_exact(hist_a, hist_b, cost_matrix(hist_a, hist_b, table, metric))
    return distance


@dataclass
class PreparedDoc:
    doc_id: str
    hist: GramHistogram


@dataclass
class MoverIndex:
    """Histograms of a corpus side, prepared for repeated top-k queries.

    Document i is `doc_ids[i]` with the runs `offsets[i]:offsets[i + 1]` of
    `supports` and `weights`, which `entries[i].hist` views. Building one
    checks the arrays, each histogram (naming its doc id) and the metric.
    `rows` is the one ground-row table of the whole vocabulary, built on the
    first query, so its memory is O(vocab · d); each pair's cost is built
    from rows gathered out of it."""

    table: EmbeddingTable
    metric: str
    doc_ids: np.ndarray  # (N,) str
    offsets: np.ndarray  # (N + 1,) int, from 0, rising
    supports: np.ndarray  # (offsets[-1],) int token ids
    weights: np.ndarray  # (offsets[-1],) float
    skipped: list[str] = field(default_factory=list)
    entries: list[PreparedDoc] = field(init=False, repr=False)

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown ground metric {self.metric!r}")
        offsets, supports, weights = self.offsets, self.supports, self.weights
        if len(self.doc_ids) != len(offsets) - 1:
            raise ValueError(
                f"doc_ids has {len(self.doc_ids)} entries, "
                f"but offsets delimits {len(offsets) - 1} documents"
            )
        if offsets[0] != 0 or offsets[-1] != len(supports) or np.any(np.diff(offsets) <= 0):
            raise ValueError(
                f"offsets must start at 0, rise at every document "
                f"and end at {len(supports)}, the length of supports"
            )
        if len(weights) != len(supports):
            raise ValueError(f"weights has {len(weights)} entries, supports has {len(supports)}")
        vocab_size = len(self.table.vocab.tokens)
        if len(supports) and (supports.min() < 0 or supports.max() >= vocab_size):
            raise ValueError(f"supports holds ids outside [0, {vocab_size})")
        self.entries = []
        bounds = zip(self.doc_ids.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
        try:
            for doc_id, lo, hi in bounds:
                hist = GramHistogram(supports[lo:hi], weights[lo:hi])
                self.entries.append(PreparedDoc(doc_id, hist))
        except ValueError as error:
            raise ValueError(f"supports and weights of document {doc_id!r}: {error}") from None

    @cached_property
    def rows(self) -> np.ndarray:
        return _ground_rows(self.table.vectors, self.metric)


@dataclass
class SearchStats:
    """Work counters of `topk_query`; they repeat exactly for equal inputs.

    Every bounded candidate is solved to the end, stopped early, pruned or
    held: `bound_computations == exact_evaluations + early_stopped + pruned
    + held`. Greedy upper bounds and certification solves are counted
    apart, in `upper_bounds` and `certified`."""

    exact_evaluations: int = 0  # kept candidates solved to the optimum
    bound_computations: int = 0
    pruned: int = 0  # candidates never visited: their bound exceeds the k-th best
    early_stopped: int = 0  # kept candidates whose solve proved them out of the k best
    held: int = 0  # visited candidates that `keep` rejects
    upper_bounds: int = 0  # greedy plans of held candidates, to seed the cutoff or certify
    certified: int = 0  # solves of held candidates that decide a kept hit's rank
    pivots: int = 0  # simplex pivots summed over every solve, certifications included


def build_index(
    docs: Iterable[tuple[str, TokenSeq]],
    table: EmbeddingTable,
    metric: str = COSINE,
) -> MoverIndex:
    """Index every document with an embeddable token; log and skip the rest."""
    doc_ids, hists, skipped = [], [], []
    for doc_id, tokens in docs:
        try:
            hists.append(nbow(tokens, table))
            doc_ids.append(doc_id)
        except ValueError:
            logger.warning("skipping unembeddable document %s", doc_id)
            skipped.append(doc_id)
    offsets = np.cumsum([0] + [len(hist.support) for hist in hists], dtype=np.int64)
    supports = np.concatenate([np.zeros(0, dtype=np.int64)] + [hist.support for hist in hists])
    weights = np.concatenate([np.zeros(0, dtype=np.float64)] + [hist.weights for hist in hists])
    doc_ids = np.array(doc_ids, dtype=str)
    return MoverIndex(table, metric, doc_ids, offsets, supports, weights, skipped)


def topk_query(
    query: TokenSeq,
    index: MoverIndex,
    k: int,
    stats: SearchStats | None = None,
    keep: Callable[[str], bool] | None = None,
) -> list[tuple[str, float]]:
    """The k nearest indexed documents by exact mover distance, ascending,
    ties broken by doc id, less those whose doc id `keep` rejects: exactly
    `[hit for hit in top_k if keep(hit[0])]`. Without `keep` every document
    is kept.

    Candidates are visited in order of their lower bound, and the visit
    stops once that bound exceeds the k-th best value held by more than
    rounding. The first k candidates seed those values: a kept one with its
    exact distance, one that `keep` rejects with the cost of its greedy
    plan, an upper bound on its distance. After them a kept candidate is
    solved exactly, with the k-th best plus the rounding slack as its
    cutoff, so it stops early once its distance provably cannot reach the k
    best, and a completed distance joins the k best values. A candidate
    `keep` rejects is only ranked, never returned: it is held at the cost of
    the `keep` call alone. At the end each kept hit's rank is certified, in
    order of distance, against the held candidates whose lower bound can
    reach it: one is after the hit when its reduction bound exceeds the
    hit's distance plus slack, before it when its greedy upper bound is
    below the distance less slack, and otherwise it is solved exactly, with
    the distance plus slack as its cutoff, in order of its upper bound. A
    hit with k documents before it ends the search. Each held candidate's
    bounds are computed at most once, and a solve that stopped is repeated
    only for a later hit's higher cutoff. Kept distances come from the
    same solves as without `keep`, bit for bit, and the hits are the ones
    that solving every candidate to the end and then applying `keep` gives,
    ties included. Work is counted in `stats`, a fresh `SearchStats` when
    none is given.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.entries:
        raise ValueError("index is empty")
    if stats is None:
        stats = SearchStats()
    query_hist = nbow(query, index.table)
    rows = index.rows
    query_rows = rows.take(query_hist.support, axis=0)
    euclidean = index.metric == EUCLIDEAN
    if euclidean:
        query_centroid = _centroid(query_hist, index.table)

    bounds = []
    for entry in index.entries:
        cost = _ground_cost(query_rows, rows.take(entry.hist.support, axis=0), index.metric)
        bound = rwmd(query_hist, entry.hist, cost)
        if euclidean:
            centroid = _centroid(entry.hist, index.table)
            bound = max(bound, float(np.linalg.norm(query_centroid - centroid)))
        stats.bound_computations += 1
        bounds.append((bound, entry.doc_id, entry, cost))
    bounds.sort(key=lambda item: (item[0], item[1]))

    kept: list[tuple[float, str]] = []  # completed solves of kept candidates
    dropped = []  # (bound, doc id, entry, cost) of visited candidates `keep` rejects

    @cache
    def reduction(position: int) -> float:  # of the dropped candidate at `position`
        _, _, entry, cost = dropped[position]
        return _reduction_bound(query_hist.weights, entry.hist.weights, cost.values)

    @cache
    def upper_bound(position: int) -> float:  # of the dropped candidate at `position`
        _, _, entry, cost = dropped[position]
        stats.upper_bounds += 1
        return _greedy_arcs(query_hist.weights, entry.hist.weights, cost.values)[1]

    cutoff = np.inf  # the k-th best value plus slack, once k are held
    best_heap: list[float] = []  # max-heap (negated) of the k best values
    for position, (bound, doc_id, entry, cost) in enumerate(bounds):
        if bound > cutoff:
            stats.pruned += len(bounds) - position
            break
        if keep is None or keep(doc_id):
            try:
                value, plan = emd_exact(query_hist, entry.hist, cost, cutoff=cutoff)
            except _StoppedEarly as stopped:
                stats.early_stopped += 1
                stats.pivots += stopped.pivots
                continue
            stats.exact_evaluations += 1
            stats.pivots += plan.pivots
            kept.append((value, doc_id))
        else:
            stats.held += 1
            dropped.append((bound, doc_id, entry, cost))
            if position >= k:
                continue  # ranked only if a kept hit's rank needs it
            value = upper_bound(len(dropped) - 1)  # the first k seed the cutoff
        if len(best_heap) < k:
            heapq.heappush(best_heap, -value)
        elif value < -best_heap[0]:
            heapq.heapreplace(best_heap, -value)
        if len(best_heap) == k:
            cutoff = -best_heap[0] + _PRUNE_SLACK

    # Certify each kept hit's rank: count the documents before it, up to k.
    # Pruned and stopped candidates lie beyond the cutoff, so after any hit
    # within it; kept hits are counted by their order, and each dropped one
    # within the hit's limit by the cheapest test that decides it: reduction
    # bound, then greedy upper bound, then a solve, the likeliest ahead first.
    kept.sort()
    hits = []
    # dropped position -> (distance, True), or (the cutoff its solve stopped at, False)
    settled: dict[int, tuple[float, bool]] = {}
    for ahead_kept, (distance, doc_id) in enumerate(kept):
        if distance > cutoff:
            break
        ahead = ahead_kept
        limit = distance + _PRUNE_SLACK
        undecided = []
        for position, (bound, other_id, _, _) in enumerate(dropped):
            if ahead >= k or bound > limit:
                break
            value, exact = settled.get(position, (-np.inf, False))
            if exact:
                if (value, other_id) < (distance, doc_id):
                    ahead += 1
            elif value >= limit or reduction(position) > limit:
                continue
            elif upper_bound(position) < distance - _PRUNE_SLACK:
                ahead += 1
            else:
                undecided.append(position)
        for position in sorted(undecided, key=upper_bound):
            if ahead >= k:
                break
            _, other_id, entry, cost = dropped[position]
            stats.certified += 1
            try:
                value, plan = emd_exact(query_hist, entry.hist, cost, cutoff=limit)
            except _StoppedEarly as stopped:
                stats.pivots += stopped.pivots
                settled[position] = limit, False
                continue
            stats.pivots += plan.pivots
            settled[position] = value, True
            if (value, other_id) < (distance, doc_id):
                ahead += 1
        if ahead >= k:
            break  # every later hit has at least as many documents before it
        hits.append((doc_id, distance))
    return hits
