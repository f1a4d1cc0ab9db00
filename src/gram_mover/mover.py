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
abandoning), without changing results, ties included. An index keeps one
float64 ground-row table for its whole vocabulary, built on first use, and
gathers each pair's rows from it: memory O(vocab · d), not O(total support
entries · d).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .embed import EmbeddingTable
from .tokenize import TokenSeq

logger = logging.getLogger(__name__)

COSINE = "cosine"
EUCLIDEAN = "euclidean"

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
        if np.any(self.weights <= 0):
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
        if row_err > 1e-9 or col_err > 1e-9:
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


def _start_tree(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """The greedy matrix-minimum basis as a rooted spanning tree: lists
    `parent` (-1 at the root), `flow_up` (flow on the arc to the parent),
    `depth` and `children` over node ids (rows 0..m-1, columns m..m+n-1),
    and the node potentials, 0 at the root and tight on every tree arc.

    Arcs are visited in stable cost order; an arc whose row and column are
    both still open takes min(remaining supply, remaining demand) and retires
    exactly one of the two: the row when it is exhausted, else the column,
    except that the last open row or the last open column is never retired
    (the other line of the arc is). Lines never reopen, so every arc visited
    while both its lines are open is taken, and the scan ends after m + n - 1
    arcs with one line open: the root. Every other line hangs from the arc
    that retired it, under that arc's other line, which retires later or is
    the root; so in reverse order of taking, every parent is placed before
    its children.
    """
    m, n = cost.shape
    size = m + n
    order = np.argsort(cost, axis=None, kind="stable")
    rows = (order // n).tolist()
    cols = (order % n).tolist()
    supply = a.tolist()
    demand = b.tolist()
    row_open = [True] * m
    col_open = [True] * n
    open_rows, open_cols = m, n
    arcs = []
    for i, j in zip(rows, cols):
        if row_open[i] and col_open[j]:
            moved = min(supply[i], demand[j])
            supply[i] -= moved
            demand[j] -= moved
            row_retired = open_rows > 1 and (open_cols == 1 or supply[i] <= demand[j])
            arcs.append((i, j, moved, row_retired))
            if len(arcs) == size - 1:
                break
            if row_retired:
                row_open[i] = False
                open_rows -= 1
            else:
                col_open[j] = False
                open_cols -= 1

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

    - Start: the greedy matrix-minimum tree of `_start_tree`, so a
      self-distance starts at its optimum (the cost-0 diagonal comes first).
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

    parent, flow_up, depth, children, potential = _start_tree(a, b, cost)
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


def wcd(a: GramHistogram, b: GramHistogram, table: EmbeddingTable, metric: str = EUCLIDEAN) -> float:
    """Centroid lower bound: distance between the weighted mean vectors.

    Only valid as a lower bound under the Euclidean ground metric.
    """
    if metric != EUCLIDEAN:
        raise ValueError("wcd bound requires euclidean ground metric")
    centroid_a = a.weights @ table.vectors[a.support].astype(np.float64)
    centroid_b = b.weights @ table.vectors[b.support].astype(np.float64)
    return float(np.linalg.norm(centroid_a - centroid_b))


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

    `rows` is the one ground-row table of the whole vocabulary, built on the
    first query, so its memory is O(vocab · d); each pair's cost is built
    from rows gathered out of it. Documents keep only their histograms."""

    table: EmbeddingTable
    metric: str
    entries: list[PreparedDoc]
    skipped: list[str] = field(default_factory=list)

    @cached_property
    def rows(self) -> np.ndarray:
        return _ground_rows(self.table.vectors, self.metric)


@dataclass
class SearchStats:
    """Work counters of `topk_query`; they repeat exactly for equal inputs.

    Every bounded candidate is solved to the end, stopped early or pruned:
    `bound_computations == exact_evaluations + early_stopped + pruned`."""

    exact_evaluations: int = 0  # solves run to the optimum
    bound_computations: int = 0
    pruned: int = 0  # candidates never solved: their bound exceeds the k-th best
    early_stopped: int = 0  # solves stopped once they could not reach the k best
    pivots: int = 0  # simplex pivots summed over completed and stopped solves


def build_index(
    docs: Iterable[tuple[str, TokenSeq]],
    table: EmbeddingTable,
    metric: str = COSINE,
) -> MoverIndex:
    if metric not in (COSINE, EUCLIDEAN):
        raise ValueError(f"unknown ground metric {metric!r}")
    entries = []
    skipped = []
    for doc_id, tokens in docs:
        try:
            hist = nbow(tokens, table)
        except ValueError:
            logger.warning("skipping unembeddable document %s", doc_id)
            skipped.append(doc_id)
            continue
        entries.append(PreparedDoc(doc_id=doc_id, hist=hist))
    return MoverIndex(table=table, metric=metric, entries=entries, skipped=skipped)


def topk_query(
    query: TokenSeq,
    index: MoverIndex,
    k: int,
    pruning: bool = True,
    stats: SearchStats | None = None,
) -> list[tuple[str, float]]:
    """The k nearest indexed documents by exact mover distance, ascending,
    ties broken by doc id.

    Pruning visits candidates in order of their lower bound and skips the
    exact solve whenever that bound exceeds the current k-th best by more
    than rounding. Once k distances are held, each solve also gets the k-th
    best plus that rounding slack as its cutoff, and stops early once its
    distance provably cannot reach the k best. Results are identical either
    way, ties included; without pruning every candidate is solved to the end.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.entries:
        raise ValueError("index is empty")
    query_hist = nbow(query, index.table)
    rows = index.rows
    query_rows = rows.take(query_hist.support, axis=0)

    def cost_to(entry: PreparedDoc) -> CostMatrix:
        return _ground_cost(query_rows, rows.take(entry.hist.support, axis=0), index.metric)

    if not pruning:
        evaluated = [
            (_solve(query_hist, entry.hist, cost_to(entry), stats), entry.doc_id)
            for entry in index.entries
        ]
        return _ranked(evaluated, k)

    bounds = []
    for entry in index.entries:
        cost = cost_to(entry)
        bound = rwmd(query_hist, entry.hist, cost)
        if index.metric == EUCLIDEAN:
            bound = max(bound, wcd(query_hist, entry.hist, index.table))
        if stats is not None:
            stats.bound_computations += 1
        bounds.append((bound, entry.doc_id, entry, cost))
    bounds.sort(key=lambda item: (item[0], item[1]))

    evaluated: list[tuple[float, str]] = []
    cutoff = np.inf  # the k-th best distance plus slack, once k are held
    best_heap: list[float] = []  # max-heap (negated) of the k best distances
    for position, (bound, doc_id, entry, cost) in enumerate(bounds):
        if bound > cutoff:
            if stats is not None:
                stats.pruned += len(bounds) - position
            break
        distance = _solve(query_hist, entry.hist, cost, stats, cutoff)
        if distance is None:
            continue
        evaluated.append((distance, doc_id))
        if len(best_heap) < k:
            heapq.heappush(best_heap, -distance)
        elif distance < -best_heap[0]:
            heapq.heapreplace(best_heap, -distance)
        if len(best_heap) == k:
            cutoff = -best_heap[0] + _PRUNE_SLACK
    return _ranked(evaluated, k)


def _solve(
    a: GramHistogram, b: GramHistogram, cost: CostMatrix, stats, cutoff: float = np.inf
) -> float | None:
    """`emd_exact`'s distance, counted in `stats`; None when the solve stopped
    early because its distance exceeds `cutoff`."""
    try:
        distance, plan = emd_exact(a, b, cost, cutoff=cutoff)
    except _StoppedEarly as stopped:
        if stats is not None:
            stats.early_stopped += 1
            stats.pivots += stopped.pivots
        return None
    if stats is not None:
        stats.exact_evaluations += 1
        stats.pivots += plan.pivots
    return distance


def _ranked(evaluated: list[tuple[float, str]], k: int) -> list[tuple[str, float]]:
    evaluated.sort(key=lambda item: (item[0], item[1]))
    return [(doc_id, distance) for distance, doc_id in evaluated[:k]]
