"""Truss-distance Steiner trees on the sorted-adjacency arrays.

Array twin of :mod:`repro.ctc.steiner` (Definition 7 + the
Kou–Markowsky–Berman 2-approximation).  The expensive part — the
threshold-sweep BFS that computes exact truss distances — runs on the
kernel's trussness-sorted rows with int ids, and does less work than the
dict path's per-pair sweep while returning the same paths:

* the metric closure runs one sweep per source terminal over all later
  terminals — one BFS per level, not one per pair and level;
* a level is skipped when it exceeds the source's vertex trussness, or
  that of every still-open target: by Lemma 1 no path with that
  bottleneck touches the node, so the BFS could only come back empty.

The KMB scaffolding (metric closure, Kruskal passes, leaf pruning) stays
structurally identical to the dict path, including its ``repr``-keyed sort
orders, because LCTC's downstream expansion is order-sensitive: same
witness paths in, same community out.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque

import numpy as np

from repro.ctc.kernels.context import QueryKernel
from repro.exceptions import QueryError
from repro.graph.components import UnionFind
from repro.graph.csr_bfs import masked_bfs, path_from_parents
from repro.graph.keys import edge_key

__all__ = [
    "MASKED_SWEEP_THRESHOLD",
    "truss_distance_between",
    "build_truss_steiner_tree",
    "minimum_trussness_of_tree",
]

_INF = float("inf")

#: Snapshots with at least this many edges run the threshold-restricted
#: witness-path BFS as an ordered masked frontier sweep; smaller ones keep
#: the scalar queue.  The sweep's early exits (few targets, tightening
#: cutoff) keep visited sets tiny at bundled-dataset scale, where per-round
#: numpy pass costs exceed the whole Python walk — the same regime split as
#: the peel/decomposition/FindG0 autos, with the crossover pushed out to
#: real-SNAP-sized graphs.
MASKED_SWEEP_THRESHOLD = 32768


def _scalar_bfs_paths(
    kernel: QueryKernel,
    source: int,
    targets: set[int],
    threshold: int,
    cutoff: float,
) -> dict[int, list[int]]:
    """The small-snapshot strategy: a scalar queue BFS over the sorted lists."""
    bounds, neighbors, neg_tau = kernel.sorted_adjacency
    parents: dict[int, int] = {source: -1}
    depth: dict[int, int] = {source: 0}
    remaining = set(targets)
    remaining.discard(source)
    found: dict[int, list[int]] = {}
    if source in targets:
        found[source] = [source]
    queue: deque[int] = deque([source])
    while queue and remaining:
        node = queue.popleft()
        next_depth = depth[node] + 1
        if next_depth > cutoff:
            continue
        start, end = bounds[node], bounds[node + 1]
        stop = bisect_right(neg_tau, -threshold, start, end)
        for slot in range(start, stop):
            neighbor = neighbors[slot]
            if neighbor in parents:
                continue
            parents[neighbor] = node
            depth[neighbor] = next_depth
            if neighbor in remaining:
                remaining.discard(neighbor)
                path = [neighbor]
                current = node
                while current != -1:
                    path.append(current)
                    current = parents[current]
                path.reverse()
                found[neighbor] = path
            queue.append(neighbor)
    return found


def _restricted_bfs_paths(
    kernel: QueryKernel,
    source: int,
    targets: set[int],
    threshold: int,
    cutoff: float,
) -> dict[int, list[int]]:
    """BFS from ``source`` over edges with trussness >= ``threshold``.

    Returns an id path for every target reached within ``cutoff`` hops.
    Neighbour order is the sorted-adjacency order (decreasing trussness,
    ``repr``-rank ties), so witness paths match the dict path's exactly.
    At or above :data:`MASKED_SWEEP_THRESHOLD` edges this runs as an
    *ordered* masked frontier BFS (:mod:`repro.graph.csr_bfs`) over the
    trussness-sorted rows, restricted to each row's qualifying prefix
    (``QueryKernel.sorted_row_stops``): the first-discovery frontier order
    reproduces the scalar queue BFS's parent tie-breaks, so the parents
    array recovers witness paths bit-identical to the scalar (and hence
    dict) path's.
    """
    if kernel.csr.number_of_edges() < MASKED_SWEEP_THRESHOLD:
        return _scalar_bfs_paths(kernel, source, targets, threshold, cutoff)
    bounds, neighbors, _edges, _neg_tau = kernel.sorted_arrays
    found: dict[int, list[int]] = {}
    if source in targets:
        found[source] = [source]
    remaining = [node for node in targets if node != source]
    if not remaining or cutoff < 1:
        return found
    result = masked_bfs(
        bounds,
        neighbors,
        [source],
        row_stop=kernel.sorted_row_stops(threshold),
        track_parents=True,
        ordered=True,
        max_depth=None if math.isinf(cutoff) else int(cutoff),
        until_reached=remaining,
    )
    for target in remaining:
        if result.distances[target] >= 0:
            found[target] = path_from_parents(result.parents, target)
    return found


def _sweep_from(
    kernel: QueryKernel, source: int, targets: list[int], gamma: float
) -> dict[int, tuple[float, list[int] | None]]:
    """Truss distance + witness id path from ``source`` to every target.

    One threshold sweep over decreasing trussness levels serves all the
    targets: each level runs at most one restricted BFS, toward the open
    targets whose vertex trussness admits the level, bounded by the largest
    of their cutoffs.  BFS parents at depth <= c do not depend on a larger
    depth limit or target set, so each target keeps exactly the path — and,
    through the strict ``<``, the higher-level tie-break — of a sweep run
    for that target alone.  Unreached targets map to ``(inf, None)``.
    """
    vertex_tau = kernel.vertex_trussness
    tau_bar = kernel.max_trussness
    best: dict[int, tuple[float, list[int] | None]] = {
        target: (_INF, None) for target in targets
    }
    open_targets = list(best)
    for threshold in kernel.levels:
        penalty = gamma * (tau_bar - threshold)
        # Lower levels only raise the penalty: a target that cannot improve
        # here never can again.
        open_targets = [
            target for target in open_targets
            if best[target][1] is None or penalty + 1 < best[target][0]
        ]
        if not open_targets:
            break
        if threshold > vertex_tau[source]:
            continue
        cutoffs = {
            target: best[target][0] - penalty  # inf until the target is reached
            for target in open_targets
            if threshold <= vertex_tau[target]
        }
        if not cutoffs:
            continue
        paths = _restricted_bfs_paths(
            kernel, source, set(cutoffs), threshold, max(cutoffs.values())
        )
        for target, cutoff in cutoffs.items():
            path = paths.get(target)
            # Keep only what a BFS bounded by this target's own cutoff finds.
            if path is None or len(path) - 1 > cutoff:
                continue
            value = (len(path) - 1) + penalty
            if value < best[target][0]:
                best[target] = (value, path)
    return best


def truss_distance_between(
    kernel: QueryKernel, source: int, target: int, gamma: float
) -> tuple[float, list[int] | None]:
    """Return ``(truss distance, witness id path)`` between two node ids.

    The threshold sweep over decreasing trussness levels is exact for the
    min-bottleneck metric (see :mod:`repro.ctc.steiner`); returns
    ``(inf, None)`` when the nodes are disconnected.
    """
    if source == target:
        return 0.0, [source]
    return _sweep_from(kernel, source, [target], gamma)[target]


def _edge_repr(kernel: QueryKernel, u: int, v: int) -> str:
    """``repr`` of the canonical label-space edge key (the dict sort key)."""
    return repr(edge_key(kernel.csr.node_label(u), kernel.csr.node_label(v)))


def build_truss_steiner_tree(
    kernel: QueryKernel, terminal_ids: list[int], gamma: float
) -> tuple[set[int], set[int]]:
    """Return ``(node ids, edge ids)`` of a Steiner tree over the terminals.

    Follows Kou–Markowsky–Berman with the truss-distance metric closure,
    reproducing :func:`repro.ctc.steiner.build_truss_steiner_tree` choice
    for choice.  A single terminal yields a single-node, edge-less tree.

    Raises
    ------
    QueryError
        If ``terminal_ids`` is empty or some pair is disconnected.
    """
    terminals = list(dict.fromkeys(terminal_ids))
    if not terminals:
        raise QueryError("cannot build a Steiner tree over an empty terminal set")
    if len(terminals) == 1:
        return {terminals[0]}, set()

    # Metric closure: truss distance + witness path for every terminal pair.
    closure: dict[tuple[int, int], tuple[float, list[int], str]] = {}
    for position, source in enumerate(terminals[:-1]):
        swept = _sweep_from(kernel, source, terminals[position + 1:], gamma)
        for target, (value, path) in swept.items():
            if path is not None:
                closure[(source, target)] = (value, path, _edge_repr(kernel, source, target))

    # Kruskal MST over the closure (sorted by distance, then key repr).
    union_find = UnionFind(terminals)
    chosen: list[tuple[int, int]] = []
    for pair, (_value, _path, _key) in sorted(
        closure.items(), key=lambda item: (item[1][0], item[1][2])
    ):
        if union_find.union(*pair):
            chosen.append(pair)
    roots = {union_find.find(node) for node in terminals}
    if len(roots) > 1:
        raise QueryError("terminals are not mutually connected; no Steiner tree exists")

    # Expand closure edges back into their witness paths.
    csr = kernel.csr
    expanded_nodes: set[int] = set()
    expanded_edges: set[int] = set()
    for pair in chosen:
        _value, path, _key = closure[pair]
        expanded_nodes.update(path)
        for first, second in zip(path, path[1:]):
            expanded_edges.add(csr.edge_id(first, second))

    # Spanning tree of the expansion (weight = 1 + gamma * (tau_bar - tau)),
    # then prune non-terminal leaves (final KMB step).  The handful of
    # expanded edges read their endpoints and trussness off the arrays.
    tau_bar = kernel.max_trussness
    edge_list = sorted(expanded_edges)
    edge_ids = np.asarray(edge_list, dtype=np.int64)
    ends = dict(zip(edge_list, zip(csr.edge_u[edge_ids].tolist(), csr.edge_v[edge_ids].tolist())))
    tau = dict(zip(edge_list, kernel.trussness[edge_ids].tolist()))
    spanning_union = UnionFind(expanded_nodes)
    tree_edges: set[int] = set()
    for edge in sorted(
        edge_list,
        key=lambda e: (1.0 + gamma * (tau_bar - tau[e]), _edge_repr(kernel, *ends[e])),
    ):
        if spanning_union.union(*ends[edge]):
            tree_edges.add(edge)

    tree_adjacency: dict[int, set[int]] = {node: set() for node in expanded_nodes}
    for edge in tree_edges:
        u, v = ends[edge]
        tree_adjacency[u].add(v)
        tree_adjacency[v].add(u)
    terminal_set = set(terminals)
    leaves = deque(
        node for node, row in tree_adjacency.items()
        if len(row) <= 1 and node not in terminal_set
    )
    while leaves:
        node = leaves.popleft()
        if node not in tree_adjacency:
            continue
        for neighbor in tree_adjacency.pop(node):
            row = tree_adjacency[neighbor]
            row.discard(node)
            tree_edges.discard(kernel.csr.edge_id(node, neighbor))
            if len(row) <= 1 and neighbor not in terminal_set:
                leaves.append(neighbor)
    return set(tree_adjacency), tree_edges


def minimum_trussness_of_tree(
    kernel: QueryKernel, tree_nodes: set[int], tree_edges: set[int]
) -> int:
    """``k_t = min_{e in T} tau(e)`` (Algorithm 5, line 2).

    An edge-less tree (single terminal) falls back to that terminal's
    vertex trussness; an empty tree returns 2 — both as in the dict path.
    """
    if not tree_edges:
        if tree_nodes:
            return kernel.vertex_trussness[next(iter(tree_nodes))]
        return 2
    edge_ids = np.fromiter(tree_edges, dtype=np.int64, count=len(tree_edges))
    return int(kernel.trussness[edge_ids].min())
