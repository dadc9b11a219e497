"""Masked frontier BFS on CSR rows: the traversal kernel of the array engines.

Every query-time traversal the CTC algorithms run — per-iteration query
distances inside the peel loop (Algorithms 1 and 4), the ``connect_G(Q)``
check, FindG0's component extraction, the Steiner kernel's
threshold-restricted witness-path searches, and the diameters the
experiments report — is an unweighted BFS over some *restriction* of one
frozen :class:`~repro.graph.csr.CSRGraph`.  This module runs those BFS's
level-synchronously on the CSR arrays (GraphBLAS-style push traversal): per
round the whole frontier's adjacency rows are gathered with one
``np.repeat`` slice expansion (the same segment-gather idiom as
:mod:`repro.graph.csr_triangles`), masked, deduplicated with visited flags,
and scattered into the distance array — no per-node Python loop.

Restrictions compose freely:

* ``edge_alive`` — a boolean mask over *edge ids* (via the parallel
  ``slot_edge`` array); dead edges are never traversed.  This is how the
  peel engine (:mod:`repro.ctc.kernels.peeling`) walks its working subgraph
  without materializing it.
* ``node_alive`` — a boolean mask over node ids; dead nodes are never
  entered.
* ``row_stop`` — a per-node exclusive upper slot bound replacing
  ``indptr[i + 1]``; with rows pre-sorted by decreasing edge trussness this
  expresses "edges with trussness >= k" as a prefix, the restriction the
  Steiner kernel sweeps (see ``QueryKernel.sorted_row_stops``).

Two dedup strategies are offered because two callers need different
contracts: the default flag-scatter dedup returns each round's frontier in
*sorted* order (cheapest; distances are order-independent), while
``ordered=True`` keeps the frontier in **first-discovery order** — the
order a scalar queue BFS would pop — which makes the ``parents`` array
reproduce a sequential BFS tie-break for tie-break.  That is what lets the
Steiner kernel's witness paths stay bit-identical to the dict path's.

Distances are ``int64`` with ``-1`` marking unreachable nodes;
:func:`fold_query_distance` folds per-source distance arrays into the
paper's ``dist(v, Q) = max_q dist(v, q)`` with ``inf`` for unreachable.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.graph.csr import CSRGraph, segment_slots

__all__ = [
    "BFSResult",
    "masked_bfs",
    "fold_query_distance",
    "masked_query_distances",
    "masked_eccentricity",
    "csr_diameter",
    "path_from_parents",
]

_INF = float("inf")


class BFSResult:
    """Distances (and optionally parents) of one masked BFS.

    Attributes
    ----------
    distances:
        ``int64`` array, one entry per node: hop distance from the nearest
        source, ``-1`` if unreachable (or pruned by ``max_depth``).
    parents:
        ``int64`` array or ``None`` (only when ``track_parents=True``):
        the predecessor of every reached node on a shortest path back to a
        source; sources (and unreached nodes) hold ``-1``.
    """

    __slots__ = ("distances", "parents")

    def __init__(self, distances: np.ndarray, parents: np.ndarray | None) -> None:
        self.distances = distances
        self.parents = parents


def masked_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray | Sequence[int],
    *,
    slot_edge: np.ndarray | None = None,
    edge_alive: np.ndarray | None = None,
    node_alive: np.ndarray | None = None,
    row_stop: np.ndarray | Callable[[np.ndarray], np.ndarray] | None = None,
    track_parents: bool = False,
    ordered: bool = False,
    max_depth: int | None = None,
    until_reached: np.ndarray | Sequence[int] | None = None,
) -> BFSResult:
    """Multi-source frontier BFS over masked CSR rows.

    Parameters
    ----------
    indptr, indices:
        The CSR rows (any row ordering; see ``row_stop`` for prefix-sorted
        rows).  ``indptr`` has ``n + 1`` entries.
    sources:
        Node ids seeding layer 0.  Duplicates are harmless; an empty source
        set returns an all-unreachable result.
    slot_edge, edge_alive:
        When ``edge_alive`` is given, slot ``s`` is traversable only if
        ``edge_alive[slot_edge[s]]``; ``slot_edge`` is then required.
    node_alive:
        When given, neighbours with a ``False`` entry are never entered
        (sources are *not* re-checked — callers pass live sources).
    row_stop:
        Optional per-node exclusive slot bound replacing ``indptr[i + 1]``
        (a qualifying-prefix restriction on pre-sorted rows): either a full
        per-node array, or a callable mapping a frontier id array to its
        stop array — the callable form resolves bounds only for the rows
        the BFS actually visits, which is what keeps threshold-restricted
        sweeps cheap on freshly derived kernels.
    track_parents:
        Also record a predecessor per reached node (see :class:`BFSResult`).
    ordered:
        Keep each frontier in first-discovery order instead of sorted
        order, reproducing a scalar queue BFS's parent tie-breaks exactly.
    max_depth:
        Stop after assigning distance ``max_depth`` (``0`` = sources only).
    until_reached:
        Optional node ids; the BFS stops at the end of the round in which
        all of them have been reached (their recorded distances and parents
        are final — later rounds cannot change them).
    """
    num_nodes = int(indptr.size) - 1
    dist = np.full(num_nodes, -1, dtype=np.int64)
    parents = np.full(num_nodes, -1, dtype=np.int64) if track_parents else None
    frontier = np.asarray(sources, dtype=np.int64)
    if frontier.size == 0:
        return BFSResult(dist, parents)
    dist[frontier] = 0

    targets: np.ndarray | None = None
    if until_reached is not None:
        targets = np.asarray(until_reached, dtype=np.int64)

    if row_stop is None:
        stops_of = None
    elif callable(row_stop):
        stops_of = row_stop
    else:
        stops_of = None
        stops_all = row_stop
    # Scratch arrays for the two dedup strategies; allocated once per call,
    # reset only at the touched entries each round.
    seen_flag: np.ndarray | None = None
    first_pos: np.ndarray | None = None
    if ordered:
        first_pos = np.full(num_nodes, -1, dtype=np.int64)
    else:
        seen_flag = np.zeros(num_nodes, dtype=bool)

    depth = 0
    while frontier.size:
        if targets is not None and bool((dist[targets] >= 0).all()):
            break
        if max_depth is not None and depth >= max_depth:
            break
        starts = indptr[frontier]
        if row_stop is None:
            counts = indptr[frontier + 1] - starts
        elif stops_of is not None:
            counts = stops_of(frontier) - starts
        else:
            counts = stops_all[frontier] - starts
        total = int(counts.sum())
        if total == 0:
            break
        gather = segment_slots(starts, counts)  # the frontier's row slices
        neighbors = indices[gather]
        keep: np.ndarray | None = None
        if edge_alive is not None:
            if slot_edge is None:
                raise ValueError("edge_alive requires the slot_edge array")
            keep = edge_alive[slot_edge[gather]]
        if node_alive is not None:
            keep = node_alive[neighbors] if keep is None else keep & node_alive[neighbors]
        parent_of = np.repeat(frontier, counts) if track_parents else None
        if keep is not None:
            neighbors = neighbors[keep]
            if parent_of is not None:
                parent_of = parent_of[keep]
        unvisited = dist[neighbors] < 0
        neighbors = neighbors[unvisited]
        if parent_of is not None:
            parent_of = parent_of[unvisited]
        if neighbors.size == 0:
            break
        depth += 1
        if ordered:
            # First-occurrence dedup preserving candidate order: a reversed
            # scatter leaves each node's *earliest* position in first_pos,
            # so keeping exactly those positions yields the frontier in the
            # order a scalar queue BFS would discover it.
            positions = np.arange(neighbors.size, dtype=np.int64)
            first_pos[neighbors[::-1]] = positions[::-1]
            firsts = first_pos[neighbors] == positions
            frontier = neighbors[firsts]
            first_pos[frontier] = -1
            if parent_of is not None:
                parent_of = parent_of[firsts]
        else:
            # Flag scatter/scan dedup (sorted frontier), as in the truss peel.
            if parent_of is not None:
                # Last write wins in a reversed scatter = first occurrence.
                parents[neighbors[::-1]] = parent_of[::-1]
            seen_flag[neighbors] = True
            frontier = np.nonzero(seen_flag)[0]
            seen_flag[frontier] = False
        dist[frontier] = depth
        if ordered and parent_of is not None:
            parents[frontier] = parent_of
    return BFSResult(dist, parents)


def fold_query_distance(maxima: np.ndarray, distances: np.ndarray) -> None:
    """Fold one source's BFS ``distances`` into the running ``dist(v, Q)`` maxima.

    ``maxima`` is a float array updated in place: unreachable entries
    (``-1``) count as ``inf``, reachable entries raise the maximum —
    Definition 3's ``max_q dist(v, q)`` one source at a time.
    """
    reached = distances >= 0
    np.maximum(maxima, distances, out=maxima, where=reached)
    maxima[~reached] = _INF


def masked_query_distances(
    csr: CSRGraph,
    query_ids: Sequence[int],
    *,
    edge_alive: np.ndarray | None = None,
    node_alive: np.ndarray | None = None,
) -> np.ndarray:
    """Return ``dist(v, Q)`` for every node as a float array (``inf`` unreachable).

    One masked BFS per query node folded with :func:`fold_query_distance` —
    the array twin of :func:`repro.graph.traversal.query_distances`
    restricted to the alive subgraph.  Entries of dead nodes are
    meaningless; callers mask them out.
    """
    maxima = np.zeros(csr.number_of_nodes(), dtype=np.float64)
    for source in query_ids:
        result = masked_bfs(
            csr.indptr,
            csr.indices,
            [source],
            slot_edge=csr.slot_edge,
            edge_alive=edge_alive,
            node_alive=node_alive,
        )
        fold_query_distance(maxima, result.distances)
    return maxima


def masked_eccentricity(
    csr: CSRGraph,
    source: int,
    *,
    edge_alive: np.ndarray | None = None,
    node_alive: np.ndarray | None = None,
) -> float:
    """Return the eccentricity of ``source`` within its reachable set.

    Matches :func:`repro.graph.traversal.eccentricity`: the maximum is over
    reached nodes only (a disconnected remainder does not make it ``inf``).
    """
    result = masked_bfs(
        csr.indptr,
        csr.indices,
        [source],
        slot_edge=csr.slot_edge,
        edge_alive=edge_alive,
        node_alive=node_alive,
    )
    return float(result.distances.max())


def csr_diameter(
    csr: CSRGraph,
    sources: Sequence[int] | None = None,
    *,
    edge_alive: np.ndarray | None = None,
    node_alive: np.ndarray | None = None,
) -> float:
    """Exact diameter of (a restriction of) a snapshot via per-source frontier BFS.

    The array twin of :func:`repro.graph.traversal.diameter`: with
    ``sources=None`` every (alive) node seeds one BFS and a disconnected
    graph returns ``inf``; with an explicit source subset the maximum is
    over those sources' eccentricities only and disconnection is not
    detected.  Graphs with fewer than two (alive) nodes have diameter 0.
    """
    if node_alive is not None:
        all_nodes = np.nonzero(node_alive)[0]
    else:
        all_nodes = np.arange(csr.number_of_nodes(), dtype=np.int64)
    if all_nodes.size < 2:
        return 0.0
    chosen = all_nodes if sources is None else np.asarray(sources, dtype=np.int64)
    best = 0.0
    for source in chosen:
        result = masked_bfs(
            csr.indptr,
            csr.indices,
            [source],
            slot_edge=csr.slot_edge,
            edge_alive=edge_alive,
            node_alive=node_alive,
        )
        reached = result.distances >= 0
        if sources is None and int(reached[all_nodes].sum()) < all_nodes.size:
            return _INF
        local = float(result.distances.max())
        if local > best:
            best = local
    return best


def path_from_parents(parents: np.ndarray, target: int) -> list[int]:
    """Recover the source-to-``target`` path from a BFS ``parents`` array.

    The target must have been reached (its parent chain ends at a source,
    whose entry is ``-1``).  Returns plain Python ints, endpoints included.
    """
    path = [int(target)]
    current = int(parents[target])
    while current != -1:
        path.append(current)
        current = int(parents[current])
    path.reverse()
    return path
