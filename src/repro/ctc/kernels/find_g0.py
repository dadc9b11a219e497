"""FindG0 on arrays: maximal connected k-truss containing Q, largest k.

The dict path (:func:`repro.trusses.extraction.find_maximal_connected_truss`)
walks the truss index level by level, BFS-style.  Its *result* is canonical
— ``k`` is the largest trussness threshold at which the query nodes fall in
one connected component of the ``{tau(e) >= k}`` subgraph, and ``G0`` is
exactly that component — so the kernel is free to compute the same object a
cheaper way, and it picks between **two** result-identical strategies by
snapshot size:

* at or above :data:`LEVEL_SEARCH_THRESHOLD` edges, connectivity of ``Q``
  in ``{tau(e) >= k}`` being *monotone* in ``k`` (lowering the threshold
  only adds edges) makes the answer a **binary search over the distinct
  trussness levels**, each probe one masked frontier BFS
  (:mod:`repro.graph.csr_bfs`) restricted to the qualifying edges with
  early exit as soon as every query node is reached — O(log levels)
  vectorized traversals instead of a per-edge Python sweep;
* below it (notably the per-query *local* kernels the LCTC pipeline
  decomposes, a few hundred edges each), the numpy round overhead does not
  amortize, and the classic sweep wins: edges union into a disjoint-set
  forest in decreasing trussness order, checking query connectivity at
  each level boundary.

The component is then extracted with a masked frontier BFS over the
``{tau >= k}`` restriction on either strategy.
"""

from __future__ import annotations

import numpy as np

from repro.ctc.kernels.context import QueryKernel
from repro.exceptions import NoCommunityFoundError, QueryError
from repro.graph.csr_bfs import masked_bfs

__all__ = ["LEVEL_SEARCH_THRESHOLD", "find_g0", "connected_truss_at_k"]

#: Snapshots with at least this many edges answer FindG0 by binary-searching
#: the trussness levels with masked-BFS probes; smaller ones keep the scalar
#: union-find sweep (same regime split as the peel and decomposition autos).
LEVEL_SEARCH_THRESHOLD = 2048


def _union_find_parent(parent: list[int], node: int) -> int:
    """Find with path halving on a plain parent list."""
    while parent[node] != node:
        parent[node] = parent[parent[node]]
        node = parent[node]
    return node


def _find_level_scalar(
    kernel: QueryKernel, query_ids: list[int], upper_bound: int
) -> int | None:
    """The small-kernel strategy: one descending union-find sweep.

    Returns the highest level <= ``upper_bound`` connecting ``Q``, or
    ``None``.  Work is proportional to the edges with trussness >= the
    answer, without any fixed numpy pass costs.
    """
    tau = kernel.tau
    edge_u = kernel.csr.edge_u.tolist()
    edge_v = kernel.csr.edge_v.tolist()
    order = kernel.edge_order_desc
    parent = list(range(kernel.csr.number_of_nodes()))
    anchor = query_ids[0]
    others = query_ids[1:]

    position = 0
    total = len(order)
    for level in kernel.levels:
        # Union every edge at this trussness level (the sweep is cumulative).
        while position < total:
            edge = order[position]
            if tau[edge] < level:
                break
            root_a = _union_find_parent(parent, edge_u[edge])
            root_b = _union_find_parent(parent, edge_v[edge])
            if root_a != root_b:
                parent[root_b] = root_a
            position += 1
        if level > upper_bound:
            # Lemma 1: no level above min vertex trussness can connect Q.
            continue
        anchor_root = _union_find_parent(parent, anchor)
        if all(_union_find_parent(parent, node) == anchor_root for node in others):
            return level
    return None


def _find_level_masked(
    kernel: QueryKernel, query_ids: list[int], upper_bound: int
) -> int | None:
    """The large-kernel strategy: binary search with masked-BFS probes."""
    levels = [level for level in kernel.levels if level <= upper_bound]
    if not levels or not _query_connected_at_k(kernel, query_ids, levels[-1]):
        return None
    # Connectivity is monotone along the (descending) level list: find the
    # first (= highest-k) connected level by binary search.
    low, high = 0, len(levels) - 1
    while low < high:
        middle = (low + high) // 2
        if _query_connected_at_k(kernel, query_ids, levels[middle]):
            high = middle
        else:
            low = middle + 1
    return levels[low]


def _query_connected_at_k(
    kernel: QueryKernel, query_ids: list[int], k: int
) -> bool:
    """Is ``Q`` inside one component of the ``{tau(e) >= k}`` subgraph?

    One masked BFS from the first query node, stopping as soon as every
    other query node has been reached (a query node isolated at this level
    is simply never reached).
    """
    csr = kernel.csr
    others = query_ids[1:]
    result = masked_bfs(
        csr.indptr,
        csr.indices,
        query_ids[:1],
        slot_edge=csr.slot_edge,
        edge_alive=kernel.trussness >= k,
        until_reached=others,
    )
    return bool((result.distances[others] >= 0).all())


def _component_at_k(
    kernel: QueryKernel, root: int, k: int
) -> tuple[list[int], list[int]]:
    """Frontier-BFS the component of ``root`` in the trussness >= k subgraph.

    Returns sorted node ids and sorted edge ids of the component.  An edge
    qualifies iff its trussness is >= ``k`` and one endpoint was visited —
    the BFS traverses exactly the qualifying edges, so a visited endpoint
    implies a visited edge, and one vectorized mask recovers the component's
    edge set without per-edge Python probing.
    """
    csr = kernel.csr
    qualifying = kernel.trussness >= k
    result = masked_bfs(
        csr.indptr,
        csr.indices,
        [root],
        slot_edge=csr.slot_edge,
        edge_alive=qualifying,
    )
    visited = result.distances >= 0
    component_edges = np.nonzero(qualifying & visited[csr.edge_u])[0]
    return np.nonzero(visited)[0].tolist(), component_edges.tolist()


def find_g0(
    kernel: QueryKernel, query_ids: list[int]
) -> tuple[list[int], list[int], int]:
    """Return ``(node_ids, edge_ids, k)`` of the paper's ``G0`` for the query.

    Results are identical to the dict path's
    :func:`~repro.trusses.extraction.find_maximal_connected_truss`
    (node/edge sets and ``k``), modulo the id-vs-label representation.

    Raises
    ------
    NoCommunityFoundError
        If no connected k-truss (k >= 2) contains all query nodes.
    """
    vertex_tau = kernel.vertex_trussness
    upper_bound = min(vertex_tau[node] for node in query_ids)
    if upper_bound < 2:
        # Some query vertex is isolated; a single isolated query node is its
        # own trivial community (k = 2 by convention), mirroring the dict path.
        if len(query_ids) == 1:
            return [query_ids[0]], [], 2
        raise NoCommunityFoundError(
            "a query node is isolated; no connected truss contains the whole query"
        )
    if len(query_ids) == 1:
        # A single node is trivially connected at its own vertex trussness
        # (Lemma 1's upper bound is attained immediately).
        node = query_ids[0]
        component_nodes, component_edges = _component_at_k(kernel, node, upper_bound)
        return component_nodes, component_edges, upper_bound

    if kernel.csr.number_of_edges() >= LEVEL_SEARCH_THRESHOLD:
        answer = _find_level_masked(kernel, query_ids, upper_bound)
    else:
        answer = _find_level_scalar(kernel, query_ids, upper_bound)
    if answer is None:
        raise NoCommunityFoundError(
            f"no connected k-truss (k >= 2) contains all query nodes "
            f"{[kernel.csr.node_label(node) for node in query_ids]!r}"
        )
    component_nodes, component_edges = _component_at_k(kernel, query_ids[0], answer)
    return component_nodes, component_edges, answer


def connected_truss_at_k(
    kernel: QueryKernel, query_ids: list[int], k: int
) -> tuple[list[int], list[int]]:
    """Return the connected k-truss containing the query at the *given* ``k``.

    Array twin of :func:`~repro.trusses.extraction.find_connected_truss_at_k`
    (the Figure 14 "given k" variant): the component of the ``{tau >= k}``
    subgraph containing all query nodes, where query nodes count as present
    even when isolated at that level (a lone query node is its own
    single-node component).

    Raises
    ------
    QueryError
        If ``k < 2``.
    NoCommunityFoundError
        If the query nodes are not connected in the maximal k-truss.
    """
    if k < 2:
        raise QueryError(f"trussness level must be >= 2, got {k}")
    component_nodes, component_edges = _component_at_k(kernel, query_ids[0], k)
    members = set(component_nodes)
    if any(node not in members for node in query_ids[1:]):
        raise NoCommunityFoundError(
            f"query nodes are not connected in the maximal {k}-truss"
        )
    return component_nodes, component_edges
