"""Top-level CSR-native searches: the kernel twins of the algorithm classes.

Each function takes a :class:`~repro.ctc.kernels.context.QueryKernel` and a
query, executes entirely on the snapshot arrays, and returns the same
:class:`~repro.ctc.result.CommunityResult` (community, trussness, query
distance, iteration count, extras) the corresponding dict-path class
produces — the equivalence suite (``tests/ctc/test_kernel_equivalence.py``)
holds them identical.  The algorithm classes
(:class:`~repro.ctc.basic.BasicCTC` & friends) dispatch here when
constructed from an :class:`~repro.engine.EngineSnapshot`.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence

import numpy as np

from repro.ctc.kernels.context import QueryKernel, validate_query_ids
from repro.ctc.kernels.find_g0 import connected_truss_at_k, find_g0
from repro.ctc.kernels.local import expand
from repro.ctc.kernels.peeling import (
    basic_selector,
    bulk_delete_selector,
    peel,
)
from repro.ctc.kernels.steiner import build_truss_steiner_tree, minimum_trussness_of_tree
from repro.ctc.result import CommunityResult
from repro.exceptions import NoCommunityFoundError
from repro.graph.csr_bfs import masked_query_distances
from repro.graph.csr_triangles import subset_incidence
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.csr_decomposition import (
    DEFAULT_VECTOR_THRESHOLD,
    csr_decompose,
    peel_incidence,
)

__all__ = ["basic_search", "bulk_delete_search", "lctc_search", "truss_search"]


def _id_array(ids: set[int]) -> np.ndarray:
    """An id set as an ``int64`` array (for gathers through origin maps)."""
    return np.fromiter(ids, dtype=np.int64, count=len(ids))


def _graph_from_ids(kernel: QueryKernel, node_ids, edge_ids) -> UndirectedGraph:
    """Materialize a community (id sets) back into a label-space graph.

    Vectorized: endpoints gather through the label array, adjacency rows
    group with one stable argsort, and each neighbour set is built at C
    speed from its contiguous slice — no per-edge ``add_edge`` calls
    (:meth:`UndirectedGraph._from_trusted_parts` adopts the result).
    """
    csr = kernel.csr
    label_of = kernel.label_array
    nodes = np.sort(np.fromiter(node_ids, dtype=np.int64, count=len(node_ids)))
    adjacency: dict = {label_of[node]: set() for node in nodes.tolist()}
    edges = np.fromiter(edge_ids, dtype=np.int64, count=len(edge_ids))
    if edges.size:
        endpoint_u = csr.edge_u[edges]
        endpoint_v = csr.edge_v[edges]
        rows = np.concatenate([endpoint_u, endpoint_v])
        columns = np.concatenate([endpoint_v, endpoint_u])
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        column_labels = label_of[columns[order]].tolist()
        boundaries = np.nonzero(np.diff(rows))[0] + 1
        starts = [0, *boundaries.tolist(), rows.size]
        row_heads = rows[np.asarray(starts[:-1], dtype=np.int64)].tolist()
        for head, lo, hi in zip(row_heads, starts, starts[1:]):
            adjacency[label_of[head]] = set(column_labels[lo:hi])
    return UndirectedGraph._from_trusted_parts(adjacency, int(edges.size))


def _global_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    method_name: str,
    selector_factory,
    max_iterations: int | None,
    time_budget_seconds: float | None,
    peel_engine: str,
) -> CommunityResult:
    """The shared Basic/BulkDelete pipeline: FindG0, then greedy peeling."""
    start_time = time.perf_counter()
    labels, query_ids = validate_query_ids(kernel.csr, query)
    g0_nodes, g0_edges, k = find_g0(kernel, query_ids)
    outcome = peel(
        kernel,
        g0_nodes,
        g0_edges,
        k,
        query_ids,
        selector_factory(kernel, query_ids),
        start_time=start_time,
        time_budget=time_budget_seconds,
        max_iterations=max_iterations,
        engine=peel_engine,
    )
    elapsed = time.perf_counter() - start_time
    return CommunityResult(
        graph=_graph_from_ids(kernel, outcome.node_ids, outcome.edge_ids),
        query=tuple(labels),
        trussness=k,
        method=method_name,
        query_distance=outcome.query_distance,
        elapsed_seconds=elapsed,
        iterations=outcome.iterations,
        extras={
            "g0_nodes": len(g0_nodes),
            "g0_edges": len(g0_edges),
            "timed_out": outcome.timed_out,
        },
    )


def basic_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    *,
    max_iterations: int | None = None,
    time_budget_seconds: float | None = None,
    peel_engine: str = "auto",
) -> CommunityResult:
    """Algorithm 1 (``Basic``) on arrays: peel the single farthest vertex."""
    return _global_search(
        kernel, query, "basic", basic_selector, max_iterations,
        time_budget_seconds, peel_engine,
    )


def bulk_delete_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    *,
    threshold_offset: int = 1,
    batch_limit: int | None = None,
    max_iterations: int | None = None,
    time_budget_seconds: float | None = None,
    peel_engine: str = "auto",
) -> CommunityResult:
    """Algorithm 4 (``BulkDelete``) on arrays: peel every vertex past the threshold."""

    def factory(kernel_: QueryKernel, query_ids: list[int]):
        return bulk_delete_selector(
            kernel_, query_ids, threshold_offset=threshold_offset, batch_limit=batch_limit
        )

    return _global_search(
        kernel, query, "bulk-delete", factory, max_iterations,
        time_budget_seconds, peel_engine,
    )


def truss_search(kernel: QueryKernel, query: Sequence[Hashable]) -> CommunityResult:
    """The ``Truss`` baseline on arrays: FindG0 with no shrinking."""
    start_time = time.perf_counter()
    labels, query_ids = validate_query_ids(kernel.csr, query)
    g0_nodes, g0_edges, k = find_g0(kernel, query_ids)
    # The graph query distance of G0, straight off the masked frontier BFS
    # (edge mask = the component's edges; identical maxima to the old
    # adjacency-map BFS, without materializing the subgraph).
    g0_mask = np.zeros(kernel.csr.number_of_edges(), dtype=bool)
    g0_mask[np.asarray(g0_edges, dtype=np.int64)] = True
    maxima = masked_query_distances(kernel.csr, query_ids, edge_alive=g0_mask)
    query_distance = float(maxima[np.asarray(g0_nodes, dtype=np.int64)].max())
    elapsed = time.perf_counter() - start_time
    return CommunityResult(
        graph=_graph_from_ids(kernel, g0_nodes, g0_edges),
        query=tuple(labels),
        trussness=k,
        method="truss",
        query_distance=query_distance,
        elapsed_seconds=elapsed,
        iterations=0,
    )


def lctc_search(
    kernel: QueryKernel,
    query: Sequence[Hashable],
    *,
    eta: int,
    gamma: float,
    max_trussness_k: int | None = None,
    peel_engine: str = "auto",
) -> CommunityResult:
    """Algorithm 5 (``LCTC``) on arrays: Steiner seed, budgeted expansion,
    local decomposition, conservative bulk shrink."""
    start_time = time.perf_counter()
    labels, query_ids = validate_query_ids(kernel.csr, query)

    # Step 1: truss-aware Steiner tree over the query nodes.
    tree_nodes, tree_edges = build_truss_steiner_tree(kernel, query_ids, gamma)
    k_t = minimum_trussness_of_tree(kernel, tree_nodes, tree_edges)
    if max_trussness_k is not None:
        k_t = min(k_t, max_trussness_k)

    # Step 2: expand the tree through edges of trussness >= k_t.
    expanded_nodes, expanded_edges = expand(kernel, tree_nodes, k_t, eta)

    # Step 3: decompose the (small) expansion on its own sub-snapshot and
    # extract the best connected truss containing Q, mapping ids back.
    sub = kernel.csr.edge_subgraph(expanded_edges, include_node_ids=expanded_nodes)
    if (
        kernel.incidence is not None
        and sub.csr.number_of_edges() >= DEFAULT_VECTOR_THRESHOLD
    ):
        # Reuse the snapshot's triangle enumeration: restrict its incidence
        # arrays to the expansion (a local gather) and level-synchronously
        # peel — bit-identical to decomposing the sub-snapshot from scratch.
        # Tiny expansions skip the reuse for the same reason "auto" picks
        # the bucket queue there: the sequential peel undercuts the fixed
        # numpy costs below the threshold.
        local_incidence = subset_incidence(kernel.incidence, sub.edge_origin)
        local_trussness = peel_incidence(local_incidence)
    else:
        local_result = csr_decompose(sub.csr)
        local_trussness = local_result.trussness
        local_incidence = local_result.incidence  # None from the bucket path
    local_kernel = QueryKernel(sub.csr, local_trussness, incidence=local_incidence)
    # sub.node_origin is sorted, and every query node is a tree node.
    local_query = np.searchsorted(sub.node_origin, query_ids).tolist()
    try:
        local_nodes, local_edges, k = find_g0(local_kernel, local_query)
    except NoCommunityFoundError:
        # The expansion could not connect Q inside any truss; fall back to
        # the expansion itself (trussness 2), as the dict path does.
        local_nodes = list(range(sub.csr.number_of_nodes()))
        local_edges = list(range(sub.csr.number_of_edges()))
        k = 2
    if max_trussness_k is not None and k > max_trussness_k:
        k = max_trussness_k
        try:
            local_nodes, local_edges = connected_truss_at_k(local_kernel, local_query, k)
        except NoCommunityFoundError:
            pass  # keep the unrestricted candidate, as the dict path does

    # Step 4: shrink with the conservative BulkDelete variant, on the local
    # kernel (its incidence, when the decomposition built one, is already
    # the expansion's), then map the outcome back to snapshot ids.
    outcome = peel(
        local_kernel,
        local_nodes,
        local_edges,
        k,
        local_query,
        bulk_delete_selector(local_kernel, local_query, threshold_offset=0),
        start_time=start_time,
        engine=peel_engine,
    )
    community_nodes = sub.node_origin[_id_array(outcome.node_ids)]
    community_edges = sub.edge_origin[_id_array(outcome.edge_ids)]
    elapsed = time.perf_counter() - start_time
    return CommunityResult(
        graph=_graph_from_ids(kernel, community_nodes, community_edges),
        query=tuple(labels),
        trussness=k,
        method="lctc",
        query_distance=outcome.query_distance,
        elapsed_seconds=elapsed,
        iterations=outcome.iterations,
        extras={
            "steiner_nodes": len(tree_nodes),
            "k_t": k_t,
            "expanded_nodes": len(expanded_nodes),
            "expanded_edges": len(expanded_edges),
            "eta": eta,
            "gamma": gamma,
        },
    )
