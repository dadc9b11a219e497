"""Vectorized forward triangle enumeration on sorted CSR rows.

The sequential truss routines count and re-count triangles edge by edge
through Python dict probes; this module enumerates every triangle of a
:class:`~repro.graph.csr.CSRGraph` **once**, in bulk, with numpy primitives,
and materializes the two artifacts the level-synchronous decomposition
(:mod:`repro.trusses.csr_decomposition`) peels on:

* a flat **triangle array** ``edges`` of shape ``(T, 3)`` holding the three
  edge ids of each triangle, and
* a **triangle-incidence CSR** (``inc_indptr`` / ``inc_triangles``) mapping
  every edge id to the ids of the triangles containing it, so "kill the
  triangles through this frontier of edges" is one segmented gather (plus a
  scatter/scan dedup on the consumer side) instead of per-edge
  adjacency-map intersections.

Enumeration uses the standard forward orientation on the *node-id* order:
each triangle ``u < v < w`` is produced exactly once from its lowest edge
``(u, v)`` by scanning the forward slice of ``v``'s sorted row (neighbours
``w > v``) and testing ``w in N(u)`` with one batched ``np.searchsorted``
against the globally sorted composite key ``row * n + neighbour`` — the CSR
layout concatenates sorted rows in row order, so that key array is strictly
increasing and a single binary search resolves membership *and* yields the
slot (hence the edge id) of ``(u, w)``.  Candidate batches are bounded by
``candidate_budget`` slots so peak memory stays flat on skewed graphs.

Per-edge supports fall out as one ``np.bincount`` over the triangle array —
the same values as :func:`repro.trusses.csr_decomposition.csr_edge_supports`,
without any per-edge Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph, CSRPatch, segment_slots

__all__ = [
    "TriangleIncidence",
    "csr_triangle_incidence",
    "csr_triangle_supports",
    "patch_incidence",
    "subset_incidence",
    "triangle_nodes",
]

#: Upper bound on the number of candidate (edge, third-node) pairs expanded
#: per enumeration batch; bounds peak memory on skewed degree distributions.
DEFAULT_CANDIDATE_BUDGET = 1 << 20


@dataclass(frozen=True)
class TriangleIncidence:
    """Flat triangle enumeration plus per-edge triangle-incidence CSR.

    Attributes
    ----------
    edges:
        ``int64`` array of shape ``(T, 3)``; row ``t`` holds the edge ids
        ``(e_uv, e_uw, e_vw)`` of triangle ``u < v < w``.  Each triangle of
        the graph appears exactly once.
    supports:
        ``int64`` array of length ``m``: the triangle count of every edge
        (its k-truss *support*), equal to the number of rows of ``edges``
        mentioning it.
    inc_indptr, inc_triangles:
        CSR mapping edge ids to triangle ids: edge ``e`` lies in triangles
        ``inc_triangles[inc_indptr[e]:inc_indptr[e + 1]]`` (so
        ``inc_triangles`` has length ``3 * T`` and
        ``inc_indptr[e + 1] - inc_indptr[e] == supports[e]``).
    """

    edges: np.ndarray
    supports: np.ndarray
    inc_indptr: np.ndarray
    inc_triangles: np.ndarray

    @property
    def num_triangles(self) -> int:
        """The number of triangles ``T``."""
        return int(self.edges.shape[0])

    def triangles_of_edges(self, edge_ids: np.ndarray) -> np.ndarray:
        """Return the (non-unique) triangle ids incident to ``edge_ids``.

        One vectorized gather of the incidence rows of every listed edge; a
        triangle appears once per listed edge it contains, so callers that
        need distinct triangles apply ``np.unique`` on the result.
        """
        starts = self.inc_indptr[edge_ids]
        counts = self.inc_indptr[edge_ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        return self.inc_triangles[segment_slots(starts, counts)]


def _incidence_from_triangles(edges: np.ndarray, num_edges: int) -> TriangleIncidence:
    """Assemble the incidence CSR and supports from a ``(T, 3)`` triangle array.

    In-row order contract: edge ``e``'s row lists its triangles in
    ascending ``(column of e in the triangle, triangle id)`` order — a
    *stable* grouping of the column-major flattening.  The peel treats a
    row as a set, but :func:`patch_incidence` relies on the order to carry
    surviving rows across a patch without re-grouping them.
    """
    flat = edges.ravel(order="F")  # all e_uv, then all e_uw, then all e_vw
    num_triangles = edges.shape[0]
    counts = np.bincount(flat, minlength=num_edges) if flat.size else np.zeros(
        num_edges, dtype=np.int64
    )
    inc_indptr = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(counts, out=inc_indptr[1:])
    # 2-pass radix sort on a narrowed key when edge ids fit 16 bits.
    if num_edges <= np.iinfo(np.uint16).max:
        order = np.argsort(flat.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(flat, kind="stable")
    inc_triangles = (order % num_triangles) if num_triangles else order
    return TriangleIncidence(
        edges=edges,
        supports=counts.astype(np.int64, copy=False),
        inc_indptr=inc_indptr,
        inc_triangles=inc_triangles.astype(np.int64, copy=False),
    )


def _enumerate_triangles(csr: CSRGraph, candidate_budget: int) -> np.ndarray:
    """Enumerate every triangle of ``csr`` as a ``(T, 3)`` edge-id array."""
    num_nodes = csr.number_of_nodes()
    num_edges = csr.number_of_edges()
    if num_edges == 0:
        return np.zeros((0, 3), dtype=np.int64)

    indptr, indices, slot_edge = csr.indptr, csr.indices, csr.slot_edge
    degrees = np.diff(indptr)
    row_of_slot = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    # Forward slice of each sorted row: the suffix of neighbours > the node.
    forward = indices > row_of_slot
    forward_count = np.bincount(row_of_slot[forward], minlength=num_nodes)
    forward_start = indptr[1:] - forward_count
    # Rows are concatenated in row order and sorted within, so this composite
    # key array is strictly increasing: one searchsorted resolves membership
    # of any (node, neighbour) pair and yields its slot.
    all_keys = row_of_slot * num_nodes + indices

    edge_u, edge_v = csr.edge_u, csr.edge_v
    cand_counts = forward_count[edge_v]
    cum = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(cand_counts, out=cum[1:])

    parts: list[np.ndarray] = []
    lo = 0
    while lo < num_edges:
        hi = int(np.searchsorted(cum, cum[lo] + candidate_budget, side="right")) - 1
        hi = min(max(hi, lo + 1), num_edges)
        counts = cand_counts[lo:hi]
        total = int(cum[hi] - cum[lo])
        if total == 0:
            lo = hi
            continue
        gather = segment_slots(forward_start[edge_v[lo:hi]], counts)
        # Candidate triangles of edge (u, v): third node w > v from v's
        # forward slice; (v, w) is the slot itself, (u, w) is the probe.
        w = indices[gather]
        e_uv = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
        probe = np.repeat(edge_u[lo:hi], counts) * num_nodes + w
        pos = np.searchsorted(all_keys, probe)
        pos = np.minimum(pos, all_keys.size - 1)
        hit = np.nonzero(all_keys[pos] == probe)[0]
        if hit.size:
            batch = np.empty((hit.size, 3), dtype=np.int64)
            batch[:, 0] = e_uv[hit]
            batch[:, 1] = slot_edge[pos[hit]]
            batch[:, 2] = slot_edge[gather[hit]]
            parts.append(batch)
        lo = hi

    if len(parts) == 1:
        return parts[0]
    if parts:
        return np.concatenate(parts, axis=0)
    return np.zeros((0, 3), dtype=np.int64)


def csr_triangle_incidence(
    csr: CSRGraph, *, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> TriangleIncidence:
    """Enumerate every triangle of ``csr`` and build its incidence structure.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> inc = csr_triangle_incidence(CSRGraph.from_graph(complete_graph(4)))
    >>> inc.num_triangles, sorted(set(inc.supports.tolist()))
    (4, [2])
    """
    return _incidence_from_triangles(
        _enumerate_triangles(csr, candidate_budget), csr.number_of_edges()
    )


def csr_triangle_supports(
    csr: CSRGraph, *, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> np.ndarray:
    """Return per-edge triangle counts (supports) without incidence assembly.

    For callers that only need the support array (e.g. bulk support
    counting), this skips the incidence-CSR grouping sort that
    :func:`csr_triangle_incidence` pays — one enumeration pass plus one
    ``np.bincount``.
    """
    triangles = _enumerate_triangles(csr, candidate_budget)
    if triangles.size == 0:
        return np.zeros(csr.number_of_edges(), dtype=np.int64)
    return np.bincount(
        triangles.ravel(), minlength=csr.number_of_edges()
    ).astype(np.int64, copy=False)


def subset_incidence(
    incidence: TriangleIncidence, parent_edge_ids: np.ndarray
) -> TriangleIncidence:
    """Restrict ``incidence`` to the subgraph induced by ``parent_edge_ids``.

    ``parent_edge_ids`` must be sorted and unique; local edge ``e`` of the
    result corresponds to ``parent_edge_ids[e]``, which is exactly the
    edge-id contract of :meth:`CSRGraph.edge_subgraph`.  The kept triangles
    are those with **all three** edges selected — i.e. the triangles of the
    edge subgraph — gathered locally through the incidence CSR, which is how
    the LCTC kernel re-decomposes its expansion without re-enumerating
    triangles from scratch.  The per-element work is proportional to the
    selected edges' triangle degrees; the sort-free dedup and edge
    translation do pay two O(parent)-sized scratch initializations (a
    ``bool`` per parent triangle, an ``int64`` per parent edge), a trade
    that beats sorting the candidate list at every scale measured here.
    """
    selected = np.asarray(parent_edge_ids, dtype=np.int64)
    num_local = int(selected.size)
    candidates = incidence.triangles_of_edges(selected)
    if candidates.size == 0:
        return _incidence_from_triangles(np.zeros((0, 3), dtype=np.int64), num_local)
    # Scatter/scan dedup (a triangle is gathered once per selected edge it
    # contains) — linear, and the scan yields the ids already sorted.
    flag = np.zeros(incidence.num_triangles, dtype=bool)
    flag[candidates] = True
    candidates = np.nonzero(flag)[0]
    # Parent-to-local edge translation through one lookup table; a corner
    # outside the selection maps to -1 and disqualifies its triangle.
    local_of = np.full(incidence.supports.size, -1, dtype=np.int64)
    local_of[selected] = np.arange(num_local, dtype=np.int64)
    local = local_of[incidence.edges[candidates]]
    present = (local >= 0).all(axis=1)
    return _incidence_from_triangles(np.ascontiguousarray(local[present]), num_local)


def _triangles_of_edges_local(csr: CSRGraph, edge_ids: np.ndarray) -> np.ndarray:
    """Enumerate every triangle of ``csr`` containing a listed edge, canonically.

    The local counterpart of :func:`_enumerate_triangles`: instead of scanning
    every forward row slice, each listed edge ``(u, v)`` intersects its
    endpoints' sorted rows with one ``searchsorted`` (shorter row probed into
    the longer), so the work is proportional to the touched rows' degrees.
    Rows are canonicalized to ``(e_uv, e_uw, e_vw)`` — which is simply
    ascending edge-id order, because edge ids are row-major over ``u < v <
    w`` — deduplicated (a triangle containing several listed edges is found
    once per listed edge), and returned sorted by ``(first, second)`` edge
    id, the exact order the full enumeration produces.
    """
    indptr, indices, slot_edge = csr.indptr, csr.indices, csr.slot_edge
    parts: list[np.ndarray] = []
    for edge, u, v in zip(
        edge_ids.tolist(), csr.edge_u[edge_ids].tolist(), csr.edge_v[edge_ids].tolist()
    ):
        if indptr[u + 1] - indptr[u] > indptr[v + 1] - indptr[v]:
            u, v = v, u
        a0, a1 = int(indptr[u]), int(indptr[u + 1])
        b0, b1 = int(indptr[v]), int(indptr[v + 1])
        row_a, row_b = indices[a0:a1], indices[b0:b1]
        if row_a.size == 0 or row_b.size == 0:
            continue
        pos = np.minimum(np.searchsorted(row_b, row_a), row_b.size - 1)
        hit = row_b[pos] == row_a  # common neighbours of u and v
        if not hit.any():
            continue
        batch = np.empty((int(np.count_nonzero(hit)), 3), dtype=np.int64)
        batch[:, 0] = edge
        batch[:, 1] = slot_edge[a0:a1][hit]
        batch[:, 2] = slot_edge[b0:b1][pos[hit]]
        parts.append(batch)
    if not parts:
        return np.zeros((0, 3), dtype=np.int64)
    rows = np.concatenate(parts, axis=0)
    rows.sort(axis=1)
    _, first = np.unique(rows[:, 0] * csr.number_of_edges() + rows[:, 1], return_index=True)
    return rows[first]


def patch_incidence(
    incidence: TriangleIncidence,
    patch: CSRPatch,
    new_csr: CSRGraph | None = None,
) -> TriangleIncidence:
    """Carry ``incidence`` across a :class:`~repro.graph.csr.CSRPatch`.

    ``incidence`` must describe the snapshot ``patch`` was applied to; the
    result is **bit-identical** to ``csr_triangle_incidence(patch.csr)`` —
    same triangle array (content *and* order), supports, and incidence CSR —
    but is assembled locally instead of re-enumerating the graph:

    1. triangles incident to a removed edge are dropped with one gather over
       the removed edges' incidence rows (the same gather the incremental
       truss update uses for deletion seeding);
    2. surviving triangles' corner edge ids are remapped through the patch's
       old→new edge map (a pure gather when the patch preserves edge order,
       a per-row re-canonicalization otherwise);
    3. the triangles the delta *created* — each contains at least one
       inserted edge — are enumerated via local ``searchsorted``
       intersections on the inserted edges' rows only;
    4. the two sorted runs are merged positionally;
    5. the incidence CSR is merged too (see :func:`_carry_rows`): under an
       order-preserving patch the edge and triangle remaps are both
       monotone, so every surviving row keeps its in-row order and only the
       fresh triangles' entries are inserted.  A non-monotone patch
       re-groups the merged triangle array from scratch.

    The per-patch cost is a few linear gathers over the triangle arrays
    plus the touched rows' degrees — no sort of the whole incidence and no
    scan of the graph's candidate pair set, which is what full enumeration
    pays.

    ``new_csr`` defaults to ``patch.csr``; passing it explicitly merely
    documents which snapshot the result belongs to.
    """
    if new_csr is None:
        new_csr = patch.csr
    inserted = patch.inserted_edge_ids()
    if patch.node_remap is None and not patch.removed_edge_ids.size and not inserted.size:
        return incidence  # empty delta: the structure is exactly current
    num_new_edges = new_csr.number_of_edges()
    ordered = patch.preserves_edge_order()

    # (1) drop every triangle that lost a corner to the deletion batch
    lost = np.unique(incidence.triangles_of_edges(patch.removed_edge_ids))
    kept: np.ndarray | None = None  # old ids of the surviving triangles
    if lost.size:
        keep = np.ones(incidence.num_triangles, dtype=bool)
        keep[lost] = False
        kept = np.nonzero(keep)[0]
        surviving = np.take(incidence.edges, kept, axis=0)
    else:
        surviving = incidence.edges

    # (2) remap the survivors' corner edge ids into the new id space
    surviving = patch.new_of_old[surviving]
    if surviving.size and not ordered:
        # A non-monotonic node remap reorders edge ids, so both the corner
        # order within each row and the row order must be re-canonicalized.
        surviving.sort(axis=1)
        order = np.argsort(
            surviving[:, 0] * num_new_edges + surviving[:, 1], kind="stable"
        )
        surviving = surviving[order]

    # (3) enumerate only the triangles the inserted edges created
    fresh = (
        _triangles_of_edges_local(new_csr, inserted)
        if inserted.size
        else np.zeros((0, 3), dtype=np.int64)
    )

    # (4) positional merge of two disjoint sorted runs (survivors contain no
    # inserted edge as their lowest corner pair; fresh ones always do)
    if fresh.size:
        before = np.searchsorted(
            surviving[:, 0] * num_new_edges + surviving[:, 1],
            fresh[:, 0] * num_new_edges + fresh[:, 1],
        )
        merged = _insert_rows(surviving, before, fresh)
    else:
        before = np.zeros(0, dtype=np.int64)
        merged = np.ascontiguousarray(surviving)
    if not ordered:
        return _incidence_from_triangles(merged, num_new_edges)
    return _carry_rows(incidence, patch, kept, lost, merged, fresh, before)


#: One triangle row (three ``int64`` edge ids) as a single opaque element.
_TRIANGLE_ROW = np.dtype((np.void, 3 * np.dtype(np.int64).itemsize))


def _insert_rows(rows: np.ndarray, before: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """``np.insert(rows, before, extra, axis=0)`` for ``(T, 3)`` ``int64`` arrays.

    Viewing each row as one 24-byte element turns the row insert into a 1-D
    one, which numpy runs several times faster than its axis-0 form.
    """
    flat = np.insert(
        np.ascontiguousarray(rows).view(_TRIANGLE_ROW).ravel(),
        before,
        np.ascontiguousarray(extra).view(_TRIANGLE_ROW).ravel(),
    )
    return flat.view(np.int64).reshape(-1, 3)


def _carry_rows(
    incidence: TriangleIncidence,
    patch: CSRPatch,
    kept: np.ndarray | None,
    lost: np.ndarray,
    merged: np.ndarray,
    fresh: np.ndarray,
    before: np.ndarray,
) -> TriangleIncidence:
    """Merge the incidence CSR across an order-preserving patch.

    ``merged`` is the new triangle array, ``kept`` and ``lost`` the old ids
    of the surviving and the dropped triangles (``kept`` is ``None`` when
    all survived) and ``before`` the merge positions of the ``fresh``
    triangles among the survivors.  Edge and triangle ids both map
    monotonically, and each triangle's corners keep their column, so the
    surviving entries — read in old row order and relabelled — are already
    in the new ``(edge, column, triangle)`` order of
    :func:`_incidence_from_triangles`.  The fresh triangles' entries are
    ranked inside their rows and inserted positionally.
    """
    num_new_edges = patch.csr.number_of_edges()
    num_new = int(merged.shape[0])
    num_fresh = int(fresh.shape[0])

    # New id of every old triangle (-1 if lost), and of every fresh one.
    num_kept = incidence.num_triangles if kept is None else int(kept.size)
    kept_new = np.arange(num_kept, dtype=np.int64)
    if num_fresh:
        # A survivor moves up by the number of fresh rows inserted before it.
        kept_new += np.cumsum(np.bincount(before, minlength=num_kept + 1))[:num_kept]
    fresh_new = before + np.arange(num_fresh, dtype=np.int64)
    if kept is None:
        # No triangle was lost: relabel in place, or share when none moved.
        entries = kept_new[incidence.inc_triangles] if num_fresh else incidence.inc_triangles
    else:
        tri_map = np.full(incidence.num_triangles, -1, dtype=np.int64)
        tri_map[kept] = kept_new
        entries = tri_map[incidence.inc_triangles]
        entries = entries[entries >= 0]

    # Surviving entries per new edge: the old counts minus the lost corners.
    survivor_counts = np.asarray(incidence.supports, dtype=np.int64)
    if lost.size:
        survivor_counts = survivor_counts - np.bincount(
            np.take(incidence.edges, lost, axis=0).ravel(), minlength=survivor_counts.size
        )
    carried = patch.edge_origin >= 0
    counts = np.zeros(num_new_edges, dtype=np.int64)
    counts[carried] = survivor_counts[patch.edge_origin[carried]]
    survivor_indptr = np.zeros(num_new_edges + 1, dtype=np.int64)
    np.cumsum(counts, out=survivor_indptr[1:])

    if num_fresh:
        # Fresh entries as (edge, column, triangle), sorted by that key.
        f_edges = fresh.ravel(order="F")
        f_keys = (
            (f_edges * 3 + np.repeat(np.arange(3, dtype=np.int64), num_fresh)) * num_new
            + np.tile(fresh_new, 3)
        )
        f_order = np.argsort(f_keys)
        f_edges, f_keys = f_edges[f_order], f_keys[f_order]
        f_triangles = f_keys % num_new
        counts += np.bincount(f_edges, minlength=num_new_edges)
        # Rank every fresh entry among its row's survivors: gather those
        # rows, key them the same way (a corner's column is where the row's
        # edge sits in the triangle) and binary-search the fresh keys.
        rows = np.unique(f_edges)
        starts = survivor_indptr[rows]
        lengths = survivor_indptr[rows + 1] - starts
        offsets = np.cumsum(lengths) - lengths
        row_triangles = entries[segment_slots(starts, lengths)]
        row_edges = np.repeat(rows, lengths)
        corners = merged[row_triangles]
        columns = (corners[:, 1] == row_edges) + 2 * (corners[:, 2] == row_edges)
        row_keys = (row_edges * 3 + columns) * num_new + row_triangles
        rank = np.searchsorted(row_keys, f_keys) - offsets[np.searchsorted(rows, f_edges)]
        entries = np.insert(entries, survivor_indptr[f_edges] + rank, f_triangles)

    inc_indptr = np.zeros(num_new_edges + 1, dtype=np.int64)
    np.cumsum(counts, out=inc_indptr[1:])
    return TriangleIncidence(
        edges=merged,
        supports=counts,
        inc_indptr=inc_indptr,
        inc_triangles=entries,
    )


def triangle_nodes(csr: CSRGraph, incidence: TriangleIncidence | None = None) -> np.ndarray:
    """Return the node-id triples ``(u < v < w)`` of every triangle of ``csr``.

    The array twin of :func:`repro.graph.triangles.iter_triangles` (which
    yields label triples in peel order): row ``t`` of the result holds the
    sorted dense ids of triangle ``t`` of ``incidence`` (enumerated on the
    fly when not supplied).
    """
    if incidence is None:
        incidence = csr_triangle_incidence(csr)
    edges = incidence.edges
    # Triangle rows are (e_uv, e_uw, e_vw) with u < v < w, so u and v are
    # the endpoints of the first edge and w is the upper end of the last.
    return np.stack(
        [csr.edge_u[edges[:, 0]], csr.edge_v[edges[:, 0]], csr.edge_v[edges[:, 2]]],
        axis=1,
    )
