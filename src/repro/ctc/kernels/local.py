"""LCTC's budgeted local expansion on the trussness-sorted arrays.

Array twin of :meth:`repro.ctc.local.LocalCTC._expand` (Algorithm 5,
step 2): grow the Steiner tree outward in BFS order through edges whose
trussness is at least ``k_t``, stopping node growth once the budget ``eta``
is reached while still closing edges among already-included nodes.

The expansion is order-sensitive — the budget cuts the frontier — so the
BFS seeding (tree nodes by ``repr`` order) and the neighbour order
(decreasing trussness, ``repr`` ties) both mirror the dict path, which is
what makes the kernel's communities identical to it.  The node set is
exactly the first ``eta`` nodes that ordered BFS discovers (or the tree,
if it is larger), and because node growth stops for good once the budget
is reached, the edge set is every qualifying edge with both ends in that
set.  So the kernel runs a level-synchronous BFS whose frontiers keep
first-discovery order, cut at the budget, then closes the edges with one
vectorized mask over the set's qualifying row prefixes.  The work is
proportional to the expansion, and the global kernel needs no list mirrors.
"""

from __future__ import annotations

import numpy as np

from repro.ctc.kernels.context import QueryKernel
from repro.graph.csr import segment_slots

__all__ = ["expand"]


def _prefix_slots(
    bounds: np.ndarray, row_stops, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The slots of ``rows``' qualifying prefixes, in row order, and their counts."""
    starts = bounds[rows]
    counts = row_stops(rows) - starts
    return segment_slots(starts, counts), counts


def expand(
    kernel: QueryKernel,
    tree_nodes: set[int],
    k_t: int,
    eta: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Grow the Steiner tree through trussness >= ``k_t`` edges up to ``eta`` nodes.

    Returns the expanded ``(node ids, edge ids)`` as sorted ``int64``
    arrays.  The tree's edges need no separate pass: ``k_t`` is at most
    their minimum trussness and the tree nodes are in the set, so the edge
    closure contains them.
    """
    bounds, neighbors, slot_edges, _neg_tau = kernel.sorted_arrays
    row_stops = kernel.sorted_row_stops(k_t)
    rank = kernel.repr_rank_array
    member = np.zeros(kernel.csr.number_of_nodes(), dtype=bool)
    frontier = np.fromiter(tree_nodes, dtype=np.int64, count=len(tree_nodes))
    frontier = frontier[np.argsort(rank[frontier])]
    member[frontier] = True
    budget = eta - frontier.size
    while budget > 0 and frontier.size:
        slots, _counts = _prefix_slots(bounds, row_stops, frontier)
        found = neighbors[slots]
        found = found[~member[found]]
        # Keep each new node's first discovery, in discovery order, up to
        # the budget: the order a scalar queue BFS would add them in.
        _unique, first = np.unique(found, return_index=True)
        frontier = found[np.sort(first)[:budget]]
        member[frontier] = True
        budget -= frontier.size

    nodes = np.nonzero(member)[0]
    slots, counts = _prefix_slots(bounds, row_stops, nodes)
    ends = neighbors[slots]
    inside = member[ends] & (np.repeat(nodes, counts) < ends)
    return nodes, np.sort(slot_edges[slots[inside]])
