"""Answer checks that share no code with the engine's kernels.

Every answer is checked against the graph it was computed on: the
community must be a subgraph of that graph, contain every query node, be
connected, and give each of its edges at least ``k - 2`` triangles inside
the community, where ``k`` is the trussness the answer reports.  Plain
dicts of sets and a breadth-first search are all it takes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable


def answer_key(result) -> tuple:
    """A comparable fingerprint of a :class:`CommunityResult`: trussness, nodes, edges."""
    return (
        int(result.trussness),
        frozenset(result.graph.nodes()),
        frozenset(frozenset(edge) for edge in result.graph.edges()),
    )


def community_problems(
    nodes: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    query: Iterable[Hashable],
    k: int,
    has_edge=None,
) -> list[str]:
    """Return what is wrong with a reported community (empty when it is valid).

    ``has_edge(u, v)``, when given, tells whether an edge exists in the
    graph the answer was computed on.
    """
    adjacency: dict[Hashable, set] = {node: set() for node in nodes}
    problems: list[str] = []
    edge_list = list(edges)
    for u, v in edge_list:
        if u not in adjacency or v not in adjacency:
            problems.append(f"edge ({u!r}, {v!r}) has an endpoint outside the community")
            continue
        adjacency[u].add(v)
        adjacency[v].add(u)
        if has_edge is not None and not has_edge(u, v):
            problems.append(f"edge ({u!r}, {v!r}) is not in the graph")
    missing = [node for node in query if node not in adjacency]
    if missing:
        problems.append(f"query nodes {missing!r} are missing")
    if adjacency:
        start = next(iter(adjacency))
        seen = {start}
        frontier = deque([start])
        while frontier:
            for other in adjacency[frontier.popleft()]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        if len(seen) != len(adjacency):
            problems.append(
                f"disconnected: {len(adjacency) - len(seen)} of {len(adjacency)} "
                "nodes unreachable"
            )
    else:
        problems.append("empty community")
    for u, v in edge_list:
        if u in adjacency and v in adjacency:
            support = len(adjacency[u] & adjacency[v])
            if support < k - 2:
                problems.append(
                    f"edge ({u!r}, {v!r}) has support {support} < k - 2 = {k - 2}"
                )
                break
    return problems


def result_problems(result, query, has_edge=None) -> list[str]:
    """:func:`community_problems` applied to a :class:`CommunityResult`."""
    return community_problems(
        result.graph.nodes(), result.graph.edges(), query, int(result.trussness), has_edge
    )
