"""Explicit commutation graph, cover verification, and optimality bounds.

Vertices are the index pairs (p, q) with p <= q; diagonal pairs form one
class and off-diagonal pairs the other.  Two vertices are adjacent exactly
when their index sets are disjoint, which is when the corresponding
same-spin operators commute.  The anchor groups from the plane must induce
complete subgraphs and cover every edge; the bounds here quantify how close
their count (n-1)^2 comes to the minimum possible.
"""

from __future__ import annotations

from collections import namedtuple

from .cover import PairClique, Vertex


class SizeLimitError(ValueError):
    """Brute-force search requested beyond its intended range."""


def vertices_commute(a: Vertex, b: Vertex) -> bool:
    """Edge rule: all indices across the two pairs are mutually different."""
    if a == b:
        return False
    sa = {a[0], a[1]}
    sb = {b[0], b[1]}
    return sa.isdisjoint(sb)


def _edge(a: Vertex, b: Vertex) -> tuple[Vertex, Vertex]:
    return (a, b) if a < b else (b, a)


class Graph(namedtuple("Graph", ["n", "vertices", "edges"])):
    """The commutation graph on ``n`` labels: its ``vertices`` and its
    ``edges``, a frozenset of (a, b) pairs with a < b."""

    __slots__ = ()

    @property
    def pair_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v[0] != v[1])

    def pair_subgraph_edges(self) -> frozenset[tuple[Vertex, Vertex]]:
        """Edges with both endpoints off-diagonal."""
        return frozenset(
            (a, b) for a, b in self.edges if a[0] != a[1] and b[0] != b[1]
        )


def build_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    vertices = tuple((p, q) for p in range(n) for q in range(p, n))
    edges = set()
    for i, a in enumerate(vertices):
        for b in vertices[i + 1 :]:
            if vertices_commute(a, b):
                edges.add(_edge(a, b))
    return Graph(n, vertices, frozenset(edges))


class CoverReport:
    """Outcome of checking anchor groups against the graph."""

    def __init__(
        self,
        clique_violations: list[tuple[int, Vertex, Vertex]] | None = None,
        uncovered: list[tuple[Vertex, Vertex]] | None = None,
        multiplicity: dict[tuple[Vertex, Vertex], int] | None = None,
    ) -> None:
        self.clique_violations = [] if clique_violations is None else clique_violations
        self.uncovered = [] if uncovered is None else uncovered
        self.multiplicity = {} if multiplicity is None else multiplicity

    @property
    def complete(self) -> bool:
        """Every group is a clique of the graph."""
        return not self.clique_violations

    @property
    def ok(self) -> bool:
        return self.complete and not self.uncovered

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for count in self.multiplicity.values():
            hist[count] = hist.get(count, 0) + 1
        return dict(sorted(hist.items()))

    def summary(self) -> str:
        lines = [
            f"cliques_complete: {'yes' if self.complete else 'no'}",
            f"uncovered_edges: {len(self.uncovered)}",
            f"multiplicity_histogram: "
            + " ".join(f"{k}:{v}" for k, v in self.histogram().items()),
        ]
        for idx, a, b in self.clique_violations[:10]:
            lines.append(f"violation: clique {idx} holds non-adjacent {a}, {b}")
        for a, b in self.uncovered[:10]:
            lines.append(f"uncovered: edge {a} -- {b}")
        return "\n".join(lines)


def verify_cover(graph: Graph, cliques: list[PairClique]) -> CoverReport:
    """Check completeness of each group and coverage of every edge."""
    multiplicity = {e: 0 for e in graph.edges}
    violations: list[tuple[int, Vertex, Vertex]] = []
    for idx, clique in enumerate(cliques):
        members = clique.members
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not vertices_commute(a, b):
                    violations.append((idx, a, b))
                else:
                    edge = _edge(a, b)
                    if edge in multiplicity:
                        multiplicity[edge] += 1
    uncovered = sorted(e for e, count in multiplicity.items() if count == 0)
    return CoverReport(violations, uncovered, multiplicity)


def lower_bound(n: int) -> int:
    """Minimum group count needed to cover the off-diagonal subgraph's edges.

    Each group there is a set of disjoint pairs, so it has at most floor(n/2)
    vertices and C(floor(n/2), 2) edges, while the subgraph has
    n(n-1)(n-2)(n-3)/8 edges; the ratio gives (n-1)(n-3).
    """
    return (n - 1) * (n - 3) if n >= 4 else 0


def pair_edge_count(n: int) -> int:
    """Closed form for the number of off-diagonal-only edges."""
    return n * (n - 1) * (n - 2) * (n - 3) // 8


def brute_force_cover(graph: Graph) -> list[tuple[Vertex, ...]]:
    """Greedy edge clique cover of the off-diagonal subgraph, small n only.

    Repeatedly takes an uncovered edge and grows it into a clique, preferring
    vertices of highest remaining uncovered degree.  Not minimal, but a
    desk-scale sanity bound.
    """
    if graph.n > 6:
        raise SizeLimitError(f"brute-force cover limited to n <= 6, got n = {graph.n}")
    edges = set(graph.pair_subgraph_edges())
    uncovered = set(edges)
    adjacency: dict[Vertex, set[Vertex]] = {v: set() for v in graph.pair_vertices}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    cliques: list[tuple[Vertex, ...]] = []
    while uncovered:
        a, b = min(uncovered)
        clique = [a, b]
        candidates = adjacency[a] & adjacency[b]

        def uncovered_degree(v: Vertex) -> int:
            return sum(1 for w in adjacency[v] if _edge(v, w) in uncovered)

        while candidates:
            best = max(sorted(candidates), key=uncovered_degree)
            clique.append(best)
            candidates &= adjacency[best]
        for i, u in enumerate(clique):
            for w in clique[i + 1 :]:
                uncovered.discard(_edge(u, w))
        cliques.append(tuple(sorted(clique)))
    return cliques


def max_pair_clique_size(graph: Graph) -> int:
    """Exact maximum clique size in the off-diagonal subgraph (small n)."""
    if graph.n > 10:
        raise SizeLimitError(f"max clique search limited to n <= 10, got {graph.n}")
    vertices = graph.pair_vertices
    best = 0

    def extend(current: list[Vertex], candidates: list[Vertex]) -> None:
        nonlocal best
        best = max(best, len(current))
        if len(current) + len(candidates) <= best:
            return
        for i, v in enumerate(candidates):
            extend(
                current + [v],
                [w for w in candidates[i + 1 :] if vertices_commute(v, w)],
            )

    extend([], list(vertices))
    return best
