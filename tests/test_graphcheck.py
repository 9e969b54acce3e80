"""Commutation graph construction, cover verification, and optimality bounds."""

import pytest

from planesched.cover import PairClique, build_cover
from planesched.gf import smallest_prime_at_least
from planesched.graphcheck import (
    SizeLimitError,
    brute_force_cover,
    build_graph,
    lower_bound,
    max_pair_clique_size,
    pair_edge_count,
    verify_cover,
    vertices_commute,
)
from planesched.plane import beta_point


def plane_order(n: int) -> int:
    return smallest_prime_at_least(max(2, n - 1))


def test_vertex_and_edge_counts():
    g = build_graph(6)
    assert len(g.vertices) == 21
    assert len(g.pair_subgraph_edges()) == 45
    assert len(build_graph(4).pair_subgraph_edges()) == 3


def test_edge_rule():
    assert vertices_commute((0, 0), (1, 1))
    assert not vertices_commute((0, 0), (0, 0))
    assert vertices_commute((0, 0), (1, 2))
    assert not vertices_commute((0, 0), (0, 2))
    assert vertices_commute((0, 1), (2, 3))
    assert not vertices_commute((0, 1), (1, 2))


def test_pair_edge_count_formula():
    for n in range(4, 11):
        g = build_graph(n)
        assert len(g.pair_subgraph_edges()) == pair_edge_count(n)
        assert pair_edge_count(n) == n * (n - 1) * (n - 2) * (n - 3) // 8


def test_cover_is_valid_and_exactly_once():
    for n in (3, 4, 6, 8):
        graph = build_graph(n)
        cliques = build_cover(plane_order(n), n)
        report = verify_cover(graph, cliques)
        assert report.ok
        assert report.histogram() == {1: len(graph.edges)}


def test_dropping_a_clique_uncovers_edges():
    n = 6
    graph = build_graph(n)
    cliques = build_cover(plane_order(n), n)
    kept = [c for c in cliques if len(c.members) >= 2][1:]
    report = verify_cover(graph, kept)
    assert not report.ok
    assert report.uncovered
    assert "uncovered" in report.summary()


def test_non_clique_member_is_reported():
    n = 4
    graph = build_graph(n)
    cliques = build_cover(plane_order(n), n)
    bad = PairClique(beta_point(0), ((0, 1), (1, 2)))
    report = verify_cover(graph, cliques + [bad])
    assert not report.complete
    assert report.clique_violations


def test_lower_bound_values():
    assert lower_bound(6) == 15
    assert lower_bound(4) == 3
    assert lower_bound(3) == 0
    assert lower_bound(8) == 35


def test_brute_force_cover_small():
    cover4 = brute_force_cover(build_graph(4))
    assert sorted(cover4) == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]
    cover5 = brute_force_cover(build_graph(5))
    assert len(cover5) >= lower_bound(5) == 8
    cover6 = brute_force_cover(build_graph(6))
    assert lower_bound(6) <= len(cover6) <= (6 - 1) ** 2


def test_brute_force_cover_is_a_valid_cover():
    for n in (4, 5, 6):
        graph = build_graph(n)
        cliques = brute_force_cover(graph)
        covered = set()
        for clique in cliques:
            for i, a in enumerate(clique):
                for b in clique[i + 1 :]:
                    assert vertices_commute(a, b)
                    covered.add((a, b) if a < b else (b, a))
        assert covered == set(graph.pair_subgraph_edges())


def test_brute_force_size_limit():
    with pytest.raises(SizeLimitError):
        brute_force_cover(build_graph(7))


def test_max_pair_clique_at_most_half_n():
    for n in range(4, 9):
        assert max_pair_clique_size(build_graph(n)) <= n // 2


def test_construction_to_bound_ratio_decreases():
    ratios = []
    for n in (6, 8, 12, 14):
        ratios.append((n - 1) ** 2 / lower_bound(n))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 1 for r in ratios)
