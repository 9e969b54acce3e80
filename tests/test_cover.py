"""Label placement, tangents, and anchor-group extraction, against line-scan oracles."""

import hashlib

import pytest

from planesched import cover
from planesched.cover import (
    build_cover,
    check_no_three_collinear,
    check_unique_tangent,
    place_s_points,
    tangent_line,
    vertex_line,
)
from planesched.plane import (
    alpha_point,
    build_plane,
    gamma_point,
    incident,
    normalize,
    point_code,
)

PRIMES_TO_47 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
PRIME_POWERS = [9, 25, 27, 49]


def brute_force_groups(pi: int, n: int) -> dict:
    """Oracle: per anchor, classify every line by direct point-by-point scans."""
    plane = build_plane(pi)
    s = place_s_points(pi)
    s_set = set(s)
    groups = {}
    for anchor in plane:
        if anchor in s_set:
            continue
        members = []
        for line in plane:
            if not incident(anchor, line, pi):
                continue
            hits = [k for k, pt in enumerate(s) if incident(pt, line, pi)]
            if len(hits) == 2 and hits[1] < n:
                members.append((hits[0], hits[1]))
            elif len(hits) == 1 and hits[0] < n:
                members.append((hits[0], hits[0]))
        groups[anchor] = tuple(sorted(members))
    return groups


def test_placement_reference_coordinates():
    s = place_s_points(5)
    assert s == [
        gamma_point(0, 0),
        gamma_point(1, 1),
        gamma_point(2, 4),
        gamma_point(3, 4),
        gamma_point(4, 1),
        alpha_point(),
    ]
    assert place_s_points(2) == [gamma_point(0, 0), gamma_point(1, 1), alpha_point()]
    assert place_s_points(3)[2] == gamma_point(2, 1)


def test_vertex_line_secant_with_scan_oracle():
    s = place_s_points(5)
    line = vertex_line((0, 2), s)
    assert line == normalize((0, 2, -1), 5)  # y = 2x
    scan = [l for l in build_plane(5) if incident(s[0], l, 5) and incident(s[2], l, 5)]
    assert scan == [line]


def test_vertex_line_tangents():
    s = place_s_points(5)
    assert vertex_line((5, 5), s) == (1, 0, 0)  # the line at infinity, z = 0
    assert vertex_line((1, 1), s) == normalize((4, 2, -1), 5)  # y = 2x + 4
    # oracle: a tangent meets the label set exactly once
    for k in range(6):
        line = vertex_line((k, k), s)
        assert sum(incident(pt, line, 5) for pt in s) == 1
        assert incident(s[k], line, 5)


def test_reference_anchor_group_order_five():
    cliques = build_cover(5)
    by_anchor = {c.anchor: c.members for c in cliques}
    assert by_anchor[gamma_point(4, 3)] == ((0, 2), (1, 3), (4, 5))
    # second anchor, cross-checked against the scan oracle below
    assert by_anchor[gamma_point(0, 1)] == ((0, 5), (1, 4), (2, 2), (3, 3))
    oracle = brute_force_groups(5, 6)
    assert by_anchor[gamma_point(0, 1)] == oracle[gamma_point(0, 1)]


def test_cover_counts_and_flags():
    assert len(build_cover(2)) == 4
    for pi in (2, 3, 5, 7):
        cliques = build_cover(pi)
        assert len(cliques) == pi * pi
        assert all(len(c.members) <= pi + 1 for c in cliques)
        assert all(len(c.members) >= 2 for c in cliques)
    # truncation leaves groups of fewer than two members; they are kept
    truncated = build_cover(7, 4)
    assert len(truncated) == 49
    assert sum(len(c.members) < 2 for c in truncated) == 32


def test_cover_matches_scan_oracle():
    for pi, n in [(2, 3), (3, 4), (5, 6), (7, 8), (5, 5), (7, 6), (2, 2),
                  (11, 10), (11, 12), (13, 14)]:
        oracle = brute_force_groups(pi, n)
        for clique in build_cover(pi, n):
            assert clique.members == oracle[clique.anchor]


def test_anchors_never_on_the_label_set():
    for pi in (2, 3, 5, 7, 11):
        s = set(place_s_points(pi))
        assert all(c.anchor not in s for c in build_cover(pi))


def test_group_members_are_index_disjoint():
    for pi, n in [(2, 3), (3, 4), (5, 6), (7, 8), (11, 12), (13, 14), (5, 5)]:
        for clique in build_cover(pi, n):
            seen: set[int] = set()
            for p, q in clique.members:
                indices = {p, q}
                assert not (seen & indices)
                seen |= indices


def test_distinct_vertices_get_distinct_lines():
    for pi in (2, 3, 5, 7, 11, 13):
        s = place_s_points(pi)
        vertices = [(l, lp) for l in range(pi + 1) for lp in range(l, pi + 1)]
        lines = [vertex_line(v, s) for v in vertices]
        assert len(set(lines)) == len(lines)


def test_tangent_closed_form_matches_scan():
    for pi in (2, 3, 5, 7, 11):
        plane = build_plane(pi)
        s = place_s_points(pi)
        for k in range(pi + 1):
            scan = [
                l
                for l in plane
                if incident(s[k], l, pi) and sum(incident(pt, l, pi) for pt in s) == 1
            ]
            assert scan == [tangent_line(s[k], pi)]


def test_no_three_collinear_all_small_primes():
    for pi in PRIMES_TO_47:
        assert check_no_three_collinear(pi)


def test_unique_tangent_all_small_primes():
    for pi in PRIMES_TO_47:
        assert check_unique_tangent(pi)


@pytest.mark.parametrize("pi, n", [(9, 9), (9, 10), (25, 26), (27, 28)])
def test_prime_power_cover_matches_scan_oracle(pi, n):
    oracle = brute_force_groups(pi, n)
    cliques = build_cover(pi, n)
    assert len(cliques) == pi * pi
    assert {c.anchor: c.members for c in cliques} == oracle


def test_lemma_scans_at_prime_powers():
    for pi in PRIME_POWERS:
        assert check_no_three_collinear(pi)
        assert check_unique_tangent(pi)


def test_plane_rejects_even_prime_powers_and_composites():
    for pi in (4, 6, 8, 16):
        with pytest.raises(ValueError, match="not a prime or an odd prime power"):
            build_plane(pi)


def test_bad_truncation_rejected():
    with pytest.raises(ValueError):
        build_cover(5, 8)
    with pytest.raises(ValueError):
        build_cover(5, 1)


def scan_no_three_collinear(s: list, pi: int) -> bool:
    """Oracle: no line of the plane holds three of the points, line by line."""
    return all(sum(incident(pt, line, pi) for pt in s) <= 2 for line in build_plane(pi))


def scan_unique_tangent(s: list, pi: int) -> bool:
    """Oracle: every point lies on exactly one line that holds no other point."""
    tangents = [0] * len(s)
    for line in build_plane(pi):
        on = [k for k, pt in enumerate(s) if incident(pt, line, pi)]
        if len(on) == 1:
            tangents[on[0]] += 1
    return tangents == [1] * len(s)


@pytest.mark.parametrize("pi", sorted(PRIMES_TO_47 + PRIME_POWERS))
def test_lemma_scans_match_line_scans(pi, monkeypatch):
    """The join counts agree with the line-by-line scans on the conic, and
    with one label moved off it (gamma(0, 1): 0 != 1 * 1) or onto another."""
    conic = place_s_points(pi)
    placements = [conic, conic[:1] + [gamma_point(0, 1)] + conic[2:], conic[:1] * 2 + conic[2:]]
    for s in placements:
        monkeypatch.setattr(cover, "place_s_points", lambda pi, s=s: s)
        assert check_no_three_collinear(pi) == scan_no_three_collinear(s, pi)
        assert check_unique_tangent(pi) == scan_unique_tangent(s, pi)
    assert scan_no_three_collinear(conic, pi) and scan_unique_tangent(conic, pi)


def test_lemma_scans_reject_a_label_off_the_conic(monkeypatch):
    s = place_s_points(5)
    # (2, 2) lies on y = x together with S(0) and S(1)
    monkeypatch.setattr(cover, "place_s_points", lambda pi: s[:2] + [gamma_point(2, 2)] + s[3:])
    assert not check_no_three_collinear(5)
    assert not check_unique_tangent(5)


# sha256 of repr([(point_code(anchor), members, flagged), ...]), recorded from
# the string-tagged implementation this one replaced
COVER_DIGESTS = {
    (2, 2): "deddd037389cbc8b232aee520a7c08731cdfa9ff8048d19c6f12008807f922a9",
    (2, 3): "0bf76152b68aec8397bfd4b2cf920911d7229ca030d14c61138e69c80d4f159c",
    (11, 10): "b6f19a09ae652f49efd2975543012885f459a4ded5efc0e403947b6f32a33e5e",
    (13, 14): "3cd194b82b3c82637b07a2ffcd7d4063526630baf9b13b99d76846b4cd67bb43",
    (17, 18): "561affc74c31741a699cd7b3b06f0a20acda7fe6f98dc141a756e8ea025b2912",
    (31, 32): "25dfa9eb15f4f45e7446739c9da562960528394e431ae449a63b08d4bab7af81",
    (47, 40): "6d1ad414db3e6cd4f526b89e78bb57cd3333216f63d651593f58ffa28c25c14c",
    (47, 48): "49b376482da48a5b9fdd070abcafa67465cf44387e935c3445e23467dc4ee58c",
}


@pytest.mark.parametrize("pi, n", sorted(COVER_DIGESTS))
def test_cover_digest_is_pinned(pi, n):
    rows = [(point_code(c.anchor, pi), c.members, len(c.members) < 2)
            for c in build_cover(pi, n)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == COVER_DIGESTS[(pi, n)]
