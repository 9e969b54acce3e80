"""Incidence structure checks for planes of small prime and prime-power order."""

import pytest

from planesched.plane import (
    DegenerateInputError,
    alpha_point,
    beta_point,
    build_plane,
    gamma_point,
    incident,
    join,
    normalize,
    pencil,
    point_code,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
PRIME_POWERS = [9, 25]
INFINITY = (1, 0, 0)  # the line z = 0: alpha and every beta point


def slope_line(m: int, c: int, p: int) -> tuple:
    """The line y = m*x + c: its affine points (1, x, y) satisfy c + m*x - y = 0."""
    return normalize((c, m, -1), p)


def column_line(i: int, p: int) -> tuple:
    """The line x = i, which passes through alpha."""
    return normalize((-i, 1, 0), p)


def test_plane_counts():
    plane5 = build_plane(5)
    assert len(plane5) == 31
    assert all(len(pencil(l, 5)) == 6 for l in plane5)
    assert len(build_plane(2)) == 7
    with pytest.raises(ValueError):
        build_plane(6)


def test_slope_two_line_membership():
    # y = 2x + 0 over GF(5) passes x = 4 at y = (2*4) % 5 = 3
    pts = pencil(slope_line(2, 0, 5), 5)
    assert beta_point(2) in pts
    assert gamma_point(4, 3) in pts


def test_line_through_examples_with_scan_oracle():
    plane = build_plane(5)
    a, b = gamma_point(0, 0), gamma_point(2, 4)
    scan = [l for l in plane if incident(a, l, 5) and incident(b, l, 5)]
    assert scan == [slope_line(2, 0, 5)]
    assert join(a, b, 5) == scan[0]
    assert join(alpha_point(), beta_point(3), 5) == INFINITY
    assert join(alpha_point(), gamma_point(2, 4), 5) == column_line(2, 5)
    assert join(beta_point(1), beta_point(4), 5) == INFINITY


def test_intersection_examples():
    assert join(column_line(1, 5), column_line(3, 5), 5) == alpha_point()
    # meet of slopes 2 and 4: 2x = 4x + 2 mod 5 gives x = 4, y = 3
    assert join(slope_line(2, 0, 5), slope_line(4, 2, 5), 5) == gamma_point(4, 3)
    assert join(INFINITY, slope_line(3, 1, 5), 5) == beta_point(3)


def test_degenerate_inputs_raise():
    with pytest.raises(DegenerateInputError):
        join(beta_point(1), beta_point(1), 3)
    with pytest.raises(DegenerateInputError):
        join(INFINITY, INFINITY, 3)


def test_every_point_pair_on_exactly_one_line():
    for p in SMALL_PRIMES:
        plane = build_plane(p)
        for i, a in enumerate(plane):
            lines_a = pencil(a, p)
            for b in plane[i + 1 :]:
                joining = [l for l in lines_a if incident(b, l, p)]
                assert len(joining) == 1
                assert join(a, b, p) == joining[0]


def test_every_line_pair_meets_in_exactly_one_point():
    for p in SMALL_PRIMES:
        plane = build_plane(p)
        for i, l1 in enumerate(plane):
            pts1 = pencil(l1, p)
            for l2 in plane[i + 1 :]:
                common = [pt for pt in pts1 if incident(pt, l2, p)]
                assert len(common) == 1
                assert join(l1, l2, p) == common[0]


def test_every_point_on_exactly_order_plus_one_lines():
    for p in SMALL_PRIMES:
        for pt in build_plane(p):
            through = pencil(pt, p)
            assert len(set(through)) == p + 1
            assert all(incident(pt, l, p) for l in through)
    # full-scan cross-check at the smallest orders
    for p in (2, 3, 5):
        plane = build_plane(p)
        for pt in plane:
            scan = [l for l in plane if incident(pt, l, p)]
            assert scan == pencil(pt, p)


def test_canonical_codes_are_bijective():
    for p in (2, 5, 7):
        codes = [point_code(pt, p) for pt in build_plane(p)]
        # tuple order is code order
        assert codes == list(range(p * p + p + 1))


def test_pencil_consistent_with_incidence():
    for p in (2, 3, 5):
        plane = build_plane(p)
        for l in plane:
            pts = set(pencil(l, p))
            for pt in plane:
                assert (pt in pts) == incident(pt, l, p)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_prime_power_plane_points_and_lines(q):
    plane = build_plane(q)
    assert len(plane) == q * q + q + 1
    assert [point_code(pt, q) for pt in plane] == list(range(len(plane)))
    pencils = {t: set(pencil(t, q)) for t in plane}
    for t, through in pencils.items():
        # each pencil equals its scan
        assert sorted(through) == [u for u in plane if incident(t, u, q)]
        assert len(through) == q + 1
    # every point pair lies on exactly one line, and dually every line pair
    # meets in exactly one point: the same check, as points and lines are one set
    for i, a in enumerate(plane):
        for b in plane[i + 1 :]:
            common = pencils[a] & pencils[b]
            assert common == {join(a, b, q)}
