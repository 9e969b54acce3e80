"""Anchor groups of index pairs, extracted from the projective plane.

Orbital label k is placed on the parabola point gamma(k, k^2 mod p); the last
label sits on the alpha point at infinity.  Each index pair (l, l') is
assigned the unique line joining its two labels, and each diagonal pair
(l, l) the unique tangent at its label.  Collecting, for every off-parabola
anchor point, the pairs whose lines pass through that anchor yields p^2
groups whose members are pairwise index-disjoint.  Those groups are exactly
the simultaneously measurable same-spin sets used by the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf import Prime, inverse_mod
from .plane import (
    ALPHA,
    BETA,
    GAMMA,
    Line,
    Plane,
    Point,
    alpha_point,
    build_plane,
    gamma_point,
    line_points,
    line_through,
    lines_through,
)

Vertex = tuple[int, int]


@dataclass(frozen=True)
class PairClique:
    """Index pairs attached to one anchor point.

    ``flagged`` marks groups left with fewer than two members after index
    truncation; they are retained so the group count stays exactly p^2.
    """

    anchor: Point
    members: tuple[Vertex, ...]
    flagged: bool


def place_s_points(pi: int | Prime) -> list[Point]:
    """Label placement: S(k) = gamma(k, k^2 mod p) for k < p, S(p) = alpha."""
    p = int(pi)
    return [gamma_point(k, (k * k) % p) for k in range(p)] + [alpha_point()]


def tangent_line(k: int, pi: int) -> Line:
    """The unique line meeting the placed label set only at S(k).

    For a parabola label the tangent has slope 2k and intercept -k^2; for
    the label at infinity it is the line at infinity itself.
    """
    if k == pi:
        return Line(ALPHA)
    return Line(GAMMA, i=(2 * k) % pi, j=(-k * k) % pi)


def vertex_line(v: Vertex, s: list[Point]) -> Line:
    """Line assigned to an index pair: secant through S(l), S(l') or tangent at S(l)."""
    pi = len(s) - 1
    l, lp = v
    if l == lp:
        return tangent_line(l, pi)
    return line_through(s[l], s[lp], pi)


@lru_cache(maxsize=None)
def _sqrt_table(pi: int) -> dict[int, tuple[int, ...]]:
    """Square roots mod an odd prime: residue -> sorted roots."""
    table: dict[int, list[int]] = {}
    for r in range(pi):
        table.setdefault((r * r) % pi, []).append(r)
    return {sq: tuple(sorted(roots)) for sq, roots in table.items()}


def s_indices_on_line(l: Line, pi: int) -> tuple[int, ...]:
    """Labels k with S(k) on the line; a tangency is reported as (k, k).

    Solved in closed form: membership of S(k) on a gamma line (a, b) means
    k^2 = a*k + b mod p, a quadratic with zero, one (double) or two roots.
    """
    if l.kind == ALPHA:
        return (pi, pi)
    if l.kind == BETA:
        return (l.i, pi)
    a, b = l.i, l.j
    if pi == 2:
        roots = [k for k in (0, 1) if (k * k - a * k - b) % 2 == 0]
        if len(roots) == 2:
            return (roots[0], roots[1])
        if len(roots) == 1:
            # over GF(2) a single root of x^2 + ax + b is always a double root
            return (roots[0], roots[0])
        return ()
    disc = (a * a + 4 * b) % pi
    if disc == 0:
        k = (a * inverse_mod(2, pi)) % pi
        return (k, k)
    roots = _sqrt_table(pi).get(disc, ())
    if not roots:
        return ()
    half = inverse_mod(2, pi)
    k1 = ((a + roots[0]) * half) % pi
    k2 = ((a - roots[0]) * half) % pi
    return (min(k1, k2), max(k1, k2))


def _anchors(pi: int) -> list[Point]:
    """Off-parabola points in canonical order (betas first, then the grid)."""
    out: list[Point] = [Point(BETA, y=y) for y in range(pi)]
    for x in range(pi):
        for y in range(pi):
            if y != (x * x) % pi:
                out.append(gamma_point(x, y))
    return out


def build_cover_with_stats(
    pi: int | Prime, n: int | None = None
) -> tuple[list[PairClique], dict[str, int]]:
    """Like :func:`build_cover`, also returning construction counters.

    ``lines_inspected`` counts the (anchor, line) membership solves, the unit
    of work that dominates construction; it grows as p^2 * (p + 1).
    """
    p = int(pi)
    Prime(p)
    if n is None:
        n = p + 1
    if not 2 <= n <= p + 1:
        raise ValueError(f"need 2 <= n <= {p + 1}, got {n}")
    cliques: list[PairClique] = []
    inspected = 0
    for anchor in _anchors(p):
        members: list[Vertex] = []
        for line in lines_through(anchor, p):
            inspected += 1
            ks = s_indices_on_line(line, p)
            if not ks:
                continue
            k1, k2 = ks
            if k1 < n and k2 < n:
                members.append((k1, k2))
        members.sort()
        cliques.append(PairClique(anchor, tuple(members), flagged=len(members) < 2))
    return cliques, {"lines_inspected": inspected, "anchors": p * p}


def build_cover(pi: int | Prime, n: int | None = None) -> list[PairClique]:
    """One group per off-parabola anchor, p^2 in total.

    With ``n`` below p + 1 (plane order above the label count), members with
    an out-of-range label are dropped; the anchor count is unchanged.
    """
    cliques, _ = build_cover_with_stats(pi, n)
    return cliques


def check_no_three_collinear(pi: int | Prime) -> bool:
    """Exhaustive scan: no line carries three or more placed labels."""
    p = int(pi)
    plane = build_plane(p)
    s = set(place_s_points(p))
    return all(sum(pt in s for pt in line_points(l, p)) <= 2 for l in plane.lines)


def check_unique_tangent(pi: int | Prime) -> bool:
    """Exhaustive scan: every placed label has exactly one tangent line."""
    p = int(pi)
    s_list = place_s_points(p)
    s = set(s_list)
    for sk in s_list:
        tangents = 0
        for l in lines_through(sk, p):
            if sum(pt in s for pt in line_points(l, p)) == 1:
                tangents += 1
        if tangents != 1:
            return False
    return True

