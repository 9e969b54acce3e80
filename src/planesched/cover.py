"""Anchor groups of index pairs, extracted from the projective plane.

In the plane of order q, orbital label k < q is placed on the point
(1, k, k^2), k read as a GF(q) element code, and label q on the alpha point
(0, 0, 1): together they are the conic x^2 = yz, an oval that meets every
line in at most two points and has one tangent per point.  Each index pair
(l, l') is assigned the line joining its two labels, and each diagonal pair
(l, l) the tangent at its label.  Collecting, for every off-conic anchor
point, the pairs whose lines pass through that anchor yields q^2 groups
whose members are pairwise index-disjoint: two of their lines meet only at
the anchor, never at a shared label.  Those groups are exactly the
simultaneously measurable same-spin sets used by the scheduler.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .gf import field
from .plane import (
    Triple,
    alpha_point,
    build_plane,
    gamma_point,
    join,
    normalize,
    pencil,
)

Vertex = tuple[int, int]


class PairClique(namedtuple("PairClique", ["anchor", "members"])):
    """Index pairs (``members``) attached to one ``anchor`` point.

    Index truncation can leave a group with fewer than two members; it is
    retained so the group count stays exactly q^2.
    """

    __slots__ = ()


def place_s_points(pi: int) -> list[Triple]:
    """Label placement on the conic: S(k) = (1, k, k^2) for k < q, S(q) = alpha."""
    mul = field(pi).mul
    return [gamma_point(k, mul[k][k]) for k in range(pi)] + [alpha_point()]


def tangent_line(pt: Triple, pi: int) -> Triple:
    """The tangent to the conic x^2 = yz at one of its points: the gradient line (-y, 2x, -z)."""
    f = field(pi)
    z, x, y = pt
    return normalize((f.neg[y], f.add[x][x], f.neg[z]), pi)


def vertex_line(v: Vertex, s: list[Triple]) -> Triple:
    """Line assigned to an index pair: secant through S(l), S(l') or tangent at S(l)."""
    pi = len(s) - 1
    l, lp = v
    if l == lp:
        return tangent_line(s[l], pi)
    return join(s[l], s[lp], pi)


def build_cover(pi: int, n: int | None = None) -> list[PairClique]:
    """One group per off-conic anchor, q^2 in total, in tuple order.

    Each index pair is appended to every off-conic point of its line.  With
    ``n`` below q + 1 (plane order above the label count), only pairs of
    labels below ``n`` are placed; the anchor count is unchanged.
    """
    plane = build_plane(pi)
    if n is None:
        n = pi + 1
    if not 2 <= n <= pi + 1:
        raise ValueError(f"need 2 <= n <= {pi + 1}, got {n}")
    s = place_s_points(pi)
    mul = field(pi).mul
    # the anchors: every point (z, x, y) off the conic x^2 = yz
    groups: dict[Triple, list[Vertex]] = {
        t: [] for t in plane if mul[t[1]][t[1]] != mul[t[0]][t[2]]
    }
    # pairs are visited in sorted order, so every group's members are sorted
    for l in range(n):
        for lp in range(l, n):
            for t in pencil(vertex_line((l, lp), s), pi):
                if t in groups:
                    groups[t].append((l, lp))
    return [PairClique(anchor, tuple(members)) for anchor, members in groups.items()]


def check_no_three_collinear(pi: int) -> bool:
    """No line carries three placed labels: the joins of all label pairs
    are distinct, since two pairs with one join put three labels on it."""
    s = place_s_points(pi)
    if len(set(s)) < len(s):
        return False
    joins = [join(a, b, pi) for a, b in combinations(s, 2)]
    return len(set(joins)) == len(joins)


def check_unique_tangent(pi: int) -> bool:
    """Every placed label has exactly one tangent: its q joins with the other
    labels are distinct, so they are q of its q + 1 lines and the one left
    meets no other label."""
    s = place_s_points(pi)
    if len(set(s)) < len(s):
        return False
    return all(len({join(a, b, pi) for b in s if b != a}) == pi for a in s)
