"""Anchor groups of index pairs, extracted from the projective plane.

Orbital label k < p is placed on the point (1, k, k^2) and label p on the
alpha point (0, 0, 1): together they are the conic x^2 = yz, an oval that
meets every line in at most two points and has one tangent per point.  Each
index pair (l, l') is assigned the line joining its two labels, and each
diagonal pair (l, l) the tangent at its label.  Collecting, for every
off-conic anchor point, the pairs whose lines pass through that anchor
yields p^2 groups whose members are pairwise index-disjoint: two of their
lines meet only at the anchor, never at a shared label.  Those groups are
exactly the simultaneously measurable same-spin sets used by the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plane import (
    Triple,
    alpha_point,
    build_plane,
    gamma_point,
    incident,
    join,
    normalize,
    pencil,
)

Vertex = tuple[int, int]


@dataclass(frozen=True)
class PairClique:
    """Index pairs attached to one anchor point.

    ``flagged`` marks groups left with fewer than two members after index
    truncation; they are retained so the group count stays exactly p^2.
    """

    anchor: Triple
    members: tuple[Vertex, ...]
    flagged: bool


def place_s_points(pi: int) -> list[Triple]:
    """Label placement on the conic: S(k) = (1, k, k^2) for k < p, S(p) = alpha."""
    return [gamma_point(k, (k * k) % pi) for k in range(pi)] + [alpha_point()]


def tangent_line(pt: Triple, pi: int) -> Triple:
    """The tangent to the conic x^2 = yz at one of its points: the gradient line (-y, 2x, -z)."""
    z, x, y = pt
    return normalize((-y, 2 * x, -z), pi)


def vertex_line(v: Vertex, s: list[Triple]) -> Triple:
    """Line assigned to an index pair: secant through S(l), S(l') or tangent at S(l)."""
    pi = len(s) - 1
    l, lp = v
    if l == lp:
        return tangent_line(s[l], pi)
    return join(s[l], s[lp], pi)


def build_cover(pi: int, n: int | None = None) -> list[PairClique]:
    """One group per off-conic anchor, p^2 in total, in tuple order.

    Each index pair is appended to every off-conic point of its line.  With
    ``n`` below p + 1 (plane order above the label count), only pairs of
    labels below ``n`` are placed; the anchor count is unchanged.
    """
    plane = build_plane(pi)
    if n is None:
        n = pi + 1
    if not 2 <= n <= pi + 1:
        raise ValueError(f"need 2 <= n <= {pi + 1}, got {n}")
    s = place_s_points(pi)
    # the anchors: every point (z, x, y) off the conic x^2 = yz
    groups: dict[Triple, list[Vertex]] = {
        t: [] for t in plane if (t[1] * t[1] - t[0] * t[2]) % pi
    }
    # pairs are visited in sorted order, so every group's members are sorted
    for l in range(n):
        for lp in range(l, n):
            for t in pencil(vertex_line((l, lp), s), pi):
                if t in groups:
                    groups[t].append((l, lp))
    return [
        PairClique(anchor, tuple(members), flagged=len(members) < 2)
        for anchor, members in groups.items()
    ]


def _labels_on(line: Triple, s: list[Triple], pi: int) -> list[int]:
    return [k for k, pt in enumerate(s) if incident(pt, line, pi)]


def check_no_three_collinear(pi: int) -> bool:
    """Exhaustive scan: no line carries three or more placed labels."""
    s = place_s_points(pi)
    return all(len(_labels_on(line, s, pi)) <= 2 for line in build_plane(pi))


def check_unique_tangent(pi: int) -> bool:
    """Exhaustive scan: every placed label has exactly one tangent line."""
    s = place_s_points(pi)
    tangents = [0] * len(s)
    for line in build_plane(pi):
        on = _labels_on(line, s, pi)
        if len(on) == 1:
            tangents[on[0]] += 1
    return tangents == [1] * len(s)
