"""Finite projective plane of prime order p.

The model is the classical one built over GF(p): a p x p affine grid of
"gamma" points, p "beta" points at infinity (one per slope), and a single
"alpha" point where the vertical direction meets the line at infinity.
There are p^2 + p + 1 points and equally many lines; any two distinct
points lie on exactly one common line and any two distinct lines meet in
exactly one common point.

Lines come in three kinds:

    alpha line          {alpha} + all beta points
    beta line  i        {alpha} + the gamma column x = i
    gamma line (i, j)   {beta(i)} + the graph of y = i*x + j over the grid

Points and lines carry a canonical integer encoding (alpha first, then
beta by coordinate, then gamma row-major) so that incidence checks and
enumeration stay O(1) and cache friendly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import Prime, inverse_mod

ALPHA = "alpha"
BETA = "beta"
GAMMA = "gamma"


class DegenerateInputError(ValueError):
    """Join of a point with itself, or meet of a line with itself."""


@dataclass(frozen=True, order=True)
class Point:
    kind: str
    x: int = -1  # gamma column; unused otherwise
    y: int = -1  # gamma row, or the beta coordinate; unused for alpha


@dataclass(frozen=True, order=True)
class Line:
    kind: str
    i: int = -1  # beta column index, or gamma slope
    j: int = -1  # gamma intercept; unused otherwise


def alpha_point() -> Point:
    return Point(ALPHA)


def beta_point(y: int) -> Point:
    return Point(BETA, y=y)


def gamma_point(x: int, y: int) -> Point:
    return Point(GAMMA, x=x, y=y)


def point_code(p: Point, pi: int) -> int:
    """Canonical integer encoding: alpha = 0, beta(y) = 1 + y, gamma(x, y) = 1 + pi + x*pi + y."""
    if p.kind == ALPHA:
        return 0
    if p.kind == BETA:
        return 1 + p.y
    return 1 + pi + p.x * pi + p.y


def line_code(l: Line, pi: int) -> int:
    if l.kind == ALPHA:
        return 0
    if l.kind == BETA:
        return 1 + l.i
    return 1 + pi + l.i * pi + l.j


def line_points(l: Line, pi: int) -> tuple[Point, ...]:
    """The pi + 1 points of a line, in canonical order."""
    if l.kind == ALPHA:
        return (alpha_point(),) + tuple(beta_point(y) for y in range(pi))
    if l.kind == BETA:
        return (alpha_point(),) + tuple(gamma_point(l.i, y) for y in range(pi))
    return (beta_point(l.i),) + tuple(gamma_point(k, (l.i * k + l.j) % pi) for k in range(pi))


def line_contains(l: Line, p: Point, pi: int) -> bool:
    """O(1) incidence test."""
    if l.kind == ALPHA:
        return p.kind in (ALPHA, BETA)
    if l.kind == BETA:
        return p.kind == ALPHA or (p.kind == GAMMA and p.x == l.i)
    if p.kind == ALPHA:
        return False
    if p.kind == BETA:
        return p.y == l.i
    return (l.i * p.x + l.j) % pi == p.y % pi


def line_through(a: Point, b: Point, pi: int) -> Line:
    """The unique line joining two distinct points, computed by kind dispatch.

    Gamma-gamma joins use the slope/intercept formulas over GF(pi); points
    in the same column join on a beta line, and any point at infinity joins
    a grid point along the obvious direction.
    """
    if a == b:
        raise DegenerateInputError(f"join of identical points: {a}")
    if a.kind > b.kind:
        a, b = b, a
    if a.kind == ALPHA:
        # alpha + beta -> infinity line; alpha + gamma -> the gamma's column
        return Line(ALPHA) if b.kind == BETA else Line(BETA, i=b.x)
    if a.kind == BETA:
        if b.kind == BETA:
            return Line(ALPHA)
        # beta(i) collects the gamma lines of slope i
        return Line(GAMMA, i=a.y, j=(b.y - a.y * b.x) % pi)
    if a.x == b.x:
        return Line(BETA, i=a.x)
    slope = ((b.y - a.y) * inverse_mod(b.x - a.x, pi)) % pi
    return Line(GAMMA, i=slope, j=(a.y - slope * a.x) % pi)


def intersection(l1: Line, l2: Line, pi: int) -> Point:
    """The unique common point of two distinct lines."""
    if l1 == l2:
        raise DegenerateInputError(f"meet of identical lines: {l1}")
    if l1.kind > l2.kind:
        l1, l2 = l2, l1
    if l1.kind == ALPHA:
        return alpha_point() if l2.kind == BETA else beta_point(l2.i)
    if l1.kind == BETA:
        if l2.kind == BETA:
            return alpha_point()
        return gamma_point(l1.i, (l2.i * l1.i + l2.j) % pi)
    if l1.i == l2.i:
        return beta_point(l1.i)
    x = ((l2.j - l1.j) * inverse_mod(l1.i - l2.i, pi)) % pi
    return gamma_point(x, (l1.i * x + l1.j) % pi)


def lines_through(p: Point, pi: int) -> tuple[Line, ...]:
    """The pi + 1 lines incident to a point."""
    if p.kind == ALPHA:
        return (Line(ALPHA),) + tuple(Line(BETA, i=i) for i in range(pi))
    if p.kind == BETA:
        return (Line(ALPHA),) + tuple(Line(GAMMA, i=p.y, j=j) for j in range(pi))
    return (Line(BETA, i=p.x),) + tuple(
        Line(GAMMA, i=a, j=(p.y - a * p.x) % pi) for a in range(pi)
    )


class Plane:
    """Immutable incidence structure of the plane of order pi."""

    def __init__(self, pi: int):
        Prime(pi)  # validates
        self.pi = pi
        self.points: tuple[Point, ...] = (
            (alpha_point(),)
            + tuple(beta_point(y) for y in range(pi))
            + tuple(gamma_point(x, y) for x in range(pi) for y in range(pi))
        )
        self.lines: tuple[Line, ...] = (
            (Line(ALPHA),)
            + tuple(Line(BETA, i=i) for i in range(pi))
            + tuple(Line(GAMMA, i=i, j=j) for i in range(pi) for j in range(pi))
        )

    def line_through(self, a: Point, b: Point) -> Line:
        return line_through(a, b, self.pi)

    def intersection(self, l1: Line, l2: Line) -> Point:
        return intersection(l1, l2, self.pi)

    def lines_through(self, p: Point) -> tuple[Line, ...]:
        return lines_through(p, self.pi)


def build_plane(pi: int | Prime) -> Plane:
    """Construct the plane of prime order pi (pi^2 + pi + 1 points and lines)."""
    return Plane(int(pi))


def ascii_grid(pi: int, s_points: "list[Point] | None" = None) -> str:
    """Debug rendering of the gamma grid with optional markers on a point set.

    Rows are printed top down (largest y first); marked cells show 'S'.
    """
    marked = {(p.x, p.y) for p in (s_points or []) if p.kind == GAMMA}
    rows = []
    for y in range(pi - 1, -1, -1):
        cells = ["S" if (x, y) in marked else "." for x in range(pi)]
        rows.append(f"y={y} " + " ".join(cells))
    footer = "    " + " ".join(f"{x}" for x in range(pi))
    alpha_mark = "alpha: S" if any(p.kind == ALPHA for p in (s_points or [])) else "alpha: ."
    return "\n".join(rows + [footer, alpha_mark])
