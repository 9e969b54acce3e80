"""Finite projective plane of prime order p, in homogeneous coordinates.

Points and lines are the same set of p^2 + p + 1 triples (z, x, y) over
GF(p), normalized so that the first nonzero coordinate is 1.  A point u lies
on a line v exactly when u . v = 0 mod p, so every statement about points
has a dual about lines and one routine serves both:

    join      the line through two points, or the point where two lines meet
    incident  the incidence test
    pencil    the points on a line, or the lines through a point

The affine grid is z = 1 ("gamma" points (1, x, y)); the line at infinity
z = 0 holds one "beta" point (0, 1, m) per slope m and the "alpha" point
(0, 0, 1) of the vertical direction.  Tuple order puts alpha first, then
beta by slope, then gamma row-major, which is the order of the integer codes
that schedule files store.
"""

from __future__ import annotations

from functools import cache

from .gf import inverse_mod, is_prime

Triple = tuple[int, int, int]


class DegenerateInputError(ValueError):
    """Join of a point with itself, or meet of a line with itself."""


def alpha_point() -> Triple:
    return (0, 0, 1)


def beta_point(m: int) -> Triple:
    return (0, 1, m)


def gamma_point(x: int, y: int) -> Triple:
    return (1, x, y)


def point_code(t: Triple, pi: int) -> int:
    """Canonical integer encoding: alpha = 0, beta(m) = 1 + m, gamma(x, y) = 1 + pi + x*pi + y."""
    z, x, y = t
    if z:
        return 1 + pi + x * pi + y
    return 1 + y if x else 0


_inverse = cache(inverse_mod)  # normalize meets few distinct (lead, pi)


def normalize(t: tuple[int, ...], pi: int) -> Triple:
    """Scale a nonzero vector over GF(pi) so that its first nonzero coordinate is 1."""
    for lead in t:
        lead %= pi
        if lead:
            break
    else:
        raise DegenerateInputError(f"zero vector {t} names no point or line")
    inv = _inverse(lead, pi)
    return tuple([c * inv % pi for c in t])


def join(u: Triple, v: Triple, pi: int) -> Triple:
    """The line through two distinct points, or the common point of two distinct lines.

    Both are the cross product u x v: it is orthogonal to u and to v, so it
    is incident to both, and it vanishes exactly when u and v coincide.
    """
    (u0, u1, u2), (v0, v1, v2) = u, v
    cross = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    if not any(c % pi for c in cross):
        raise DegenerateInputError(f"join of identical triples: {u}")
    return normalize(cross, pi)


def incident(u: Triple, v: Triple, pi: int) -> bool:
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % pi == 0


def pencil(v: Triple, pi: int) -> list[Triple]:
    """The pi + 1 triples incident to v, in tuple order.

    With i the first nonzero coordinate of v and j, k the other two, each
    solution of v . t = 0 is fixed by (t_j, t_k), which runs over the
    projective line: (0, 1) and (1, s) for every s.
    """
    i = next(a for a, c in enumerate(v) if c % pi)
    j, k = (a for a in range(3) if a != i)
    scale = -inverse_mod(v[i], pi)
    out = []
    for tj, tk in [(0, 1)] + [(1, s) for s in range(pi)]:
        t = [0, 0, 0]
        t[i], t[j], t[k] = scale * (v[j] * tj + v[k] * tk), tj, tk
        out.append(normalize(t, pi))
    return sorted(out)


def build_plane(pi: int) -> tuple[Triple, ...]:
    """All pi^2 + pi + 1 triples of the plane of prime order pi, in tuple order.

    Each triple names a point and, by duality, a line.
    """
    if not is_prime(pi):
        raise ValueError(f"not a prime: {pi}")
    return (
        (alpha_point(),)
        + tuple(beta_point(m) for m in range(pi))
        + tuple(gamma_point(x, y) for x in range(pi) for y in range(pi))
    )


def ascii_grid(pi: int, s_points: list[Triple] | None = None) -> str:
    """Debug rendering of the gamma grid with optional markers on a point set.

    Rows are printed top down (largest y first); marked cells show 'S'.
    """
    marked = set(s_points or ())
    rows = []
    for y in range(pi - 1, -1, -1):
        cells = ["S" if gamma_point(x, y) in marked else "." for x in range(pi)]
        rows.append(f"y={y} " + " ".join(cells))
    footer = "    " + " ".join(f"{x}" for x in range(pi))
    alpha_mark = "alpha: S" if alpha_point() in marked else "alpha: ."
    return "\n".join(rows + [footer, alpha_mark])
