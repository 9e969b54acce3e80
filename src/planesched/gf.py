"""Finite-field arithmetic underlying the projective-plane construction.

The plane of order q is coordinatized by GF(q), for q a prime or a power
p^k of an odd prime p.  An element of GF(q) is coded by an integer e < q:
the polynomial over GF(p) whose coefficients are the base-p digits of e,
constant term least significant.  Products are reduced modulo the smallest
monic irreducible polynomial of degree k, polynomials being ordered by the
same digit reading:

    q = 9    x^2 + 1
    q = 25   x^2 + 2
    q = 27   x^3 + 2x + 1
    q = 49   x^2 + 1

For a prime q (k = 1) the codes are the integers mod q and the tables are
plain modular arithmetic.  ``field(q)`` builds the add, negate, multiply and
inverse tables of GF(q) on first use and caches them; importing this module
builds none.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for the small plane orders used here."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_prime_at_least(n: int) -> int:
    """Smallest prime >= n.  Requires n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = n
    while not is_prime(p):
        p += 1
    return p


def prime_power(q: int) -> tuple[int, int] | None:
    """``(p, k)`` with q = p^k and p prime, or None when q is no prime power."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the smallest divisor is prime
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


def is_plane_order(q: int) -> bool:
    """A prime or an odd prime power.  Powers of 2 above 2 are left out: over
    GF(2^k), k > 1, every tangent of the conic passes through one point, its
    nucleus, a case the cover is not built or tested for."""
    pk = prime_power(q)
    return pk is not None and (pk[1] == 1 or pk[0] != 2)


def plane_order_at_least(n: int) -> int:
    """Smallest plane order (see ``is_plane_order``) >= n.  Requires n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q = n
    while not is_plane_order(q):
        q += 1
    return q


class Field(namedtuple("Field", ["add", "neg", "mul", "inv"])):
    """GF(q) on element codes: ``add[a][b]``, ``neg[a]``, ``mul[a][b]`` and
    ``inv[a]``, which is None at 0."""

    __slots__ = ()


@cache
def field(q: int) -> Field:
    """The tables of GF(q), for any prime power q."""
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"no field of order {q}")
    p = pk[0]
    # digit-wise sums: the low digits' sum mod p, then the sum of the rest
    add = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            add[a][b] = (a % p + b % p) % p + p * add[a // p][b // p]
    neg = [row.index(0) for row in add]
    top = q // p  # the weight of the highest digit

    def products(low: int) -> list[list[int]]:
        """The multiplication table modulo x^k + low."""
        multiples = [0]  # d * (-low) for each digit d
        for _ in range(p - 1):
            multiples.append(add[multiples[-1]][neg[low]])
        # c * x: every digit moves up one place, and c_(k-1) x^k becomes -c_(k-1) low
        times_x = [add[c % top * p][multiples[c // top]] for c in range(q)]
        mul = []
        for a in range(q):
            row = [0] * q
            for e in range(1, q):
                # e = e_0 + x (e // p), so a e = e_0 a + x (a (e // p))
                row[e] = add[row[e - 1]][a] if e < p else add[row[e % p]][times_x[row[e // p]]]
            mul.append(row)
        return mul

    # the first modulus x^k + low, in digit order, under which every nonzero
    # element has an inverse is irreducible; for k = 1 it is x itself
    for low in range(q):
        mul = products(low)
        inv = [row.index(1) if 1 in row else None for row in mul]
        if None not in inv[1:]:
            break
    return Field(tuple(map(tuple, add)), tuple(neg), tuple(map(tuple, mul)), tuple(inv))
