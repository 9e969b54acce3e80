"""Prime-field arithmetic underlying the projective-plane construction.

Only prime moduli are supported.  The plane of order p is coordinatized by
GF(p), so every geometric computation here bottoms out in integers mod p.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True, order=True)
class Prime:
    """A validated prime modulus."""

    value: int

    def __post_init__(self) -> None:
        if not is_prime(self.value):
            raise ValueError(f"not a prime: {self.value}")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod prime p, as a plain integer."""
    if a % p == 0:
        raise ZeroDivisionError(f"no inverse of 0 mod {p}")
    return pow(a % p, p - 2, p)


def smallest_prime_at_least(n: int) -> Prime:
    """Smallest prime >= n.  Requires n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = n
    while not is_prime(p):
        p += 1
    return Prime(p)
