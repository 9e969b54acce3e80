"""Field arithmetic checks, including exhaustive axiom sweeps for small moduli."""

import numpy as np
import pytest

from planesched.gf import (
    field,
    is_plane_order,
    is_prime,
    plane_order_at_least,
    prime_power,
    smallest_prime_at_least,
)
from planesched.plane import build_plane

PRIMES_TO_47 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
PRIME_POWERS = [9, 25, 27, 49]


def scan_inverse(a: int, p: int) -> int:
    """Oracle: scan all residues for the product that lands on 1."""
    return next(b for b in range(1, p) if (a * b) % p == 1)


def test_prime_validation():
    with pytest.raises(ValueError, match="not a prime"):
        build_plane(8)
    with pytest.raises(ValueError, match="not a prime"):
        build_plane(1)
    assert not is_prime(1) and is_prime(2) and not is_prime(49)


def test_smallest_prime_at_least_against_scan():
    def scan(n: int) -> int:
        p = n
        while any(p % d == 0 for d in range(2, p)):
            p += 1
        return p

    assert smallest_prime_at_least(5) == 5
    assert smallest_prime_at_least(9) == scan(9) == 11
    assert smallest_prime_at_least(2) == 2
    for n in range(2, 80):
        assert type(smallest_prime_at_least(n)) is int and smallest_prime_at_least(n) == scan(n)
    with pytest.raises(ValueError):
        smallest_prime_at_least(1)


def test_field_axioms_exhaustive_to_47():
    # the plane computes in plain integers mod p: check the field axioms on
    # the full tables, and that every nonzero element has an inverse
    for p in PRIMES_TO_47:
        x = np.arange(p)
        ab = np.add.outer(x, x) % p
        assert np.array_equal(ab, ab.T)  # commutativity
        assert np.array_equal(
            np.add.outer(ab, x) % p, np.add.outer(x, ab) % p
        )  # associativity
        mb = np.multiply.outer(x, x) % p
        assert np.array_equal(mb, mb.T)
        assert np.array_equal(
            np.multiply.outer(mb, x) % p, np.multiply.outer(x, mb) % p
        )
        lhs = np.multiply.outer(x, ab) % p  # a * (b + c)
        rhs = (np.multiply.outer(x, x)[:, :, None] + np.multiply.outer(x, x)[:, None, :]) % p
        assert np.array_equal(lhs, rhs)  # distributivity
        for a in range(1, p):
            assert mb[a, pow(a, -1, p)] == 1


def test_inverse_is_involution_on_nonzero():
    for q in PRIMES_TO_47 + PRIME_POWERS:
        f = field(q)
        for a in range(1, q):
            b = f.inv[a]
            assert 0 < b < q
            assert f.mul[a][b] == 1
            assert f.inv[b] == a


def test_field_axioms_exhaustive_on_prime_power_tables():
    for q in PRIME_POWERS:
        f = field(q)
        add, mul = np.array(f.add), np.array(f.mul)
        x = np.arange(q)
        for op in (add, mul):
            assert np.array_equal(op, op.T)  # commutativity
            assert np.array_equal(op[op], op[x[:, None, None], op[None]])  # associativity
        assert np.array_equal(add[0], x) and np.array_equal(mul[1], x)  # identities
        assert not mul[0].any()
        # distributivity: a * (b + c) == a * b + a * c
        assert np.array_equal(mul[x[:, None, None], add[None]],
                              add[mul[:, :, None], mul[:, None, :]])
        assert all(f.add[a][f.neg[a]] == 0 for a in range(q))
        assert f.inv[0] is None
        assert all(f.mul[a][f.inv[a]] == 1 for a in range(1, q))
        # each row of a field's tables is a permutation: no zero divisors
        assert all(sorted(f.mul[a]) == list(range(q)) for a in range(1, q))


# (q, p, k, modulus x^k + low as the code of low, x^k as a code): x^2 + 1,
# x^2 + 2, x^3 + 2x + 1 and x^2 + 1 leave x^k = -1, -2, x + 2 and -1
MODULI = [(9, 3, 2, 1, 2), (25, 5, 2, 2, 3), (27, 3, 3, 7, 5), (49, 7, 2, 1, 6)]


@pytest.mark.parametrize("q, p, k, low, x_to_the_k", MODULI)
def test_prime_power_codes_and_modulus(q, p, k, low, x_to_the_k):
    f = field(q)

    def digits(e: int) -> list[int]:
        return [e // p**i % p for i in range(k)]

    for a in range(q):  # addition is digit-wise mod p
        for b in range(q):
            assert digits(f.add[a][b]) == [(u + v) % p for u, v in zip(digits(a), digits(b))]
    power = 1
    for _ in range(k):
        power = f.mul[power][p]  # times x, whose code is p
    assert power == x_to_the_k

    # the modulus is the first monic polynomial of degree k, in digit order,
    # with no root in GF(p), which at degree 2 or 3 means irreducible
    def has_root(c: int) -> bool:
        return any((r**k + sum(d * r**i for i, d in enumerate(digits(c)))) % p == 0
                   for r in range(p))

    assert [c for c in range(low + 1) if not has_root(c)] == [low]


def test_prime_tables_are_integers_mod_p():
    for p in PRIMES_TO_47:
        f = field(p)
        for a in range(p):
            assert f.add[a] == tuple((a + b) % p for b in range(p))
            assert f.mul[a] == tuple(a * b % p for b in range(p))
            assert f.neg[a] == -a % p
            if a:
                assert f.inv[a] == scan_inverse(a, p)
    assert field(47) is field(47)  # built once


def test_no_field_of_composite_order():
    for q in (1, 6, 12, 45):
        with pytest.raises(ValueError, match="no field"):
            field(q)


def test_plane_order_at_least_against_scan():
    def scan(n: int) -> int:
        """Smallest q >= n with a single prime factor, odd unless q == 2."""
        q = n
        while True:
            factors = {d for d in range(2, q + 1) if q % d == 0 and is_prime(d)}
            if len(factors) == 1 and (q == 2 or 2 not in factors):
                return q
            q += 1

    assert [plane_order_at_least(n) for n in (2, 4, 8, 9, 10, 24, 26, 48)] == \
        [2, 5, 9, 9, 11, 25, 27, 49]
    for n in range(2, 130):
        assert plane_order_at_least(n) == scan(n), n
    with pytest.raises(ValueError):
        plane_order_at_least(1)
    assert prime_power(81) == (3, 4) and prime_power(12) is None and prime_power(1) is None
    assert [q for q in range(2, 33) if prime_power(q) and not is_plane_order(q)] == [4, 8, 16, 32]
