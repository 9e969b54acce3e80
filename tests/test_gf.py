"""Field arithmetic checks, including exhaustive axiom sweeps for small moduli."""

import numpy as np
import pytest

from planesched.gf import Prime, inverse_mod, is_prime, smallest_prime_at_least

PRIMES_TO_47 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def scan_inverse(a: int, p: int) -> int:
    """Oracle: scan all residues for the product that lands on 1."""
    return next(b for b in range(1, p) if (a * b) % p == 1)


def test_inverse_examples_against_scan():
    assert inverse_mod(2, 5) == scan_inverse(2, 5) == 3
    assert inverse_mod(1, 7) == 1
    assert inverse_mod(4, 7) == scan_inverse(4, 7) == 2
    assert inverse_mod(-3, 7) == scan_inverse(4, 7)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inverse_mod(10, 5)


def test_prime_validation():
    with pytest.raises(ValueError):
        Prime(9)
    with pytest.raises(ValueError):
        Prime(1)
    assert not is_prime(1) and is_prime(2) and not is_prime(49)


def test_smallest_prime_at_least_against_scan():
    def scan(n: int) -> int:
        p = n
        while any(p % d == 0 for d in range(2, p)):
            p += 1
        return p

    assert int(smallest_prime_at_least(5)) == 5
    assert int(smallest_prime_at_least(9)) == scan(9) == 11
    assert int(smallest_prime_at_least(2)) == 2
    for n in range(2, 80):
        assert int(smallest_prime_at_least(n)) == scan(n)
    with pytest.raises(ValueError):
        smallest_prime_at_least(1)


def test_field_axioms_exhaustive_to_47():
    # the plane computes in plain integers mod p: check the field axioms on
    # the full tables, and inverse_mod against the multiplication table
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
            assert mb[a, inverse_mod(a, p)] == 1


def test_inverse_is_involution_on_nonzero():
    for p in PRIMES_TO_47:
        for a in range(1, p):
            b = inverse_mod(a, p)
            assert 0 < b < p
            assert (a * b) % p == 1
            assert inverse_mod(b, p) == a
