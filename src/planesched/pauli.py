"""Exact Pauli forms of clique operators and their conjugation by Clifford gates.

A form is a sum of Hermitian Pauli strings with integer coefficients in
units of 1/2, each string stored as ``(x_bits, z_bits)`` with qubit q as
bit q: per qubit (0, 0) is I, (1, 0) X, (0, 1) Z and (1, 1) Y.  Every clique
operator is a sum of strings with coefficient +-1/2, and every emitted gate
is Clifford, so it maps each string to plus or minus one string:
conjugation only flips signs and stays integer bookkeeping (Aaronson and
Gottesman, arXiv:quant-ph/0406196).  A gate's image table is derived once
per gate name from the matrix the gate itself resolves to; a gate that is
not Clifford is rejected.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

import numpy as np

from .universe import HoppingOp

PauliForm = dict[tuple[int, int], int]  # (x_bits, z_bits) -> coefficient in halves

_MATRIX_TOL = 1e-9  # only for reading a signed string off a constant gate matrix
_SINGLE = {(0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]),  # per-qubit (x, z)
           (0, 1): np.diag([1, -1]), (1, 1): np.array([[0, -1j], [1j, 0]])}
_TABLES: dict[str, list[tuple[int, int, int]]] = {}  # gate name -> image table


def _bits(qubits) -> int:
    return sum(1 << q for q in qubits)


def operator_paulis(op: HoppingOp, mapping: str, n: int) -> PauliForm:
    """Jordan-Wigner or parity form of one clique operator on 2n qubits.

    Mode p of spin s is qubit p + s*n.  A number operator (p == q) is n_p; a
    hopping operator is A(p, q) = adag_p a_q + adag_q a_p.
    """
    j, k = op.p + op.spin * n, op.q + op.spin * n
    if mapping == "jw":
        if op.is_number:
            return {(0, 0): 1, (0, 1 << j): -1}
        # (X_j Z..Z X_k + Y_j Z..Z Y_k) / 2
        ends, chain = (1 << j) | (1 << k), _bits(range(j + 1, k))
        return {(ends, chain): 1, (ends, ends | chain): 1}
    if mapping == "parity":
        below = (1 << j - 1) if j > 0 else 0
        if op.is_number:
            # occupation is the XOR of cumulative parities j-1 and j
            return {(0, 0): 1, (0, below | 1 << j): -1}
        if k == j + 1:
            # (X_j - Z_{j-1} X_j Z_{j+1}) / 2
            return {(1 << j, 0): 1, (1 << j, below | 1 << k): -1}
        # -(Z_{j-1} X_j..X_{k-1} Z_k + Y_j X_{j+1}..X_{k-2} Y_{k-1}) / 2
        xs = _bits(range(j, k))
        return {(xs, below | 1 << k): -1, (xs, (1 << j) | (1 << k - 1)): -1}
    raise ValueError(f"unknown mapping: {mapping!r}")


def _image_table(name: str, matrix: np.ndarray) -> list[tuple[int, int, int]]:
    """``table[x << k | z] = (x', z', sign)`` with U P U^dag = sign * P' for
    the local string (x, z) on the gate's k qubits.  Local bit i is the i-th
    listed gate qubit, the most significant bit of the matrix index.

    All 4^k strings are conjugated at once, and the Pauli coefficients of
    every image come from one batched trace.
    """
    k = matrix.shape[0].bit_length() - 1
    strings = list(product(range(1 << k), repeat=2))  # in x << k | z order
    basis = np.ones((len(strings), 1, 1))
    for i in range(k):
        local = np.array([_SINGLE[(x >> i) & 1, (z >> i) & 1] for x, z in strings])
        basis = np.einsum("sab,scd->sacbd", basis, local).reshape(len(strings), 2 << i, 2 << i)
    images = matrix @ basis @ matrix.conj().T
    # coefficient of string t in image s: trace(P_t image_s) / 2^k
    coefficients = np.einsum("tab,sba->st", basis, images).real / (1 << k)
    best = np.abs(coefficients).argmax(axis=1)
    signs = np.rint(coefficients[np.arange(len(strings)), best])
    misses = np.abs(images - signs[:, None, None] * basis[best]).max(axis=(1, 2))
    table = []
    for s, t, sign, miss in zip(strings, best, signs, misses):
        if not sign or miss >= _MATRIX_TOL:
            raise ValueError(f"gate {name} is not Clifford: {s} maps to no signed Pauli string")
        table.append((*strings[t], int(sign)))
    return table


def conjugate(paulis: PauliForm, gates) -> PauliForm:
    """U O U^dag for the gates in execution order, exactly.

    Gates act on contiguous ascending qubits, so local bit i of a gate's
    table is qubit ``qubits[0] + i``.  A gate whose qubits miss every string
    is skipped.  Conjugation maps distinct strings to distinct strings, so
    no two ever merge.
    """
    strings = [[x, z, c] for (x, z), c in paulis.items()]
    acting = reduce(int.__or__, (x | z for x, z in paulis), 0)  # qubits some string acts on
    for gate in gates:
        qubits = gate.qubits
        low, k = qubits[0], len(qubits)
        local = (1 << k) - 1
        if not (acting >> low) & local:
            continue
        table = _TABLES.get(gate.name)
        if table is None:
            table = _TABLES[gate.name] = _image_table(gate.name, gate.resolved_matrix())
        keep = ~(local << low)
        acting &= keep
        for s in strings:
            x, z = s[0] >> low & local, s[1] >> low & local
            if x | z:
                nx, nz, sign = table[x << k | z]
                s[0] = s[0] & keep | nx << low
                s[1] = s[1] & keep | nz << low
                s[2] *= sign
                acting |= (nx | nz) << low
    return {(x, z): c for x, z, c in strings}


def support(paulis: PauliForm) -> tuple[int, ...]:
    """Qubits some string acts on, ascending."""
    bits = reduce(int.__or__, (x | z for x, z in paulis), 0)
    return tuple(q for q in range(bits.bit_length()) if (bits >> q) & 1)


def is_diagonal(paulis: PauliForm) -> bool:
    """True when no string carries an X or Y."""
    return not any(x for x, _ in paulis)


def diagonal_values(paulis: PauliForm, qubits: tuple[int, ...]) -> list[int]:
    """Eigenvalue, in units of 1/2, of a diagonal form for each bit pattern
    on ``qubits``, the first listed qubit the most significant; other qubits
    read as 0."""
    k = len(qubits)
    values = []
    for i in range(1 << k):
        ones = _bits(q for b, q in enumerate(qubits) if (i >> (k - 1 - b)) & 1)
        values.append(sum(-c if (z & ones).bit_count() & 1 else c for (_, z), c in paulis.items()))
    return values
