"""Exact Pauli forms of clique operators and their conjugation by Clifford gates.

A form is a sum of Hermitian Pauli strings with integer coefficients in
units of 1/2, each string stored as ``(x_bits, z_bits)`` with qubit q as
bit q: per qubit (0, 0) is I, (1, 0) X, (0, 1) Z and (1, 1) Y.  Every clique
operator is a sum of strings with coefficient +-1/2, and every emitted gate
is Clifford, so it maps each string to plus or minus one string:
conjugation only flips signs and stays integer bookkeeping (Aaronson and
Gottesman, arXiv:quant-ph/0406196).  A gate's image table is derived once
per gate name from the gate's exact sign matrix (a scale times an integer
matrix), in integer arithmetic with no tolerance; a gate that is not
Clifford is rejected.

Many forms go through one circuit together (``conjugate_all``): their
strings are the rows of a bit matrix kept by column, one int of X bits and
one of Z bits per qubit with bit r for row r, plus one int of sign flips.
Each gate name gets a column rule, compiled once from its image table: its
output columns are XORs of input columns (the table's linear part) and its
sign flip is the XOR of the AND-monomials of the algebraic normal form of
the table's sign bit.  One rule call moves every row through the gate.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product
from typing import TYPE_CHECKING

from .universe import HoppingOp

if TYPE_CHECKING:
    from .circuits import SignMatrix

PauliForm = dict[tuple[int, int], int]  # (x_bits, z_bits) -> coefficient in halves

_RULES: dict = {}  # gate name -> its column rule (_column_rule)


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


def _image_table(name: str, matrix: SignMatrix) -> list[tuple[int, int, int]]:
    """``table[x << k | z] = (x', z', sign)`` with U P U^dag = sign * P' for
    the local string (x, z) on the gate's k qubits, in exact integers.
    Local bit i is the i-th listed gate qubit.

    U is ``scale * S`` with S an integer matrix, and U unitary makes
    S S^T = d I with d = 1 / scale^2, so U P U^dag = sign * P' exactly when
    S P S^T = d * sign * P'.  P = i^|x&z| X^x Z^z is a signed permutation up
    to that phase; each column of S X^x Z^z S^T comes from the sparse rows
    of S and must be the matching column of P'.
    """
    rows = matrix.rows()
    k = len(rows).bit_length() - 1
    by_column = [[(r, s) for r, row in enumerate(rows) for b, s in row if b == a]
                 for a in range(1 << k)]
    d = sum(s * s for _, s in rows[0])
    table = []
    for x, z in product(range(1 << k), repeat=2):
        columns = []  # column c of S X^x Z^z S^T as {row: value}
        for c in range(1 << k):
            column: dict[int, int] = {}
            for a, s in rows[c]:  # entry a of S^T e_c, moved to a ^ x
                s = -s if (z & a).bit_count() & 1 else s
                for r, t in by_column[a ^ x]:
                    column[r] = column.get(r, 0) + t * s
            columns.append({r: v for r, v in column.items() if v})
        nx = min(columns[0], default=0)  # where the image sends column 0
        v0 = columns[0].get(nx, 0)
        nz = sum(1 << j for j in range(k) if columns[1 << j].get(1 << j ^ nx, 0) * v0 < 0)
        expected = [{c ^ nx: v0 * (-1) ** (nz & c).bit_count()} for c in range(1 << k)]
        if v0 not in (d, -d) or columns != expected:
            raise ValueError(f"gate {name} is not Clifford: {(x, z)} maps to no signed Pauli string")
        # i^|x&z| S X^x Z^z S^T = d * sign * i^|x'&z'| X^x' Z^z'; the image is
        # Hermitian (S S^T = d I holds, checked first at x = z = 0), so the
        # phase i^turn between the two is +-1
        turn = ((nx & nz).bit_count() - (x & z).bit_count()) % 4
        table.append((nx, nz, v0 // d * (1 - turn)))
    return table


def _anf(truth: list[int]) -> set[int]:
    """Monomials of a Boolean function's algebraic normal form, each a bit
    set of input variables, from its truth table (the Moebius transform)."""
    coeffs = list(truth)
    step = 1
    while step < len(coeffs):
        for i in range(len(coeffs)):
            if i & step:
                coeffs[i] ^= coeffs[i ^ step]
        step <<= 1
    return {m for m, c in enumerate(coeffs) if c}


def _xor_of_ands(monomials: set[int], names: list[str]) -> str:
    """A Python expression for the XOR of AND-monomials over ``names``,
    factored on the most frequent variable first.  No monomial is constant."""
    v = max(range(len(names)), key=lambda i: sum(m >> i & 1 for m in monomials))
    inner = {m ^ 1 << v for m in monomials if m >> v & 1}
    rest = {m for m in monomials if not m >> v & 1}
    if 0 in inner:  # v (1 ^ Q) is v & ~Q
        inner.discard(0)
        term = f"{names[v]} & ~{_xor_of_ands(inner, names)}" if inner else names[v]
    else:
        term = f"{names[v]} & {_xor_of_ands(inner, names)}"
    term = f"{term} ^ {_xor_of_ands(rest, names)}" if rest else term
    return f"({term})" if " " in term else term


def _column_rule(name: str, matrix: SignMatrix):
    """The gate's action on columns, compiled once per gate name.

    ``rule(xs, zs, low, flips)`` rewrites the X and Z columns of qubits
    ``low .. low + k - 1`` in place and returns ``flips`` with every row
    whose sign the gate flips toggled.  Each output column is the XOR of the
    input columns in the linear part of ``_image_table``, and the sign flip
    is the XOR of the AND-monomials of the algebraic normal form of its sign
    bit, so one call updates every row at once.
    """
    table = _image_table(name, matrix)
    k = (len(table).bit_length() - 1) // 2
    # bit j of a table index x << k | z is z_j below k and x_(j - k) above
    names = [f"z{i}" for i in range(k)] + [f"x{i}" for i in range(k)]
    at = [f"[low + {i}]" if i else "[low]" for i in range(k)]
    body = [f"    {c}{i} = {c}s{at[i]}" for c in "zx" for i in range(k)]
    for c, image in (("x", 0), ("z", 1)):
        for i in range(k):
            monomials = _anf([entry[image] >> i & 1 for entry in table])
            if any(m.bit_count() != 1 for m in monomials):
                raise ValueError(f"gate {name}: its image is not linear in the input bits")
            value = " ^ ".join(names[m.bit_length() - 1] for m in sorted(monomials)) or "0"
            if value != f"{c}{i}":
                body.append(f"    {c}s{at[i]} = {value}")
    # the identity keeps its sign, so no monomial is constant
    flips = _anf([entry[2] < 0 for entry in table])
    body.append(f"    return flips ^ {_xor_of_ands(flips, names)}" if flips else "    return flips")
    scope: dict = {}
    code = "\n".join(["def rule(xs, zs, low, flips):", *body])
    exec(compile(code, f"<column rule of {name}>", "exec"), scope)
    return scope["rule"]


def _ones(bits: int) -> list[int]:
    """Positions of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@cache
def _edges(bits: int) -> tuple[int, ...]:
    """Each q where bit q of ``bits`` differs from bit q - 1 (bit -1 reads
    0), ascending: a run of ones has two, however long."""
    return tuple(_ones(bits ^ bits << 1))


def conjugate_all(forms: list[PauliForm], gates, n_qubits: int) -> list[PauliForm]:
    """U F U^dag for every form F, exactly, with U the gates in execution
    order, on ``n_qubits`` qubits that hold every string and gate.

    The forms' strings are the rows of a bit matrix kept by column: each
    qubit has one int of X bits and one of Z bits, with bit r for row r, and
    one int holds the rows whose sign has flipped.  Each gate's column rule
    updates every row with a few big-int operations (the bit-sliced tableau
    of Aaronson and Gottesman, arXiv:quant-ph/0406196, and of Stim,
    arXiv:2103.02202).  Conjugation maps distinct strings to distinct
    strings, so no two ever merge.
    """
    rows = [s for form in forms for s in form]
    # the columns are filled at the edges of each string's runs of ones,
    # then a prefix XOR over the qubits fills the runs: a Jordan-Wigner
    # chain of Z costs two edges, not one bit per qubit
    columns = []
    for part in (0, 1):
        edges = [0] * (n_qubits + 1)
        for r, string in enumerate(rows):
            row = 1 << r
            for q in _edges(string[part]):
                edges[q] |= row
        for q in range(1, n_qubits):
            edges[q] ^= edges[q - 1]
        columns.append(edges[:n_qubits])
    xs, zs = columns
    flips = 0
    for gate in gates:
        rule = _RULES.get(gate.name)
        if rule is None:  # compiled on the first use of its name
            rule = _RULES[gate.name] = _column_rule(gate.name, gate.sign_matrix())
        flips = rule(xs, zs, gate.qubits[0], flips)
    images = [[0, 0] for _ in rows]
    for part, column in enumerate(columns):
        for q, c in enumerate(column):
            while c:  # most columns are empty once a circuit diagonalizes
                low = c & -c
                images[low.bit_length() - 1][part] |= 1 << q
                c ^= low
    out, r = [], 0
    for form in forms:
        image = {}
        for c in form.values():
            x, z = images[r]
            image[x, z] = -c if flips >> r & 1 else c
            r += 1
        out.append(image)
    return out


def support(paulis: PauliForm) -> tuple[int, ...]:
    """Qubits some string acts on, ascending."""
    return tuple(_ones(reduce(int.__or__, (x | z for x, z in paulis), 0)))


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
