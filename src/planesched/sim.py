"""Exact statevector simulation: ground truth for circuits, decoding and energies.

Basis convention: a computational basis index packs qubit j as bit j (qubit 0
least significant).  Gate matrices follow the circuit convention (first
listed qubit is the most significant bit of the matrix index).  Fermionic
states are specified in occupation-number terms over modes in up-then-down
order and reindexed per mapping: Jordan-Wigner stores occupations directly,
parity stores their running XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .circuits import GATE_MATRICES, DecodeTable, Gate, MeasCircuit, Schedule
from .universe import (
    DOWN,
    FAMILIES,
    UP,
    CoverageError,
    Decomposition,
    Hamiltonian,
    HoppingOp,
    TermKey,
    classify_terms,
    decompose,
    route_term,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

MAX_QUBITS = 14


class SizeLimitError(ValueError):
    """System too large for the exact oracle."""


def _check_size(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise SizeLimitError(f"{n_qubits} qubits exceeds the exact limit of {MAX_QUBITS}")


# ---------------------------------------------------------------------------
# state vectors and gate application

def _bit_reversal_permutation(m: int) -> np.ndarray:
    idx = np.arange(1 << m)
    rev = np.zeros_like(idx)
    for b in range(m):
        rev |= ((idx >> b) & 1) << (m - 1 - b)
    return rev


def _signed_rows(mat: np.ndarray) -> tuple[float, tuple[tuple[tuple[int, int], ...], ...]]:
    """A gate matrix as ``scale`` times a matrix of signs, row by row.

    Rows and columns are reindexed little-endian (the gate's lowest qubit is
    bit 0 of the local index); each row lists its nonzero entries as
    (column, sign) pairs, a positive sign first when the row has one.
    """
    rev = _bit_reversal_permutation(mat.shape[0].bit_length() - 1)
    local = mat[np.ix_(rev, rev)]
    scale = float(np.abs(local).max())
    signs = local / scale
    if not np.all(np.isin(signs, (-1, 0, 1))):
        raise ValueError("gate matrix is not a scaled matrix of signs")
    rows = []
    for row in signs.real.astype(int):
        cols = np.flatnonzero(row)
        rows.append(tuple(sorted(((int(c), int(row[c])) for c in cols), key=lambda e: -e[1])))
    return scale, tuple(rows)


# the name fixes the matrix, so each gate name's rows are built once
_GATE_ROWS = {name: _signed_rows(mat) for name, mat in GATE_MATRICES.items()}
_ACCUMULATE = {1: np.add, -1: np.subtract}


def apply_gate(state: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """Apply one gate; returns a new vector.

    ``Gate`` holds contiguous ascending qubits, so the state is a
    (high, 2^m, low) array and each output row is a signed sum of input rows.
    """
    scale, rows = _GATE_ROWS[gate.name]
    q0, m = gate.qubits[0], len(gate.qubits)
    psi = state.reshape(1 << (n_qubits - q0 - m), len(rows), 1 << q0)
    out = np.empty(psi.shape, dtype=complex)
    for r, ((col, sign), *rest) in enumerate(rows):
        dst = out[:, r, :]
        if rest and sign > 0:  # start from the first two rows in one pass
            (col2, sign2), *rest = rest
            _ACCUMULATE[sign2](psi[:, col, :], psi[:, col2, :], out=dst)
        elif sign > 0:
            np.copyto(dst, psi[:, col, :])  # np.positive is several times slower
        else:
            np.negative(psi[:, col, :], out=dst)
        for col2, sign2 in rest:
            _ACCUMULATE[sign2](dst, psi[:, col2, :], out=dst)
    if scale != 1.0:
        out *= scale
    return out.reshape(-1)


def apply_circuit(state: np.ndarray, gates, n_qubits: int) -> np.ndarray:
    _check_size(n_qubits)
    if state.shape != (1 << n_qubits,):
        raise ValueError(f"state has shape {state.shape}, expected ({1 << n_qubits},)")
    psi = np.asarray(state, dtype=complex)
    for gate in gates:
        psi = apply_gate(psi, gate, n_qubits)
    return psi


def occupation_permutation(mapping: str, n_qubits: int) -> np.ndarray:
    """qubit-basis index for each occupation-number index."""
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    if mapping == "jw":
        return idx
    if mapping == "parity":
        out = np.zeros_like(idx)
        prefix = np.zeros_like(idx)
        for j in range(n_qubits):
            prefix ^= (idx >> j) & 1
            out |= prefix << j
        return out
    raise ValueError(f"unknown mapping: {mapping!r}")


def occupation_to_qubit_state(amps: np.ndarray, mapping: str, n_qubits: int) -> np.ndarray:
    perm = occupation_permutation(mapping, n_qubits)
    out = np.zeros_like(amps, dtype=complex)
    out[perm] = amps
    return out


def random_occupation_state(n_qubits: int, seed: int) -> np.ndarray:
    """Normalized complex Gaussian amplitudes over the occupation basis."""
    _check_size(n_qubits)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def basis_occupation_state(bits: str) -> np.ndarray:
    """Occupation basis state from a bitstring f_0 f_1 ... (mode order)."""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"not a bitstring: {bits!r}")
    index = sum(1 << j for j, b in enumerate(bits) if b == "1")
    out = np.zeros(1 << len(bits), dtype=complex)
    out[index] = 1.0
    return out


# ---------------------------------------------------------------------------
# sparse operators per mapping

def _pauli_string(ops: dict[int, np.ndarray], n_qubits: int) -> sp.csr_matrix:
    """Kron of single-qubit factors, qubit 0 the least significant bit.

    Each factor has at most one nonzero per column, so the product does too:
    every column's row and value are built up one factor at a time.
    """
    import scipy.sparse as sp

    dim = 1 << n_qubits
    cols = np.arange(dim)
    rows = cols.copy()
    vals = np.ones(dim, dtype=complex)
    for q, factor in ops.items():
        if np.count_nonzero(factor, axis=0).max() > 1:
            raise ValueError(f"factor on qubit {q} has two nonzeros in a column")
        row_bit = np.argmax(factor != 0, axis=0)  # indexed by the column bit
        bit = (cols >> q) & 1
        rows ^= (bit ^ row_bit[bit]) << q
        vals *= factor[row_bit[bit], bit]
    keep = vals != 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(dim, dim))


_PX = np.array([[0, 1], [1, 0]], dtype=complex)
_PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def annihilation_operator(j: int, mapping: str, n_qubits: int) -> sp.csr_matrix:
    """Mode annihilation operator as a sparse qubit matrix."""
    _check_size(n_qubits)
    lower = (_PX + 1j * _PY) / 2  # |0><1|
    if mapping == "jw":
        ops = {k: _PZ for k in range(j)}
        ops[j] = lower
        return _pauli_string(ops, n_qubits)
    if mapping == "parity":
        # (Z_{j-1} X_j + i Y_j)/2 followed by the X chain on higher qubits
        ops_a = {j: _PX}
        if j > 0:
            ops_a[j - 1] = _PZ
        ops_b = {j: 1j * _PY}
        for k in range(j + 1, n_qubits):
            ops_a[k] = _PX
            ops_b[k] = _PX
        return (_pauli_string(ops_a, n_qubits) + _pauli_string(ops_b, n_qubits)) / 2
    raise ValueError(f"unknown mapping: {mapping!r}")


def creation_operator(j: int, mapping: str, n_qubits: int) -> sp.csr_matrix:
    return annihilation_operator(j, mapping, n_qubits).conj().T.tocsr()


def hopping_operator(p: int, q: int, spin: int, mapping: str, n: int) -> sp.csr_matrix:
    """A(p, q, spin) = adag_p a_q + adag_q a_p; p == q gives twice the number operator."""
    nq = 2 * n
    jp, jq = p + spin * n, q + spin * n
    ad_p = creation_operator(jp, mapping, nq)
    a_q = annihilation_operator(jq, mapping, nq)
    if p == q:
        return (2 * (ad_p @ a_q)).tocsr()
    ad_q = creation_operator(jq, mapping, nq)
    a_p = annihilation_operator(jp, mapping, nq)
    return (ad_p @ a_q + ad_q @ a_p).tocsr()


def number_operator(p: int, spin: int, mapping: str, n: int) -> sp.csr_matrix:
    nq = 2 * n
    j = p + spin * n
    return (creation_operator(j, mapping, nq) @ annihilation_operator(j, mapping, nq)).tocsr()


def operator_matrix(op: HoppingOp, mapping: str, n: int) -> sp.csr_matrix:
    """Matrix of one clique operator (number semantics on the diagonal)."""
    if op.is_number:
        return number_operator(op.p, op.spin, mapping, n)
    return hopping_operator(op.p, op.q, op.spin, mapping, n)


def term_matrix(term: TermKey, mapping: str, n: int) -> sp.csr_matrix:
    mats = [operator_matrix(op, mapping, n) for op in term]
    out = mats[0]
    for m in mats[1:]:
        out = (out @ m).tocsr()
    return out


def dense_hamiltonian(ham: Hamiltonian, mapping: str) -> sp.csr_matrix:
    """Independent energy oracle: the operator sum assembled term by term."""
    import scipy.sparse as sp

    n = ham.n_orbitals
    nq = 2 * n
    _check_size(nq)
    dim = 1 << nq
    total = sp.identity(dim, dtype=complex, format="csr") * ham.e_nuc
    a_ops: dict[tuple[int, int, int], sp.csr_matrix] = {}
    for spin in (UP, DOWN):
        for p in range(n):
            for q in range(p, n):
                a_ops[(p, q, spin)] = hopping_operator(p, q, spin, mapping, n)

    def a_of(p: int, q: int, spin: int) -> sp.csr_matrix:
        return a_ops[(min(p, q), max(p, q), spin)]

    for spin in (UP, DOWN):
        for p in range(n):
            for q in range(n):
                c = ham.h[spin, p, q]
                if c != 0.0:
                    total = total + (c / 2) * a_of(p, q, spin)
    for s1 in (UP, DOWN):
        for s2 in (UP, DOWN):
            gmat = ham.g[s1, s2]
            for p in range(n):
                for q in range(n):
                    # sum_ru g[s1,s2,p,q,r,u] A(r,u,s2) first: one product per (p, q)
                    right = sp.csr_matrix((dim, dim), dtype=complex)
                    for r in range(n):
                        for u in range(n):
                            c = gmat[p, q, r, u]
                            if c != 0.0:
                                right = right + (c / 8) * a_of(r, u, s2)
                    if right.nnz:
                        total = total + a_of(p, q, s1) @ right
    return total.tocsr()

# ---------------------------------------------------------------------------
# expectation estimation through the schedule

@dataclass
class ExpectationReport:
    """Hopping-basis expectations: values of A(p,q,s) and their products.

    Keys use the canonical operator labels; diagonal labels are reported as
    the full A(p,p) = 2 n_p value.  ``primitives`` keeps the raw number- and
    hopping-operator expectations the estimates were assembled from.
    """

    one_body: dict[HoppingOp, float]
    two_body: dict[TermKey, float]
    primitives: dict[TermKey, float]
    energy: float | None = None


def decode_value_vector(table: DecodeTable, n_qubits: int) -> np.ndarray:
    """Eigenvalue of the decoded operator for every basis index (read-only)."""
    idx = np.arange(1 << n_qubits)
    k = len(table.qubits)
    local = np.zeros_like(idx)
    for i, q in enumerate(table.qubits):
        local |= ((idx >> q) & 1) << (k - 1 - i)
    values = np.asarray(table.values, dtype=float)[local]
    values.flags.writeable = False
    return values


def terms_by_clique(schedule: Schedule) -> dict[int, list[TermKey]]:
    """Every measurable term, grouped under the clique it is routed to."""
    grouped: dict[int, list[TermKey]] = {}
    for term in classify_terms(schedule.n):
        cid = route_term(term, schedule.universe)
        grouped.setdefault(cid, []).append(term)
    return grouped


def _value_vectors(n_qubits: int):
    """Decode table -> its value vector, built on first use: a schedule holds
    a few dozen distinct tables for thousands of operators."""
    return cache(lambda table: decode_value_vector(table, n_qubits))


def _term_values(terms: list[TermKey], circuit: MeasCircuit, vector):
    """(term, value vector) for each term, its factors' vectors looked up once."""
    ops = {op: vector(circuit.decode[op]) for term in terms for op in term}
    for term in terms:
        value = ops[term[0]]
        for op in term[1:]:
            value = value * ops[op]
        yield term, value


def primitive_expectations(
    state: np.ndarray, schedule: Schedule, grouped: dict[int, list[TermKey]] | None = None
) -> dict[TermKey, float]:
    """Exact expectation of every measurable term via its routed circuit.

    ``grouped`` is ``terms_by_clique(schedule)``, computed here if not given.
    """
    nq = 2 * schedule.n
    if grouped is None:
        grouped = terms_by_clique(schedule)
    vector = _value_vectors(nq)
    out: dict[TermKey, float] = {}
    for cid, terms in sorted(grouped.items()):
        circuit = schedule.circuits[cid]
        probs = np.abs(apply_circuit(state, circuit.gates, nq)) ** 2
        for term, value in _term_values(terms, circuit, vector):
            out[term] = float(probs @ value)
    return out


def _diag_factor(term: TermKey) -> int:
    f = 1
    for op in term:
        if op.is_number:
            f *= 2
    return f


def assemble_report(
    primitives: dict[TermKey, float],
    schedule: Schedule,
    ham: Hamiltonian | None,
    decomposition: Decomposition | None = None,
) -> ExpectationReport:
    """The report of ``primitives``; ``decomposition`` is ``decompose(ham)``,
    computed here if not given."""
    one_body = {t[0]: _diag_factor(t) * v for t, v in primitives.items() if len(t) == 1}
    two_body = {t: _diag_factor(t) * v for t, v in primitives.items() if len(t) == 2}
    energy = None
    if ham is not None:
        if ham.n_orbitals != schedule.n:
            raise ValueError("Hamiltonian size does not match the schedule")
        const, coeffs = decomposition if decomposition is not None else decompose(ham)
        energy = const
        for term, c in coeffs.items():
            if term not in primitives:
                raise CoverageError(f"missing measured term {term}")
            energy += c * primitives[term]
    return ExpectationReport(one_body, two_body, primitives, energy)


def estimate_all(
    state: np.ndarray, schedule: Schedule, ham: Hamiltonian | None = None
) -> ExpectationReport:
    """Exact estimates of all hopping expectations, plus the energy if given."""
    return assemble_report(primitive_expectations(state, schedule), schedule, ham)


def sample_shots(
    state: np.ndarray, circuit: MeasCircuit, shots: int, seed: int, n_qubits: int
) -> np.ndarray:
    """Multinomial outcome counts over all basis indices after the circuit."""
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")
    probs = np.abs(apply_circuit(state, circuit.gates, n_qubits)) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


class SampledEnergy(NamedTuple):
    """A shot-based energy, its standard error, and that error per clique family."""

    energy: float
    stderr: float
    family_stderr: dict[str, float]


def estimate_energy_sampled(
    state: np.ndarray,
    schedule: Schedule,
    ham: Hamiltonian,
    shots: int,
    seed: int,
) -> SampledEnergy:
    """Shot-based energy estimate with its standard error.

    Each clique gets ``shots`` samples; clique contributions are independent,
    so their variances add, in total and within each family (every clique
    belongs to one).
    """
    nq = 2 * schedule.n
    const, coeffs = decompose(ham)
    grouped = terms_by_clique(schedule)
    vector = _value_vectors(nq)
    energy = const
    variance = 0.0
    family_variance = dict.fromkeys(FAMILIES, 0.0)
    for cid, terms in sorted(grouped.items()):
        terms = [t for t in terms if t in coeffs]
        if not terms:
            continue
        circuit = schedule.circuits[cid]
        counts = sample_shots(state, circuit, shots, seed + cid, nq)
        freqs = counts / shots
        composite = np.zeros(1 << nq)
        for term, value in _term_values(terms, circuit, vector):
            composite += coeffs[term] * value
        mean = float(freqs @ composite)
        second = float(freqs @ composite**2)
        energy += mean
        clique_variance = max(second - mean * mean, 0.0) / shots
        variance += clique_variance
        family_variance[schedule.universe.cliques[cid].family] += clique_variance
    family_stderr = {f: float(np.sqrt(v)) for f, v in family_variance.items()}
    return SampledEnergy(energy, float(np.sqrt(variance)), family_stderr)


# ---------------------------------------------------------------------------
# whole-circuit dense conjugation: the test oracle for the exact tripwire in circuits

def embed_gate(gate: Gate, n_qubits: int) -> sp.csr_matrix:
    """Sparse full-space matrix of a gate on contiguous ascending qubits."""
    import scipy.sparse as sp

    qs = gate.qubits
    m = len(qs)
    if list(qs) != list(range(qs[0], qs[0] + m)):
        raise ValueError(f"gate qubits not contiguous ascending: {qs}")
    mat = np.asarray(gate.resolved_matrix())
    rev = _bit_reversal_permutation(m)
    local = mat[np.ix_(rev, rev)]  # listed msb-first -> little-endian
    low = sp.identity(1 << qs[0], dtype=complex, format="csr")
    high = sp.identity(1 << (n_qubits - qs[0] - m), dtype=complex, format="csr")
    return sp.kron(high, sp.kron(sp.csr_matrix(local), low)).tocsr()


def conjugate_by_circuit(op: sp.csr_matrix, gates, n_qubits: int) -> sp.csr_matrix:
    """U O U^dag for the whole circuit, gate by gate in execution order."""
    out = op.tocsr()
    for gate in gates:
        u = embed_gate(gate, n_qubits)
        out = (u @ out @ u.conj().T).tocsr()
    return out


def offdiagonal_norm(mat: sp.csr_matrix) -> float:
    coo = mat.tocoo()
    mask = coo.row != coo.col
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(coo.data[mask])))


def commutator_norm(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    c = (a @ b - b @ a).tocoo()
    return float(np.max(np.abs(c.data))) if c.nnz else 0.0
