"""Exact statevector simulation: ground truth for circuits, decoding and energies.

Basis convention: a computational basis index packs qubit j as bit j (qubit 0
least significant).  Gates are read little-endian too, through
``SignMatrix.rows()``: bit i of a local index is the i-th listed qubit.
Fermionic states are specified in occupation-number terms over modes in
up-then-down order and reindexed per mapping: Jordan-Wigner stores
occupations directly, parity stores their running XOR.

A circuit is applied a run of gates at a time.  Every gate but H (FSWAP2,
FSWAP3, FSWAP_EDGE, CNOT) is a signed permutation, so a run of them is one
signed permutation per spin block, composed once per distinct block network
and shared by every clique with that network; the run is then one gather of
the state times a sign.  A run of H gates is one real H (x) ... (x) I matrix
product per block on the state viewed as (re, im) float pairs.  The blocks
may be applied in either order: they share at most qubit n-1, under parity,
and neither flips it, which each composed block checks.  ``apply_gate`` is
the per-gate reference the tests compare against.
"""

from __future__ import annotations

import os
from functools import cache, reduce
from itertools import groupby
from operator import or_
from typing import TYPE_CHECKING, NamedTuple

# set before numpy loads, here where the package first imports it: the
# matrix products are too small to gain from BLAS threads, which only spin
# and take CPU; a value the user has set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .circuits import GATE_SIGNS, DecodeTable, Gate, MeasCircuit, Schedule
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


def check_size(n_qubits: int) -> None:
    """Raise ``SizeLimitError`` when ``n_qubits`` is beyond the exact oracle."""
    if n_qubits > MAX_QUBITS:
        raise SizeLimitError(f"{n_qubits} qubits exceeds the exact limit of {MAX_QUBITS}")


# ---------------------------------------------------------------------------
# state vectors and gate application

# the name fixes the matrix, so each gate name's rows are built once
_GATE_ROWS = {name: (m.scale, m.rows()) for name, m in GATE_SIGNS.items()}


@cache
def _gate_matrix(name: str) -> np.ndarray:
    """A gate's complex matrix from its rows, indexed little-endian (read-only)."""
    scale, rows = _GATE_ROWS[name]
    matrix = np.zeros((len(rows), len(rows)), dtype=complex)
    for r, row in enumerate(rows):
        for c, sign in row:
            matrix[r, c] = sign * scale
    matrix.flags.writeable = False  # shared by every caller
    return matrix


def apply_gate(state: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """Apply one gate; returns a new vector.  The per-gate reference for
    ``apply_circuit``, written as the definition of the gate's rows.

    ``Gate`` holds contiguous ascending qubits, so the state is a
    (high, 2^m, low) array: output row r is the sum of sign times input row
    col over the (col, sign) entries of row r, times the gate's scale.
    """
    scale, rows = _GATE_ROWS[gate.name]
    q0, m = gate.qubits[0], len(gate.qubits)
    psi = state.reshape(1 << (n_qubits - q0 - m), len(rows), 1 << q0)
    out = np.zeros(psi.shape, dtype=complex)
    for r, row in enumerate(rows):
        for col, sign in row:
            out[:, r, :] += sign * psi[:, col, :]
    out *= scale
    return out.reshape(-1)


class _SignedPermutation(NamedTuple):
    """A gate whose every row reads one input row with a sign, little-endian."""

    cols: np.ndarray  # local row -> the local column it reads
    signs: np.ndarray  # local row -> the sign it reads it with
    writes: int  # mask of the local bits some row changes


# every gate but H is a signed permutation (scale 1, one entry per row)
_PERMUTATIONS = {
    name: _SignedPermutation(
        np.array([c for ((c, _),) in rows]),
        np.array([float(s) for ((_, s),) in rows]),
        reduce(or_, (r ^ c for r, ((c, _),) in enumerate(rows))),
    )
    for name, (scale, rows) in _GATE_ROWS.items()
    if scale == 1.0 and all(len(row) == 1 for row in rows)
}


@cache
def _signed_block(
    gates: tuple[Gate, ...], lo: int, width: int, fixed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``gates`` composed into one signed permutation of the window of
    ``width`` qubits from qubit ``lo``: ``out[i] = sign[i] * in[src[i]]``.

    Cached on the gate tuple: the cliques of a schedule share few distinct
    spin-block networks.  Raises if the composition changes a window bit in
    ``fixed``, the bits another block reads.
    """
    idx = np.arange(1 << width)
    src, sign = idx, np.ones(1 << width)
    for gate in gates:
        perm = _PERMUTATIONS[gate.name]
        shift = gate.qubits[0] - lo
        local = (idx >> shift) & (len(perm.cols) - 1)
        gather = idx ^ ((local ^ perm.cols[local]) << shift)
        src, sign = src[gather], sign[gather] * perm.signs[local]
    if np.any((src ^ idx) & fixed):
        raise RuntimeError(f"gates {gates} change a qubit another spin block reads")
    src.flags.writeable = sign.flags.writeable = False  # shared by every caller
    return src, sign


def _spin_blocks(
    gates: tuple[Gate, ...], n_qubits: int
) -> tuple[tuple[Gate, ...], tuple[Gate, ...], int, int]:
    """``(low, high, h, lo)``: a run's gates on the qubits below ``h``, and
    the rest, whose window runs from qubit ``lo <= h`` to the top.

    h = n_qubits // 2 splits a clique circuit into its up and down spin
    blocks, and the down window reaches down to the lowest qubit its gates
    touch: qubit h - 1 under parity, which FSWAP3 at g = h reads.  The two
    blocks commute when no gate writes one of the shared qubits lo .. h-1;
    otherwise the whole run is one low block (h = lo = n_qubits).
    """
    h = n_qubits // 2
    low = tuple(g for g in gates if g.qubits[-1] < h)
    high = tuple(g for g in gates if g.qubits[-1] >= h)
    lo = min([h] + [g.qubits[0] for g in high])
    shared = (1 << h) - (1 << lo)
    if any((_PERMUTATIONS[g.name].writes << g.qubits[0]) & shared for g in gates):
        return gates, (), n_qubits, n_qubits
    return low, high, h, lo


def _apply_permutations(psi: np.ndarray, gates: tuple[Gate, ...], n_qubits: int) -> np.ndarray:
    """A run of signed-permutation gates as one signed gather of the state,
    each spin block composed once per distinct gate tuple."""
    low, high, h, lo = _spin_blocks(gates, n_qubits)
    k = h - lo  # shared qubits, which neither block changes
    src_low, sign_low = _signed_block(low, 0, h, ((1 << k) - 1) << lo)
    src_high, sign_high = _signed_block(high, lo, n_qubits - lo, (1 << k) - 1)
    # the full index as (a, b, c): high-only qubits, shared qubits, low-only qubits
    shape = (1 << (n_qubits - h), 1 << k, 1)
    src = ((src_high >> k) << h).reshape(shape) | src_low.reshape(1, 1 << k, -1)
    out = psi[src.reshape(-1)]
    out *= (sign_high.reshape(shape) * sign_low.reshape(1, 1 << k, -1)).reshape(-1)
    return out


@cache
def _hadamards(mask: int) -> np.ndarray:
    """H on each set bit of ``mask`` and I on the bits below its top one, as
    one real little-endian matrix."""
    factors = [_gate_matrix("H").real if mask >> j & 1 else np.eye(2)
               for j in reversed(range(mask.bit_length()))]
    matrix = reduce(np.kron, factors)
    matrix.flags.writeable = False  # shared by every caller
    return matrix


def _apply_hadamards(psi: np.ndarray, gates: tuple[Gate, ...], n_qubits: int) -> np.ndarray:
    """A run of H gates as one real matrix product per spin block, on the
    complex state viewed as (re, im) float pairs.  Each block's matrix spans
    its lowest to its highest H, wherever its pairs sit."""
    mask = 0
    for gate in gates:
        if gate.name != "H":
            raise ValueError(f"no kernel for gate {gate.name!r}")
        mask ^= 1 << gate.qubits[0]  # H twice is the identity
    h = n_qubits // 2
    x = psi.view(float)
    for block in (mask & ((1 << h) - 1), mask >> h << h):
        if block:  # the span [a, b) indexes the rows of one product per value above b
            a, b = (block & -block).bit_length() - 1, block.bit_length()
            x = _hadamards(block >> a) @ x.reshape(1 << (n_qubits - b), 1 << (b - a), 2 << a)
    return x.reshape(-1).view(complex)


def apply_circuit(state: np.ndarray, gates, n_qubits: int) -> np.ndarray:
    """Apply a gate list: each run of permutation gates is one signed gather,
    each run of H gates one matrix product per spin block."""
    check_size(n_qubits)
    if state.shape != (1 << n_qubits,):
        raise ValueError(f"state has shape {state.shape}, expected ({1 << n_qubits},)")
    psi = np.ascontiguousarray(state, dtype=complex)
    for is_permutation, run in groupby(gates, key=lambda g: g.name in _PERMUTATIONS):
        run = tuple(run)
        if max(g.qubits[-1] for g in run) >= n_qubits:
            raise ValueError(f"gate outside the {n_qubits} qubits")
        apply_run = _apply_permutations if is_permutation else _apply_hadamards
        psi = apply_run(psi, run, n_qubits)
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
    check_size(n_qubits)
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
    check_size(n_qubits)
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
    check_size(nq)
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

class ExpectationReport(NamedTuple):
    """What an exact estimate measured and assembled.

    ``primitives`` holds the raw number- and hopping-operator expectations
    of every measurable term, a number operator read as n_p, half of
    A(p,p).  ``energy`` is the Hamiltonian's expectation assembled from
    them, and ``contributions`` splits it: ``nuclear`` the constant, then
    one share per clique family in FAMILIES order, a term's share going to
    the family of the clique it is routed to and measured in.
    """

    primitives: dict[TermKey, float]
    energy: float
    contributions: dict[str, float]


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


def primitive_expectations(state: np.ndarray, schedule: Schedule) -> dict[TermKey, float]:
    """Exact expectation of every measurable term via its routed circuit."""
    nq = 2 * schedule.n
    vector = _value_vectors(nq)
    out: dict[TermKey, float] = {}
    for cid, terms in sorted(terms_by_clique(schedule).items()):
        circuit = schedule.circuits[cid]
        probs = np.abs(apply_circuit(state, circuit.gates, nq)) ** 2
        for term, value in _term_values(terms, circuit, vector):
            out[term] = float(probs @ value)
    return out


def assemble_report(
    primitives: dict[TermKey, float],
    schedule: Schedule,
    decomposition: Decomposition,
) -> ExpectationReport:
    """The report of ``primitives``: the energy of ``decomposition`` and each
    family's share of it.

    One pass over the coefficients adds each ``c * primitives[term]`` to the
    energy and to the share of the family of ``route_term``'s clique.  A
    term of the decomposition that ``primitives`` lacks is a
    ``CoverageError``.
    """
    const, coeffs = decomposition
    universe = schedule.universe
    energy = const
    contributions = {"nuclear": const, **dict.fromkeys(FAMILIES, 0.0)}
    for term, c in coeffs.items():
        if term not in primitives:
            raise CoverageError(f"missing measured term {term}")
        share = c * primitives[term]
        energy += share
        contributions[universe.cliques[route_term(term, universe)].family] += share
    return ExpectationReport(primitives, energy, contributions)


def estimate_all(state: np.ndarray, schedule: Schedule, ham: Hamiltonian) -> ExpectationReport:
    """Exact expectations of every measurable term on ``state`` through the
    schedule's circuits, and the energy of ``ham`` assembled from them."""
    if ham.n_orbitals != schedule.n:
        raise ValueError("Hamiltonian size does not match the schedule")
    return assemble_report(primitive_expectations(state, schedule), schedule, decompose(ham))


def sample_shots(
    state: np.ndarray, circuit: MeasCircuit, shots: int,
    seed: int | np.random.SeedSequence, n_qubits: int,
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
    decomposition: Decomposition,
    shots: int,
    seed: int,
) -> SampledEnergy:
    """Shot-based energy estimate with its standard error.

    Clique c draws ``shots`` samples from the child stream ``(seed, c)`` of
    ``seed``, so runs at other seeds are independent; clique contributions
    are independent, so their variances add, in total and within each family.
    One shot gives no variance estimate (the plug-in variance is always 0), so
    ``shots`` must be at least 2.
    """
    if shots < 2:
        raise ValueError(f"need shots >= 2 for a standard error, got {shots}")
    nq = 2 * schedule.n
    const, coeffs = decomposition
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
        stream = np.random.SeedSequence(seed, spawn_key=(cid,))
        counts = sample_shots(state, circuit, shots, stream, nq)
        drawn = np.flatnonzero(counts)  # the composite is needed only here
        freqs = counts[drawn] / shots
        composite = np.zeros(len(drawn))
        for term, value in _term_values(terms, circuit, lambda t: vector(t)[drawn]):
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
    """Sparse full-space matrix of a gate (its qubits are contiguous and ascending)."""
    import scipy.sparse as sp

    q0, local = gate.qubits[0], sp.csr_matrix(_gate_matrix(gate.name))
    low = sp.identity(1 << q0, dtype=complex, format="csr")
    high = sp.identity(1 << (n_qubits - q0 - len(gate.qubits)), dtype=complex, format="csr")
    return sp.kron(high, sp.kron(local, low)).tocsr()


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
