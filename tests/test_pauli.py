"""Exact Pauli propagation against the scipy full-space oracle in ``sim``
and against the Fraction-based kernel it replaced."""

import math
from fractions import Fraction
from functools import cache, reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesched import circuits, pauli, sim
from planesched.cli import main
from planesched.circuits import (
    DecodeTable,
    DiagonalizationError,
    Gate,
    Schedule,
    SignMatrix,
    _decode_from_diagonal,
    emit_schedule,
)
from planesched.universe import UP, HoppingOp, build_universe

_SINGLE = {
    (0, 0): np.eye(2),
    (1, 0): np.array([[0, 1], [1, 0]]),
    (0, 1): np.array([[1, 0], [0, -1]]),
    (1, 1): np.array([[0, -1j], [1j, 0]]),
}


def dense(form, n_qubits: int) -> np.ndarray:
    """Full matrix of a Pauli form (coefficients in halves), qubit 0 the
    least significant index bit."""
    out = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for (x, z), c in form.items():
        term = np.eye(1)
        for q in range(n_qubits):
            term = np.kron(_SINGLE[(x >> q) & 1, (z >> q) & 1], term)
        out += c / 2 * term
    return out


def test_operator_forms_match_sparse_operators():
    for n in (3, 4):
        for mapping in ("jw", "parity"):
            for spin in (0, 1):
                for p in range(n):
                    for q in range(p, n):
                        op = HoppingOp(p, q, spin)
                        form = pauli.operator_paulis(op, mapping, n)
                        assert len(form) <= 2
                        expected = sim.operator_matrix(op, mapping, n).toarray()
                        assert np.array_equal(dense(form, 2 * n), expected), (op, mapping)


def test_conjugation_matches_scipy_oracle():
    for n in (3, 4):
        universe = build_universe(n)
        for mapping in ("jw", "parity"):
            schedule = emit_schedule(universe, mapping)
            for mc, circ in zip(universe.cliques, schedule.circuits):
                for op in mc.ops:
                    exact = pauli.conjugate_all(
                        [pauli.operator_paulis(op, mapping, n)], circ.gates, 2 * n)[0]
                    oracle = sim.conjugate_by_circuit(
                        sim.operator_matrix(op, mapping, n), circ.gates, 2 * n
                    )
                    assert np.allclose(dense(exact, 2 * n), oracle.toarray(), atol=1e-12)
                    assert pauli.is_diagonal(exact)


def test_non_clifford_gate_rejected():
    # CCZ = diag(1, ..., 1, -1) fits the exact sign form but maps X on its
    # first qubit to X (x) CZ, which is no Pauli string
    ccz = SignMatrix(1.0, tuple(tuple(-1 if i == j == 7 else int(i == j) for j in range(8))
                                for i in range(8)))
    ccz_gate = SimpleNamespace(name="CCZ", qubits=(0, 1, 2), sign_matrix=lambda: ccz)
    with pytest.raises(ValueError, match="not Clifford"):
        pauli.conjugate_all([pauli.operator_paulis(HoppingOp(0, 1, UP), "jw", 2)], [ccz_gate], 4)


def reference_image_table(name, matrix):
    """The first implementation: one conjugation per string and one trace
    per candidate image string, in Python loops."""
    k = matrix.shape[0].bit_length() - 1
    strings = list(product(range(1 << k), repeat=2))
    basis = {
        (x, z): reduce(np.kron, [_SINGLE[(x >> i) & 1, (z >> i) & 1] for i in range(k)])
        for x, z in strings
    }
    table = {}
    for s in strings:
        image = matrix @ basis[s] @ matrix.conj().T
        for t in strings:
            sign = round(np.trace(basis[t] @ image).real / (1 << k))
            if sign and np.max(np.abs(image - sign * basis[t])) < 1e-9:
                table[s] = (*t, sign)
                break
        else:
            raise ValueError(f"gate {name} is not Clifford")
    return table


def sign_matrix_array(signs: SignMatrix) -> np.ndarray:
    return np.array(signs.signs, dtype=complex) * signs.scale


@pytest.mark.parametrize("name", sorted(circuits.GATE_SIGNS))
def test_image_table_matches_reference(name):
    signs = circuits.GATE_SIGNS[name]
    k = len(signs.signs).bit_length() - 1
    table = pauli._image_table(name, signs)
    reference = reference_image_table(name, sign_matrix_array(signs))
    assert table == [reference[x, z] for x in range(1 << k) for z in range(1 << k)]
    assert all(type(v) is int for image in table for v in image)


@pytest.mark.parametrize("signs", [
    SignMatrix(1.0, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))),  # CZ
    SignMatrix(1.0, ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))),  # SWAP
    SignMatrix(0.5, ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))),  # H (x) H
    SignMatrix(1.0, ((0, -1), (1, 0))),  # X Z = -iY, which flips the sign of X and of Z
])
def test_image_table_of_other_clifford_sign_matrices(signs):
    """Sign matrices outside the gate set, whose images carry other phases."""
    reference = reference_image_table("other", sign_matrix_array(signs))
    k = len(signs.signs).bit_length() - 1
    assert pauli._image_table("other", signs) == [
        reference[x, z] for x in range(1 << k) for z in range(1 << k)]


def test_gate_name_fixes_its_matrix_and_arity():
    assert Gate("FSWAP3", (2, 3, 4)).sign_matrix() is circuits.GATE_SIGNS["FSWAP3"]
    for name, qubits in (("T", (0,)), ("FSWAP3", (2, 3)), ("CNOT", (1, 0)), ("FSWAP2", (0, 2))):
        with pytest.raises(ValueError):
            Gate(name, qubits)


def test_decode_rejects_each_failure_without_tolerance():
    hop = pauli.operator_paulis(HoppingOp(0, 1, UP), "jw", 2)
    with pytest.raises(DiagonalizationError, match="not diagonal"):
        _decode_from_diagonal((0, 1), hop, False, "hop")
    number = pauli.operator_paulis(HoppingOp(1, 1, UP), "jw", 2)
    with pytest.raises(DiagonalizationError, match="outside"):
        _decode_from_diagonal((0,), number, True, "number")
    with pytest.raises(DiagonalizationError, match="eigenvalues"):
        _decode_from_diagonal((0,), {(0, 1): 1}, False, "half")
    rotated = pauli.conjugate_all([hop], [Gate("CNOT", (0, 1)), Gate("H", (0,))], 4)[0]
    assert _decode_from_diagonal((0, 1), rotated, False, "hop").values == (0, 1, 0, -1)
    with pytest.raises(DiagonalizationError, match="eigenvalues"):
        _decode_from_diagonal((0, 1), rotated, True, "hop as number")


def with_moved_swap(schedule, cid: int, shift: int, i: int | None = None):
    """The schedule with clique ``cid``'s gate ``i`` (by default its first swap
    gate) moved by ``shift`` qubits."""
    circ = schedule.circuits[cid]
    if i is None:
        i = next(i for i, g in enumerate(circ.gates) if g.name.startswith("FSWAP"))
    moved = Gate(circ.gates[i].name, tuple(q + shift for q in circ.gates[i].qubits))
    gates = circ.gates[:i] + (moved,) + circ.gates[i + 1 :]
    circs = list(schedule.circuits)
    circs[cid] = circ._replace(gates=gates)
    return Schedule(schedule.n, schedule.mapping, schedule.universe, circs), gates


def test_moved_swap_trips_exact_tripwire_and_oracle(capsys, monkeypatch):
    # the swap network is invisible to emission's local decode, so only the
    # full-circuit tripwire can see this fault
    n = 3
    universe = build_universe(n)
    for mapping in ("jw", "parity"):
        schedule = emit_schedule(universe, mapping)
        assert circuits.conjugation_problems(schedule) == []
        for cid, circ in enumerate(schedule.circuits):
            if not any(g.name.startswith("FSWAP") for g in circ.gates):
                continue
            first = next(g for g in circ.gates if g.name.startswith("FSWAP"))
            shift = 1 if first.qubits[-1] + 1 < 2 * n else -1
            broken, gates = with_moved_swap(schedule, cid, shift)
            assert circuits.conjugation_problems(broken), (mapping, cid)
            worst = max(
                sim.offdiagonal_norm(
                    sim.conjugate_by_circuit(sim.operator_matrix(op, mapping, n), gates, 2 * n)
                )
                for op in universe.cliques[cid].ops
            )
            assert worst > 0.25, (mapping, cid)

    broken, _ = with_moved_swap(emit_schedule(universe, "jw"), 2, 1)
    monkeypatch.setattr(circuits, "emit_schedule", lambda u, m: broken)
    assert main(["verify", "--orbitals", "3"]) == 1
    out = capsys.readouterr().out
    assert "emission_check: pass" in out
    assert "conjugation_tripwire: fail" in out
    assert "verify_result: fail" in out


@cache
def cached_schedule(n: int, mapping: str):
    return emit_schedule(build_universe(n), mapping)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_any_moved_swap_trips_exact_tripwire(data):
    n = data.draw(st.integers(3, 8), label="n")
    mapping = data.draw(st.sampled_from(["jw", "parity"]), label="mapping")
    schedule = cached_schedule(n, mapping)
    swaps = {}  # clique id -> indices of its swap gates
    for cid, circ in enumerate(schedule.circuits):
        found = [i for i, g in enumerate(circ.gates) if g.name.startswith("FSWAP")]
        if found:
            swaps[cid] = found
    cid = data.draw(st.sampled_from(sorted(swaps)), label="clique")
    i = data.draw(st.sampled_from(swaps[cid]), label="gate")
    qubits = schedule.circuits[cid].gates[i].qubits
    shift = data.draw(st.sampled_from(
        [d for d in (-1, 1) if qubits[0] + d >= 0 and qubits[-1] + d < 2 * n]
    ), label="shift")
    broken, _ = with_moved_swap(schedule, cid, shift, i)
    problems = circuits.conjugation_problems(broken)
    assert problems and all(p.startswith(f"clique {cid} ") for p in problems)


def test_decode_cache_cannot_hide_a_corrupt_table():
    n, mapping = 4, "jw"
    schedule = emit_schedule(build_universe(n), mapping)
    assert circuits.conjugation_problems(schedule) == []  # every decode now cached
    # two cliques whose operators conjugate to the same form on the same
    # support decode through one cache entry
    owner: dict = {}  # decode inputs -> the first (clique id, op) with them
    pair = None
    for mc, circ in zip(schedule.universe.cliques, schedule.circuits):
        for op in mc.ops:
            form = pauli.conjugate_all(
                [pauli.operator_paulis(op, mapping, n)], circ.gates, 2 * n)[0]
            key = (frozenset(form.items()), circ.decode[op].qubits, op.is_number)
            first = owner.setdefault(key, (mc.id, op))
            if pair is None and first[0] != mc.id:
                pair = (first, (mc.id, op))
    assert pair is not None
    for cid, op in pair:
        good = schedule.circuits[cid].decode[op]
        values = list(good.values)
        values[0] = values[0] - 1 if values[0] > 0 else values[0] + 1
        bad = DecodeTable(good.qubits, tuple(values))
        circ = schedule.circuits[cid]
        circs = list(schedule.circuits)
        circs[cid] = circ._replace(decode={**circ.decode, op: bad})
        broken = Schedule(schedule.n, schedule.mapping, schedule.universe, circs)
        assert circuits.conjugation_problems(broken) == [
            f"clique {cid} {op}: decodes to {good.values}, table says {bad.values}"
        ]
    assert circuits.conjugation_problems(schedule) == []


_REFERENCE_TABLES: dict = {}


def reference_conjugate(paulis, gates):
    """The Fraction-based conjugation the half-unit kernel replaced:
    rational coefficients, image tables keyed by (x, z), and a touched-qubit
    mask that only grows."""
    paulis = {s: Fraction(c, 2) for s, c in paulis.items()}
    touched = reduce(int.__or__, (x | z for x, z in paulis), 0)
    for gate in gates:
        low, k = gate.qubits[0], len(gate.qubits)
        mask = ((1 << k) - 1) << low
        if not touched & mask:
            continue
        if gate.name not in _REFERENCE_TABLES:
            _REFERENCE_TABLES[gate.name] = reference_image_table(
                gate.name, sign_matrix_array(gate.sign_matrix()))
        table, moved = _REFERENCE_TABLES[gate.name], {}
        for (x, z), c in paulis.items():
            if (x | z) & mask:
                nx, nz, sign = table[(x & mask) >> low, (z & mask) >> low]
                x, z = x & ~mask | nx << low, z & ~mask | nz << low
                c = c if sign > 0 else -c
                touched |= (nx | nz) << low
            moved[x, z] = c
        paulis = moved
    return paulis


def reference_decode(support, paulis, is_number) -> DecodeTable:
    """The Fraction-based decode the cached half-unit one replaced."""
    assert not any(x for x, _ in paulis)
    bits = reduce(int.__or__, (z for _, z in paulis), 0)
    assert not bits & ~sum(1 << q for q in support)
    den = math.lcm(*(c.denominator for c in paulis.values()))
    terms = [(z, c.numerator * (den // c.denominator)) for (_, z), c in paulis.items()]
    k = len(support)
    values = []
    for i in range(1 << k):
        ones = sum(1 << q for b, q in enumerate(support) if (i >> (k - 1 - b)) & 1)
        values.append(Fraction(sum(-a if (z & ones).bit_count() & 1 else a for z, a in terms), den))
    assert set(values) <= ({0, 1} if is_number else {-1, 0, 1})
    return DecodeTable(support, tuple(int(v) for v in values))


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_every_operator_decodes_as_the_fraction_reference(mapping):
    for n in range(2, 11):
        schedule = emit_schedule(build_universe(n), mapping)
        assert circuits.conjugation_problems(schedule) == [], n
        for mc, circ in zip(schedule.universe.cliques, schedule.circuits):
            for op in mc.ops:
                table = circ.decode[op]
                full = pauli.operator_paulis(op, mapping, n)
                exact = pauli.conjugate_all([full], circ.gates, 2 * n)[0]
                reference = reference_conjugate(full, circ.gates)
                assert {s: Fraction(c, 2) for s, c in exact.items()} == reference, (n, op)
                assert reference_decode(table.qubits, reference, op.is_number) == table, (n, op)
                assert _decode_from_diagonal(table.qubits, exact, op.is_number, "") == table


OTHER_CLIFFORDS = [
    SignMatrix(1.0, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))),  # CZ
    SignMatrix(1.0, ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))),  # SWAP
    SignMatrix(0.5, ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))),  # H (x) H
    SignMatrix(1.0, ((0, -1), (1, 0))),  # X Z = -iY
]


@pytest.mark.parametrize("name, signs", [
    *sorted(circuits.GATE_SIGNS.items()),
    *((f"other{i}", signs) for i, signs in enumerate(OTHER_CLIFFORDS)),
])
def test_column_rule_matches_image_table(name, signs):
    """Every local input string is one row; the rule must send each row
    where the image table does, above a bystander qubit it must not touch."""
    table = pauli._image_table(name, signs)
    k = len(signs.signs).bit_length() - 1
    rows = range(len(table))  # row t holds the local string x = t >> k, z = t % 2^k
    xs = [0b1011] + [sum(1 << t for t in rows if t >> k >> i & 1) for i in range(k)]
    zs = [0b0110] + [sum(1 << t for t in rows if t >> i & 1) for i in range(k)]
    flips = pauli._column_rule(name, signs)(xs, zs, 1, 0b100)
    assert (xs[0], zs[0]) == (0b1011, 0b0110)
    for t in rows:
        nx = sum((xs[1 + i] >> t & 1) << i for i in range(k))
        nz = sum((zs[1 + i] >> t & 1) << i for i in range(k))
        sign = -1 if (flips ^ 0b100) >> t & 1 else 1
        assert (nx, nz, sign) == table[t], (name, t)


def test_non_clifford_gate_has_no_column_rule():
    ccz = SignMatrix(1.0, tuple(tuple(-1 if i == j == 7 else int(i == j) for j in range(8))
                                for i in range(8)))
    with pytest.raises(ValueError, match="not Clifford"):
        pauli._column_rule("CCZ", ccz)
    gate = SimpleNamespace(name="CCZ", qubits=(0, 1, 2), sign_matrix=lambda: ccz)
    with pytest.raises(ValueError, match="not Clifford"):
        pauli.conjugate_all([{(1, 0): 1}], [gate], 3)


@cache
def image_table(name):
    return pauli._image_table(name, circuits.GATE_SIGNS[name])


def reference_string_conjugate(paulis, gates):
    """The per-string conjugation the column-packed one replaced: each string
    walks through every gate that acts on some string."""
    strings = [[x, z, c] for (x, z), c in paulis.items()]
    acting = reduce(int.__or__, (x | z for x, z in paulis), 0)
    for gate in gates:
        low, k = gate.qubits[0], len(gate.qubits)
        local = (1 << k) - 1
        if not (acting >> low) & local:
            continue
        table = image_table(gate.name)
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


def reference_problems(schedule):
    """The tripwire the column-packed one replaced, operator by operator."""
    problems = []
    for mc, circ in zip(schedule.universe.cliques, schedule.circuits):
        for op in mc.ops:
            table = circ.decode[op]
            full = pauli.operator_paulis(op, schedule.mapping, schedule.n)
            try:
                got = _decode_from_diagonal(
                    table.qubits, reference_string_conjugate(full, circ.gates), op.is_number,
                    "clique", mc.id, op,
                )
            except DiagonalizationError as exc:
                problems.append(str(exc))
                continue
            if got != table:
                problems.append(f"clique {mc.id} {op}: decodes to {got.values}, "
                                f"table says {table.values}")
    return problems


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tripwire_flags_what_the_per_string_loop_flags(data):
    n = data.draw(st.integers(2, 10), label="n")
    mapping = data.draw(st.sampled_from(["jw", "parity"]), label="mapping")
    schedule = cached_schedule(n, mapping)
    swaps = [(cid, i) for cid, circ in enumerate(schedule.circuits)
             for i, g in enumerate(circ.gates) if g.name.startswith("FSWAP")]
    if not swaps:  # n = 2: no circuit has a swap
        assert circuits.conjugation_problems(schedule) == reference_problems(schedule) == []
        return
    cid, i = data.draw(st.sampled_from(swaps), label="swap")
    qubits = schedule.circuits[cid].gates[i].qubits
    shift = data.draw(st.sampled_from(
        [None] + [d for d in (-1, 1) if qubits[0] + d >= 0 and qubits[-1] + d < 2 * n]
    ), label="shift (None drops the swap)")
    if shift is None:
        circ = schedule.circuits[cid]
        circs = list(schedule.circuits)
        circs[cid] = circ._replace(gates=circ.gates[:i] + circ.gates[i + 1:])
        broken = Schedule(n, mapping, schedule.universe, circs)
    else:
        broken, _ = with_moved_swap(schedule, cid, shift, i)
    assert circuits.conjugation_problems(broken) == reference_problems(broken)


def test_conjugate_all_equals_one_form_at_a_time():
    n, mapping = 5, "parity"
    schedule = cached_schedule(n, mapping)
    for mc, circ in zip(schedule.universe.cliques, schedule.circuits):
        forms = [pauli.operator_paulis(op, mapping, n) for op in mc.ops]
        together = pauli.conjugate_all(forms, circ.gates, 2 * n)
        assert together == [reference_string_conjugate(f, circ.gates) for f in forms]
        assert together == [pauli.conjugate_all([f], circ.gates, 2 * n)[0] for f in forms]
