"""Exact Pauli propagation against the scipy full-space oracle in ``sim``."""

import dataclasses
from fractions import Fraction
from functools import reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from planesched import circuits, pauli, sim
from planesched.cli import main
from planesched.circuits import DiagonalizationError, Gate, _decode_from_diagonal, emit_schedule
from planesched.universe import UP, HoppingOp, build_universe

_SINGLE = {
    (0, 0): np.eye(2),
    (1, 0): np.array([[0, 1], [1, 0]]),
    (0, 1): np.array([[1, 0], [0, -1]]),
    (1, 1): np.array([[0, -1j], [1j, 0]]),
}


def dense(form, n_qubits: int) -> np.ndarray:
    """Full matrix of a Pauli form, qubit 0 the least significant index bit."""
    out = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for (x, z), c in form.items():
        term = np.eye(1)
        for q in range(n_qubits):
            term = np.kron(_SINGLE[(x >> q) & 1, (z >> q) & 1], term)
        out += float(c) * term
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
                    exact = pauli.conjugate(pauli.operator_paulis(op, mapping, n), circ.gates)
                    oracle = sim.conjugate_by_circuit(
                        sim.operator_matrix(op, mapping, n), circ.gates, 2 * n
                    )
                    assert np.allclose(dense(exact, 2 * n), oracle.toarray(), atol=1e-12)
                    assert pauli.is_diagonal(exact)


def test_non_clifford_gate_rejected():
    t_gate = SimpleNamespace(
        name="T", qubits=(0,), resolved_matrix=lambda: np.diag([1, np.exp(0.25j * np.pi)])
    )
    with pytest.raises(ValueError, match="not Clifford"):
        pauli.conjugate(pauli.operator_paulis(HoppingOp(0, 1, UP), "jw", 2), [t_gate])


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


@pytest.mark.parametrize("name", sorted(circuits.GATE_MATRICES))
def test_image_table_matches_reference(name):
    matrix = circuits.GATE_MATRICES[name]
    table = pauli._image_table(name, matrix)
    assert table == reference_image_table(name, matrix)
    assert all(type(v) is int for image in table.values() for v in image)


def test_gate_name_fixes_its_matrix_and_arity():
    assert Gate("FSWAP3", (2, 3, 4)).resolved_matrix() is circuits.FSWAP3_MATRIX
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
        _decode_from_diagonal((0,), {(0, 1): Fraction(1, 2)}, False, "half")
    rotated = pauli.conjugate(hop, [Gate("CNOT", (0, 1)), Gate("H", (0,))])
    assert _decode_from_diagonal((0, 1), rotated, False, "hop").values == (0, 1, 0, -1)
    with pytest.raises(DiagonalizationError, match="eigenvalues"):
        _decode_from_diagonal((0, 1), rotated, True, "hop as number")


def with_moved_swap(schedule, cid: int, shift: int):
    """The schedule with clique ``cid``'s first swap gate moved by ``shift`` qubits."""
    circ = schedule.circuits[cid]
    i = next(i for i, g in enumerate(circ.gates) if g.name.startswith("FSWAP"))
    moved = Gate(circ.gates[i].name, tuple(q + shift for q in circ.gates[i].qubits))
    gates = circ.gates[:i] + (moved,) + circ.gates[i + 1 :]
    circs = list(schedule.circuits)
    circs[cid] = dataclasses.replace(circ, gates=gates)
    return dataclasses.replace(schedule, circuits=circs), gates


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
