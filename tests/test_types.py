"""Behaviour of the value types, ``Gate`` and the containers: named tuples
keep their fields, defaults, equality, hashing and repr; ``Gate`` is
immutable and equal only to itself; the containers take the same arguments."""

import pytest

from planesched.circuits import GATE_SIGNS, DecodeTable, Gate, MeasCircuit, Schedule, SignMatrix
from planesched.cover import PairClique
from planesched.graphcheck import CoverReport, Graph
from planesched.sim import ExpectationReport
from planesched.swapnet import SwapNetwork
from planesched.universe import DOWN, UP, Hamiltonian, HoppingOp, MeasurementClique, Universe

H0 = HoppingOp(0, 1, UP)
H1 = HoppingOp(2, 2, DOWN)

# type, its fields in order, and values for them
NAMED_TUPLES = [
    (HoppingOp, ("p", "q", "spin"), (0, 1, UP)),
    (SignMatrix, ("scale", "signs"), (1.0, ((1, 0), (0, 1)))),
    (DecodeTable, ("qubits", "values"), ((0, 1), (0, 1, 0, -1))),
    (MeasCircuit, ("gates", "depth", "decode"), ((), 0, {H0: DecodeTable((0, 1), (0, 1, 0, -1))})),
    (MeasurementClique, ("id", "family", "ops", "source"),
     (3, "same_spin", (H0, H1), ("anchor", 5))),
    (PairClique, ("anchor", "members"), ((1, 0, 2), ((0, 1), (2, 3)))),
    (Graph, ("n", "vertices", "edges"), (2, ((0, 0), (0, 1)), frozenset())),
    (SwapNetwork, ("layers", "permutation"), (((1,), (0,)), (1, 2, 0))),
    (ExpectationReport, ("primitives", "energy", "contributions"),
     ({(H0,): 0.5}, -1.0, {"nuclear": -1.5, "part": 0.5})),
]


@pytest.mark.parametrize("cls, fields, values", NAMED_TUPLES,
                         ids=[cls.__name__ for cls, _, _ in NAMED_TUPLES])
def test_named_tuple_fields_equality_and_repr(cls, fields, values):
    assert cls._fields == fields
    made = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert made == by_keyword and made is not by_keyword
    assert tuple(getattr(made, f) for f in fields) == values
    assert repr(made) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    if cls not in (MeasCircuit, ExpectationReport):  # they hold dicts
        assert hash(made) == hash(by_keyword)
        assert len({made, by_keyword}) == 1
    with pytest.raises(AttributeError):
        setattr(made, fields[0], values[0])
    with pytest.raises(AttributeError):
        made.extra = 1  # no instance dict


def test_named_tuple_defaults_and_methods():
    clique = MeasurementClique(0, "part", (H0, H1))
    assert clique.source is None
    assert clique == MeasurementClique(id=0, family="part", ops=(H0, H1), source=None)
    assert clique.ops_for_spin(UP) == (H0,) and clique.ops_for_spin(DOWN) == (H1,)
    assert H0 != HoppingOp(0, 1, DOWN) and not H0.is_number and H1.is_number
    assert H0.indices == frozenset((0, 1))
    net = SwapNetwork(((1,), (0, 2)), (1, 2, 0))
    assert (net.depth, net.swap_count) == (2, 3)
    gates = (Gate("H", (0,)), Gate("CNOT", (0, 1)))
    assert MeasCircuit(gates, 2, {}).gate_count == 2
    graph = Graph(3, ((0, 0), (0, 1), (1, 2)), frozenset({((0, 0), (1, 2))}))
    assert graph.pair_vertices == ((0, 1), (1, 2))
    assert graph.pair_subgraph_edges() == frozenset()


def test_gate_is_immutable_and_equal_only_to_itself():
    gate = Gate("H", (0,))
    twin = Gate(name="H", qubits=(0,))
    assert gate == gate and gate != twin
    assert hash(gate) != hash(twin) and len({gate, twin, gate}) == 2
    assert repr(gate) == "Gate(name='H', qubits=(0,))"
    assert repr(Gate("FSWAP3", (2, 3, 4))) == "Gate(name='FSWAP3', qubits=(2, 3, 4))"
    for attr, value in (("name", "CNOT"), ("qubits", (1,)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(gate, attr, value)
    with pytest.raises(AttributeError):
        del gate.name
    assert (gate.name, gate.qubits) == ("H", (0,))
    assert gate.sign_matrix() is GATE_SIGNS["H"]


def test_gate_validation_messages():
    with pytest.raises(ValueError, match=r"^unknown gate: 'T'$"):
        Gate("T", (0,))
    with pytest.raises(ValueError) as exc:
        Gate("CNOT", (0, 2))
    assert str(exc.value) == (
        "CNOT needs 2 contiguous ascending qubits: Gate(name='CNOT', qubits=(0, 2))")


def test_containers_take_the_same_arguments():
    clique = MeasurementClique(0, "part", (H0,))
    universe = Universe(n=2, pi=2, anchor_groups=[], cliques=[clique])
    assert universe.op_masks == {H0: 1}
    assert len(universe) == 1 and list(universe) == [clique]
    schedule = Schedule(mapping="jw", universe=universe, circuits=[])
    assert (schedule.n, schedule.mapping, schedule.universe, schedule.circuits) == (
        2, "jw", universe, [])
    first, second = CoverReport(), CoverReport()
    assert first.ok and first.clique_violations == [] and first.multiplicity == {}
    assert CoverReport(clique_violations=[(0, (0, 1), (1, 2))]).complete is False
    first.uncovered.append(((0, 1), (2, 3)))
    assert not first.ok and second.uncovered == []  # no shared default list
    ham = Hamiltonian(n_orbitals=1, e_nuc=0.5, h=[[[1.0]], [[2.0]]], g=[[[[[[0.0]]]]] * 2] * 2)
    assert (ham.n_orbitals, ham.e_nuc, ham.h.shape, ham.g.shape) == (
        1, 0.5, (2, 1, 1), (2, 2, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="shape"):
        Hamiltonian(2, 0.0, ham.h, ham.g)
