"""Measurement circuits for cliques under the Jordan-Wigner and parity mappings.

Qubit layout is the up-then-down convention: mode p of spin s lives on qubit
p + s*N, for 2N qubits total.  A circuit is a flat gate list executed left to
right; a gate's ``qubits`` are contiguous and ascending, listed explicitly,
and its matrix is indexed with the first listed qubit as the most
significant bit.

Each circuit has two stages.  A nearest-neighbor fermionic-swap network
first moves every hopping operator onto two adjacent slots (l, l+1) of its
spin block, chosen by ``swapnet.adjacent_target``.  A constant-depth layer
then rotates those adjacent hopping terms into the computational basis: a
Bell-basis rotation (CNOT(l, l+1) then H(l)) per pair under Jordan-Wigner, a
single Hadamard on each pair's left slot l under parity.  Number operators
are already diagonal in both mappings.

Under Jordan-Wigner an adjacent-mode fermionic swap is the standard 2-qubit
gate (|01> <-> |10>, |11> -> -|11>).  Under parity it touches one extra
qubit below the pair because occupations are stored as cumulative parities;
at the very first qubit the gate reduces to a 2-qubit form.

Each gate name has one exact matrix, ``GATE_SIGNS``: a scale times an
integer sign matrix, and the only description of a gate that any module
reads.  Gate validation, the Pauli image tables, the schedule file's
``gate_matrices`` and the statevector simulator's gate kernels all read it,
so emitting, writing and checking a schedule never loads numpy.

Every gate is Clifford, so decode tables are exact: the Pauli form of the
operator that the swap network leaves on its slots is conjugated through
its own rotation gates and must come out diagonal on the operator's own
support.  No other rotation gate reaches that support: a pair on (l, l+1)
has support {l, l+1} under Jordan-Wigner and {l-1, l, l+1} under parity, a
number operator on slot t has {t} or {t-1, t}, and every other pair's gates
sit on its own left slot l' <= l-2 or l' >= l+2 and the slot after it.  A
pair's left slot is at most N-2, so under parity no up-block Hadamard sits
on qubit N-1, the only qubit the blocks can share, and the other block
cannot change the table either.  Hopping operators decode to {-1, 0, +1},
number operators to {0, 1}.

One decode path turns a conjugated form into a table, for emission and the
tripwire alike.  It is a pure function of the form, the support and whether
the operator is a number operator, so it is cached on those and each
distinct conjugated form is decoded once.  ``conjugation_problems``
conjugates every operator's full form through its clique's whole circuit,
uncached, and compares each decode with that circuit's own table.  The
operators of one clique go through the circuit together, column-packed
(``pauli.conjugate_all``): each gate is one call of its compiled column
rule, whatever the number of strings.

A clique is one up-spin block times one down-spin block (see ``universe``),
and many cliques share a block, so emission works a block at a time.  Each
distinct block is built once (``_block``): its network, per-layer swap
gates, rotation layers (``_rotation``), the check that the network leaves
every operator on its slots, and each operator's decode table.  A table
depends only on the operator's slot, whether it is a pair, its spin and
the mapping, so there are at most 2N-1 per spin and mapping, each made once
(``_slot_table``).  Emission builds one immutable ``Gate``
per ``(name, qubits)`` and shares each block's gate tuples among the
circuits that use them; per clique only the merge is made: the two blocks'
swap layers, then their rotation layers, up block first.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import zip_longest

from . import pauli
from .graphcheck import lower_bound
from .swapnet import SwapNetwork, adjacent_target, odd_even_sort
from .universe import (
    SPIN_NAMES, UP, DOWN, HoppingOp, MeasurementClique, Universe, construction_total,
)


class SignMatrix(namedtuple("SignMatrix", ["scale", "signs"])):
    """A gate's matrix exactly: ``scale`` (a float) times the integer matrix
    ``signs`` (a tuple of rows), rows and columns indexed with the first
    listed qubit as the most significant bit."""

    __slots__ = ()

    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row's nonzero entries as (column, sign) pairs, a positive sign
        first, with rows and columns reindexed little-endian: bit i of a
        local index is the i-th listed qubit."""
        k = len(self.signs).bit_length() - 1
        rev = [int(f"{i:0{k}b}"[::-1], 2) for i in range(1 << k)]
        return tuple(
            tuple(sorted(((c, s) for c in range(1 << k) if (s := self.signs[rev[r]][rev[c]])),
                         key=lambda e: -e[1]))
            for r in range(1 << k)
        )


# a gate's name fixes its matrix
GATE_SIGNS = {
    # adjacent-mode fermionic swap, Jordan-Wigner: qubits (l, l+1)
    "FSWAP2": SignMatrix(1.0, ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, -1))),
    # adjacent-mode fermionic swap, parity mapping, interior: qubits
    # (g-1, g, g+1); it is (I X I - Z X Z + Z Z I + I Z Z) / 2
    "FSWAP3": SignMatrix(1.0, (
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0),
        (0, 0, -1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
    )),
    # the same gate at the global boundary g = 0: qubits (0, 1); it is
    # (X I - X Z + Z I + Z Z) / 2
    "FSWAP_EDGE": SignMatrix(1.0, ((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0))),
    "CNOT": SignMatrix(1.0, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))),
    "H": SignMatrix(1 / math.sqrt(2), ((1, 1), (1, -1))),
}


class InvalidSwapError(ValueError):
    """Fermionic swap requested across the spin-block boundary."""


class DiagonalizationError(RuntimeError):
    """A clique operator failed to conjugate to diagonal form."""


class Gate:
    """A named gate on ``qubits``; the name fixes the matrix (``GATE_SIGNS``).

    Immutable, and equal only to itself: emission shares one per
    ``(name, qubits)``.
    """

    __slots__ = ("name", "qubits")

    name: str
    qubits: tuple[int, ...]

    def __init__(self, name: str, qubits: tuple[int, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", qubits)
        fixed = GATE_SIGNS.get(name)
        if fixed is None:
            raise ValueError(f"unknown gate: {name!r}")
        first, k = qubits[0], len(fixed.signs).bit_length() - 1
        if qubits != tuple(range(first, first + k)):
            raise ValueError(f"{name} needs {k} contiguous ascending qubits: {self}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: a Gate is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: a Gate is immutable")

    def __repr__(self) -> str:
        return f"Gate(name={self.name!r}, qubits={self.qubits!r})"

    def sign_matrix(self) -> SignMatrix:
        return GATE_SIGNS[self.name]


class DecodeTable(namedtuple("DecodeTable", ["qubits", "values"])):
    """Eigenvalue lookup for one clique operator after its circuit.

    ``values[i]`` is the eigenvalue for the ``qubits`` bits packed with the
    first listed qubit as the most significant bit.
    """

    __slots__ = ()


class MeasCircuit(namedtuple("MeasCircuit", ["gates", "depth", "decode"])):
    """One clique's circuit: the ``gates`` tuple, its ``depth`` and a
    ``DecodeTable`` per clique operator (``decode``).  Replaying its swap
    gates gives each spin block's mode permutation."""

    __slots__ = ()

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def qubit_index(mode: int, spin: int, n: int) -> int:
    """Up-then-down layout: spin-up modes first, spin-down modes after."""
    return mode + spin * n


@cache
def _gate(name: str, qubits: tuple[int, ...]) -> Gate:
    """The one shared ``Gate`` per ``(name, qubits)``, validated once."""
    return Gate(name, qubits)


def map_fswap(l: int, spin: int, mapping: str, n: int) -> Gate:
    """Gate for the fermionic swap of modes (l, l+1) inside one spin block."""
    if not 0 <= l < n - 1:
        raise InvalidSwapError(f"swap ({l}, {l + 1}) leaves the block of {n} modes")
    g = qubit_index(l, spin, n)
    if mapping == "jw":
        return _gate("FSWAP2", (g, g + 1))
    if mapping == "parity":
        if g == 0:
            return _gate("FSWAP_EDGE", (0, 1))
        return _gate("FSWAP3", (g - 1, g, g + 1))
    raise ValueError(f"unknown mapping: {mapping!r}")


def _rotation(spin: int, lefts: tuple[int, ...], mapping: str,
              n: int) -> tuple[tuple[Gate, ...], ...]:
    """Basis-rotation layers of a spin block whose hopping operators sit on
    slots (l, l+1), l in ``lefts``, acting on each pair's left qubit: a
    CNOT layer then a Hadamard layer under Jordan-Wigner, the Hadamard layer
    alone under parity, and no layer without pairs.  Each distinct block
    makes its tuple once (``_block``), shared by every circuit that holds
    the block; its gates are the shared ``_gate`` objects."""
    if mapping not in ("jw", "parity"):
        raise ValueError(f"unknown mapping: {mapping!r}")
    if not lefts:
        return ()
    lows = [qubit_index(l, spin, n) for l in lefts]
    hadamards = tuple([_gate("H", (q,)) for q in lows])
    if mapping == "jw":
        return tuple([_gate("CNOT", (q, q + 1)) for q in lows]), hadamards
    return (hadamards,)


@cache
def _network(target: tuple[int, ...]) -> SwapNetwork:
    """The sorting network of one spin block's target permutation."""
    return odd_even_sort(target)


@cache
def _block_swaps(spin: int, mapping: str, n: int) -> tuple[Gate, ...]:
    """``map_fswap(l, spin, mapping, n)`` for every left slot l of the block."""
    return tuple(map_fswap(l, spin, mapping, n) for l in range(n - 1))


@cache
def _decode(form: frozenset, support: tuple[int, ...], is_number: bool) -> DecodeTable | str:
    """Decode table of a conjugated form that must be diagonal on ``support``,
    or why it has none.  Nothing else enters it, so each distinct conjugated
    form is decoded once."""
    paulis = dict(form)
    if not pauli.is_diagonal(paulis):
        return "conjugated operator is not diagonal"
    if not set(pauli.support(paulis)) <= set(support):
        return f"conjugated operator acts outside {support}"
    values = pauli.diagonal_values(paulis, support)  # in halves
    if not set(values) <= ({0, 2} if is_number else {-2, 0, 2}):
        return f"eigenvalues {[v / 2 for v in sorted(set(values))]}"
    return DecodeTable(support, tuple(v // 2 for v in values))


def _decode_from_diagonal(
    support: tuple[int, ...], paulis: pauli.PauliForm, is_number: bool, *what
) -> DecodeTable:
    """Decode table of a conjugated operator that must be diagonal on ``support``.

    ``what`` names the operator in the error, its parts joined by spaces; the
    text is built only when there is an error.
    """
    decoded = _decode(frozenset(paulis.items()), support, is_number)
    if isinstance(decoded, str):
        raise DiagonalizationError(f"{' '.join(map(str, what))}: {decoded}")
    return decoded


@cache
def _slot_table(spin: int, l: int, is_pair: bool, mapping: str, n: int) -> DecodeTable:
    """Decode table of the operator on slot l of spin block ``spin``: the
    pair on (l, l+1), or the number operator on l, conjugated through its
    own rotation gates only, since no other rotation gate reaches its
    support."""
    op = HoppingOp(l, l + 1 if is_pair else l, spin)
    form = pauli.operator_paulis(op, mapping, n)
    gates = [g for layer in _rotation(spin, (l,) if is_pair else (), mapping, n) for g in layer]
    (image,) = pauli.conjugate_all([form], gates, 2 * n)
    return _decode_from_diagonal(pauli.support(form), image, op.is_number, op, "on its slots")


# one spin block's share of every circuit that holds it: its swap gates per
# network layer, its rotation layers and each operator's decode table, in
# block order
_Block = namedtuple("_Block", ["layers", "rotation", "tables"])


@cache
def _block(ops: tuple[HoppingOp, ...], spin: int, mapping: str, n: int) -> _Block:
    """Sort one spin block and check that its network leaves each operator
    on the slots ``adjacent_target`` gave it: a hopping operator on
    (l, l+1), its smaller mode on its left slot l."""
    target = adjacent_target(ops, n)
    net = _network(target)
    lefts, tables = [], []
    for op in ops:
        a, b = net.permutation[op.p], net.permutation[op.q]
        if (a, b) != (target[op.p], target[op.q]):
            raise DiagonalizationError(f"{op}: swap network left it on slots {a}, {b}")
        l = min(a, b)
        if not op.is_number:
            lefts.append(l)
        tables.append(_slot_table(spin, l, not op.is_number, mapping, n))
    fswaps = _block_swaps(spin, mapping, n)
    layers = tuple(tuple([fswaps[l] for l in layer]) for layer in net.layers)
    rotation = _rotation(spin, tuple(lefts), mapping, n)
    return _Block(layers, rotation, tuple(tables))


def emit(clique: MeasurementClique, mapping: str, n: int) -> MeasCircuit:
    """Swap network plus basis rotation for one clique, with decode tables."""
    if mapping not in ("jw", "parity"):
        raise ValueError(f"unknown mapping: {mapping!r}")
    up_ops, down_ops = clique.ops_for_spin(UP), clique.ops_for_spin(DOWN)
    up, down = _block(up_ops, UP, mapping, n), _block(down_ops, DOWN, mapping, n)

    # the two blocks share each swap layer, then each rotation layer, up block first
    gates: list[Gate] = []
    depth = 0
    for up_layers, down_layers in ((up.layers, down.layers), (up.rotation, down.rotation)):
        for up_layer, down_layer in zip_longest(up_layers, down_layers, fillvalue=()):
            gates += up_layer
            gates += down_layer
        depth += max(len(up_layers), len(down_layers))

    decode = dict(zip(up_ops + down_ops, up.tables + down.tables))
    return MeasCircuit(tuple(gates), depth, decode)


SCHEDULE_VERSION = 7

# only non-standard gate matrices go into the schedule file
_SERIALIZED_MATRICES = {"FSWAP2", "FSWAP3", "FSWAP_EDGE"}


class Schedule:
    """All emitted circuits for one universe and mapping."""

    def __init__(self, mapping: str, universe: Universe, circuits: list[MeasCircuit]) -> None:
        self.mapping = mapping
        self.universe = universe
        self.circuits = circuits

    @property
    def n(self) -> int:
        return self.universe.n

    def stats(self) -> dict:
        depths = [c.depth for c in self.circuits]
        gate_counts = [c.gate_count for c in self.circuits]
        hist: dict[int, int] = {}
        for d in depths:
            hist[d] = hist.get(d, 0) + 1
        n = self.n
        return {
            "orbitals": n,
            "qubits": 2 * n,
            "plane_order": self.universe.pi,
            "mapping": self.mapping,
            "families": self.universe.family_counts(),
            "cliques_total": len(self.circuits),
            "closed_form_total": 2 * n * n - 2 * n + 1,
            "construction_total": construction_total(n),
            "cover_lower_bound": lower_bound(n),
            "depth_max": max(depths),
            # some clique holds the pair (0, n-1): nearest-neighbour swaps
            # close its gap of n-1 by at most 2 a layer, then it is rotated
            "depth_lower_bound": -(-(n - 2) // 2) + len(_rotation(UP, (0,), self.mapping, n)),
            "depth_histogram": dict(sorted(hist.items())),
            "gate_count_total": sum(gate_counts),
            "gate_count_max": max(gate_counts),
        }


def emit_schedule(universe: Universe, mapping: str) -> Schedule:
    """Emit every clique's circuit."""
    circuits = [emit(c, mapping, universe.n) for c in universe.cliques]
    return Schedule(mapping, universe, circuits)


def conjugation_problems(schedule: Schedule) -> list[str]:
    """Tripwire: every clique operator's full form, conjugated through its
    whole circuit, swap network included, must decode exactly to its table."""
    problems: list[str] = []
    n = schedule.n
    full = cache(lambda op: pauli.operator_paulis(op, schedule.mapping, n))
    for mc, circ in zip(schedule.universe.cliques, schedule.circuits):
        conjugated = pauli.conjugate_all([full(op) for op in mc.ops], circ.gates, 2 * n)
        for op, form in zip(mc.ops, conjugated):
            table = circ.decode[op]
            try:
                got = _decode_from_diagonal(
                    table.qubits, form, op.is_number, "clique", mc.id, op
                )
            except DiagonalizationError as exc:
                problems.append(str(exc))
                continue
            if got != table:
                problems.append(f"clique {mc.id} {op}: decodes to {got.values}, "
                                f"table says {table.values}")
    return problems


def _matrix_to_pairs(matrix: SignMatrix) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs of a gate's matrix."""
    return [[float(matrix.scale * s), 0.0] for row in matrix.signs for s in row]


def _op_to_list(op: HoppingOp) -> list:
    return [op.p, op.q, SPIN_NAMES[op.spin]]


# json.dumps(value, sort_keys=True, separators=(",", ":")) without building
# an encoder per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Texts(dict):
    """Encoded texts by key, each made by ``make`` on first use; a hit is one
    dict lookup, so ``map(texts.__getitem__, keys)`` stays in C."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _schedule_chunks(schedule: Schedule) -> Iterator[str]:
    """The schedule's JSON text, one clique record at a time.

    The text is ``json.dumps`` of the whole document with sorted keys and
    ``(",", ":")`` separators, plus a newline; each record is written from
    one template with its keys in that order.  A clique's ``gates`` are
    indices into ``gate_defs``, one ``{name, qubits}`` per distinct gate in
    order of first use; ``gate_matrices`` holds each non-standard gate name's
    matrix once.  Both tables sort after ``cliques``, so they are written
    last, once every gate has been seen.  A record's ``decode`` lists
    the operators in ``mc.ops`` order.  No mode permutation is written:
    replaying each swap gate on its top two qubits gives it.

    Texts are made once and then looked up: a gate's index per gate object
    (emission shares one per ``(name, qubits)``; an object not seen before
    gets the index of its ``(name, qubits)``), and the text of each operator,
    decode record and family.
    """
    gate_index: dict[tuple[str, tuple[int, ...]], int] = {}  # in order of first use
    gate_text = _Texts(lambda g: str(gate_index.setdefault((g.name, g.qubits), len(gate_index))))
    op_text = _Texts(lambda op: _dumps(_op_to_list(op)))
    # a decode record's members after "op", in sorted key order
    table_text = _Texts(lambda t: f'"qubits":{_dumps(t.qubits)},"values":{_dumps(t.values)}')
    # (op, table) -> the op's decode record
    record_text = _Texts(lambda item: f'{{"op":{op_text[item[0]]},{table_text[item[1]]}}}')
    family_text = _Texts(_dumps)

    # "cliques" sorts before every other top-level key
    yield '{"cliques":['
    for i, (mc, circ) in enumerate(zip(schedule.universe.cliques, schedule.circuits)):
        decode = ",".join(map(record_text.__getitem__,
                              zip(mc.ops, map(circ.decode.__getitem__, mc.ops))))
        gates = ",".join(map(gate_text.__getitem__, circ.gates))
        yield (f'{"," if i else ""}{{"decode":[{decode}],"depth":{circ.depth:d},'
               f'"family":{family_text[mc.family]},"gates":[{gates}],"id":{mc.id:d},'
               f'"source":{_dumps(mc.source)}}}')
    gate_defs = _dumps([{"name": name, "qubits": qubits} for name, qubits in gate_index])
    names = {name for name, _ in gate_index} & _SERIALIZED_MATRICES
    matrices = _dumps({name: _matrix_to_pairs(GATE_SIGNS[name]) for name in names})
    yield (f'],"families":{_dumps(schedule.universe.family_counts())},'
           f'"gate_defs":{gate_defs},"gate_matrices":{matrices},'
           f'"mapping":{_dumps(schedule.mapping)},"n_orbitals":{_dumps(schedule.n)},'
           f'"plane_order":{_dumps(schedule.universe.pi)},"version":{_dumps(SCHEDULE_VERSION)}}}\n')


def schedule_json(schedule: Schedule) -> str:
    """Deterministic byte-stable serialization."""
    return "".join(_schedule_chunks(schedule))


def schedule_to_dict(schedule: Schedule) -> dict:
    return json.loads(schedule_json(schedule))


def write_schedule(schedule: Schedule, path: str) -> None:
    """Write the schedule clique by clique; the file equals ``schedule_json``."""
    with open(path, "w") as f:
        f.writelines(_schedule_chunks(schedule))


def schedule_file_matches(schedule: Schedule, path: str) -> bool:
    """True when the file holds exactly the schedule's text, byte for byte."""
    with open(path, "rb") as f:
        for chunk in _schedule_chunks(schedule):
            data = chunk.encode()
            if f.read(len(data)) != data:
                return False
        return not f.read(1)


def load_schedule_dict(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _diff_json(expected, actual, path: str, out: list[str], limit: int = 10) -> None:
    if len(out) >= limit:
        return
    if type(expected) is not type(actual):
        out.append(f"{path}: expected {type(expected).__name__}, got {type(actual).__name__}")
        return
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            elif key not in expected:
                out.append(f"{path}.{key}: unexpected")
            else:
                _diff_json(expected[key], actual[key], f"{path}.{key}", out, limit)
        return
    if isinstance(expected, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(actual)}, expected {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff_json(e, a, f"{path}[{i}]", out, limit)
        return
    if expected != actual:
        out.append(f"{path}: {actual!r} != expected {expected!r}")


def verify_schedule_dict(data: dict, schedule: Schedule) -> list[str]:
    """Every divergence of a loaded schedule document from ``schedule``.

    A file for another size, mapping or format version, or one of this size
    on another plane, is reported by its header alone.
    """
    if not isinstance(data, dict):
        return [f"schedule: expected dict, got {type(data).__name__}"]
    expected = schedule_to_dict(schedule)
    problems = [
        f"{key}: file has {data.get(key)!r}, expected {expected[key]!r}"
        for key in ("version", "n_orbitals", "mapping")
        if data.get(key) != expected[key]
    ]
    # the plane order follows from the size, so it is news only at the same size
    if not problems and data.get("plane_order") != expected["plane_order"]:
        problems.append(f"plane_order: file has {data.get('plane_order')!r}, "
                        f"expected {expected['plane_order']!r}")
    if not problems:
        _diff_json(expected, data, "schedule", problems)
    return problems
