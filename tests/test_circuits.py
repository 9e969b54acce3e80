"""Gate construction, emission, decode tables, and schedule serialization."""

import hashlib
import json
import math
from functools import cache, partial, reduce
from itertools import zip_longest

import numpy as np
import pytest

from planesched import circuits, pauli
from planesched.circuits import (
    GATE_SIGNS,
    DiagonalizationError,
    Gate,
    InvalidSwapError,
    MeasCircuit,
    Schedule,
    _decode_from_diagonal,
    _matrix_to_pairs,
    _rotation,
    _schedule_chunks,
    emit,
    emit_schedule,
    load_schedule_dict,
    map_fswap,
    qubit_index,
    schedule_file_matches,
    schedule_json,
    schedule_to_dict,
    verify_schedule_dict,
    write_schedule,
)
from planesched.cli import main
from planesched.swapnet import SwapNetwork, position_vector
from planesched.universe import DOWN, SPIN_NAMES, UP, HoppingOp, build_universe


def gate_matrix(name: str) -> np.ndarray:
    """A gate's complex matrix from ``GATE_SIGNS``, first listed qubit most significant."""
    return np.array(GATE_SIGNS[name].signs, dtype=complex) * GATE_SIGNS[name].scale


def test_jw_fswap_action():
    m = gate_matrix("FSWAP2")
    assert np.allclose(m @ m.conj().T, np.eye(4))
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m @ m, np.eye(4))
    # |00> fixed, |01> <-> |10>, |11> picks up the exchange sign
    assert m[0, 0] == 1
    assert m[1, 2] == 1 and m[2, 1] == 1 and m[1, 1] == 0
    assert m[3, 3] == -1


def occupation_swap_oracle(n_bits: int, boundary: bool) -> np.ndarray:
    """Expected parity-basis swap matrix, built from occupation bookkeeping.

    Bits are cumulative parities; swapping the two occupations f_a, f_b of
    the covered modes rewrites the middle bit and applies the exchange sign
    when both modes are occupied.
    """
    dim = 1 << n_bits
    out = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n_bits - 1 - i)) & 1 for i in range(n_bits)]
        if boundary:
            prefix, b_mid, b_top = 0, bits[0], bits[1]
        else:
            prefix, b_mid, b_top = bits[0], bits[1], bits[2]
        f_a = prefix ^ b_mid
        f_b = b_mid ^ b_top
        new_mid = prefix ^ f_b
        sign = -1 if f_a and f_b else 1
        new_bits = list(bits)
        new_bits[0 if boundary else 1] = new_mid
        new_idx = 0
        for b in new_bits:
            new_idx = (new_idx << 1) | b
        out[new_idx, idx] = sign
    return out


def test_parity_fswap_matches_occupation_oracle():
    assert np.allclose(gate_matrix("FSWAP3"), occupation_swap_oracle(3, boundary=False))
    assert np.allclose(gate_matrix("FSWAP_EDGE"), occupation_swap_oracle(2, boundary=True))
    for m in map(gate_matrix, ("FSWAP3", "FSWAP_EDGE")):
        assert np.allclose(m @ m.conj().T, np.eye(len(m)))


def numpy_gate_matrices() -> dict[str, np.ndarray]:
    """The gate matrices as built before the exact sign tables: Kronecker
    sums of Paulis and a Hadamard divided by np.sqrt(2)."""
    i2, x, z = np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    kron = partial(reduce, np.kron)
    return {
        "FSWAP2": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
                           dtype=complex),
        "FSWAP3": (kron([i2, x, i2]) - kron([z, x, z]) + kron([z, z, i2]) + kron([i2, z, z])) / 2,
        "FSWAP_EDGE": (kron([x, i2]) - kron([x, z]) + kron([z, i2]) + kron([z, z])) / 2,
        "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    }


def test_gate_signs_equal_the_numpy_construction():
    reference = numpy_gate_matrices()
    assert reference.keys() == GATE_SIGNS.keys()
    for name, (scale, signs) in GATE_SIGNS.items():
        assert all(type(s) is int for row in signs for s in row), name
        assert np.array_equal(np.array(signs) * scale, reference[name]), name
    assert GATE_SIGNS["H"].scale == 1 / math.sqrt(2) != math.sqrt(0.5)


def test_map_fswap_placement():
    g = map_fswap(1, UP, "jw", 4)
    assert g.name == "FSWAP2" and g.qubits == (1, 2)
    g = map_fswap(1, DOWN, "jw", 4)
    assert g.qubits == (5, 6)
    g = map_fswap(1, UP, "parity", 4)
    assert g.name == "FSWAP3" and g.qubits == (0, 1, 2)
    g = map_fswap(0, UP, "parity", 4)
    assert g.name == "FSWAP_EDGE" and g.qubits == (0, 1)
    # the first down-block swap reaches one qubit into the up block
    g = map_fswap(0, DOWN, "parity", 4)
    assert g.name == "FSWAP3" and g.qubits == (3, 4, 5)


def test_map_fswap_rejects_block_crossing():
    with pytest.raises(InvalidSwapError):
        map_fswap(3, UP, "jw", 4)
    with pytest.raises(InvalidSwapError):
        map_fswap(-1, UP, "parity", 4)


def test_diag_layer_shapes():
    cnots, hadamards = _rotation(UP, 1, "jw", 4)
    assert [g.name for g in cnots + hadamards] == ["CNOT", "H"]
    assert cnots[0].qubits == (0, 1) and hadamards[0].qubits == (0,)
    cnots, hadamards = _rotation(DOWN, 2, "jw", 5)
    assert [g.qubits for g in cnots] == [(5, 6), (7, 8)]
    assert [g.qubits for g in hadamards] == [(5,), (7,)]
    (hadamards,) = _rotation(UP, 2, "parity", 5)
    assert [g.name for g in hadamards] == ["H", "H"]
    assert [g.qubits for g in hadamards] == [(0,), (2,)]
    (hadamards,) = _rotation(DOWN, 1, "parity", 5)
    assert [(g.name, g.qubits) for g in hadamards] == [("H", (5,))]
    assert _rotation(UP, 0, "jw", 4) == ()
    assert _rotation(DOWN, 0, "parity", 4) == ()
    with pytest.raises(ValueError, match="unknown mapping"):
        _rotation(UP, 1, "bk", 4)


def test_emit_particle_number_clique_is_identity():
    for n, mapping in [(3, "jw"), (3, "parity")]:
        u = build_universe(n)
        circ = emit(u.cliques[0], mapping, n)
        assert circ.gates == ()
        assert circ.depth == 0
        for p in range(n):
            table = circ.decode[HoppingOp(p, p, UP)]
            if mapping == "jw":
                assert table.qubits == (p,)
                assert table.values == (0, 1)
            elif p == 0:
                assert table.qubits == (0,)
                assert table.values == (0, 1)
            else:
                # occupation is the XOR of adjacent cumulative-parity bits
                assert table.qubits == (p - 1, p)
                assert table.values == (0, 1, 1, 0)


def test_emit_single_pair_is_one_bell_rotation():
    u = build_universe(2)
    clique = next(
        c
        for c in u.cliques
        if c.family == "one_body" and any(op.spin == UP and not op.is_number for op in c.ops)
    )
    circ = emit(clique, "jw", 2)
    names = [g.name for g in circ.gates]
    assert names == ["CNOT", "H"]
    table = circ.decode[HoppingOp(0, 1, UP)]
    assert table.qubits == (0, 1)
    assert set(table.values) <= {-1, 0, 1}


def test_decode_values_in_allowed_range():
    for n, mapping in [(3, "jw"), (3, "parity"), (4, "jw"), (4, "parity")]:
        schedule = emit_schedule(build_universe(n), mapping)
        for mc, circ in zip(schedule.universe.cliques, schedule.circuits):
            for op in mc.ops:
                table = circ.decode[op]
                allowed = {0, 1} if op.is_number else {-1, 0, 1}
                assert set(table.values) <= allowed
                assert len(table.values) == 1 << len(table.qubits)


def test_emit_reference_clique_depth():
    n = 6
    u = build_universe(n)
    from planesched.plane import gamma_point, point_code

    anchor = point_code(gamma_point(4, 3), 5)
    clique = next(c for c in u.cliques if c.source == ("anchor", anchor))
    members = [(op.p, op.q) for op in clique.ops if op.spin == UP]
    assert members == [(0, 2), (1, 3), (4, 5)]
    circ = emit(clique, "jw", n)
    assert circ.depth <= n + 2


def test_gate_qubits_contiguous_and_in_range():
    for n, mapping in [(4, "jw"), (4, "parity"), (6, "jw")]:
        schedule = emit_schedule(build_universe(n), mapping)
        for circ in schedule.circuits:
            for g in circ.gates:
                qs = g.qubits
                assert list(qs) == list(range(qs[0], qs[0] + len(qs)))
                assert 0 <= qs[0] and qs[-1] < 2 * n


def test_schedule_serialization_is_deterministic():
    a = schedule_json(emit_schedule(build_universe(4), "jw"))
    b = schedule_json(emit_schedule(build_universe(4), "jw"))
    assert a == b
    assert a.endswith("\n")


def test_schedule_roundtrip_and_verification(tmp_path):
    schedule = emit_schedule(build_universe(3), "parity")
    path = tmp_path / "sched.json"
    write_schedule(schedule, str(path))
    data = load_schedule_dict(str(path))
    assert verify_schedule_dict(data, schedule) == []
    # corrupt one gate qubit: verification localizes the divergence
    clique = next(c for c in data["cliques"] if c["gates"])
    data["gate_defs"][clique["gates"][0]]["qubits"][0] += 1
    problems = verify_schedule_dict(data, schedule)
    assert problems
    assert any("gate_defs" in p for p in problems)
    # point one clique's first gate at another gate
    data = load_schedule_dict(str(path))
    clique = next(c for c in data["cliques"] if c["gates"])
    clique["gates"][0] = (clique["gates"][0] + 1) % len(data["gate_defs"])
    problems = verify_schedule_dict(data, schedule)
    assert problems
    assert any("gates" in p for p in problems)


def test_verify_schedule_dict_reports_header_mismatch():
    data = schedule_to_dict(emit_schedule(build_universe(4), "parity"))
    problems = verify_schedule_dict(data, emit_schedule(build_universe(3), "jw"))
    assert problems == [
        "n_orbitals: file has 4, expected 3",
        "mapping: file has 'parity', expected 'jw'",
    ]
    assert verify_schedule_dict([], emit_schedule(build_universe(3), "jw")) == [
        "schedule: expected dict, got list"
    ]


# schedule files stay byte-identical for a fixed (orbitals, mapping, version)
SCHEDULE_SHA256 = {
    (3, "jw"): "88a7730b8c74f0e261516f9ca94ed15a4aba39918fb6f8947fa0f5af7d74ed86",
    (3, "parity"): "a7af11632c50b0aca874d550871e6398b4dd84e2f9f53ab3f63a1aa96b413b9c",
    (4, "jw"): "1b9d8c3dc5f30c90d96f85d96a77a589e8220ecded716fea1f594482a35f149f",
    (4, "parity"): "f88b2fef1ff102be772599899bb3c3f0664198b2611a3a51abf3d88f14a1fb6b",
    (6, "jw"): "e07dccae8d4128694bd66a78559f6133c69b40412ac71090022b89aeda56d883",
    (6, "parity"): "6c87dbb49ac6b592203e136a6f8395795db75787c04c192163e4847ddff3cc1c",
    (7, "jw"): "63db15854577bd58733d485f8cc133819670567146092be2c3494061dcd55415",
    (7, "parity"): "ed5adfe5f1851fcac5c5b8db4cbeff17dd34b5d4120dfb1c2d8c9239b9f99bcf",
    (10, "jw"): "86bdb81a5bfacdcc7004b6d9e61e17fea42e269fd9fe8ad8d545f76048855203",
    (10, "parity"): "951dc75bab2694eb5db00d56969da14c5b3e5c0441dd4340291d60ce2e5d5460",
    (18, "jw"): "0f975f9ff868208bb8f9fec60ddc9ad188c0265fbacaf4a6c1b780067eaacc29",
    (18, "parity"): "0815e232a05defa6d94172887ef16ddfb01ce77e663a3dce9a2bbcafe85bb75b",
}

# the same schedules in format version 1, written by ``v1_chunks``
V1_SCHEDULE_SHA256 = {
    (3, "jw"): "608c6b82e51a67324b2f083f7785d3c21ab1a1142395ee23a137aa9959b4cb09",
    (3, "parity"): "1ec5b635c33b3dec6d330930eb1337278816d9f364d9b1a9e29f5dde3ebc7a2d",
    (4, "jw"): "929e837b680abdcdaec18cf371f5a49c0c0a2b8c2c7f660a338523c954db61f3",
    (4, "parity"): "7c4ab7e2980016c649945f370d8a8a8574df43e6044424dc56cea66adb49c650",
    (6, "jw"): "2ddd19731163daced61f9f8599817b444f53f0bdec2098da6c48925f105120f5",
    (6, "parity"): "fb72dd0f0f911ad66ef4ddf25fb426e231abff6d6a72b19004ffe19437c6aea3",
    (7, "jw"): "9545119b5b468b795ab51f51c7dd8e5a7d90278709f68f769480edeb59b9f7da",
    (7, "parity"): "b6eeeb273f8b333628d014c624f153c94cf25e7c3511a43d57cd77ea595aea14",
    (10, "jw"): "be00e34b049b8c89925512c62915177ead956be36bb7aafaa715751b457a8bf1",
    (10, "parity"): "7889144a0049c70a6883d7dcae83c15e1365743614c6a50e67fe191ca851bec2",
    (18, "jw"): "b0ec52a434b42558161768e4d93243cffec9a9e70b692c57c3e622e3d5d35c01",
    (18, "parity"): "e0bcff73b51dbcc4fdd2baa7487a9fe85bb5865596fc838cc593901de0a04d29",
}


@pytest.mark.parametrize("n, mapping", sorted(SCHEDULE_SHA256))
def test_schedule_bytes_are_pinned(n, mapping):
    text = schedule_json(emit_schedule(build_universe(n), mapping))
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_SHA256[n, mapping]


_v1_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _v1_object(members: dict[str, str]) -> str:
    return "{" + ",".join(f"{_v1_dumps(k)}:{v}" for k, v in sorted(members.items())) + "}"


def v1_chunks(schedule):
    """Reference encoder: the version-1 writer, every gate written as an
    object and each FSWAP gate with its matrix inline."""
    matrix_text = cache(lambda name: _v1_dumps(
        [[float(v.real), float(v.imag)] for v in gate_matrix(name).reshape(-1)]))

    def encode_gate(gate):
        members = {"name": _v1_dumps(gate.name), "qubits": _v1_dumps(gate.qubits)}
        if gate.name in ("FSWAP2", "FSWAP3", "FSWAP_EDGE"):
            members["matrix"] = matrix_text(gate.name)
        return _v1_object(members)

    gate_text = cache(encode_gate)
    op_text = cache(lambda op: _v1_dumps([op.p, op.q, SPIN_NAMES[op.spin]]))
    table_text = cache(lambda t: f'"qubits":{_v1_dumps(t.qubits)},"values":{_v1_dumps(t.values)}')

    yield '{"cliques":['
    for i, (mc, circ) in enumerate(zip(schedule.universe.cliques, schedule.circuits)):
        decode = ",".join([f'{{"op":{op_text(op)},{table_text(circ.decode[op])}}}'
                           for op in mc.ops])
        record = _v1_object({
            "id": _v1_dumps(mc.id),
            "family": _v1_dumps(mc.family),
            "source": _v1_dumps(mc.source),
            "ops": "[" + ",".join(map(op_text, mc.ops)) + "]",
            "gates": "[" + ",".join(map(gate_text, circ.gates)) + "]",
            "decode": "[" + decode + "]",
            "depth": _v1_dumps(circ.depth),
            "permutation": _v1_dumps({"up": circ.permutations[UP],
                                      "down": circ.permutations[DOWN]}),
        })
        yield ("," if i else "") + record
    tail = _v1_object({
        "version": _v1_dumps(1),
        "n_orbitals": _v1_dumps(schedule.n),
        "mapping": _v1_dumps(schedule.mapping),
        "plane_order": _v1_dumps(schedule.universe.pi),
        "families": _v1_dumps(schedule.universe.family_counts()),
    })
    yield "]," + tail[1:] + "\n"


def expand_to_v1(data: dict) -> dict:
    """A version-2 document in version-1 shape: each gate index replaced by
    its ``{name, qubits}`` plus the name's matrix, if it has one."""
    defs, matrices = data.pop("gate_defs"), data.pop("gate_matrices")
    gates = [dict(d, matrix=matrices[d["name"]]) if d["name"] in matrices else d
             for d in defs]
    for clique in data["cliques"]:
        clique["gates"] = [gates[i] for i in clique["gates"]]
    data["version"] = 1
    return data


@pytest.mark.parametrize("mapping", ["jw", "parity"])
@pytest.mark.parametrize("n", [*range(2, 11), 18])
def test_v2_expands_to_the_v1_reference(n, mapping):
    """Format 2 loses nothing: expanded, it is exactly the version-1
    document, and the reference encoder still gives the pinned v1 bytes."""
    schedule = emit_schedule(build_universe(n), mapping)
    expanded = expand_to_v1(schedule_to_dict(schedule))
    cliques = iter(expanded.pop("cliques"))
    digest = hashlib.sha256()
    # parsed one clique record at a time, so the v1 text is never held whole
    chunks = v1_chunks(schedule)
    head = next(chunks)
    assert head == '{"cliques":['
    digest.update(head.encode())
    for chunk in chunks:
        digest.update(chunk.encode())
        if chunk.startswith("],"):
            assert json.loads("{" + chunk[2:]) == expanded
        else:
            assert json.loads(chunk.lstrip(",")) == next(cliques)
    assert next(cliques, None) is None
    if (n, mapping) in V1_SCHEDULE_SHA256:
        assert digest.hexdigest() == V1_SCHEDULE_SHA256[n, mapping]


def test_shared_emission_caches_keep_each_schedule_pinned():
    # networks, gates and rotation layers are shared between cliques and
    # between calls; interleaved sizes and mappings must not leak into each other
    for n, mapping in ((6, "parity"), (7, "jw"), (6, "jw"), (10, "parity"), (7, "parity")):
        schedule = emit_schedule(build_universe(n), mapping)
        text = schedule_json(schedule)
        assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_SHA256[n, mapping]
        assert all(type(circ.gates) is tuple for circ in schedule.circuits)
    # the shared rotation layers are immutable, so no caller can empty them
    assert type(_rotation(UP, 2, "jw", 4)) is tuple
    assert [type(layer) for layer in _rotation(UP, 2, "jw", 4)] == [tuple, tuple]
    assert _rotation(UP, 2, "jw", 4) != ()
    assert _rotation(DOWN, 0, "jw", 4) == ()
    # one object per distinct gate
    assert map_fswap(2, DOWN, "parity", 6) is map_fswap(2, DOWN, "parity", 6)
    assert _rotation(UP, 1, "jw", 4)[1][0] is _rotation(UP, 2, "jw", 4)[1][0]
    assert _rotation(UP, 1, "parity", 4)[0][0] is _rotation(UP, 1, "jw", 4)[1][0]


def test_written_file_equals_schedule_json(tmp_path):
    for mapping in ("jw", "parity"):
        schedule = emit_schedule(build_universe(6), mapping)
        path = tmp_path / f"{mapping}.json"
        write_schedule(schedule, str(path))
        assert path.read_bytes() == schedule_json(schedule).encode()
        assert schedule_file_matches(schedule, str(path))
        assert schedule_to_dict(schedule) == json.loads(path.read_bytes())


def test_schedule_file_matches_rejects_any_byte_change(tmp_path):
    schedule = emit_schedule(build_universe(3), "jw")
    text = schedule_json(schedule)
    path = tmp_path / "sched.json"
    for changed in (text[:-1], text + " ", text.replace('"id":5', '"id":6'),
                    json.dumps(json.loads(text), indent=2)):
        assert changed != text
        path.write_text(changed)
        assert not schedule_file_matches(schedule, str(path))


def corrupt(data: dict, kind: str) -> None:
    """Break a loaded version-2 document the way a faulty writer could."""
    gates = next(c["gates"] for c in data["cliques"] if c["gates"])
    if kind == "index_out_of_range":
        gates[0] = len(data["gate_defs"])
    elif kind == "index_to_another_gate":
        gates[0] = (gates[0] + 1) % len(data["gate_defs"])
    elif kind == "gate_def_shifted":
        qubits = data["gate_defs"][gates[0]]["qubits"]
        qubits[:] = [q + 1 for q in qubits]
    elif kind == "matrix_perturbed":
        data["gate_matrices"]["FSWAP3"][9][0] += 1e-9
    elif kind == "version_1":
        expand_to_v1(data)


@pytest.mark.parametrize("kind, where", [
    ("index_out_of_range", "].gates[0]: "),
    ("index_to_another_gate", "].gates[0]: "),
    ("gate_def_shifted", "schedule.gate_defs["),
    ("matrix_perturbed", "schedule.gate_matrices.FSWAP3[9][0]: "),
    ("version_1", "version: file has 1, expected 2"),
])
def test_verify_out_rejects_corrupt_v2_file(tmp_path, capsys, kind, where):
    path = str(tmp_path / "sched.json")
    args = ["--orbitals", "4", "--mapping", "parity", "--out", path]
    assert main(["schedule", *args]) == 0
    data = load_schedule_dict(path)
    corrupt(data, kind)
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w") as f:
        f.write(text)
    if kind == "version_1":
        # byte for byte the file the version-1 writer made
        assert hashlib.sha256(text.encode()).hexdigest() == V1_SCHEDULE_SHA256[4, "parity"]
    capsys.readouterr()
    assert main(["verify", *args]) == 1
    problems = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
                if line.startswith("schedule_file_problem: ")]
    assert problems and all(where in p for p in problems), problems
    if kind == "version_1":
        # a file in another format is reported by its header alone
        assert problems == ["version: file has 1, expected 2"]


def test_schedule_matrices_serialized_as_pairs():
    for mapping, fswaps in (("parity", {"FSWAP3", "FSWAP_EDGE"}), ("jw", {"FSWAP2"})):
        data = schedule_to_dict(emit_schedule(build_universe(3), mapping))
        assert all(set(d) == {"name", "qubits"} for d in data["gate_defs"])
        names = {d["name"] for d in data["gate_defs"]}
        assert fswaps | {"H"} <= names
        # only non-standard gates carry a matrix; CNOT and H never do
        assert set(data["gate_matrices"]) == fswaps
        for name, pairs in data["gate_matrices"].items():
            # row-major [re, im] pairs: 64 for FSWAP3, 16 for the 2-qubit swaps
            assert len(pairs) == gate_matrix(name).size
            assert all(len(entry) == 2 for entry in pairs)
            matrix = np.array([complex(*entry) for entry in pairs])
            assert np.array_equal(matrix, gate_matrix(name).reshape(-1))


def test_qubit_index_convention():
    assert qubit_index(2, UP, 5) == 2
    assert qubit_index(2, DOWN, 5) == 7


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", (1, 1))


def reference_rotation_layer(m_up: int, m_down: int, mapping: str, n: int) -> list[Gate]:
    """The clique-wide rotation layer: a CNOT on each sorted pair's lower
    qubit and the next, up pairs then down pairs, under Jordan-Wigner only,
    then a Hadamard on each pair's lower qubit in the same order."""
    pair_qubits = [qubit_index(2 * l, spin, n)
                   for spin, m in ((UP, m_up), (DOWN, m_down)) for l in range(m)]
    hadamards = [Gate("H", (q,)) for q in pair_qubits]
    if mapping == "jw":
        return [Gate("CNOT", (q, q + 1)) for q in pair_qubits] + hadamards
    return hadamards


@cache
def reference_sorted_decode(sorted_op: HoppingOp, m_up: int, m_down: int, mapping: str,
                            n: int):
    """Decode table of an operator on its sorted slots, conjugated alone
    through the whole clique's rotation layer."""
    local = pauli.operator_paulis(sorted_op, mapping, n)
    rotated = pauli.conjugate_all(
        [local], reference_rotation_layer(m_up, m_down, mapping, n), 2 * n)[0]
    return _decode_from_diagonal(
        pauli.support(local), rotated, sorted_op.is_number, sorted_op, "on its sorted slots"
    )


def reference_emit(clique, mapping: str, n: int) -> MeasCircuit:
    """The per-operator emitter: each clique's blocks sorted again, and each
    operator checked and relabeled onto its sorted slots one at a time."""
    targets, pairs, nets = {}, {}, {}
    for spin in (UP, DOWN):
        ops = clique.ops_for_spin(spin)
        targets[spin] = tuple(position_vector(ops, n))
        pairs[spin] = sum(not op.is_number for op in ops)
        nets[spin] = circuits.odd_even_sort(targets[spin])
    gates = []
    up, down = ([[map_fswap(l, spin, mapping, n) for l in layer.swaps]
                 for layer in nets[spin].layers] for spin in (UP, DOWN))
    for up_layer, down_layer in zip_longest(up, down, fillvalue=[]):
        gates += up_layer + down_layer
    m_up, m_down = pairs[UP], pairs[DOWN]
    gates += reference_rotation_layer(m_up, m_down, mapping, n)
    rotation_depth = (2 if mapping == "jw" else 1) if m_up + m_down else 0
    decode = {}
    for op in clique.ops:
        a, b = nets[op.spin].permutation[op.p], nets[op.spin].permutation[op.q]
        if (a, b) != (targets[op.spin][op.p], targets[op.spin][op.q]):
            raise DiagonalizationError(f"{op}: swap network left it on slots {a}, {b}")
        decode[op] = reference_sorted_decode(HoppingOp(a, b, op.spin), m_up, m_down, mapping, n)
    return MeasCircuit(tuple(gates), max(len(up), len(down)) + rotation_depth, decode,
                       {UP: nets[UP].permutation, DOWN: nets[DOWN].permutation})


def reference_chunks(schedule):
    """The writer that encodes every member of every clique record and sorts
    the record's keys, with gate indices looked up by ``(name, qubits)``."""
    gate_index = {}
    op_text = cache(lambda op: _v1_dumps([op.p, op.q, SPIN_NAMES[op.spin]]))
    table_text = cache(lambda t: f'"qubits":{_v1_dumps(t.qubits)},"values":{_v1_dumps(t.values)}')
    yield '{"cliques":['
    for i, (mc, circ) in enumerate(zip(schedule.universe.cliques, schedule.circuits)):
        decode = ",".join([f'{{"op":{op_text(op)},{table_text(circ.decode[op])}}}'
                           for op in mc.ops])
        gates = [gate_index.setdefault((g.name, g.qubits), len(gate_index))
                 for g in circ.gates]
        yield ("," if i else "") + _v1_object({
            "id": _v1_dumps(mc.id),
            "family": _v1_dumps(mc.family),
            "source": _v1_dumps(mc.source),
            "ops": "[" + ",".join(map(op_text, mc.ops)) + "]",
            "gates": _v1_dumps(gates),
            "decode": "[" + decode + "]",
            "depth": _v1_dumps(circ.depth),
            "permutation": _v1_dumps({"up": circ.permutations[UP],
                                      "down": circ.permutations[DOWN]}),
        })
    names = {name for name, _ in gate_index}
    yield "]," + _v1_object({
        "version": _v1_dumps(2),
        "n_orbitals": _v1_dumps(schedule.n),
        "mapping": _v1_dumps(schedule.mapping),
        "plane_order": _v1_dumps(schedule.universe.pi),
        "families": _v1_dumps(schedule.universe.family_counts()),
        "gate_defs": _v1_dumps([{"name": name, "qubits": q} for name, q in gate_index]),
        "gate_matrices": _v1_dumps({name: _matrix_to_pairs(GATE_SIGNS[name])
                                    for name in names & {"FSWAP2", "FSWAP3", "FSWAP_EDGE"}}),
    })[1:] + "\n"


def circuit_key(circ: MeasCircuit):
    """A circuit's content, gates by ``(name, qubits)``."""
    return ([(g.name, g.qubits) for g in circ.gates], circ.depth, circ.decode,
            circ.permutations)


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_block_emission_and_writer_equal_the_per_operator_references(mapping):
    for n in range(2, 13):
        universe = build_universe(n)
        schedule = emit_schedule(universe, mapping)
        for mc, circ in zip(universe.cliques, schedule.circuits):
            assert circuit_key(circ) == circuit_key(reference_emit(mc, mapping, n)), (n, mc.id)
        assert schedule_json(schedule) == "".join(reference_chunks(schedule)), n
        # gates rebuilt as fresh objects reach the writer's (name, qubits)
        # fallback for every gate, and must give the same indices
        fresh = Schedule(n, mapping, universe, [
            circ._replace(gates=tuple(Gate(g.name, g.qubits) for g in circ.gates))
            for circ in schedule.circuits
        ])
        assert "".join(_schedule_chunks(fresh)) == schedule_json(schedule), n


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_no_rotation_gate_reaches_the_other_blocks_sorted_operators(mapping):
    """Why each block's decode tables are its own: the rotation gates of one
    spin block act on no qubit of any sorted operator of the other block, so
    the other block's rotation leaves those operators' forms unchanged."""
    for n in range(2, 13):
        for mc in build_universe(n).cliques:
            rotated, supports = {}, {}
            for spin in (UP, DOWN):
                ops = mc.ops_for_spin(spin)
                perm = circuits.odd_even_sort(tuple(position_vector(ops, n))).permutation
                pairs = sum(not op.is_number for op in ops)
                rotated[spin] = {q for layer in _rotation(spin, pairs, mapping, n)
                                 for g in layer for q in g.qubits}
                supports[spin] = [
                    (op, set(pauli.support(pauli.operator_paulis(
                        HoppingOp(perm[op.p], perm[op.q], spin), mapping, n))))
                    for op in ops
                ]
            for spin, other in ((UP, DOWN), (DOWN, UP)):
                for op, support in supports[other]:
                    assert not rotated[spin] & support, (n, mc.id, op)


@pytest.fixture
def clear_block_caches():
    """Empty the emission caches before and after a test that patches the
    sorting network, so no broken block outlives it."""
    caches = (circuits._network, circuits._block, circuits._slot_tables)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_network_that_leaves_an_operator_off_its_slot_is_a_diagonalization_error(
        monkeypatch, clear_block_caches):
    # a network that never swaps: A(0, 2) keeps slots 0, 2 but was given 0, 1
    monkeypatch.setattr(circuits, "odd_even_sort",
                        lambda p: SwapNetwork(len(p), (), tuple(range(len(p)))))
    universe = build_universe(4)
    clique = next(c for c in universe.cliques if HoppingOp(0, 2, UP) in c.ops)
    text = "HoppingOp(p=0, q=2, spin=0): swap network left it on slots 0, 2"
    with pytest.raises(DiagonalizationError) as exc:
        reference_emit(clique, "jw", 4)
    assert str(exc.value) == text
    for mapping in ("jw", "parity"):
        with pytest.raises(DiagonalizationError) as exc:
            emit(clique, mapping, 4)
        assert str(exc.value) == text
