"""Gate construction, emission, decode tables, and schedule serialization."""

import hashlib
import json

import numpy as np
import pytest

from planesched.circuits import (
    FSWAP2_MATRIX,
    FSWAP3_MATRIX,
    FSWAP_EDGE_MATRIX,
    DiagonalizationError,
    Gate,
    InvalidSwapError,
    _rotation_layer,
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
from planesched.universe import DOWN, UP, HoppingOp, build_universe


def test_jw_fswap_action():
    m = FSWAP2_MATRIX
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
    assert np.allclose(FSWAP3_MATRIX, occupation_swap_oracle(3, boundary=False))
    assert np.allclose(FSWAP_EDGE_MATRIX, occupation_swap_oracle(2, boundary=True))
    for m in (FSWAP3_MATRIX, FSWAP_EDGE_MATRIX):
        assert np.allclose(m @ m.conj().T, np.eye(len(m)))


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
    gates = _rotation_layer(1, 0, "jw", 4)
    assert [g.name for g in gates] == ["CNOT", "H"]
    assert gates[0].qubits == (0, 1) and gates[1].qubits == (0,)
    gates = _rotation_layer(2, 1, "parity", 5)
    assert [g.name for g in gates] == ["H", "H", "H"]
    assert [g.qubits for g in gates] == [(0,), (2,), (5,)]
    assert _rotation_layer(0, 0, "jw", 4) == ()


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
    for clique in data["cliques"]:
        if clique["gates"]:
            clique["gates"][0]["qubits"][0] += 1
            break
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


def test_shared_emission_caches_keep_each_schedule_pinned():
    # networks, gates and rotation layers are shared between cliques and
    # between calls; interleaved sizes and mappings must not leak into each other
    for n, mapping in ((6, "parity"), (7, "jw"), (6, "jw"), (10, "parity"), (7, "parity")):
        schedule = emit_schedule(build_universe(n), mapping)
        text = schedule_json(schedule)
        assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_SHA256[n, mapping]
        assert all(type(circ.gates) is tuple for circ in schedule.circuits)
    # the shared rotation layer is immutable, so no caller can empty it
    assert type(_rotation_layer(2, 1, "jw", 4)) is tuple
    assert _rotation_layer(2, 1, "jw", 4) != ()
    assert _rotation_layer(0, 0, "jw", 4) == ()
    # one object per distinct gate
    assert map_fswap(2, DOWN, "parity", 6) is map_fswap(2, DOWN, "parity", 6)
    assert _rotation_layer(1, 0, "jw", 4)[1] is _rotation_layer(1, 1, "jw", 4)[2]


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


def test_schedule_matrices_serialized_as_pairs():
    data = schedule_to_dict(emit_schedule(build_universe(3), "parity"))
    seen_fswap3 = False
    for clique in data["cliques"]:
        for gate in clique["gates"]:
            if gate["name"] == "FSWAP3":
                seen_fswap3 = True
                assert len(gate["matrix"]) == 64
                assert all(len(entry) == 2 for entry in gate["matrix"])
            if gate["name"] in ("CNOT", "H"):
                assert "matrix" not in gate
    assert seen_fswap3


def test_qubit_index_convention():
    assert qubit_index(2, UP, 5) == 2
    assert qubit_index(2, DOWN, 5) == 7


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", (1, 1))
