"""Gate construction, emission, decode tables, and schedule serialization."""

import hashlib
import json
import math
import re
from functools import cache, partial, reduce
from itertools import zip_longest
from pathlib import Path

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
from planesched.swapnet import SwapNetwork, adjacent_target, odd_even_sort, position_vector
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
    cnots, hadamards = _rotation(UP, (0,), "jw", 4)
    assert [g.name for g in cnots + hadamards] == ["CNOT", "H"]
    assert cnots[0].qubits == (0, 1) and hadamards[0].qubits == (0,)
    cnots, hadamards = _rotation(DOWN, (0, 2), "jw", 5)
    assert [g.qubits for g in cnots] == [(5, 6), (7, 8)]
    assert [g.qubits for g in hadamards] == [(5,), (7,)]
    # a pair may sit on any two adjacent slots, odd left slots included
    cnots, hadamards = _rotation(UP, (3, 1), "jw", 5)
    assert [g.qubits for g in cnots] == [(3, 4), (1, 2)]
    assert [g.qubits for g in hadamards] == [(3,), (1,)]
    (hadamards,) = _rotation(UP, (0, 2), "parity", 5)
    assert [g.name for g in hadamards] == ["H", "H"]
    assert [g.qubits for g in hadamards] == [(0,), (2,)]
    (hadamards,) = _rotation(DOWN, (0,), "parity", 5)
    assert [(g.name, g.qubits) for g in hadamards] == [("H", (5,))]
    (hadamards,) = _rotation(DOWN, (3,), "parity", 5)
    assert [(g.name, g.qubits) for g in hadamards] == [("H", (8,))]
    assert _rotation(UP, (), "jw", 4) == ()
    assert _rotation(DOWN, (), "parity", 4) == ()
    with pytest.raises(ValueError, match="unknown mapping"):
        _rotation(UP, (0,), "bk", 4)


def test_emit_particle_number_clique_is_identity():
    # odd N builds no particle-number clique
    for n, mapping in [(4, "jw"), (4, "parity")]:
        u = build_universe(n)
        assert u.cliques[0].family == "part"
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
    (3, "jw"): "e03aacb5c48ae09a237809124482ccd23e43491559f1fef60048457f92d4601e",
    (3, "parity"): "b6cf1223fcb2e57369c6aa809026889c388ad8e3311f358cc40745d5f3671973",
    (4, "jw"): "64a2cefda32108f21589cebaf44a1e0f0cc82af2bfb80f841913153be260792f",
    (4, "parity"): "985fa2b9d19506306fa1449bdc7b1307ab4c45bc23b92f50932d91855fe3974b",
    (6, "jw"): "f3ad1b0a15f53e8dd1dc683558b9bbe3834f944ae16a1aa980045de0a6dc86e6",
    (6, "parity"): "db0dc660313bb9115b6cfb409907d85b51e3e61c2679c886b052503ab1690f1f",
    (7, "jw"): "1a88d999a075f8738fdbca2b1430d570fd7b22387b660f9bf008979a68de47f1",
    (7, "parity"): "9b10e12d5aae611ba7e703b801d2b7298069165fa69602d1ad490c59581e4041",
    (10, "jw"): "b87e800d868c1c107b6511509481685ba5bf38fbab12f83abb089430676f8b34",
    (10, "parity"): "5664cd765d2872470c171334f82c21a40648ba767b025ba810cdfdc60a0de531",
    (18, "jw"): "78054b9d5a4215af5141d7ab7eb8c4098d76a0a8241f5568f051ec798d3cdedc",
    (18, "parity"): "743f33ff187c54672152c24ca517cd1f591aa7526b14e19f630fe089be6f15a6",
}

# the same schedules in format version 1, written by ``v1_chunks``
V1_SCHEDULE_SHA256 = {
    (3, "jw"): "68b45734e72e5dfc1aed2a573fe704a3d775bbee962e24894716d79941b2a5ff",
    (3, "parity"): "2ddb0aad8ceff7857382dd523aad34d3b2315a2545982dee272fe844d6453fb9",
    (4, "jw"): "defbfe923d452694dce5c3ed9c5227a8a37b87dd0b3c0dc80560f18951efa72d",
    (4, "parity"): "6ec81fd94e5901642ae3522ffa61020e3cc1ae51c3038f450d8d75ff7785e086",
    (6, "jw"): "5ecee31b2025806bd033deec0b84259e7de5188fe575a48b0d63b1002d59bfa0",
    (6, "parity"): "d8fdda6da80cdcd6ae227d1f6ab6285d1ceb891102691fa76433c2d9ff48e9a8",
    (7, "jw"): "ae38e338194e294b4f16fc4fcc87095a92d256ae61322c7eebc9cb05ee83938a",
    (7, "parity"): "9ace963f53c15c50cc8577f94dac79fcf521015d5e602d23821df51e2a71dfcf",
    (10, "jw"): "c5db0678193e3fca2bc4c1d0cbd02ae5e99574bfd0481d0ccc95051b6272b614",
    (10, "parity"): "33491cccb22a44304532fed965e064dbfa5c4c72768eb6d10e238120b80b8495",
    (18, "jw"): "8af0bad7404056aeb9e66c0ca60e768f444268b4410a4ac8867bc65b92e63543",
    (18, "parity"): "7c933fed1123a39a0435bf4143722431b95dfe5856df705571ab34f296beefe8",
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
            "permutation": _v1_dumps(replay_permutations(
                [{"name": g.name, "qubits": g.qubits} for g in circ.gates], schedule.n)),
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


def replay_permutations(gates: list[dict], n: int) -> dict[str, list[int]]:
    """Each spin block's mode permutation (mode -> final slot), replayed from
    the identity: a fermionic swap gate swaps the modes on its top two
    qubits, less N in the down block."""
    lines = {"up": list(range(n)), "down": list(range(n))}  # slot -> mode
    for gate in gates:
        if gate["name"] in ("FSWAP2", "FSWAP3", "FSWAP_EDGE"):
            top = gate["qubits"][-2]
            line, l = (lines["up"], top) if top < n else (lines["down"], top - n)
            line[l], line[l + 1] = line[l + 1], line[l]
    perms = {}
    for spin, line in lines.items():
        perms[spin] = [0] * n
        for slot, mode in enumerate(line):
            perms[spin][mode] = slot
    return perms


def restore_v5(data: dict) -> dict:
    """A format-6 or format-7 document with each clique's ``ops`` and
    ``permutation`` put back, as format 5 wrote them: the ops are the decode
    records' ops in order, and the permutation is replayed from the gates."""
    defs = data["gate_defs"]
    for clique in data["cliques"]:
        clique["ops"] = [record["op"] for record in clique["decode"]]
        clique["permutation"] = replay_permutations(
            [defs[i] for i in clique["gates"]], data["n_orbitals"])
    return data


def expand_to_v1(data: dict) -> dict:
    """A document of format 7 (format 6's layout: that of formats 2 to 5
    less each clique's ``ops`` and ``permutation``) in version-1 shape:
    those two put back (``restore_v5``) and each gate index replaced by its
    ``{name, qubits}`` plus the name's matrix, if it has one."""
    restore_v5(data)
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
    """The gate tables lose nothing: expanded, a document is exactly the
    version-1 document, and the reference encoder still gives the pinned v1
    bytes."""
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


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_swap_gates_replay_each_circuits_permutations(mapping):
    """Formats 6 and 7 write no permutation: the file's swap gates give back
    the permutation each spin block's network realizes."""
    for n in range(2, 13):
        universe = build_universe(n)
        data = schedule_to_dict(emit_schedule(universe, mapping))
        for record, mc in zip(data["cliques"], universe.cliques, strict=True):
            perms = replay_permutations([data["gate_defs"][i] for i in record["gates"]], n)
            assert perms == {
                name: list(odd_even_sort(adjacent_target(mc.ops_for_spin(spin), n)).permutation)
                for name, spin in (("up", UP), ("down", DOWN))}, (n, record["id"])


def test_shared_emission_caches_keep_each_schedule_pinned():
    # networks, gates and rotation layers are shared between cliques and
    # between calls; interleaved sizes and mappings must not leak into each other
    for n, mapping in ((6, "parity"), (7, "jw"), (6, "jw"), (10, "parity"), (7, "parity")):
        schedule = emit_schedule(build_universe(n), mapping)
        text = schedule_json(schedule)
        assert hashlib.sha256(text.encode()).hexdigest() == SCHEDULE_SHA256[n, mapping]
        assert all(type(circ.gates) is tuple for circ in schedule.circuits)
    # the shared rotation layers are immutable, so no caller can empty them
    assert type(_rotation(UP, (0, 2), "jw", 4)) is tuple
    assert [type(layer) for layer in _rotation(UP, (0, 2), "jw", 4)] == [tuple, tuple]
    assert _rotation(UP, (0, 2), "jw", 4) != ()
    assert _rotation(DOWN, (), "jw", 4) == ()
    # one object per distinct gate
    assert map_fswap(2, DOWN, "parity", 6) is map_fswap(2, DOWN, "parity", 6)
    assert _rotation(UP, (0,), "jw", 4)[1][0] is _rotation(UP, (0, 2), "jw", 4)[1][0]
    assert _rotation(UP, (0,), "parity", 4)[0][0] is _rotation(UP, (0,), "jw", 4)[1][0]


def readme_schedule_sizes() -> dict[tuple[int, str], int]:
    """The README's schedule sizes table: bytes by (N, mapping)."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text[text.index("Sizes in bytes"):].split("\n\n")[1]
    sizes = {}
    for n, jw, parity in re.findall(r"^\| (\d+) +\| ([\d,]+) +\| ([\d,]+) +\|$", table, re.M):
        sizes[int(n), "jw"] = int(jw.replace(",", ""))
        sizes[int(n), "parity"] = int(parity.replace(",", ""))
    return sizes


@pytest.mark.parametrize("mapping", ["jw", "parity"])
@pytest.mark.parametrize("n", [10, 18])
def test_readme_schedule_sizes_match_a_fresh_emission(n, mapping):
    """The rows emitted here are checked; larger rows are regenerated by hand."""
    schedule = emit_schedule(build_universe(n), mapping)
    assert readme_schedule_sizes()[n, mapping] == len(schedule_json(schedule))


def readme_gates_and_depths() -> dict[tuple[int, str], tuple[int, int]]:
    """The newest jw and parity columns of README's gates/depth table:
    (gate_count_total, depth_max) by (N, mapping)."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    header, _, *rows = text[text.index("| N  | jw, v2"):].split("\n\n")[0].splitlines()
    columns = [c.strip() for c in header.strip("|").split("|")]
    figures = {}
    for mapping in ("jw", "parity"):
        newest = max((c for c in columns if c.startswith(f"{mapping}, v")),
                     key=lambda c: int(c.rsplit("v", 1)[1]))
        k = columns.index(newest)
        for row in rows:
            cells = [c.strip() for c in row.strip("|").split("|")]
            gates, depth = cells[k].replace(",", "").split(" / ")
            figures[int(cells[0]), mapping] = int(gates), int(depth)
    return figures


@pytest.mark.parametrize("mapping", ["jw", "parity"])
@pytest.mark.parametrize("n", [6, 7, 10, 18, 32])
def test_readme_gates_and_depths_match_a_fresh_emission(n, mapping):
    """Every row of the table is checked against a fresh emission."""
    stats = emit_schedule(build_universe(n), mapping).stats()
    assert readme_gates_and_depths()[n, mapping] == (
        stats["gate_count_total"], stats["depth_max"])


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
    """Break a loaded document with gate tables the way a faulty writer could."""
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
    elif kind == "version_5":
        restore_v5(data)["version"] = 5


# the format-5 file of N=4, parity, which ``restore_v5`` gives back
V5_SCHEDULE_SHA256 = {
    (4, "parity"): "ae05d5266719767350de7421dda21bc98a79b6b904fe4b5650f912b24a2e8ced",
}


@pytest.mark.parametrize("kind, where", [
    ("index_out_of_range", "].gates[0]: "),
    ("index_to_another_gate", "].gates[0]: "),
    ("gate_def_shifted", "schedule.gate_defs["),
    ("matrix_perturbed", "schedule.gate_matrices.FSWAP3[9][0]: "),
    ("version_1", "version: file has 1, expected 7"),
    ("version_5", "version: file has 5, expected 7"),
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
    pins = {"version_1": V1_SCHEDULE_SHA256, "version_5": V5_SCHEDULE_SHA256}
    if kind in pins:
        # byte for byte the file that format's writer made
        assert hashlib.sha256(text.encode()).hexdigest() == pins[kind][4, "parity"]
    capsys.readouterr()
    assert main(["verify", *args]) == 1
    problems = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
                if line.startswith("schedule_file_problem: ")]
    assert problems and all(where in p for p in problems), problems
    if kind in pins:
        # a file in another format is reported by its header alone
        assert problems == [where]


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


def reference_rotation_layer(lefts: dict[int, list[int]], mapping: str, n: int) -> list[Gate]:
    """The clique-wide rotation layer: a CNOT on each pair's left qubit and
    the next, up pairs then down pairs, under Jordan-Wigner only, then a
    Hadamard on each pair's left qubit in the same order."""
    pair_qubits = [qubit_index(l, spin, n) for spin in (UP, DOWN) for l in lefts[spin]]
    hadamards = [Gate("H", (q,)) for q in pair_qubits]
    if mapping == "jw":
        return [Gate("CNOT", (q, q + 1)) for q in pair_qubits] + hadamards
    return hadamards


def reference_emit(clique, mapping: str, n: int) -> MeasCircuit:
    """The per-operator emitter: each clique's blocks sorted again, and each
    operator checked, relabeled onto its slots and conjugated alone through
    the whole clique's rotation layer, both spins."""
    targets, nets, lefts = {}, {}, {}
    for spin in (UP, DOWN):
        ops = clique.ops_for_spin(spin)
        targets[spin] = adjacent_target(ops, n)
        nets[spin] = circuits.odd_even_sort(targets[spin])
        lefts[spin] = [nets[spin].permutation[op.p] for op in ops if not op.is_number]
    gates = []
    up, down = ([[map_fswap(l, spin, mapping, n) for l in layer]
                 for layer in nets[spin].layers] for spin in (UP, DOWN))
    for up_layer, down_layer in zip_longest(up, down, fillvalue=[]):
        gates += up_layer + down_layer
    rotation = reference_rotation_layer(lefts, mapping, n)
    gates += rotation
    rotation_depth = (2 if mapping == "jw" else 1) if rotation else 0
    decode = {}
    for op in clique.ops:
        a, b = nets[op.spin].permutation[op.p], nets[op.spin].permutation[op.q]
        if (a, b) != (targets[op.spin][op.p], targets[op.spin][op.q]):
            raise DiagonalizationError(f"{op}: swap network left it on slots {a}, {b}")
        moved = HoppingOp(a, b, op.spin)
        local = pauli.operator_paulis(moved, mapping, n)
        (rotated,) = pauli.conjugate_all([local], rotation, 2 * n)
        decode[op] = _decode_from_diagonal(
            pauli.support(local), rotated, moved.is_number, moved, "on its slots"
        )
    return MeasCircuit(tuple(gates), max(len(up), len(down)) + rotation_depth, decode)


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
            "gates": _v1_dumps(gates),
            "decode": "[" + decode + "]",
            "depth": _v1_dumps(circ.depth),
        })
    names = {name for name, _ in gate_index}
    yield "]," + _v1_object({
        "version": _v1_dumps(7),
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
    return [(g.name, g.qubits) for g in circ.gates], circ.depth, circ.decode


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
        fresh = Schedule(mapping, universe, [
            circ._replace(gates=tuple(Gate(g.name, g.qubits) for g in circ.gates))
            for circ in schedule.circuits
        ])
        assert "".join(_schedule_chunks(fresh)) == schedule_json(schedule), n


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_no_rotation_gate_reaches_the_other_blocks_sorted_operators(mapping):
    """Why each block's decode tables are its own: the rotation gates of one
    spin block act on no qubit of any moved operator of the other block, so
    the other block's rotation leaves those operators' forms unchanged."""
    for n in range(2, 13):
        for mc in build_universe(n).cliques:
            rotated, supports = {}, {}
            for spin in (UP, DOWN):
                ops = mc.ops_for_spin(spin)
                perm = circuits.odd_even_sort(adjacent_target(ops, n)).permutation
                lefts = tuple(perm[op.p] for op in ops if not op.is_number)
                rotated[spin] = {q for layer in _rotation(spin, lefts, mapping, n)
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
    caches = (circuits._network, circuits._block, circuits._slot_table)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_network_that_leaves_an_operator_off_its_slot_is_a_diagonalization_error(
        monkeypatch, clear_block_caches):
    # a network that never swaps: A(0, 2) keeps slots 0, 2 but was given 0, 1
    monkeypatch.setattr(circuits, "odd_even_sort",
                        lambda p: SwapNetwork((), tuple(range(len(p)))))
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


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_adjacent_layout_lowers_depth_max_below_the_sorted_layout(mapping):
    """At N = 3 to 16 the schedule is shallower than the one that sorts
    pair k onto slots (2k, 2k+1): a clique's depth there is its deeper
    block's network plus the rotation layers, if it has a pair."""
    rotation_depth = 2 if mapping == "jw" else 1
    for n in range(3, 17):
        universe = build_universe(n)
        sorted_depth = max(
            max(odd_even_sort(position_vector(mc.ops_for_spin(spin), n)).depth
                for spin in (UP, DOWN))
            + (rotation_depth if any(not op.is_number for op in mc.ops) else 0)
            for mc in universe.cliques
        )
        assert emit_schedule(universe, mapping).stats()["depth_max"] < sorted_depth, n


def test_decode_tables_are_made_once_per_slot(clear_block_caches):
    """A table depends on its slot, whether it is a pair, the spin and the
    mapping: at most N-1 pair slots and N number slots per spin."""
    for n in (6, 10):
        for mapping in ("jw", "parity"):
            circuits._block.cache_clear()
            circuits._slot_table.cache_clear()
            emit_schedule(build_universe(n), mapping)
            assert 0 < circuits._slot_table.cache_info().currsize <= 2 * (2 * n - 1)
