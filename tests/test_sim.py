"""Statevector oracle checks: gates, operators, estimation, and sampling."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from planesched import sim
from planesched.circuits import GATE_SIGNS, DecodeTable, Gate, emit_schedule
from planesched.sim import (
    SizeLimitError,
    annihilation_operator,
    assemble_report,
    apply_circuit,
    apply_gate,
    basis_occupation_state,
    commutator_norm,
    conjugate_by_circuit,
    creation_operator,
    decode_value_vector,
    dense_hamiltonian,
    embed_gate,
    estimate_all,
    estimate_energy_sampled,
    hopping_operator,
    number_operator,
    occupation_permutation,
    occupation_to_qubit_state,
    offdiagonal_norm,
    operator_matrix,
    primitive_expectations,
    random_occupation_state,
    sample_shots,
    term_matrix,
    terms_by_clique,
)
from planesched.universe import (
    DOWN,
    UP,
    HoppingOp,
    build_universe,
    decompose,
    random_hamiltonian,
)


def test_apply_gate_matches_sparse_embedding():
    rng = np.random.default_rng(0)
    nq = 8
    state = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
    state /= np.linalg.norm(state)
    for name, m in GATE_SIGNS.items():
        width = len(m.signs).bit_length() - 1
        for first in range(nq - width + 1):
            gate = Gate(name, tuple(range(first, first + width)))
            via_rows = apply_gate(state, gate, nq)
            assert np.allclose(via_rows, embed_gate(gate, nq) @ state, atol=1e-14), gate
            assert abs(np.linalg.norm(via_rows) - 1) < 1e-12
    gates = [
        Gate("H", (2,)),
        Gate("CNOT", (1, 2)),
        Gate("FSWAP2", (0, 1)),
    ]
    via_rows = apply_circuit(state, gates, nq)
    via_matrices = state.copy()
    for g in gates:
        via_matrices = embed_gate(g, nq) @ via_matrices
    assert np.allclose(via_rows, via_matrices)
    assert abs(np.linalg.norm(via_rows) - 1) < 1e-12


def test_gate_matrices_are_the_sign_tables_read_little_endian():
    """``sim`` reads every gate little-endian, bit i the i-th listed qubit;
    ``GATE_SIGNS`` lists the first qubit as the most significant bit."""
    for name, (scale, signs) in GATE_SIGNS.items():
        k = len(signs).bit_length() - 1
        rev = [sum((i >> b & 1) << (k - 1 - b) for b in range(k)) for i in range(1 << k)]
        big_endian = np.array(signs, dtype=complex) * scale
        local = sim._gate_matrix(name)
        assert np.array_equal(local, big_endian[np.ix_(rev, rev)]), name
        assert not local.flags.writeable
        gate = Gate(name, tuple(range(1, 1 + k)))
        assert np.array_equal(embed_gate(gate, k + 2).toarray(),
                              np.kron(np.eye(2), np.kron(local, np.eye(2)))), name


def gate_by_gate(state: np.ndarray, gates, n_qubits: int) -> np.ndarray:
    for gate in gates:
        state = apply_gate(state, gate, n_qubits)
    return state


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_apply_circuit_matches_gate_by_gate_on_every_clique(mapping):
    for n in range(2, 8):
        psi = random_occupation_state(2 * n, seed=n)
        for circ in emit_schedule(build_universe(n), mapping).circuits:
            got = apply_circuit(psi, circ.gates, 2 * n)
            assert np.abs(got - gate_by_gate(psi, circ.gates, 2 * n)).max() < 1e-12
            # the two spin blocks commute, so each is composed on its own window
            swaps = tuple(g for g in circ.gates if g.name != "H")
            assert sim._spin_blocks(swaps, 2 * n)[2:] in ((n, n), (n, n - 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_circuit_matches_gate_by_gate_on_any_gate_list(data):
    """Any gate list: gates across the two halves, an H before permutation
    gates, odd qubit counts."""
    nq = data.draw(st.integers(2, 10), label="n_qubits")
    legal = [
        Gate(name, tuple(range(first, first + width)))
        for name, m in GATE_SIGNS.items()
        for width in [len(m.signs).bit_length() - 1]
        for first in range(nq - width + 1)
    ]
    gates = data.draw(st.lists(st.sampled_from(legal), max_size=16), label="gates")
    if data.draw(st.booleans(), label="leading H"):
        gates = [Gate("H", (data.draw(st.integers(0, nq - 1), label="H qubit"),)), *gates]
    psi = random_occupation_state(nq, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    assert np.abs(apply_circuit(psi, gates, nq) - gate_by_gate(psi, gates, nq)).max() < 1e-12


def test_spin_blocks_must_not_change_a_shared_qubit():
    # a block whose composition flips a qubit another block reads
    with pytest.raises(RuntimeError, match="another spin block"):
        sim._signed_block((Gate("FSWAP2", (0, 1)),), 0, 2, 0b10)
    with pytest.raises(ValueError, match="outside"):
        apply_circuit(random_occupation_state(4, seed=1), [Gate("CNOT", (3, 4))], 4)


def test_apply_gate_rejects_wrong_qubit_count():
    state = random_occupation_state(4, seed=5)
    for n_qubits in (3, 5):
        with pytest.raises(ValueError):
            apply_gate(state, Gate("CNOT", (1, 2)), n_qubits)
    with pytest.raises(ValueError):
        apply_gate(state, Gate("FSWAP3", (2, 3, 4)), 4)


def test_identity_circuit_preserves_state():
    state = random_occupation_state(4, seed=5)
    assert np.allclose(apply_circuit(state, [], 4), state)


def test_jw_fswap_sign_on_double_occupation():
    # modes 0 and 1 both occupied: the swap is a pure sign flip
    state = basis_occupation_state("11")
    out = apply_gate(state, Gate("FSWAP2", (0, 1)), 2)
    assert np.allclose(out, -state)
    # single occupation moves between the modes
    state01 = basis_occupation_state("10")  # mode 0 occupied
    out = apply_gate(state01, Gate("FSWAP2", (0, 1)), 2)
    assert np.allclose(out, basis_occupation_state("01"))


def test_pauli_string_matches_sparse_kron_chain():
    def kron_chain(ops, n_qubits):
        mat = sp.identity(1, dtype=complex, format="csr")
        for q in range(n_qubits):
            mat = sp.kron(sp.csr_matrix(ops.get(q, np.eye(2, dtype=complex))), mat, format="csr")
        return mat

    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    factors = [sim._PX, sim._PY, sim._PZ, 1j * sim._PY, lower, lower.T]
    rng = np.random.default_rng(3)
    for n_qubits in range(1, 6):
        for _ in range(30):
            qubits = rng.choice(n_qubits, size=rng.integers(0, n_qubits + 1), replace=False)
            ops = {int(q): factors[rng.integers(len(factors))] for q in qubits}
            diff = sim._pauli_string(ops, n_qubits) - kron_chain(ops, n_qubits)
            assert diff.count_nonzero() == 0, ops
    with pytest.raises(ValueError, match="two nonzeros"):
        sim._pauli_string({0: np.ones((2, 2))}, 1)


def test_number_operator_is_projector_diagonal():
    for mapping in ("jw", "parity"):
        m = number_operator(1, UP, mapping, 2).toarray()
        assert offdiagonal_norm(number_operator(1, UP, "jw", 2)) == 0
        assert np.allclose(m @ m, m)
        assert np.allclose(np.sort(np.diag(m).real), [0] * 8 + [1] * 8)


def test_jw_number_operator_counts_bits():
    n = 2
    m = number_operator(1, UP, "jw", n).toarray()
    expected = np.diag([(b >> 1) & 1 for b in range(16)]).astype(complex)
    assert np.allclose(m, expected)


def test_commuting_hopping_operators():
    n = 4
    a = hopping_operator(0, 1, UP, "jw", n)
    b = hopping_operator(2, 3, UP, "jw", n)
    assert commutator_norm(a, b) < 1e-12
    # overlapping indices do not commute
    c = hopping_operator(1, 2, UP, "jw", n)
    assert commutator_norm(a, c) > 0.1


def test_diagonal_hopping_is_twice_number():
    for mapping in ("jw", "parity"):
        twice_n = hopping_operator(1, 1, DOWN, mapping, 2)
        num = number_operator(1, DOWN, mapping, 2)
        assert (abs(twice_n - 2 * num)).max() < 1e-12


def test_anticommutation_relations():
    nq = 4
    for mapping in ("jw", "parity"):
        for i in range(nq):
            for j in range(nq):
                a_i = annihilation_operator(i, mapping, nq)
                ad_j = creation_operator(j, mapping, nq)
                anti = (a_i @ ad_j + ad_j @ a_i).toarray()
                expected = np.eye(1 << nq) if i == j else np.zeros((1 << nq, 1 << nq))
                assert np.allclose(anti, expected, atol=1e-12)


def dense_deviation(n: int, mapping: str, seed: int) -> float:
    """Largest gap between the schedule's hopping estimates and the dense
    operators' expectations on a random state."""
    schedule = emit_schedule(build_universe(n), mapping)
    occ = random_occupation_state(2 * n, seed=seed)
    psi = occupation_to_qubit_state(occ, mapping, 2 * n)
    report = estimate_all(psi, schedule)
    gaps = [0.0]
    for op, value in report.one_body.items():
        dense = hopping_operator(op.p, op.q, op.spin, mapping, n)
        gaps.append(abs(value - np.vdot(psi, dense @ psi)))
    for term, value in report.two_body.items():
        factor = 1
        for op in term:
            factor *= 2 if op.is_number else 1
        gaps.append(abs(value - factor * np.vdot(psi, term_matrix(term, mapping, n) @ psi)))
    return max(gaps)


def test_estimates_match_dense_operators():
    for mapping in ("jw", "parity"):
        assert dense_deviation(2, mapping, seed=9) < 1e-10


@pytest.mark.parametrize("mapping, name", [("jw", "FSWAP2"), ("parity", "FSWAP3")])
def test_dense_oracle_catches_a_dropped_swap_sign(mapping, name):
    """A swap table that loses one -1 must fail the dense comparison."""
    assert dense_deviation(3, mapping, seed=9) < 1e-10
    original = sim._PERMUTATIONS[name]
    signs = original.signs.copy()
    signs[np.flatnonzero(signs < 0)[0]] = 1.0
    sim._PERMUTATIONS[name] = original._replace(signs=signs)
    sim._signed_block.cache_clear()  # blocks composed with the true table
    try:
        assert dense_deviation(3, mapping, seed=9) > 1e-3
    finally:
        sim._PERMUTATIONS[name] = original
        sim._signed_block.cache_clear()
    assert dense_deviation(3, mapping, seed=9) < 1e-10


def test_basis_state_expectations():
    n = 3
    schedule = emit_schedule(build_universe(n), "jw")
    occ = basis_occupation_state("110100")  # modes 0, 1 up and 0 down occupied
    psi = occupation_to_qubit_state(occ, "jw", 2 * n)
    report = estimate_all(psi, schedule)
    for op, value in report.one_body.items():
        if op.is_number:
            expected = {(0, UP): 2, (1, UP): 2, (0, DOWN): 2}.get((op.p, op.spin), 0)
            assert abs(value - expected) < 1e-12  # A(p,p) doubles the occupation
        else:
            assert abs(value) < 1e-12


def test_energy_matches_dense_oracle():
    for n in (2, 3):
        universe = build_universe(n)
        for mapping in ("jw", "parity"):
            schedule = emit_schedule(universe, mapping)
            ham = random_hamiltonian(n, seed=n * 11)
            dense = dense_hamiltonian(ham, mapping)
            for seed in range(3):
                occ = random_occupation_state(2 * n, seed=seed)
                psi = occupation_to_qubit_state(occ, mapping, 2 * n)
                report = estimate_all(psi, schedule, ham)
                exact = np.vdot(psi, dense @ psi).real
                assert abs(report.energy - exact) < 1e-9


def test_mapping_consistency_of_primitives():
    n = 3
    universe = build_universe(n)
    sched_jw = emit_schedule(universe, "jw")
    sched_par = emit_schedule(universe, "parity")
    occ = random_occupation_state(2 * n, seed=21)
    prim_jw = primitive_expectations(
        occupation_to_qubit_state(occ, "jw", 2 * n), sched_jw
    )
    prim_par = primitive_expectations(
        occupation_to_qubit_state(occ, "parity", 2 * n), sched_par
    )
    assert prim_jw.keys() == prim_par.keys()
    for term in prim_jw:
        assert abs(prim_jw[term] - prim_par[term]) < 1e-10


def test_clique_commutation_certificate():
    for n in (2, 3, 4):
        universe = build_universe(n)
        for clique in universe.cliques:
            mats = [operator_matrix(op, "jw", n) for op in clique.ops]
            for i, a in enumerate(mats):
                for b in mats[i + 1 :]:
                    assert commutator_norm(a, b) < 1e-12


def test_conjugation_tripwire_small():
    for n, mapping in [(2, "jw"), (2, "parity")]:
        schedule = emit_schedule(build_universe(n), mapping)
        for mc, circ in zip(schedule.universe.cliques, schedule.circuits):
            for op in mc.ops:
                conj = conjugate_by_circuit(
                    operator_matrix(op, mapping, n), circ.gates, 2 * n
                )
                assert offdiagonal_norm(conj) < 1e-12


def test_decode_value_vector_reads_support_bits():
    table = DecodeTable(qubits=(1,), values=(0, 1))
    vec = decode_value_vector(table, 2)
    assert np.allclose(vec, [0, 0, 1, 1])
    table = DecodeTable(qubits=(0, 1), values=(0, 1, -1, 0))
    # first listed qubit is the most significant table bit
    vec = decode_value_vector(table, 2)
    assert np.allclose(vec, [0, -1, 1, 0])
    # one vector serves every operator with this table, so it cannot be written
    assert not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 5.0


def test_sample_shots_validation_and_reproducibility():
    n = 2
    schedule = emit_schedule(build_universe(n), "jw")
    occ = random_occupation_state(2 * n, seed=3)
    psi = occupation_to_qubit_state(occ, "jw", 2 * n)
    circuit = schedule.circuits[1]
    with pytest.raises(ValueError):
        sample_shots(psi, circuit, 0, seed=0, n_qubits=2 * n)
    a = sample_shots(psi, circuit, 500, seed=8, n_qubits=2 * n)
    b = sample_shots(psi, circuit, 500, seed=8, n_qubits=2 * n)
    assert np.array_equal(a, b)
    assert a.sum() == 500


def test_sampled_frequencies_near_exact_probabilities():
    n = 2
    schedule = emit_schedule(build_universe(n), "jw")
    occ = random_occupation_state(2 * n, seed=13)
    psi = occupation_to_qubit_state(occ, "jw", 2 * n)
    circuit = schedule.circuits[2]
    shots = 40000
    counts = sample_shots(psi, circuit, shots, seed=1, n_qubits=2 * n)
    probs = np.abs(apply_circuit(psi, circuit.gates, 2 * n)) ** 2
    sigma = np.sqrt(probs * (1 - probs) / shots)
    assert np.all(np.abs(counts / shots - probs) <= 5 * sigma + 1e-9)


def test_sampled_energy_close_to_exact():
    n = 2
    universe = build_universe(n)
    schedule = emit_schedule(universe, "jw")
    ham = random_hamiltonian(n, seed=2)
    occ = random_occupation_state(2 * n, seed=2)
    psi = occupation_to_qubit_state(occ, "jw", 2 * n)
    exact = estimate_all(psi, schedule, ham).energy
    energy, stderr, _ = estimate_energy_sampled(psi, schedule, ham, shots=20000, seed=5)
    assert stderr > 0
    assert abs(energy - exact) <= 6 * stderr
    energy2, _, _ = estimate_energy_sampled(psi, schedule, ham, shots=20000, seed=5)
    assert energy == energy2


def test_sampled_family_variances_add_up_to_total():
    n = 3
    universe = build_universe(n)
    ham = random_hamiltonian(n, seed=6)
    for mapping in ("jw", "parity"):
        schedule = emit_schedule(universe, mapping)
        occ = random_occupation_state(2 * n, seed=4)
        psi = occupation_to_qubit_state(occ, mapping, 2 * n)
        sampled = estimate_energy_sampled(psi, schedule, ham, shots=300, seed=2)
        assert set(sampled.family_stderr) == set(universe.family_counts())
        assert all(s > 0 for s in sampled.family_stderr.values())
        family_sum = sum(s**2 for s in sampled.family_stderr.values())
        assert abs(family_sum - sampled.stderr**2) < 1e-12


def test_precomputed_routing_and_decomposition_change_nothing():
    n = 3
    schedule = emit_schedule(build_universe(n), "parity")
    ham = random_hamiltonian(n, seed=8)
    psi = occupation_to_qubit_state(random_occupation_state(2 * n, seed=1), "parity", 2 * n)
    grouped = terms_by_clique(schedule)
    decomposition = decompose(ham)
    primitives = primitive_expectations(psi, schedule)
    assert primitive_expectations(psi, schedule, grouped) == primitives
    assert (assemble_report(primitives, schedule, ham, decomposition).energy
            == assemble_report(primitives, schedule, ham).energy)


def test_occupation_permutation_parity():
    perm = occupation_permutation("parity", 2)
    # occupation (f0, f1) maps to bits (f0, f0 xor f1)
    assert perm.tolist() == [0, 3, 2, 1]
    assert occupation_permutation("jw", 3).tolist() == list(range(8))


def test_size_limit_enforced():
    with pytest.raises(SizeLimitError):
        sim.check_size(sim.MAX_QUBITS + 1)
    sim.check_size(sim.MAX_QUBITS)
    with pytest.raises(SizeLimitError):
        random_occupation_state(16, seed=0)
    with pytest.raises(SizeLimitError):
        apply_circuit(np.zeros(1 << 16, dtype=complex), [], 16)


def test_norm_preserved_by_circuits():
    n = 3
    schedule = emit_schedule(build_universe(n), "parity")
    occ = random_occupation_state(2 * n, seed=31)
    psi = occupation_to_qubit_state(occ, "parity", 2 * n)
    for circ in schedule.circuits:
        out = apply_circuit(psi, circ.gates, 2 * n)
        assert abs(np.linalg.norm(out) - 1) < 1e-12
