"""Term classification, clique families, routing, and the Hamiltonian model."""

import json
import math
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesched import universe as universe_mod
from planesched.cover import build_cover, place_s_points
from planesched.plane import gamma_point, point_code
from planesched.roundrobin import build_rounds
from planesched.sim import dense_hamiltonian, term_matrix
from planesched.universe import (
    DOWN,
    UP,
    CoverageError,
    Hamiltonian,
    HoppingOp,
    MeasurementClique,
    build_universe,
    classify_terms,
    construction_total,
    decompose,
    load_hamiltonian,
    random_hamiltonian,
    route_term,
)


def comb(n: int, k: int) -> int:
    return math.comb(n, k)


def test_classification_counts():
    for n in (2, 3, 4, 6):
        terms = classify_terms(n)
        assert len(set(terms)) == len(terms)
        singles = [t for t in terms if len(t) == 1]
        assert len(singles) == 2 * (n + comb(n, 2))
        same_aa = [
            t
            for t in terms
            if len(t) == 2
            and t[0].spin == t[1].spin
            and not t[0].is_number
            and not t[1].is_number
        ]
        assert len(same_aa) == 2 * 3 * comb(n, 4)
        same_an = [
            t
            for t in terms
            if len(t) == 2
            and t[0].spin == t[1].spin
            and t[0].is_number != t[1].is_number
        ]
        assert len(same_an) == 2 * comb(n, 2) * (n - 2)
        cross = [t for t in terms if len(t) == 2 and t[0].spin != t[1].spin]
        assert len(cross) == (n + comb(n, 2)) ** 2


def test_classification_small_cases():
    # no same-spin four-index products below n = 4
    assert not [
        t
        for t in classify_terms(2)
        if len(t) == 2
        and t[0].spin == t[1].spin
        and not t[0].is_number
        and not t[1].is_number
    ]
    per_spin_hops = [t for t in classify_terms(4) if len(t) == 1 and not t[0].is_number]
    assert len(per_spin_hops) == 2 * 6


def test_canonical_form():
    for t in classify_terms(5):
        for op in t:
            assert op.p <= op.q
        if len(t) == 2:
            assert t[0] <= t[1]
            if t[0].spin == t[1].spin:
                assert t[0].indices.isdisjoint(t[1].indices)


def test_universe_counts():
    expected = {
        2: (8, {"part": 1, "one_body": 2, "diff_spin": 1, "same_spin": 4}),
        3: (10, {"part": 0, "one_body": 0, "diff_spin": 6, "same_spin": 4}),
        4: (25, {"part": 1, "one_body": 6, "diff_spin": 9, "same_spin": 9}),
        6: (61, {"part": 1, "one_body": 10, "diff_spin": 25, "same_spin": 25}),
    }
    for n, (total, families) in expected.items():
        u = build_universe(n)
        assert len(u) == total
        assert u.family_counts() == families
        assert u.cliques[0].family == ("part" if n % 2 == 0 else "diff_spin")
        ids = [c.id for c in u.cliques]
        assert ids == list(range(total))


def test_closed_form_total_for_even_prime_plus_one():
    for n in (4, 6, 8, 12, 14):
        assert len(build_universe(n)) == 2 * n * n - 2 * n + 1


def scan_plane_order(n: int) -> int:
    """Oracle: the smallest q >= max(2, n - 1) among the primes below 64 and
    the powers of the odd ones, each listed outright."""
    primes = [p for p in range(2, 64) if all(p % d for d in range(2, p))]
    orders = {p**k for p in primes for k in range(1, 7) if k == 1 or p > 2}
    return min(q for q in orders if q >= max(2, n - 1))


def test_closed_form_for_every_even_n_on_a_plane_of_order_n_minus_1():
    # N - 1 in {3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29}: N = 10, 26 and
    # 28 sit on planes of order 9, 25 and 27
    sizes = [n for n in range(4, 31, 2) if scan_plane_order(n) == n - 1]
    assert sizes == [4, 6, 8, 10, 12, 14, 18, 20, 24, 26, 28, 30]
    for n in sizes:
        u = build_universe(n)
        assert u.pi == n - 1
        assert u.family_counts() == {
            "part": 1, "one_body": 2 * (n - 1), "diff_spin": (n - 1) ** 2,
            "same_spin": (n - 1) ** 2,
        }, n
        assert len(u) == 2 * n * n - 2 * n + 1, n


def test_odd_n_on_prime_power_planes():
    # odd N takes N pairing rounds, each with its bye: N(N - 1) + N^2 on a plane of order N
    for n, total in ((9, 153), (25, 1225), (27, 1431)):
        u = build_universe(n)
        assert (u.pi, len(u)) == (scan_plane_order(n), total) == (n, total)


def test_construction_total_counts_the_cliques_built():
    # truncated planes (N = 5, 7, 16, 22) and order 9 (N = 9, 10) included
    for n in range(2, 33):
        assert construction_total(n) == len(build_universe(n)), n
    with pytest.raises(ValueError, match="need n >= 2"):
        construction_total(1)


def sole_holders(u) -> int:
    """Bit c set when clique c is the only holder of some term."""
    masks, sole = u.op_masks, 0
    for term in classify_terms(u.n):
        common = -1
        for op in term:
            common &= masks[op]
        if common & (common - 1) == 0:
            sole |= common
    return sole


def test_odd_n_cover_routes_every_term():
    for n in range(3, 26, 2):
        u = build_universe(n)
        for term in classify_terms(n):
            cid = route_term(term, u)
            assert set(term) <= set(u.cliques[cid].ops), (n, term)


def test_odd_n_cover_is_irredundant():
    for n in range(3, 14, 2):
        u = build_universe(n)
        assert sole_holders(u) == (1 << len(u)) - 1, n
    for n in range(3, 26, 2):
        u = build_universe(n)
        assert len({frozenset(c.ops) for c in u.cliques}) == len(u), n


def test_even_n_keeps_the_cliques_that_hold_no_term_alone():
    # part and the N - 1 diagonal diff_spin cliques, kept for the paper's breakdown
    for n in (10, 12, 14):
        u = build_universe(n)
        sole = sole_holders(u)
        assert [c.source for c in u.cliques if not sole >> c.id & 1] == (
            [None] + [("rounds", i, i) for i in range(n - 1)]), n


def test_clique_ops_within_spin_are_index_disjoint():
    for n in (2, 3, 4, 6):
        for clique in build_universe(n).cliques:
            for spin in (UP, DOWN):
                seen: set[int] = set()
                for op in clique.ops_for_spin(spin):
                    assert not (seen & op.indices)
                    seen |= op.indices


def reference_cliques(n: int) -> list[MeasurementClique]:
    """The cliques built one at a time, each operator made for its clique.
    At odd N a round's operators end with the number operator of the one
    label it leaves out, and no round meets itself across spins."""
    pi = scan_plane_order(n)
    rounds, cliques = build_rounds(n), []

    def add(family, ops, source):
        cliques.append(MeasurementClique(len(cliques), family, tuple(ops), source))

    def round_ops(rnd, spin):
        ops = [HoppingOp(p, q, spin) for p, q in rnd]
        if n % 2:
            (bye,) = set(range(n)).difference(*rnd)
            ops.append(HoppingOp(bye, bye, spin))
        return ops

    if n % 2 == 0:
        add("part", [HoppingOp(p, p, spin) for spin in (UP, DOWN) for p in range(n)], None)
        for spin in (UP, DOWN):
            for i, rnd in enumerate(rounds):
                add("one_body", [HoppingOp(p, q, spin) for p, q in rnd]
                    + [HoppingOp(r, r, 1 - spin) for r in range(n)], ("round", spin, i))
    for i, ri in enumerate(rounds):
        for j, rj in enumerate(rounds):
            if n % 2 == 0 or i != j:
                add("diff_spin", round_ops(ri, UP) + round_ops(rj, DOWN), ("rounds", i, j))
    for group in build_cover(pi, n):
        add("same_spin", [HoppingOp(p, q, spin) for spin in (UP, DOWN) for p, q in group.members],
            ("anchor", point_code(group.anchor, pi)))
    return cliques


def test_cliques_from_shared_blocks_equal_the_one_at_a_time_reference():
    for n in range(2, 15):
        assert build_universe(n).cliques == reference_cliques(n), n


def test_overlapping_rounds_fail_the_block_disjointness_check(monkeypatch):
    # one round pairs index 1 twice
    monkeypatch.setattr(universe_mod, "build_rounds",
                        lambda n: [((0, 1), (1, 2))] + build_rounds(n)[1:])
    with pytest.raises(ValueError, match=r"^non-disjoint indices within spin sector: "
                                         r"\(HoppingOp\(p=0, q=1, spin=0\), "
                                         r"HoppingOp\(p=1, q=2, spin=0\)\)$"):
        build_universe(4)


def test_every_term_routes():
    for n in (2, 3, 4, 6, 8):
        u = build_universe(n)
        for term in classify_terms(n):
            cid = route_term(term, u)
            clique_ops = set(u.cliques[cid].ops)
            assert all(op in clique_ops for op in term)


def test_route_prefers_lowest_id():
    u = build_universe(6)
    # cross-spin number products live in the particle-number clique
    term = (HoppingOp(1, 1, UP), HoppingOp(2, 2, DOWN))
    assert route_term(term, u) == 0
    # a hopping term with an opposite-spin number factor goes to the
    # one-body family, to the round holding its pair
    term = (HoppingOp(0, 1, UP), HoppingOp(3, 3, DOWN))
    cid = route_term(term, u)
    clique = u.cliques[cid]
    assert clique.family == "one_body"
    assert clique.source[1] == UP
    assert (0, 1) in build_rounds(6)[clique.source[2]]
    # single hopping operators also come from the one-body family
    cid = route_term((HoppingOp(2, 4, DOWN),), u)
    assert u.cliques[cid].family == "one_body"


def test_route_same_spin_product():
    u = build_universe(6)
    term = (HoppingOp(0, 2, UP), HoppingOp(1, 3, UP))
    cid = route_term(term, u)
    clique = u.cliques[cid]
    assert set(term) <= set(clique.ops)
    # the anchor group holding both pairs exists and is a valid candidate;
    # the pairing rounds happen to co-schedule (0,2) and (1,3) at n = 6, so
    # the lowest-id rule selects that earlier clique
    anchor = point_code(gamma_point(4, 3), 5)
    index = reference_index(u)
    candidates = set(index[term[0]]) & set(index[term[1]])
    anchored = [
        c.id for c in u.cliques if c.source == ("anchor", anchor)
    ]
    assert len(anchored) == 1 and anchored[0] in candidates
    assert cid == min(candidates)
    # a product with three shared-free indices only fits the anchor groups
    term = (HoppingOp(0, 2, UP), HoppingOp(3, 3, UP))
    cid = route_term(term, u)
    assert u.cliques[cid].family == "same_spin"


def test_reference_anchor_group_in_universe():
    u = build_universe(6)
    groups = {g.anchor: g.members for g in u.anchor_groups}
    assert groups[gamma_point(4, 3)] == ((0, 2), (1, 3), (4, 5))
    assert place_s_points(5)[:2] == [gamma_point(0, 0), gamma_point(1, 1)]


def test_coverage_error_when_op_unknown():
    u = build_universe(3)
    with pytest.raises(CoverageError):
        route_term((HoppingOp(0, 9, UP),), u)


def reference_index(u):
    """Clique ids per operator, ascending: the list index the masks replaced."""
    index = {}
    for c in u.cliques:
        for op in c.ops:
            index.setdefault(op, []).append(c.id)
    return index


def reference_route_term(term, index):
    """The list-intersection routing the clique masks replaced."""
    candidate_lists = [index.get(op, []) for op in term]
    if any(not lst for lst in candidate_lists):
        raise CoverageError(f"no clique covers {term}")
    if len(candidate_lists) == 1:
        return candidate_lists[0][0]
    common = set(candidate_lists[0]).intersection(*candidate_lists[1:])
    if not common:
        raise CoverageError(f"no clique covers {term}")
    return min(common)


def test_mask_routing_matches_list_intersection():
    for n in range(2, 15):
        u = build_universe(n)
        index = reference_index(u)
        assert u.op_masks == {op: sum(1 << i for i in ids) for op, ids in index.items()}
        for term in classify_terms(n):
            assert route_term(term, u) == reference_route_term(term, index), (n, term)


@cache
def cached_universe(n):
    return build_universe(n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mask_routing_matches_list_intersection_on_any_term(data):
    n = data.draw(st.integers(2, 9), label="n")
    u = cached_universe(n)
    # labels up to n reach one past the modes, so some factors are in no clique
    label = st.integers(0, n)
    factor = st.builds(lambda a, b, spin: HoppingOp(min(a, b), max(a, b), spin),
                       label, label, st.sampled_from([UP, DOWN]))
    term = tuple(sorted(data.draw(st.lists(factor, min_size=1, max_size=3), label="term")))
    try:
        expected = reference_route_term(term, reference_index(u))
    except CoverageError as exc:
        with pytest.raises(CoverageError) as got:
            route_term(term, u)
        assert str(got.value) == str(exc)
    else:
        assert route_term(term, u) == expected


def test_hamiltonian_roundtrip(tmp_path):
    ham = random_hamiltonian(3, seed=1)
    path = tmp_path / "ham.json"
    ham.save(str(path))
    # one json.dumps text and a newline
    assert path.read_text() == json.dumps(ham.to_dict()) + "\n"
    loaded = load_hamiltonian(str(path))
    assert loaded.n_orbitals == 3
    assert np.array_equal(loaded.h, ham.h)
    assert np.array_equal(loaded.g, ham.g)
    assert loaded.e_nuc == ham.e_nuc


def test_hamiltonian_symmetry_validation():
    ham = random_hamiltonian(3, seed=2)
    h_bad = ham.h.copy()
    h_bad[0, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="symmetry"):
        Hamiltonian(3, ham.e_nuc, h_bad, ham.g)
    g_bad = ham.g.copy()
    g_bad[0, 0, 0, 1, 2, 0] += 1e-6
    with pytest.raises(ValueError, match="symmetry"):
        Hamiltonian(3, ham.e_nuc, ham.h, g_bad)
    # a constant bump on one cross-spin block keeps the within-pair
    # symmetries but breaks pair exchange, so the sum is no longer Hermitian
    g_pair = ham.g.copy()
    g_pair[0, 1] += 1e-5
    with pytest.raises(ValueError, match="symmetry"):
        Hamiltonian(3, ham.e_nuc, ham.h, g_pair)


def test_decomposition_matches_dense_oracle():
    # independent route: every basis term as an exact sparse matrix
    for n, mapping in [(2, "jw"), (3, "jw"), (2, "parity"), (3, "parity"), (4, "jw")]:
        rng = np.random.default_rng(17 * n)
        for hs in range(2):
            ham = random_hamiltonian(n, seed=50 + hs)
            const, coeffs = decompose(ham)
            dim = 1 << (2 * n)
            dense = dense_hamiltonian(ham, mapping)
            for _ in range(3):
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                v = v / np.linalg.norm(v)
                exact = np.vdot(v, dense @ v)
                assert abs(exact.imag) < 1e-10
                assembled = const
                for term, c in coeffs.items():
                    assembled += c * np.real(np.vdot(v, term_matrix(term, mapping, n) @ v))
                assert abs(assembled - exact.real) < 1e-10


def test_decompose_coefficients_cover_only_measurable_terms():
    for n in (2, 3, 4):
        ham = random_hamiltonian(n, seed=n)
        _, coeffs = decompose(ham)
        measurable = set(classify_terms(n))
        assert set(coeffs) <= measurable


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_rejects_a_coefficient_that_overflows():
    # each entry is a float, but h + h^T and the g sums are not
    for h, g in ((1e308, 0.0), (0.0, 1e308)):
        ham = Hamiltonian(2, 0.0, np.full((2, 2, 2), h), np.full((2,) * 6, g))
        with pytest.raises(ValueError, match="not finite"):
            decompose(ham)


def reference_decompose(ham):
    """The ordered-index expansion that ``decompose`` replaced: every entry
    of g over all 4N^4 index orders, the overlapping same-spin products
    rewritten with directed adag_x a_z pieces that are recombined at the end

        A_pq A_pq = n_p + n_q - 2 n_p n_q
        A_xy A_yz = adag_x a_z - n_y A_xz     (x, y, z distinct)
        A_yy A_yz = 2 adag_y a_z
        A_xy A_yy = 2 adag_x a_y
    """
    n = ham.n_orbitals
    coeff = {}
    directed = {}

    def op(p, q, spin):
        return HoppingOp(min(p, q), max(p, q), spin)

    def bump(key, c):
        key = tuple(sorted(key))
        coeff[key] = coeff.get(key, 0.0) + c

    def bump_directed(spin, x, z, c):
        directed[spin, x, z] = directed.get((spin, x, z), 0.0) + c

    for spin in (UP, DOWN):
        for p in range(n):
            bump((op(p, p, spin),), ham.h[spin, p, p])
            for q in range(n):
                if p != q:
                    bump((op(p, q, spin),), ham.h[spin, p, q] / 2)
    for s1, s2 in product((UP, DOWN), repeat=2):
        for p, q, r, u in product(range(n), repeat=4):
            c = ham.g[s1, s2, p, q, r, u] / 8
            if c == 0.0:
                continue
            first, second = {p, q}, {r, u}
            if s1 != s2 or first.isdisjoint(second):
                mult = (2 if p == q else 1) * (2 if r == u else 1)
                bump((op(p, q, s1), op(r, u, s2)), c * mult)
            elif first == second:
                if p == q:
                    bump((op(p, p, s1),), 4 * c)
                else:
                    bump((op(p, p, s1),), c)
                    bump((op(q, q, s1),), c)
                    bump((op(p, p, s1), op(q, q, s1)), -2 * c)
            elif p == q:
                bump_directed(s1, p, u if r == p else r, 2 * c)
            elif r == u:
                bump_directed(s1, q if p == r else p, r, 2 * c)
            else:
                (shared,) = first & second
                (x,), (z,) = first - {shared}, second - {shared}
                bump_directed(s1, x, z, c)
                bump((op(shared, shared, s1), op(x, z, s1)), -c)
    done = set()
    for spin, x, z in directed:
        lo, hi = min(x, z), max(x, z)
        if (spin, lo, hi) not in done:
            done.add((spin, lo, hi))
            total = directed.get((spin, lo, hi), 0.0) + directed.get((spin, hi, lo), 0.0)
            bump((op(lo, hi, spin),), total / 2)
    return ham.e_nuc, {k: v for k, v in coeff.items() if v != 0.0}


def structured_hamiltonians(n, seed):
    """Hamiltonians that each leave out whole parts of the expansion, and
    one with an asymmetry below the validation tolerance."""
    ham = random_hamiltonian(n, seed)
    h_only = Hamiltonian(n, ham.e_nuc, ham.h, np.zeros_like(ham.g))
    cross = ham.g.copy()
    cross[UP, UP] = cross[DOWN, DOWN] = 0.0
    same = ham.g - cross
    g_skew = ham.g.copy()
    g_skew[UP, UP, 0, 1, 1, 1] += 1e-13
    g_skew[UP, DOWN, 0, 0, 0, 1] -= 1e-13
    h_skew = ham.h.copy()
    h_skew[DOWN, 0, 1] += 1e-13
    return [
        h_only,
        Hamiltonian(n, ham.e_nuc, ham.h, cross),
        Hamiltonian(n, ham.e_nuc, ham.h, same),
        Hamiltonian(n, ham.e_nuc, h_skew, g_skew),
    ]


@pytest.mark.parametrize("n", range(2, 8))
def test_decompose_matches_ordered_index_reference(n):
    hams = [random_hamiltonian(n, seed) for seed in range(3)]
    hams += structured_hamiltonians(n, seed=10 + n)
    for ham in hams:
        const, coeffs = decompose(ham)
        ref_const, reference = reference_decompose(ham)
        assert const == ref_const
        assert set(coeffs) == set(reference)
        scale = max(abs(c) for c in reference.values())
        for key, c in reference.items():
            assert abs(coeffs[key] - c) <= 1e-12 * scale, key
