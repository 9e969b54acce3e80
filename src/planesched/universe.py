"""Measurement groups covering every term of a molecular Hamiltonian.

The Hamiltonian over 2N spin orbitals is written with the symmetric hopping
operators A(p, q, spin) = adag_p a_q + adag_q a_p (per spin sector; p = q
gives twice the number operator).  Four families of mutually commuting
operator groups suffice to estimate every required expectation value:

    part        all 2N number operators, one group
    one_body    per spin, one group per pairing round, plus the opposite
                spin's number operators
    diff_spin   direct products of an up round with a down round
    same_spin   the plane anchor groups, instantiated for both spins at once

With N even and N - 1 a prime or an odd prime power the family sizes are
1, 2(N-1), (N-1)^2 and (N-1)^2, 2N^2 - 2N + 1 in all.  At odd N each
pairing round also holds the number operator of the label it leaves out,
which makes ``part`` and ``one_body`` redundant: N(N-1) ``diff_spin``
groups (rounds i != j) and q^2 ``same_spin`` groups on a plane of order q.

Each group is one up-spin block times one down-spin block.  A block is the
operators of one spin that one group takes: the number operators, one
pairing round (with its bye's number operator at odd N), or one anchor
group's pairs.  ``build_universe`` builds each distinct block once and
checks its indices are disjoint once, which checks every group holding it,
since a group holds exactly one block per spin.

``decompose`` expands the coefficient tensors onto this measurable basis.
It works on the canonical pairs i = (p, q), p <= q, each read as the factor
A_pq (p < q) or n_p (p == q), and on ``f[s, t, i, j]``, the coefficient of
the product of pairs i and j: g/8 summed over both orders of each index
pair.  Same-spin products that share an index reduce with four identities,

    n_p n_p = n_p
    A_pq A_pq = n_p + n_q - 2 n_p n_q
    n_y A_yz + A_yz n_y = A_yz
    A_xy A_yz + A_yz A_xy = A_xz - 2 n_y A_xz     (x, y, z distinct)
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import cached_property
from typing import TYPE_CHECKING

from .cover import PairClique, build_cover
from .gf import plane_order_at_least
from .plane import point_code
from .roundrobin import build_rounds

if TYPE_CHECKING:
    import numpy as np

UP, DOWN = 0, 1
SPIN_NAMES = ("up", "down")

SYMMETRY_TOL = 1e-12


class CoverageError(LookupError):
    """A term has no group that contains all of its factors."""


class HoppingOp(namedtuple("HoppingOp", ["p", "q", "spin"])):
    """Canonical operator label: A(p, q, spin) for p < q, the number operator for p == q."""

    __slots__ = ()

    @property
    def is_number(self) -> bool:
        return self.p == self.q

    @property
    def indices(self) -> frozenset[int]:
        return frozenset((self.p, self.q))


TermKey = tuple[HoppingOp, ...]  # one or two commuting factors, canonically sorted
Decomposition = tuple[float, dict[TermKey, float]]  # constant, coefficient per term


def classify_terms(n: int) -> list[TermKey]:
    """Every independent measurable term, exactly once, in canonical form.

    Single factors are all number and hopping operators.  Pair products keep
    any cross-spin combination (those always commute) and the index-disjoint
    same-spin combinations; overlapping same-spin products are not terms of
    their own, they reduce onto this basis.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    comps = [
        HoppingOp(p, q, spin)
        for spin in (UP, DOWN)
        for p in range(n)
        for q in range(p, n)
    ]
    comps.sort()
    terms: list[TermKey] = [(c,) for c in comps]
    for i, a in enumerate(comps):
        p, q, spin = a
        for b in comps[i + 1 :]:
            if b.spin != spin or (b.p != p and b.p != q and b.q != p and b.q != q):
                terms.append((a, b))
    return terms


# the clique families, in the order they are built and reported
FAMILIES = ("part", "one_body", "diff_spin", "same_spin")


class MeasurementClique(
    namedtuple("MeasurementClique", ["id", "family", "ops", "source"], defaults=(None,))
):
    """One simultaneously measurable operator set: its ``id``, its family
    (one of FAMILIES), its ``ops`` and the ``source`` it was built from."""

    __slots__ = ()

    def ops_for_spin(self, spin: int) -> tuple[HoppingOp, ...]:
        return tuple([op for op in self.ops if op.spin == spin])


class Universe:
    """All measurement groups for n orbitals, with a routing index:
    ``op_masks[op]`` has bit c set for each clique c that holds ``op``."""

    def __init__(self, n: int, pi: int, anchor_groups: list[PairClique],
                 cliques: list[MeasurementClique]) -> None:
        self.n = n
        self.pi = pi
        self.anchor_groups = anchor_groups
        self.cliques = cliques

    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)

    def family_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(FAMILIES, 0)
        for c in self.cliques:
            counts[c.family] += 1
        return counts

    @cached_property
    def op_masks(self) -> dict[HoppingOp, int]:
        """Built on first use: emitting a schedule routes no term."""
        masks: dict[HoppingOp, int] = {}
        for c in self.cliques:
            bit = 1 << c.id
            for op in c.ops:
                masks[op] = masks.get(op, 0) | bit
        return masks


Block = tuple[HoppingOp, ...]  # operators of one spin: index-disjoint, in clique order


def _check_disjoint_within_spin(block: Block) -> None:
    seen: set[int] = set()
    for op in block:
        if op.p in seen or op.q in seen:
            raise ValueError(f"non-disjoint indices within spin sector: {block}")
        seen.add(op.p)
        seen.add(op.q)


def build_universe(n: int) -> Universe:
    """Assemble the clique families for n orbitals.

    The plane order q is the smallest prime or odd prime power >= n - 1;
    when that exceeds n - 1 the anchor groups are truncated to in-range
    labels but all q^2 of them are kept.  Even n builds all four families,
    1 + 2(n-1) + (n-1)^2 + q^2 cliques: the closed form 2*n^2 - 2*n + 1
    when q = n - 1.

    Odd n builds n(n-1) + q^2 cliques and no ``part`` or ``one_body``
    clique.  Each of the n pairing rounds leaves one label out, its bye, and
    the round's block also holds the bye's number operator, after its pairs.
    ``diff_spin`` takes up round i with down round j for i != j only.  Every
    term still routes.  Same-spin terms are covered by the anchor groups, as
    at even n.  Each label is the bye of exactly one round.  A cross-spin
    term (a up, b down), with spins swapped likewise, is held by:

        a, b pairs of different rounds       diff_spin (round(a), round(b))
        a, b pairs of one round              same_spin: a = b lies on q - 1
                                             anchors, disjoint a, b meet at
                                             one off-conic anchor
        a a pair, b = n_p, p the bye of j    diff_spin (round(a), j) when
                                             j != round(a); else p is not
                                             in a, and the anchor where a
                                             meets tangent(p) holds both
        n_p, n_r with p != r                 diff_spin (bye p's, bye r's)
        n_p, n_p                             any anchor on tangent(p)

    Nothing is left over, and no clique is redundant: with p the bye of
    round j, ``diff_spin`` (i, j) alone holds round i's up pair through p
    times n_p down (their lines meet at S(p), on the conic), and each anchor
    group alone holds the products of the pairs whose lines meet there.
    A bye's number operator is laid out exactly as the unused mode it
    fills, so it adds a decode table to its clique's circuit and no gate.

    A clique's ``ops`` are its two blocks joined: a ``one_body`` clique's
    round before the other spin's numbers, the up block first elsewhere.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pi = plane_order_at_least(max(2, n - 1))
    rounds = build_rounds(n)
    anchor_groups = build_cover(pi, n)
    odd = n % 2 == 1
    if odd:
        # the labels sum to n(n-1)/2, so the bye is what the round's pairs leave
        byes = [n * (n - 1) // 2 - sum(p + q for p, q in rnd) for rnd in rounds]
        rounds = [rnd + ((bye, bye),) for rnd, bye in zip(rounds, byes)]

    def block(pairs, spin: int) -> Block:
        ops = tuple([HoppingOp(p, q, spin) for p, q in pairs])
        _check_disjoint_within_spin(ops)
        return ops

    paired = [[block(rnd, spin) for rnd in rounds] for spin in (UP, DOWN)]
    anchored = [[block(g.members, spin) for g in anchor_groups] for spin in (UP, DOWN)]
    cliques: list[MeasurementClique] = []

    def add(family: str, first: Block, second: Block, source: tuple | None) -> None:
        cliques.append(MeasurementClique(len(cliques), family, first + second, source))

    if not odd:
        numbers = [block([(p, p) for p in range(n)], spin) for spin in (UP, DOWN)]
        add("part", numbers[UP], numbers[DOWN], None)
        for spin in (UP, DOWN):
            for i, rnd in enumerate(paired[spin]):
                add("one_body", rnd, numbers[1 - spin], ("round", spin, i))
    for i, up in enumerate(paired[UP]):
        for j, down in enumerate(paired[DOWN]):
            if i != j or not odd:
                add("diff_spin", up, down, ("rounds", i, j))
    for group, up, down in zip(anchor_groups, *anchored):
        add("same_spin", up, down, ("anchor", point_code(group.anchor, pi)))
    return Universe(n, pi, anchor_groups, cliques)


def construction_total(n: int) -> int:
    """The number of cliques ``build_universe(n)`` makes, counted without
    building them: 1 + 2(n-1) + (n-1)^2 + q^2 at even n, n(n-1) + q^2 at odd n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q = plane_order_at_least(max(2, n - 1))
    return (n * (n - 1) if n % 2 else 1 + 2 * (n - 1) + (n - 1) ** 2) + q * q


def route_term(term: TermKey, universe: Universe) -> int:
    """Lowest-id clique containing every factor of the term: the lowest set
    bit of the AND of the factors' clique masks."""
    masks = universe.op_masks
    common = -1
    for op in term:
        common &= masks.get(op, 0)
    if not common:
        raise CoverageError(f"no clique covers {term}")
    return (common & -common).bit_length() - 1

class Hamiltonian:
    """Molecular Hamiltonian data: scalar shift, one- and two-body tensors.

    ``h`` has shape (2, N, N) indexed by (spin, p, q); ``g`` has shape
    (2, 2, N, N, N, N) indexed by (spin1, spin2, p, q, r, s).  The energy is

        e_nuc + 1/2 sum h[s,p,q] A(p,q,s) + 1/8 sum g[s,t,p,q,r,u] A(p,q,s) A(r,u,t)

    with both index pairs of g running over the full range.  Validation
    enforces the real-orbital symmetries (symmetric h, g symmetric under
    p<->q and r<->u) and pair exchange g[s,t,p,q,r,u] = g[t,s,r,u,p,q];
    without the latter the operator sum is not Hermitian and no energy is
    defined.
    """

    def __init__(self, n_orbitals: int, e_nuc: float, h: np.ndarray, g: np.ndarray) -> None:
        import numpy as np

        n = self.n_orbitals = n_orbitals
        if n < 0:
            raise ValueError(f"n_orbitals must not be negative, got {n}")
        self.e_nuc = e_nuc
        self.h = np.asarray(h, dtype=float)
        self.g = np.asarray(g, dtype=float)
        for name, value in (("e_nuc", self.e_nuc), ("h", self.h), ("g", self.g)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has a non-finite entry (NaN or infinity)")
        if self.h.shape != (2, n, n):
            raise ValueError(f"h must have shape (2, {n}, {n}), got {self.h.shape}")
        if self.g.shape != (2, 2, n, n, n, n):
            raise ValueError(f"g must have shape (2, 2, {n}, {n}, {n}, {n}), got {self.g.shape}")
        checks = [
            ("h[p,q] == h[q,p]", self.h, self.h.transpose(0, 2, 1)),
            ("g[p,q,r,s] == g[q,p,r,s]", self.g, self.g.transpose(0, 1, 3, 2, 4, 5)),
            ("g[p,q,r,s] == g[p,q,s,r]", self.g, self.g.transpose(0, 1, 2, 3, 5, 4)),
            ("g[s,t,p,q,r,u] == g[t,s,r,u,p,q]", self.g, self.g.transpose(1, 0, 4, 5, 2, 3)),
        ]
        for name, a, b in checks:
            with np.errstate(over="ignore"):  # an overflow is an infinite error
                err = float(np.max(np.abs(a - b))) if a.size else 0.0
            if err > SYMMETRY_TOL:
                raise ValueError(f"coefficient symmetry violated: {name} (max error {err:.3e})")

    def to_dict(self) -> dict:
        return {
            "n_orbitals": self.n_orbitals,
            "e_nuc": self.e_nuc,
            "h": self.h.tolist(),
            "g": self.g.tolist(),
        }

    def save(self, path: str) -> None:
        # json.dumps encodes in C; json.dump streams through the Python encoder
        with open(path, "w") as f:
            f.write(json.dumps(self.to_dict()) + "\n")


def _is_number(value) -> bool:
    """A JSON number: ``true`` and ``false`` load as Python bools, which are ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _all_numbers(value) -> bool:
    """``value`` is nested lists whose leaves are JSON numbers, all at one
    depth.  Each nesting level is checked by its set of types: all lists, or
    all ints and floats (a bool, string or null is neither)."""
    level = [value]
    while level:
        types = set(map(type, level))
        if types <= {int, float}:
            return True
        if types != {list}:
            return False
        level = [item for items in level for item in items]
    return True


def load_hamiltonian(path: str) -> Hamiltonian:
    """Read the JSON form: {n_orbitals, e_nuc, h, g} with nested row-major lists."""
    import numpy as np

    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    for key in ("n_orbitals", "e_nuc", "h", "g"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    n, e_nuc = data["n_orbitals"], data["e_nuc"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n_orbitals must be an integer, got {n!r}")
    if not _is_number(e_nuc):
        raise ValueError(f"e_nuc must be a real number, got {e_nuc!r}")
    for key in ("h", "g"):
        if not _all_numbers(data[key]):
            raise ValueError(f"{key} must be nested lists of numbers")
    try:
        e_nuc = float(e_nuc)
        h, g = (np.asarray(data[key], dtype=float) for key in ("h", "g"))
    except OverflowError as exc:
        raise ValueError(f"e_nuc, h and g must fit in a float: {exc}") from None
    return Hamiltonian(n_orbitals=n, e_nuc=e_nuc, h=h, g=g)


_G_SYMMETRY_AXES = [
    (0, 1, 2, 3, 4, 5),
    (0, 1, 3, 2, 4, 5),
    (0, 1, 2, 3, 5, 4),
    (0, 1, 3, 2, 5, 4),
    (1, 0, 4, 5, 2, 3),
    (1, 0, 5, 4, 2, 3),
    (1, 0, 4, 5, 3, 2),
    (1, 0, 5, 4, 3, 2),
]


def random_hamiltonian(n: int, seed: int) -> Hamiltonian:
    """Random tensors with all required symmetries, for testing and demos."""
    import numpy as np

    rng = np.random.default_rng(seed)
    h = rng.normal(size=(2, n, n))
    h = (h + h.transpose(0, 2, 1)) / 2
    g = rng.normal(size=(2, 2, n, n, n, n))
    g = sum(g.transpose(axes) for axes in _G_SYMMETRY_AXES) / len(_G_SYMMETRY_AXES)
    return Hamiltonian(n, float(rng.normal()), h, g)

def decompose(ham: Hamiltonian) -> Decomposition:
    """Expand the Hamiltonian onto the measurable term basis.

    Terms are built on the canonical pairs i = (p, q), p <= q, read as the
    factor X_i = A_pq when p < q and X_i = n_p when p == q (A_pp = 2 n_p).
    Summing g/8 over both orders of each index pair gives ``f[s, t, i, j]``,
    the coefficient of X_i^s X_j^t; h/2 summed the same way gives each
    one-body coefficient.  Cross-spin and index-disjoint same-spin products
    are terms as they stand.  A same-spin product of pairs i <= j enters
    through c = f_ij + f_ji (f_ii when i == j) and, when the pairs share an
    index, is rewritten with exactly one of the identities

        n_p n_p = n_p
        A_pq A_pq = n_p + n_q - 2 n_p n_q
        n_y A_yz + A_yz n_y = A_yz
        A_xy A_yz + A_yz A_xy = A_xz - 2 n_y A_xz     (x, y, z distinct)

    applied to c/2 times the anticommutator, which is f_ij X_i X_j + f_ji X_j X_i
    because pair exchange makes f_ij = f_ji.
    """
    import numpy as np

    n = ham.n_orbitals
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    ps, qs = np.array(pairs).T
    g = ham.g + ham.g.transpose(0, 1, 3, 2, 4, 5)
    f = (g + g.transpose(0, 1, 2, 3, 5, 4))[:, :, ps, qs][..., ps, qs] / 8
    hs = (ham.h + ham.h.transpose(0, 2, 1))[:, ps, qs] / 2
    ops = [[HoppingOp(p, q, spin) for p, q in pairs] for spin in (UP, DOWN)]
    coeff: dict[TermKey, float] = {}

    def bump(c: float, *factors: HoppingOp) -> None:
        key = tuple(sorted(factors))
        coeff[key] = coeff.get(key, 0.0) + c

    for s in (UP, DOWN):
        for i, a in enumerate(ops[s]):
            bump(hs[s, i], a)
            for j, b in enumerate(ops[1 - s]):
                bump(f[s, 1 - s, i, j], a, b)
            for j, b in enumerate(ops[s][i:], i):
                c = f[s, s, i, i] if i == j else f[s, s, i, j] + f[s, s, j, i]
                if a.indices.isdisjoint(b.indices):
                    bump(c, a, b)
                elif a == b and a.is_number:
                    bump(c, a)
                elif a == b:
                    np_, nq = HoppingOp(a.p, a.p, s), HoppingOp(a.q, a.q, s)
                    bump(c, np_)
                    bump(c, nq)
                    bump(-2 * c, np_, nq)
                elif a.is_number or b.is_number:
                    bump(c / 2, b if a.is_number else a)
                else:
                    (y,) = a.indices & b.indices
                    xz = HoppingOp(*sorted(a.indices ^ b.indices), s)
                    bump(c / 2, xz)
                    bump(-c, HoppingOp(y, y, s), xz)
    # a sum of finite entries can overflow; an infinity never cancels back to a finite value
    if not all(math.isfinite(v) for v in coeff.values()):
        raise ValueError("a decomposition coefficient is not finite: "
                         "sums of the entries of h and g overflow a float")
    return ham.e_nuc, {k: v for k, v in coeff.items() if v != 0.0}
