"""Position vectors, adjacent-pair layouts and odd-even sorting networks."""

import itertools
import random
from itertools import groupby
from operator import add, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planesched.swapnet import (
    UNUSED,
    SwapNetwork,
    _balance,
    adjacent_target,
    odd_even_sort,
    position_vector,
)
from planesched.universe import DOWN, UP, HoppingOp, build_universe


def test_position_vector_two_pairs():
    ops = [HoppingOp(0, 2, UP), HoppingOp(1, 3, UP)]
    assert position_vector(ops, 4) == [0, 2, 1, 3]


def test_position_vector_sorted_pair():
    assert position_vector([HoppingOp(0, 1, UP)], 2) == [0, 1]


def test_position_vector_empty():
    assert position_vector([], 3) == [UNUSED, UNUSED, UNUSED]


def test_position_vector_numbers_follow_pairs():
    ops = [HoppingOp(0, 3, UP), HoppingOp(2, 2, UP)]
    # pair ranks 0,1 on modes 0,3; the number operator ranks next on mode 2
    assert position_vector(ops, 4) == [0, UNUSED, 2, 1]


def test_position_vector_rejects_duplicates():
    with pytest.raises(ValueError):
        position_vector([HoppingOp(0, 1, UP), HoppingOp(1, 2, UP)], 4)


def sort_oracle(p):
    real = sorted(v for v in p if v != UNUSED)
    return real + [UNUSED] * (len(p) - len(real))


def apply_network(p, net):
    work = list(p)
    for layer in net.layers:
        for l in layer:
            work[l], work[l + 1] = work[l + 1], work[l]
    return work


def test_single_swap_case():
    net = odd_even_sort([0, 2, 1, 3])
    assert len(net.layers) == 1
    assert net.layers[0] == (1,)
    assert net.layers[0][0] % 2 == 1  # an odd compare
    assert net.permutation == (0, 2, 1, 3)
    # the permutation returns each rank to its slot: perm[mode of rank m] == m
    k_sequence = [0, 2, 1, 3]
    assert [net.permutation[mode] for mode in k_sequence] == [0, 1, 2, 3]


def test_already_sorted_is_empty():
    net = odd_even_sort([0, 1, 2, 3])
    assert net.layers == ()
    assert net.permutation == (0, 1, 2, 3)


def test_full_reversal():
    net = odd_even_sort([3, 2, 1, 0])
    assert len(net.layers) <= 4
    assert apply_network([3, 2, 1, 0], net) == [0, 1, 2, 3]


def test_random_vectors_sort_within_depth_bound():
    rng = random.Random(7)
    for n in range(1, 17):
        for _ in range(30):
            ranks = list(range(rng.randint(0, n)))
            p = ranks + [UNUSED] * (n - len(ranks))
            rng.shuffle(p)
            net = odd_even_sort(p)
            assert len(net.layers) <= n
            assert apply_network(p, net) == sort_oracle(p)
            for layer in net.layers:
                # swaps within a layer touch disjoint adjacent slots
                starts = sorted(layer)
                assert all(b - a >= 2 for a, b in zip(starts, starts[1:]))
                # every compare of one pass has the pass's parity
                assert all(l % 2 == layer[0] % 2 for l in layer)


def test_permutation_tracks_modes():
    rng = random.Random(3)
    for n in (2, 5, 8, 13):
        p = list(range(n))
        rng.shuffle(p)
        net = odd_even_sort(p)
        for mode, rank in enumerate(p):
            assert net.permutation[mode] == rank


def test_all_cliques_sort_within_block_depth():
    for n in (3, 4, 6, 8):
        universe = build_universe(n)
        for clique in universe.cliques:
            for spin in (UP, DOWN):
                ops = clique.ops_for_spin(spin)
                net = odd_even_sort(position_vector(ops, n))
                assert len(net.layers) <= n
                assert net.swap_count <= n * n // 2
                hops = [op for op in ops if not op.is_number]
                nums = [op for op in ops if op.is_number]
                for m, op in enumerate(hops):
                    assert net.permutation[op.p] == 2 * m
                    assert net.permutation[op.q] == 2 * m + 1
                for j, op in enumerate(nums):
                    assert net.permutation[op.p] == 2 * len(hops) + j


def reference_odd_even_sort(p, first):
    """The first implementation, its first pass on the ``first`` parity
    ("odd" or "even"): a key call per compare and a full sortedness scan
    after every pass."""

    def key(value):
        return value if value != UNUSED else 1 << 30

    n = len(p)
    work = list(p)
    slot_of = list(range(n))
    mode_at = list(range(n))
    layers = []
    second = "even" if first == "odd" else "odd"
    for pass_idx in range(n):
        parity = first if pass_idx % 2 == 0 else second
        start = 1 if parity == "odd" else 0
        swaps = []
        for l in range(start, n - 1, 2):
            if key(work[l]) > key(work[l + 1]):
                work[l], work[l + 1] = work[l + 1], work[l]
                ma, mb = mode_at[l], mode_at[l + 1]
                mode_at[l], mode_at[l + 1] = mb, ma
                slot_of[ma], slot_of[mb] = l + 1, l
                swaps.append(l)
        if swaps:
            layers.append(tuple(swaps))
        if all(key(work[i]) <= key(work[i + 1]) for i in range(n - 1)):
            break
    return SwapNetwork(tuple(layers), tuple(slot_of))


def assert_sort_is_the_shallower_reference(p):
    """``odd_even_sort(p)`` is the reference network from one start, and the
    shallower one: the odd start on a tie."""
    odd, even = reference_odd_even_sort(p, "odd"), reference_odd_even_sort(p, "even")
    assert odd_even_sort(p) == (even if even.depth < odd.depth else odd), p


def test_sort_matches_reference_on_every_small_permutation():
    for n in range(8):
        for p in itertools.permutations(range(n)):
            assert_sort_is_the_shallower_reference(p)


def test_sort_matches_reference_on_random_vectors_with_unused():
    rng = random.Random(11)
    for n in range(1, 33):
        for _ in range(40):
            ranks = list(range(rng.randint(0, n)))
            p = ranks + [UNUSED] * (n - len(ranks))
            rng.shuffle(p)
            assert_sort_is_the_shallower_reference(p)


def test_even_start_saves_a_layer():
    # mode 3 travels three slots left and its first compare, (2, 3), is
    # even: the odd start leaves it waiting a pass
    p = (1, 3, 2, 0)
    assert reference_odd_even_sort(p, "odd").depth == 4
    net = odd_even_sort(p)
    assert net == reference_odd_even_sort(p, "even")
    assert net.depth == 3
    assert [layer[0] % 2 for layer in net.layers] == [0, 1, 0]  # even, odd, even
    assert apply_network(p, net) == [0, 1, 2, 3]


def test_adjacent_target_circle_round():
    # nested pairs share the key 5/2: the narrowest at the two ends, the
    # widest in the middle
    ops = [HoppingOp(0, 5, UP), HoppingOp(1, 4, UP), HoppingOp(2, 3, UP)]
    assert adjacent_target(ops, 6) == (2, 4, 0, 1, 5, 3)
    # 1st and 3rd left to right, then the 2nd right to left
    assert [mode for _, mode in sorted(zip(adjacent_target(ops, 6), range(6)))] == [
        2, 3, 0, 5, 1, 4]


def test_adjacent_target_numbers_and_unused_modes_keep_their_place():
    assert adjacent_target([], 3) == (0, 1, 2)
    assert adjacent_target([HoppingOp(p, p, UP) for p in range(4)], 4) == (0, 1, 2, 3)
    # A(0, 3) has key 3/2; mode 1 (number) has key 1, unused mode 2 has key 2
    assert adjacent_target([HoppingOp(0, 3, UP), HoppingOp(1, 1, UP)], 4) == (1, 0, 3, 2)
    # a pair that is already adjacent stays where it is
    assert adjacent_target([HoppingOp(1, 2, DOWN)], 4) == (0, 1, 2, 3)


def test_balance_trades_only_nested_neighbours():
    # mode 3 lies inside the pair (0, 5): behind the pair the three modes
    # travel 0, 4 and 1 slots, in front of it 3, 1 and 3
    order = [(0, 5), (3,)]
    _balance(order)
    assert order == [(3,), (0, 5)]
    # modes 2 and 0 would travel less traded, but neither lies inside the other
    order = [(2,), (0,), (1,)]
    _balance(order)
    assert order == [(2,), (0,), (1,)]


def test_adjacent_target_rejects_bad_blocks():
    with pytest.raises(ValueError, match="appears twice"):
        adjacent_target([HoppingOp(0, 1, UP), HoppingOp(1, 2, UP)], 4)
    with pytest.raises(ValueError, match="out of range"):
        adjacent_target([HoppingOp(0, 4, UP)], 4)


def test_every_block_meets_on_adjacent_slots_within_the_sorted_layouts_swaps():
    """Every distinct spin block at N = 2 to 16: the layout is a
    permutation, each pair ends on adjacent slots, smaller mode left, and
    its network is at most n deep and never swaps more than the network of
    the sorted layout (pair k on slots (2k, 2k+1))."""
    for n in range(2, 17):
        blocks = {clique.ops_for_spin(spin)
                  for clique in build_universe(n).cliques for spin in (UP, DOWN)}
        for ops in sorted(blocks):
            target = adjacent_target(ops, n)
            assert sorted(target) == list(range(n)), (n, ops)
            net = odd_even_sort(target)
            assert net.permutation == target, (n, ops)
            for op in ops:
                if not op.is_number:
                    assert target[op.q] == target[op.p] + 1, (n, op)
            assert net.depth <= n, (n, ops)
            assert net.swap_count <= odd_even_sort(position_vector(ops, n)).swap_count, (n, ops)


@pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
def test_round_blocks_are_half_the_line_deep(n):
    """The circle method fixes label n // 2, the middle of the line, so no
    round pairs the two ends: every one_body and diff_spin block sorts in
    at most ceil((n - 2) / 2) + 2 layers."""
    blocks = {clique.ops_for_spin(spin)
              for clique in build_universe(n).cliques
              if clique.family in ("one_body", "diff_spin") for spin in (UP, DOWN)}
    bound = -(-(n - 2) // 2) + 2
    for ops in sorted(blocks):
        assert odd_even_sort(adjacent_target(ops, n)).depth <= bound, (n, ops)


def reference_adjacent_target_v4(ops, n):
    """Format 4's layout: the units sorted by (key, width), each run of equal
    keys placed 1st, 3rd, ... left to right and 2nd, 4th, ... right to left,
    with no balancing."""
    used = {mode for op in ops for mode in (op.p, op.q)}
    units = [(op.p + op.q, op.q - op.p, (op.p,) if op.is_number else (op.p, op.q))
             for op in ops]
    units += [(2 * mode, 0, (mode,)) for mode in range(n) if mode not in used]
    order = []
    for _, run in groupby(sorted(units), key=itemgetter(0)):
        run = list(run)
        order += [members for _, _, members in run[0::2] + run[1::2][::-1]]
    target = [UNUSED] * n
    for slot, mode in enumerate(mode for members in order for mode in members):
        target[mode] = slot
    return tuple(target)


def distinct_blocks(n):
    return sorted({clique.ops_for_spin(spin)
                   for clique in build_universe(n).cliques for spin in (UP, DOWN)})


@pytest.mark.parametrize("n", range(2, 21))
def test_balancing_never_costs_a_swap_or_a_layer(n):
    """Against format 4's layout, every distinct block sorts with the same
    swaps and no more layers."""
    for ops in distinct_blocks(n):
        net = odd_even_sort(adjacent_target(ops, n))
        ref = odd_even_sort(reference_adjacent_target_v4(ops, n))
        assert net.swap_count == ref.swap_count, (n, ops)
        assert net.depth <= ref.depth, (n, ops)


def least_inversions(ops, n):
    """The fewest inversions over every admissible layout of a block: its
    units (each pair, smaller mode first, each number operator and each
    unused mode) in any order.  Unit a before unit b costs the mode pairs
    (x in a, y in b) with x > y; a subset DP finds the cheapest order."""
    used = {mode for op in ops for mode in (op.p, op.q)}
    units = [(op.p,) if op.is_number else (op.p, op.q) for op in ops]
    units += [(mode,) for mode in range(n) if mode not in used]
    cost = [[sum(x > y for x in a for y in b) for b in units] for a in units]
    k = len(units)
    # into[placed][b]: the cost of unit b right after the units in ``placed``
    into = [[0] * k]
    best = [0] + [float("inf")] * ((1 << k) - 1)  # by the set of units placed first
    for placed in range(1 << k):
        if placed:
            low = (placed & -placed).bit_length() - 1
            into.append(list(map(add, into[placed & (placed - 1)], cost[low])))
        for b in range(k):
            if not placed >> b & 1:
                key = placed | 1 << b
                best[key] = min(best[key], best[placed] + into[placed][b])
    return best[-1]


def test_every_block_sorts_with_the_fewest_swaps_any_layout_allows():
    """A network of adjacent swaps needs at least the inversion count of
    its final layout, and odd-even sort does exactly that many.  Every
    distinct block with a hopping pair at N = 2 to 16 already reaches the
    least inversion count over all admissible layouts."""
    for n in range(2, 17):
        for ops in distinct_blocks(n):
            if all(op.is_number for op in ops):
                continue  # every unit is one mode: nothing to swap
            swaps = odd_even_sort(adjacent_target(ops, n)).swap_count
            assert swaps == least_inversions(ops, n), (n, ops)


@st.composite
def disjoint_blocks(draw):
    """A block size n <= 24 and index-disjoint operators on it: hopping
    pairs and number operators, in any order."""
    n = draw(st.integers(1, 24), label="n")
    modes = draw(st.permutations(range(n)), label="modes")
    pairs = draw(st.integers(0, n // 2), label="pairs")
    numbers = draw(st.integers(0, n - 2 * pairs), label="numbers")
    ops = [HoppingOp(min(modes[2 * k], modes[2 * k + 1]), max(modes[2 * k], modes[2 * k + 1]), UP)
           for k in range(pairs)]
    ops += [HoppingOp(p, p, UP) for p in modes[2 * pairs:2 * pairs + numbers]]
    return n, draw(st.permutations(ops), label="ops")


@settings(max_examples=300, deadline=None)
@given(disjoint_blocks())
def test_any_disjoint_block_meets_on_adjacent_slots_with_format_4s_swaps(block):
    n, ops = block
    target = adjacent_target(ops, n)
    assert sorted(target) == list(range(n))
    for op in ops:
        if not op.is_number:
            assert target[op.q] == target[op.p] + 1, op
    assert (odd_even_sort(target).swap_count
            == odd_even_sort(reference_adjacent_target_v4(ops, n)).swap_count)


@pytest.mark.parametrize("n", [16, 18, 24, 32, 48])
def test_every_block_sorts_in_half_the_line(n):
    """At these sizes every distinct spin block of every family, anchor
    groups included, sorts in at most n / 2 layers."""
    assert max(odd_even_sort(adjacent_target(ops, n)).depth for ops in distinct_blocks(n)) <= n // 2


@pytest.mark.parametrize("n", [7, 25, 26, 36])
def test_every_block_sorts_in_half_the_line_plus_one(n):
    """An odd size, the prime-power orders 25 and 27 and the truncated
    order 37: every distinct spin block sorts in at most ceil(n / 2) + 1
    layers."""
    bound = -(-n // 2) + 1
    assert max(odd_even_sort(adjacent_target(ops, n)).depth for ops in distinct_blocks(n)) <= bound
