"""Position vectors and odd-even sorting networks."""

import itertools
import random

import pytest

from planesched.swapnet import (
    UNUSED,
    SwapLayer,
    SwapNetwork,
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
        for l in layer.swaps:
            work[l], work[l + 1] = work[l + 1], work[l]
    return work


def test_single_swap_case():
    net = odd_even_sort([0, 2, 1, 3])
    assert len(net.layers) == 1
    assert net.layers[0].parity == "odd"
    assert net.layers[0].swaps == (1,)
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
                starts = sorted(layer.swaps)
                assert all(b - a >= 2 for a, b in zip(starts, starts[1:]))
                offset = 1 if layer.parity == "odd" else 0
                assert all(l % 2 == offset for l in layer.swaps)


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


def reference_odd_even_sort(p):
    """The first implementation: a key call per compare and a full sortedness
    scan after every pass."""

    def key(value):
        return value if value != UNUSED else 1 << 30

    n = len(p)
    work = list(p)
    slot_of = list(range(n))
    mode_at = list(range(n))
    layers = []
    for pass_idx in range(n):
        parity = "odd" if pass_idx % 2 == 0 else "even"
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
            layers.append(SwapLayer(parity, tuple(swaps)))
        if all(key(work[i]) <= key(work[i + 1]) for i in range(n - 1)):
            break
    return SwapNetwork(n, tuple(layers), tuple(slot_of))


def test_sort_matches_reference_on_every_small_permutation():
    for n in range(8):
        for p in itertools.permutations(range(n)):
            assert odd_even_sort(p) == reference_odd_even_sort(p), p


def test_sort_matches_reference_on_random_vectors_with_unused():
    rng = random.Random(11)
    for n in range(1, 33):
        for _ in range(40):
            ranks = list(range(rng.randint(0, n)))
            p = ranks + [UNUSED] * (n - len(ranks))
            rng.shuffle(p)
            assert odd_even_sort(p) == reference_odd_even_sort(p), p


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
