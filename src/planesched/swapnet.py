"""Nearest-neighbor sorting networks that bring a clique's hopping pairs together.

Measuring a clique needs each hopping operator's two modes on adjacent
slots of its spin block; which two slots is free.  ``adjacent_target``
chooses them by one rule: every operator, and every mode the block does not
use, is a unit placed near the mean of its modes, so each pair meets close
to where its modes already are.  The network is the odd-even transposition
sort of that target (odd-indexed compares first), so a block of n modes
never needs more than n layers and each layer's swaps are disjoint
nearest-neighbor transpositions.  ``position_vector`` is the earlier
layout, hopping operator m on slots (2m, 2m+1) and the number operators
after the pairs; it stays as the reference the new layout is measured
against.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

from .universe import HoppingOp

UNUSED = -1  # sorts after every real position


class SwapLayer(namedtuple("SwapLayer", ["parity", "swaps"])):
    """One layer of disjoint compares: ``parity`` is "odd" or "even", the
    index parity of the left slot of each compare, and ``swaps`` holds the
    left slot l of each transposition (l, l+1)."""

    __slots__ = ()


class SwapNetwork(namedtuple("SwapNetwork", ["n", "layers", "permutation"])):
    """The sorting network of an ``n``-mode block: its non-empty ``layers``
    and ``permutation``, original mode -> final slot."""

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def swap_count(self) -> int:
        return sum(len(layer.swaps) for layer in self.layers)


def position_vector(ops: Iterable[HoppingOp], n: int) -> list[int]:
    """Slot targets per mode: entry l is the rank of mode l in the flattened
    index sequence of the clique's operators, or -1 for an unused mode.

    Hopping pairs come first, in clique order, contributing two ranks each;
    number operators follow, one rank each.  Indices must be distinct across
    the operators of one spin sector.
    """
    sequence: list[int] = []
    for op in ops:
        if not op.is_number:
            sequence.extend((op.p, op.q))
    for op in ops:
        if op.is_number:
            sequence.append(op.p)
    pos = [UNUSED] * n
    for rank, mode in enumerate(sequence):
        if not 0 <= mode < n:
            raise ValueError(f"mode {mode} out of range for block of {n}")
        if pos[mode] != UNUSED:
            raise ValueError(f"mode {mode} appears twice in one spin sector")
        pos[mode] = rank
    return pos


def adjacent_target(ops: Iterable[HoppingOp], n: int) -> tuple[int, ...]:
    """Final slot per mode for a spin block: a full permutation of range(n)
    that puts each hopping operator's two modes on adjacent slots.

    A hopping operator A(a, b), a < b, is a two-slot unit with key (a+b)/2
    and width b-a; a number operator n_p, and each mode p the block does not
    use, is a one-slot unit with key p and width 0.  The units are sorted by
    (key, width).  In a run of equal keys (nested pairs, as in a
    circle-method round) the 1st, 3rd, 5th, ... unit is placed left to
    right, then the 2nd, 4th, ... right to left, so the narrowest units sit
    at the two ends and the widest in the middle.  Slots are then assigned
    left to right in that order, the smaller mode of a pair first.
    """
    free = [True] * n
    units = []  # (twice the key, width, members): keys in halves stay integers
    for op in ops:
        members = (op.p,) if op.is_number else (op.p, op.q)
        for mode in members:
            if not 0 <= mode < n:
                raise ValueError(f"mode {mode} out of range for block of {n}")
            if not free[mode]:
                raise ValueError(f"mode {mode} appears twice in one spin sector")
            free[mode] = False
        units.append((op.p + op.q, op.q - op.p, members))
    units += [(2 * mode, 0, (mode,)) for mode in range(n) if free[mode]]
    units.sort()
    target = [UNUSED] * n
    slot = 0
    for _, run in groupby(units, key=itemgetter(0)):
        run = list(run)
        for _, _, members in run[0::2] + run[1::2][::-1]:
            for mode in members:
                target[mode] = slot
                slot += 1
    return tuple(target)


def odd_even_sort(p: Sequence[int]) -> SwapNetwork:
    """Sorting network for a position vector, odd compares first.

    Returns only the non-empty layers plus the realized mode permutation;
    after at most len(p) passes the vector is sorted with all -1 at the end.
    Two passes in a row without a swap have compared every adjacent pair, so
    the sort stops there.
    """
    n = len(p)
    last = max(p, default=UNUSED) + 1  # UNUSED sorts after every real position
    work = [v if v != UNUSED else last for v in p]
    mode_at = list(range(n))  # slot -> mode
    layers: list[SwapLayer] = []
    quiet = 0  # passes in a row without a swap
    for pass_idx in range(n):
        start = 1 - pass_idx % 2  # odd compares on even passes
        swaps: list[int] = []
        for l in range(start, n - 1, 2):
            if work[l] > work[l + 1]:
                work[l], work[l + 1] = work[l + 1], work[l]
                mode_at[l], mode_at[l + 1] = mode_at[l + 1], mode_at[l]
                swaps.append(l)
        if swaps:
            layers.append(SwapLayer("odd" if start else "even", tuple(swaps)))
            quiet = 0
        else:
            quiet += 1
            if quiet == 2:
                break
    else:
        if any(work[i] > work[i + 1] for i in range(n - 1)):
            raise RuntimeError(f"odd-even sort left {list(p)} unsorted after {n} passes")
    slot_of = [0] * n  # mode -> final slot
    for slot, mode in enumerate(mode_at):
        slot_of[mode] = slot
    return SwapNetwork(n, tuple(layers), tuple(slot_of))
