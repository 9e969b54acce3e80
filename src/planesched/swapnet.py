"""Nearest-neighbor sorting networks that bring a clique's hopping pairs together.

Measuring a clique needs each hopping operator's two modes on adjacent
slots of its spin block; which two slots is free.  ``adjacent_target``
chooses them: every operator, and every mode the block does not use, is a
unit placed near the mean of its modes, so each pair meets close to where
its modes already are.  Where a unit lies inside its neighbour's span, the
two then trade places if that makes their modes' travel distances, largest
first, lexicographically smaller; nested units cost the same swaps in
either order, so this lowers depth and never adds a swap.  The network is
the odd-even transposition sort of that target, started on whichever
compare parity gives fewer layers (odd on a tie); a layer is the tuple of
left slots l of its disjoint nearest-neighbor transpositions (l, l+1), and
its parity is that of any of them.  At N = 16, 18, 24, 32 and 48
every spin block of the universe sorts in at most N/2 layers.
``position_vector`` is the earlier layout, hopping operator m on slots
(2m, 2m+1) and the number operators after the pairs; it stays as the
reference the new layout is measured against.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .universe import HoppingOp

UNUSED = -1  # sorts after every real position
_INDICES = attrgetter("p", "q")


class SwapNetwork(namedtuple("SwapNetwork", ["layers", "permutation"])):
    """A block's sorting network: its non-empty ``layers``, each the tuple
    of left slots l of its disjoint transpositions (l, l+1), all of one
    parity, and ``permutation``, original mode -> final slot, one entry per
    mode of the block."""

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def swap_count(self) -> int:
        return sum(map(len, self.layers))


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
    at the two ends and the widest in the middle.  That order is then
    balanced (``_balance``) and slots are assigned left to right in it, the
    smaller mode of a pair first.  Only the operators' indices enter, so
    each distinct index tuple is laid out once.
    """
    return _layout(tuple(map(_INDICES, ops)), n)


@cache
def _layout(pairs: tuple[tuple[int, int], ...], n: int) -> tuple[int, ...]:
    """``adjacent_target`` of the operators with these (p, q) indices."""
    free = [True] * n
    units = []  # (twice the key, width, members): keys in halves stay integers
    for p, q in pairs:
        members = (p,) if p == q else (p, q)
        for mode in members:
            if not 0 <= mode < n:
                raise ValueError(f"mode {mode} out of range for block of {n}")
            if not free[mode]:
                raise ValueError(f"mode {mode} appears twice in one spin sector")
            free[mode] = False
        units.append((p + q, q - p, members))
    units += [(2 * mode, 0, (mode,)) for mode in range(n) if free[mode]]
    units.sort()
    order = []
    for _, run in groupby(units, key=itemgetter(0)):
        run = [members for _, _, members in run]
        order += run[0::2] + run[1::2][::-1]
    _balance(order)
    target = [UNUSED] * n
    slot = 0
    for members in order:
        for mode in members:
            target[mode] = slot
            slot += 1
    return tuple(target)


def _balance(order: list[tuple[int, ...]]) -> None:
    """Swap neighbouring units, in place, where one lies strictly inside the
    other's span and the swap makes the descending-sorted travel distances
    |slot - mode| of their modes lexicographically smaller; pass again until
    a pass swaps nothing.

    Nested units cost the same swaps in either order: each mode of the
    inner unit is out of order with exactly one mode of the outer pair, the
    right one when the pair comes first and the left one when it comes
    second.  So balancing moves depth, never the swap count.  Each swap
    makes the block's sorted distances smaller, so the passes end.
    """
    swapped = len(order) > 1
    while swapped:
        swapped = False
        slot = 0  # first slot of a, the left unit of the compare
        a = order[0]
        for i in range(1, len(order)):
            b = order[i]
            if (a[0] < b[0] and b[-1] < a[-1]) or (b[0] < a[0] and a[-1] < b[-1]):
                # travel distances as they are (a first) and swapped (b first)
                mid, alt = slot + len(a), slot + len(b)
                kept = [abs(slot - a[0]), abs(mid - b[0])]
                moved = [abs(slot - b[0]), abs(alt - a[0])]
                if len(a) == 2:
                    kept.append(abs(slot + 1 - a[1]))
                    moved.append(abs(alt + 1 - a[1]))
                if len(b) == 2:
                    kept.append(abs(mid + 1 - b[1]))
                    moved.append(abs(slot + 1 - b[1]))
                kept.sort(reverse=True)
                moved.sort(reverse=True)
                if moved < kept:
                    order[i - 1], order[i] = b, a
                    swapped = True
                    slot = alt
                    continue
            slot += len(a)
            a = b


def odd_even_sort(p: Sequence[int]) -> SwapNetwork:
    """Sorting network for a position vector: the odd-even transposition
    sort run from both compare parities, keeping the one with fewer layers,
    the odd start on a tie.

    Returns only the non-empty layers plus the realized mode permutation,
    which is the stable sort of ``p`` with every -1 after the real
    positions: a compare never swaps equal values, so either start ends
    there.
    """
    n = len(p)
    last = max(p, default=UNUSED) + 1  # UNUSED sorts after every real position
    work = [v if v != UNUSED else last for v in p]
    slot_of = [0] * n  # mode -> final slot
    for slot, mode in enumerate(sorted(range(n), key=work.__getitem__)):
        slot_of[mode] = slot
    odd, even = _transposition_layers(work, 1), _transposition_layers(work, 0)
    return SwapNetwork(tuple(even if len(even) < len(odd) else odd), tuple(slot_of))


def _transposition_layers(values: list[int], first: int) -> list[tuple[int, ...]]:
    """The non-empty layers of the odd-even transposition sort of ``values``
    (left unchanged) whose first pass compares slots (l, l+1) with
    l % 2 == ``first``.

    The sort stops once the vector is sorted, which takes at most
    len(values) passes.
    """
    n = len(values)
    work, done = list(values), sorted(values)
    layers: list[tuple[int, ...]] = []
    for pass_idx in range(n):
        if work == done:
            break
        start = first ^ (pass_idx % 2)
        swaps = [l for l in range(start, n - 1, 2) if work[l] > work[l + 1]]
        if swaps:
            for l in swaps:
                work[l], work[l + 1] = work[l + 1], work[l]
            layers.append(tuple(swaps))
    if work != done:
        raise RuntimeError(f"odd-even sort left {values} unsorted after {n} passes")
    return layers
