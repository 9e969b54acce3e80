"""Nearest-neighbor sorting networks that compact a clique's mode indices.

Measuring a clique needs each hopping operator's two modes adjacent and in a
fixed slot: operator m ends up on modes (2m, 2m+1) of its spin block, with
number operators parked after the paired slots and unused modes last.  The
sort is the odd-even transposition network (odd-indexed compares first), so
a block of n modes never needs more than n layers and each layer's swaps are
disjoint nearest-neighbor transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .universe import HoppingOp

UNUSED = -1  # sorts after every real position


@dataclass(frozen=True)
class SwapLayer:
    parity: str  # "odd" | "even": index parity of the left slot of each compare
    swaps: tuple[int, ...]  # left slot l of each transposition (l, l+1)


@dataclass(frozen=True)
class SwapNetwork:
    n: int
    layers: tuple[SwapLayer, ...]
    permutation: tuple[int, ...]  # original mode -> final slot

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


def _key(value: int) -> int:
    # UNUSED compares above every real rank
    return value if value != UNUSED else 1 << 30


def odd_even_sort(p: Sequence[int]) -> SwapNetwork:
    """Sorting network for a position vector, odd compares first.

    Returns only the non-empty layers plus the realized mode permutation;
    after at most len(p) passes the vector is sorted with all -1 at the end.
    """
    n = len(p)
    work = list(p)
    slot_of = list(range(n))  # mode -> current slot
    mode_at = list(range(n))  # slot -> mode
    layers: list[SwapLayer] = []
    for pass_idx in range(n):
        parity = "odd" if pass_idx % 2 == 0 else "even"
        start = 1 if parity == "odd" else 0
        swaps: list[int] = []
        for l in range(start, n - 1, 2):
            if _key(work[l]) > _key(work[l + 1]):
                work[l], work[l + 1] = work[l + 1], work[l]
                ma, mb = mode_at[l], mode_at[l + 1]
                mode_at[l], mode_at[l + 1] = mb, ma
                slot_of[ma], slot_of[mb] = l + 1, l
                swaps.append(l)
        if swaps:
            layers.append(SwapLayer(parity, tuple(swaps)))
        if all(_key(work[i]) <= _key(work[i + 1]) for i in range(n - 1)):
            break
    if any(_key(work[i]) > _key(work[i + 1]) for i in range(n - 1)):
        raise RuntimeError(f"odd-even sort left {work} unsorted after {n} passes")
    return SwapNetwork(n, tuple(layers), tuple(slot_of))
