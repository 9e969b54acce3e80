"""Round-robin pairing rounds via the circle method.

Every unordered pair from {0, ..., n-1} is covered exactly once across the
rounds, and within a round no index appears twice.  Even n needs n - 1
rounds; odd n gets a phantom participant and needs n rounds, with the
phantom's partner sitting out.

The circle method keeps one participant fixed, and that participant is in a
pair in every round.  The labels are positions on a line of qubits, and a
pair's swap network is as deep as its partners are far apart.  So the fixed
participant is label n // 2, the middle of the line: its partner is never
more than about n / 2 places away, where a fixed end label would be paired
with the far end of the line.
"""

from __future__ import annotations

Round = tuple[tuple[int, int], ...]


def build_rounds(n: int) -> list[Round]:
    """Partition all pairs (p, q), p < q, into rounds of disjoint pairs.

    Label n // 2 stays fixed while the others rotate, which keeps the
    output deterministic and each round's swap network shallow (see the
    module docstring); these are the rounds of the circle method fixed at
    label 0 with labels 0 and n // 2 swapped.  Pairs are normalized to
    p < q and sorted within each round.
    """
    if n < 2:
        raise ValueError(f"need at least two participants, got {n}")
    m = n if n % 2 == 0 else n + 1
    phantom = m - 1 if n % 2 == 1 else None
    middle = n // 2
    others = [0 if label == middle else label for label in range(1, m)]
    rounds: list[Round] = []
    for _ in range(m - 1):
        raw = [(middle, others[0])]
        for i in range(1, m // 2):
            raw.append((others[i], others[m - 1 - i]))
        pairs = sorted(
            (min(a, b), max(a, b)) for a, b in raw if phantom not in (a, b)
        )
        rounds.append(tuple(pairs))
        others = others[1:] + others[:1]
    return rounds
