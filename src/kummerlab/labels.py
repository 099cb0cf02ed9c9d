"""Canonical label scheme shared by every module.

The ambient divisor basis has 17 labels: ``L`` followed by the sixteen node
labels ``E0, E12, E13, ..., E56`` (index pairs in lexicographic order).  The
sixteen trope labels ``C0, C12, ..., C56`` follow the same pair order.  All
serialization and iteration in the package uses these orders, so reports are
reproducible byte for byte.
"""

from __future__ import annotations

INDEX_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, 7) for j in range(i + 1, 7)
)

NODE_LABELS: tuple[str, ...] = ("E0",) + tuple(f"E{i}{j}" for i, j in INDEX_PAIRS)
TROPE_LABELS: tuple[str, ...] = ("C0",) + tuple(f"C{i}{j}" for i, j in INDEX_PAIRS)
BASIS_LABELS: tuple[str, ...] = ("L",) + NODE_LABELS

NODE_INDEX: dict[str, int] = {label: k for k, label in enumerate(NODE_LABELS)}


def node_label(i: int, j: int) -> str:
    """Label of the node of an unordered index pair, e.g. ``node_label(4, 2) == "E24"``."""
    if i == j or not (1 <= i <= 6 and 1 <= j <= 6):
        raise ValueError(f"indices must be distinct and in 1..6, got ({i}, {j})")
    return f"E{min(i, j)}{max(i, j)}"


def complement_triple(j: int, k: int) -> tuple[int, int, int]:
    """The increasing triple {1..6} minus {1, j, k}; requires 2 <= j < k <= 6."""
    if not (2 <= j < k <= 6):
        raise ValueError(f"need 2 <= j < k <= 6, got ({j}, {k})")
    rest = sorted(set(range(1, 7)) - {1, j, k})
    return rest[0], rest[1], rest[2]
