"""Brute-force coset oracle for the tests.

It finds the left cosets x W_J of a subgroup by multiplying group elements,
and counts the cosets that w fixes.  The library gets the same permutation
characters from class counts; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from rootvol.weylgrp import GroupTable, Matrix
from weylgrp_oracle import _matmul


def product_index(
    elements: Sequence[Matrix], index: dict[Matrix, int], i: int, j: int
) -> int:
    return index[_matmul(elements[i], elements[j])]


@dataclass(frozen=True)
class SubgroupCosets:
    """Left cosets x W_J of a reflection subgroup, one id per element.

    `elements` are the group's matrices from `table.element`, and `index`
    maps each matrix back to its element index."""

    elements: tuple[Matrix, ...]
    index: dict[Matrix, int]
    members: tuple[int, ...]
    coset_of: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


def left_cosets(table: GroupTable, members: Sequence[int]) -> SubgroupCosets:
    elements = tuple(table.element(i) for i in range(table.order))
    index = {w: i for i, w in enumerate(elements)}
    coset_of = [-1] * table.order
    reps: list[int] = []
    for i in range(table.order):
        if coset_of[i] != -1:
            continue
        cid = len(reps)
        reps.append(i)
        for m in members:
            coset_of[product_index(elements, index, i, m)] = cid
    if len(members) * len(reps) != table.order:
        raise RuntimeError("coset partition does not tile the group")
    return SubgroupCosets(elements, index, tuple(members), tuple(coset_of), tuple(reps))


def perm_character(cosets: SubgroupCosets, w: Matrix) -> int:
    """Number of left cosets fixed by left multiplication with w."""
    try:
        widx = cosets.index[w]
    except KeyError:
        raise ValueError("element does not belong to this group") from None
    fixed = 0
    for rep in cosets.representatives:
        product = product_index(cosets.elements, cosets.index, widx, rep)
        if cosets.coset_of[product] == cosets.coset_of[rep]:
            fixed += 1
    return fixed
