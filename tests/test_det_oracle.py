"""Fraction-free integer determinant against rational Gaussian elimination."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from det_oracle import det, det_int


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_det_int_matches_det(rows):
    assert det_int(rows) == det(rows)


def test_det_int_pivots_past_zero_diagonal():
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_int([[0, 1], [0, 2]]) == 0
    assert det_int([]) == 1
