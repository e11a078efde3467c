from hypothesis import given, strategies as st

import pytest

from mmevents.boxes import greedy_match, iou, is_number

box_st = st.tuples(
    st.integers(0, 50), st.integers(0, 50), st.integers(51, 100), st.integers(51, 100)
).map(list)


def test_iou_identity():
    assert iou([0, 0, 10, 10], [0, 0, 10, 10]) == 1.0


def test_iou_disjoint():
    assert iou([0, 0, 10, 10], [20, 20, 30, 30]) == 0.0


def test_iou_touching_is_zero():
    assert iou([0, 0, 10, 10], [10, 0, 20, 10]) == 0.0


def test_iou_known_value():
    # 5x5 overlap over union 100 + 100 - 25
    assert abs(iou([0, 0, 10, 10], [5, 5, 15, 15]) - 25 / 175) < 1e-12


@given(box_st, box_st)
def test_iou_symmetric_and_bounded(a, b):
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0


def test_greedy_match_one_to_one_descending():
    proposals = [[0, 0, 10, 10], [0, 0, 9, 10]]
    references = [[0, 0, 10, 10]]
    matched = greedy_match(proposals, references, 0.5)
    assert matched == [(0, 0, 1.0)]


def test_greedy_match_threshold_at_exactly_half_matches():
    # IoU([0,0,100,100], [0,0,100,50]) == 0.5 exactly
    matched = greedy_match([[0, 0, 100, 50]], [[0, 0, 100, 100]], 0.5)
    assert len(matched) == 1
    assert matched[0][2] == 0.5


def test_greedy_match_below_threshold_discarded():
    assert greedy_match([[0, 0, 100, 49]], [[0, 0, 100, 100]], 0.5) == []


def test_greedy_match_deterministic_tie_break():
    # both proposals tie on IoU with the single reference; lower index wins
    matched = greedy_match([[0, 0, 10, 10], [0, 0, 10, 10]], [[0, 0, 10, 10]], 0.5)
    assert matched == [(0, 0, 1.0)]


@pytest.mark.parametrize("value,expected", [
    (0, True), (1, True), (0.5, True), (-3.0, True),
    (True, False), (False, False), (float("nan"), False), (float("inf"), False),
    ("1", False), (None, False), ([1], False),
])
def test_is_number(value, expected):
    assert is_number(value) is expected
