"""Bounding-box geometry: shape checks, IoU and greedy one-to-one matching."""
from __future__ import annotations

import math
from typing import Sequence

Box = Sequence[float]  # [x_min, y_min, x_max, y_max]


def is_number(value) -> bool:
    """True for a finite int or float, bools excluded; JSON input may
    carry true, NaN and Infinity."""
    return (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and math.isfinite(value)
    )


def is_box(value) -> bool:
    """True for a list of four finite numbers."""
    return isinstance(value, list) and len(value) == 4 and all(is_number(v) for v in value)


def iou(a: Box, b: Box) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def greedy_match(
    proposals: Sequence[Box],
    references: Sequence[Box],
    threshold: float,
) -> list[tuple[int, int, float]]:
    """Match proposals to references one-to-one by descending IoU.

    Returns (proposal_index, reference_index, iou) triples; pairs below
    `threshold` are discarded. Ties break on (proposal, reference) index
    so the matching is deterministic.
    """
    scored = []
    for i, p in enumerate(proposals):
        for j, r in enumerate(references):
            v = iou(p, r)
            if v >= threshold:
                scored.append((-v, i, j))
    scored.sort()
    used_p: set[int] = set()
    used_r: set[int] = set()
    out = []
    for neg, i, j in scored:
        if i in used_p or j in used_r:
            continue
        used_p.add(i)
        used_r.add(j)
        out.append((i, j, -neg))
    return out
