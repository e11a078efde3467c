"""The benchmark's inputs are a pure function of (workload, seed, scale)."""
from pathlib import Path

import pytest

import gencorpus


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gencorpus.WORKLOADS))
def test_same_seed_writes_byte_identical_tree(tmp_path, workload):
    gencorpus.generate(workload, 7, tmp_path / "a")
    gencorpus.generate(workload, 7, tmp_path / "b")
    first = _tree(tmp_path / "a")
    assert first and first == _tree(tmp_path / "b")

    gencorpus.generate(workload, 8, tmp_path / "c")
    assert _tree(tmp_path / "c") != first
