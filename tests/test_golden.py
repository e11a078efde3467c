"""Scripted runs over tests/fixtures are byte-identical to the committed
digests in tests/fixtures/expected/scripted_digests.json, in every mode.

The digests cover predictions, diagnostics, the ledger, every trail and
state file, and the `stats` output. A mismatch names the file that changed.
"""
import hashlib
import json

import pytest

from mmevents.cli import main
from mmevents.pipeline import MODES
from conftest import FIXTURES, SCRIPTS

EXPECTED = json.loads((FIXTURES / "expected" / "scripted_digests.json").read_text(encoding="utf-8"))


def _digests(out_dir) -> dict[str, str]:
    names = ["predictions.jsonl", "diagnostics.jsonl", "ledger.json", "stats.json"]
    names += sorted(f"{sub}/{p.name}" for sub in ("trails", "states")
                    for p in (out_dir / sub).iterdir())
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def test_every_mode_has_expected_digests():
    assert sorted(EXPECTED) == sorted(MODES)


@pytest.mark.parametrize("mode", MODES)
def test_scripted_run_is_byte_identical(mode, tmp_path, capsys):
    out = tmp_path / mode
    assert main(["run", "--corpus", str(FIXTURES / "corpus.jsonl"), "--backend", "script",
                 "--script-dir", str(SCRIPTS), "--mode", mode, "--out-dir", str(out)]) == 0
    assert main(["stats", "--run-dir", str(out), "--out", str(out / "stats.json")]) == 0
    capsys.readouterr()
    got, expected = _digests(out), EXPECTED[mode]
    assert sorted(got) == sorted(expected), "the set of written files changed"
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"{mode}: {', '.join(changed)} changed"
