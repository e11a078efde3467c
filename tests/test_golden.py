"""Scripted runs over tests/fixtures are byte-identical to the committed
digests in tests/fixtures/expected/scripted_digests.json, in every mode.

The digests cover predictions, diagnostics, the ledger, every trail and
state file, and the `stats` output. A mismatch names the file that changed.
`eval` reports are pinned the same way, per setting, in eval_digests.json.
"""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mmevents.cli import main
from mmevents.pipeline import MODES
from mmevents.scorer import SETTINGS
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


# ---------------------------------------------------------------------------
# eval reports: tests/fixtures/expected/eval_digests.json holds the sha256 of
# `eval --out` for every setting, on the scoring fixtures and on the audit
# corpus that perfbench/gencorpus.py writes for seed 201.

EVAL_EXPECTED = json.loads((FIXTURES / "expected" / "eval_digests.json").read_text(encoding="utf-8"))
GENCORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "gencorpus.py"


def _eval_digest(pred, gold, setting, out) -> str:
    assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                 "--setting", setting, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def audit_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    subprocess.run([sys.executable, str(GENCORPUS), "--workload", "audit", "--seed", "201",
                    "--out", str(out)], check=True)
    return out


def test_eval_digests_cover_every_setting():
    assert sorted(EVAL_EXPECTED) == ["audit", "scoring"]
    assert all(sorted(EVAL_EXPECTED[k]) == sorted(SETTINGS) for k in EVAL_EXPECTED)


@pytest.mark.parametrize("setting", SETTINGS)
def test_eval_report_is_byte_identical_on_scoring_fixtures(setting, tmp_path, capsys):
    scoring = FIXTURES / "scoring"
    got = _eval_digest(scoring / f"{setting}_pred.jsonl", scoring / f"{setting}_gold.jsonl",
                       setting, tmp_path / "report.json")
    capsys.readouterr()
    assert got == EVAL_EXPECTED["scoring"][setting]


@pytest.mark.parametrize("setting", SETTINGS)
def test_eval_report_is_byte_identical_on_audit_corpus(setting, audit_corpus, tmp_path, capsys):
    got = _eval_digest(audit_corpus / "predictions.jsonl", audit_corpus / "gold.jsonl",
                       setting, tmp_path / "report.json")
    capsys.readouterr()
    assert got == EVAL_EXPECTED["audit"][setting]
