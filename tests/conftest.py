import json
from pathlib import Path

import pytest

from mmevents.cli import load_corpus
from mmevents.schema import EventRecord

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = FIXTURES / "scripts"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def script_dir() -> Path:
    return SCRIPTS


@pytest.fixture
def corpus() -> dict:
    return {d.doc_id: d for d in load_corpus(FIXTURES / "corpus.jsonl")}


def load_records(path: Path) -> dict[str, list[EventRecord]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        out[obj["doc_id"]] = [EventRecord.from_json(e) for e in obj.get("events", [])]
    return out
