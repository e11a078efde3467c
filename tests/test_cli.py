import json
import shutil
from pathlib import Path

import pytest

from mmevents.cli import main
from mmevents.schema import DEFAULT_ENTRIES, DEFAULT_REQUIRED, schema_from_json
from conftest import FIXTURES, SCRIPTS

CORPUS = str(FIXTURES / "corpus.jsonl")
SCRIPT = str(SCRIPTS)


def run_cli(*argv):
    return main(list(argv))


def do_run(out_dir: Path) -> int:
    return run_cli("run", "--corpus", CORPUS, "--backend", "script",
                   "--script-dir", SCRIPT, "--out-dir", str(out_dir))


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert do_run(out) == 0
    preds = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(preds) == 4
    assert {json.loads(l)["doc_id"] for l in preds} == {
        "case_convoy", "ideal_text", "ideal_visual", "silent_k1"}
    for doc_id in ("case_convoy", "ideal_text", "ideal_visual", "silent_k1"):
        assert (out / "trails" / f"{doc_id}.jsonl").exists()
        assert (out / "states" / f"{doc_id}.json").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert all(d["status"] == "ok" for d in manifest["documents"].values())
    assert manifest["documents"]["case_convoy"]["t_used"] == 2
    assert manifest["documents"]["silent_k1"]["t_used"] == 1
    ledger = json.loads((out / "ledger.json").read_text(encoding="utf-8"))
    assert ledger["totals"]["main_calls"] == sum(
        d["main_calls"] for d in ledger["per_doc"].values())


def test_run_bad_config_exits_1(tmp_path):
    assert run_cli("run", "--corpus", "/no/such/file.jsonl", "--backend", "script",
                   "--script-dir", SCRIPT, "--out-dir", str(tmp_path / "o")) == 1
    assert run_cli("run", "--corpus", CORPUS, "--backend", "script",
                   "--out-dir", str(tmp_path / "o2")) == 1  # script dir missing


def test_run_partial_failure_exits_2(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    lines = Path(CORPUS).read_text(encoding="utf-8").rstrip("\n")
    corpus.write_text(lines + "\n" + json.dumps({"doc_id": "no_fixtures", "text": "Hello there."}) + "\n",
                      encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("run", "--corpus", str(corpus), "--backend", "script",
                   "--script-dir", SCRIPT, "--out-dir", str(out)) == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["documents"]["no_fixtures"]["status"] == "failed"
    assert manifest["documents"]["case_convoy"]["status"] == "ok"
    # partial results are still written
    assert (out / "predictions.jsonl").exists()


def test_run_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert do_run(a) == 0
    assert run_cli("run", "--corpus", CORPUS, "--backend", "script",
                   "--script-dir", SCRIPT, "--parallel", "4",
                   "--out-dir", str(b)) == 0
    assert (a / "predictions.jsonl").read_bytes() == (b / "predictions.jsonl").read_bytes()


def test_eval_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("eval",
                   "--pred", str(FIXTURES / "scoring" / "textual_pred.jsonl"),
                   "--gold", str(FIXTURES / "scoring" / "textual_gold.jsonl"),
                   "--setting", "textual", "--out", str(out))
    assert code == 0
    assert "setting: textual" in capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["em"]["matched"] == 2


def test_eval_unknown_setting_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--pred", "x", "--gold", "y", "--setting", "audio")
    assert exc.value.code == 1


def test_eval_empty_predictions(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = run_cli("eval", "--pred", str(empty),
                   "--gold", str(FIXTURES / "scoring" / "textual_gold.jsonl"),
                   "--setting", "textual")
    assert code == 0
    out = capsys.readouterr().out
    assert "P=0.000 R=0.000" in out


@pytest.mark.parametrize("record", [
    {"event_type": "Contact:Meet", "trigger": "met", "confidence": {"event": "high"}},
    {"event_type": "Contact:Meet", "trigger": "met", "confidence": {"event": True}},
    {"event_type": "Contact:Meet", "trigger": "met", "confidence": 0.9},
    {"event_type": ["Contact:Meet"], "trigger": "met"},
    {"event_type": "Contact:Meet", "trigger": 5},
    {"event_type": "Contact:Meet", "trigger": "met", "text_arguments": [["Participant"]]},
    {"event_type": "Contact:Meet", "trigger": "met", "text_arguments": [[1, "x"]]},
    {"event_type": "Contact:Meet", "trigger": "met", "image_arguments": [["Place", [1, 2]]]},
    {"event_type": "Contact:Meet", "trigger": "met", "non_extractive": 5},
    "Contact:Meet",
], ids=["event-confidence-text", "event-confidence-bool", "confidence-number",
        "event-type-list", "trigger-number", "argument-single", "argument-role-number",
        "image-box-short", "non-extractive-number", "record-string"])
def test_eval_malformed_prediction_exits_1(tmp_path, capsys, record):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"doc_id": "t1", "events": [record]}) + "\n", encoding="utf-8")
    code = run_cli("eval", "--pred", str(pred),
                   "--gold", str(FIXTURES / "scoring" / "textual_gold.jsonl"),
                   "--setting", "textual")
    assert code == 1
    assert "cannot read inputs" in capsys.readouterr().err


def test_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    assert do_run(out) == 0
    code = run_cli("replay", "--state", str(out / "states" / "case_convoy.json"),
                   "--corpus", CORPUS)
    assert code == 0
    printed = capsys.readouterr().out
    assert "round 1" in printed and "round 2" in printed
    assert "c=0.95" in printed and "c=0.60" in printed
    assert "replay ok" in printed


def test_replay_tampered_trail_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert do_run(out) == 0
    state_file = out / "states" / "case_convoy.json"
    data = json.loads(state_file.read_bytes().decode("utf-8"))
    for entry in data["trail"]:
        if entry["op_type"] == "link":
            entry["payload"]["vertex"] = "T99"
            break
    state_file.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("replay", "--state", str(state_file), "--corpus", CORPUS) == 3


def _first_trail_round(data):
    data["trail"][0]["round"] = True


def _first_vertex_start(data):
    data["vertices"][0]["localization"]["start"] = True


def _first_trigger_start(data):
    data["edges"][0]["trigger"]["start"] = True


def _binding_confidence(data):
    edge = data["edges"][0]
    edge["roles"] = [{"vertex": edge["members"][0], "role": "Entity", "confidence": True}]


@pytest.mark.parametrize("tamper", [_first_trail_round, _first_vertex_start, _first_trigger_start,
                                    _binding_confidence],
                         ids=["round-bool", "vertex-start-bool", "trigger-start-bool",
                              "binding-confidence-bool"])
def test_replay_state_with_boolean_number_exits_1(tmp_path, capsys, tamper):
    out = tmp_path / "run"
    assert do_run(out) == 0
    state_file = out / "states" / "case_convoy.json"
    data = json.loads(state_file.read_bytes().decode("utf-8"))
    tamper(data)
    state_file.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("replay", "--state", str(state_file), "--corpus", CORPUS) == 1
    captured = capsys.readouterr()
    assert "replay ok" not in captured.out
    assert captured.err.startswith("error:")


def _drop_value(payload):
    del payload["value"]


@pytest.mark.parametrize("op_type,tamper", [
    ("adjust_confidence", _drop_value),
    ("adjust_confidence", lambda payload: payload.update(value="abc")),
    ("propose", lambda payload: payload.update(members=5)),
    ("adjust_confidence", lambda payload: payload.update(value=True)),
    ("link", lambda payload: payload.update(vertex=5)),
    ("propose", lambda payload: payload.update(event_type=["Conflict:Demonstrate"])),
    ("propose", lambda payload: payload["trigger"].update(start="31")),
    ("propose", lambda payload: payload.update(trigger=[31, 37])),
], ids=["adjust-without-value", "adjust-value-text", "propose-members-number", "adjust-value-bool",
        "link-vertex-number", "propose-event-type-list", "propose-trigger-offset-text",
        "propose-trigger-list"])
def test_replay_malformed_trail_payload_exits_3(tmp_path, capsys, op_type, tamper):
    out = tmp_path / "run"
    assert do_run(out) == 0
    state_file = out / "states" / "case_convoy.json"
    data = json.loads(state_file.read_bytes().decode("utf-8"))
    tamper(next(e for e in data["trail"] if e["op_type"] == op_type)["payload"])
    state_file.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("replay", "--state", str(state_file), "--corpus", CORPUS) == 3
    assert "replay validation failure" in capsys.readouterr().err


@pytest.mark.parametrize("start,end", [(10, 4), (31, 10_000)], ids=["inverted", "past-text-end"])
def test_replay_rejects_a_trigger_commit_would_reject(tmp_path, capsys, start, end):
    # the stored edge carries the same trigger, so only the trigger check
    # itself can fail the replay
    out = tmp_path / "run"
    assert do_run(out) == 0
    state_file = out / "states" / "case_convoy.json"
    data = json.loads(state_file.read_bytes().decode("utf-8"))
    entry = next(e for e in data["trail"] if e["op_type"] == "propose")
    entry["payload"]["trigger"] = {"start": start, "end": end}
    edge = next(e for e in data["edges"] if e["id"] == entry["target"])
    text = next(json.loads(l)["text"] for l in Path(CORPUS).read_text(encoding="utf-8").splitlines()
                if json.loads(l)["doc_id"] == "case_convoy")
    edge["trigger"] = {"start": start, "end": end}
    edge["trigger_surface"] = text[start:end]
    state_file.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("replay", "--state", str(state_file), "--corpus", CORPUS) == 3
    err = capsys.readouterr().err
    assert "replay validation failure" in err and "out of text bounds" in err


def test_replay_every_state_of_no_linker_run(tmp_path, capsys):
    # the all-to-all fallback is not an operation, so the stored state must
    # be the one the trail replays to
    out = tmp_path / "run"
    assert run_cli("run", "--corpus", CORPUS, "--backend", "script", "--script-dir", SCRIPT,
                   "--mode", "no-linker", "--out-dir", str(out)) == 0
    states = sorted((out / "states").glob("*.json"))
    assert len(states) == 4
    for state in states:
        assert run_cli("replay", "--state", str(state), "--corpus", CORPUS) == 0, state.name


def _run_with_protest_schema(tmp_path) -> Path:
    """Run the fixtures with a schema file that adds Conflict:Protest, which
    the ideal_text proposer then proposes; returns the run directory."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    proposer = fixtures / "scripts" / "ideal_text" / "1" / "proposer.json"
    proposer.write_text(proposer.read_text(encoding="utf-8").replace(
        "Conflict:Demonstrate", "Conflict:Protest"), encoding="utf-8")
    schema = {"entries": {**DEFAULT_ENTRIES, "Conflict:Protest": ["Entity", "Place"]},
              "required_roles": DEFAULT_REQUIRED}
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "cfg.json").write_text(
        json.dumps({"schema_file": str(tmp_path / "schema.json")}), encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("run", "--corpus", str(fixtures / "corpus.jsonl"), "--backend", "script",
                   "--script-dir", str(fixtures / "scripts"), "--config", str(tmp_path / "cfg.json"),
                   "--out-dir", str(out)) == 0
    return out


def test_replay_uses_the_schema_the_run_recorded(tmp_path, capsys):
    out = _run_with_protest_schema(tmp_path)
    preds = {json.loads(l)["doc_id"]: json.loads(l)["events"]
             for l in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()}
    assert [e["event_type"] for e in preds["ideal_text"]] == ["Conflict:Protest"]
    assert run_cli("replay", "--state", str(out / "states" / "ideal_text.json"),
                   "--corpus", CORPUS) == 0
    assert "replay ok" in capsys.readouterr().out


def test_manifest_keeps_the_schema_file_order(tmp_path):
    order = ["Transaction:TransferMoney", "Contact:Meet", *DEFAULT_ENTRIES]
    order = list(dict.fromkeys(order))
    assert order != sorted(order) and order != list(DEFAULT_ENTRIES)
    schema = {"entries": {k: DEFAULT_ENTRIES[k] for k in order}, "required_roles": DEFAULT_REQUIRED}
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "cfg.json").write_text(
        json.dumps({"schema_file": str(tmp_path / "schema.json")}), encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("run", "--corpus", CORPUS, "--backend", "script", "--script-dir", SCRIPT,
                   "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert list(schema_from_json(manifest["schema"]).event_types) == order


@pytest.mark.parametrize("schema", [5, {"required_roles": {}}, {"entries": {"A": "Entity"}},
                                    {"entries": {"A": []}},
                                    {"entries": {"A": ["Entity"]}, "order": ["B"]},
                                    {"entries": {"A": ["Entity"]}, "order": ["A", "A"]},
                                    {"entries": {"A": ["Entity"]}, "order": "A"}],
                         ids=["number", "no-entries", "roles-string", "roles-empty",
                              "order-unknown-type", "order-repeats-type", "order-string"])
def test_replay_malformed_recorded_schema_exits_1(tmp_path, capsys, schema):
    out = tmp_path / "run"
    assert do_run(out) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["schema"] = schema
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run_cli("replay", "--state", str(out / "states" / "ideal_text.json"),
                   "--corpus", CORPUS) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    {"doc_id": "x", "text": "hi", "image_path": "a", "width": [1], "height": 2},
    {"doc_id": "x", "text": "hi", "image_path": "a", "height": 2},
    [1],
    {"doc_id": "x", "text": 5},
    {"doc_id": 5, "text": "hi"},
    {"doc_id": "ideal_text", "text": "Protesters marched in Berlin."},
], ids=["width-list", "width-missing", "not-an-object", "text-number", "doc-id-number",
        "doc-id-repeated"])
@pytest.mark.parametrize("command", ["run", "replay"])
def test_malformed_corpus_line_exits_1(tmp_path, capsys, line, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(Path(CORPUS).read_text(encoding="utf-8") + json.dumps(line) + "\n",
                      encoding="utf-8")
    if command == "run":
        argv = ["run", "--corpus", str(corpus), "--backend", "script", "--script-dir", SCRIPT,
                "--out-dir", str(tmp_path / "run")]
    else:
        argv = ["replay", "--state", str(tmp_path / "case_convoy.json"), "--corpus", str(corpus)]
    assert run_cli(*argv) == 1
    assert "corpus line 5" in capsys.readouterr().err


def test_replay_unknown_doc_exits_1(tmp_path):
    out = tmp_path / "run"
    assert do_run(out) == 0
    assert run_cli("replay", "--state", str(out / "states" / "case_convoy.json"),
                   "--corpus", CORPUS, "--doc-id", "nope") == 1


def test_stats_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert do_run(out) == 0
    assert run_cli("stats", "--run-dir", str(out)) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["t_used_distribution"] == {"1": 1, "2": 3}
    assert stats["ledger_totals"]["main_calls"] > 0
    # committed ops per document equal trail lengths
    total_ops = sum(int(k) * v for k, v in stats["committed_ops_distribution"].items())
    trail_lines = sum(
        len((out / "trails" / f).read_text(encoding="utf-8").splitlines())
        for f in ("case_convoy.jsonl", "ideal_text.jsonl", "ideal_visual.jsonl", "silent_k1.jsonl"))
    assert total_ops == trail_lines


@pytest.mark.parametrize("name,content", [
    ("manifest.json", {}),
    ("manifest.json", []),
    ("manifest.json", {"documents": {"d": {"status": "ok", "committed_ops": 3}}}),
    ("ledger.json", {}),
], ids=["manifest-empty-object", "manifest-list", "ok-document-without-t-used", "ledger-empty-object"])
def test_stats_malformed_run_directory_exits_1(tmp_path, capsys, name, content):
    out = tmp_path / "run"
    assert do_run(out) == 0
    (out / name).write_text(json.dumps(content), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("stats", "--run-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("config,key", [
    ({"theta": 0.99}, "theta"),
    ({"theta_event": 0.7, "tau": True}, "tau"),
    ({"t_max": True}, "t_max"),
    ({"t_max": 2.5}, "t_max"),
    ({"retries": False}, "retries"),
    ({"timeout": "fast"}, "timeout"),
    ({"mode": 3}, "mode"),
], ids=["unknown-key", "tau-bool", "t-max-bool", "t-max-fraction", "retries-bool",
        "timeout-text", "mode-number"])
def test_run_rejects_a_bad_config_key(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--corpus", CORPUS, "--backend", "script", "--script-dir", SCRIPT,
                   "--config", str(cfg), "--out-dir", str(tmp_path / "run")) == 1
    assert f"config key {key!r}" in capsys.readouterr().err


def test_cli_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_event": 0.99, "t_max": 2}), encoding="utf-8")
    out = tmp_path / "run"
    # config file raises the retention threshold above the ideal_text score
    # (0.985); the CLI flag lowers it back to the default
    code = run_cli("run", "--corpus", CORPUS, "--backend", "script",
                   "--script-dir", SCRIPT, "--config", str(cfg),
                   "--out-dir", str(out))
    assert code == 0
    preds = {json.loads(l)["doc_id"]: json.loads(l)["events"]
             for l in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()}
    assert preds["ideal_text"] == []

    out2 = tmp_path / "run2"
    code = run_cli("run", "--corpus", CORPUS, "--backend", "script",
                   "--script-dir", SCRIPT, "--config", str(cfg),
                   "--theta", "0.7", "--out-dir", str(out2))
    assert code == 0
    preds2 = {json.loads(l)["doc_id"]: json.loads(l)["events"]
              for l in (out2 / "predictions.jsonl").read_text(encoding="utf-8").splitlines()}
    assert len(preds2["ideal_text"]) == 1


_BIND = {"role": "Vehicle", "confidence": 0.9}
_PROPOSE = {"event_type": "Movement:Transport", "trigger": {"text": "riding"}, "members": []}


@pytest.mark.parametrize("reply_file,reply", [
    ("0/binder.json", [{"edge": "HE2", "box": 5, **_BIND}]),
    ("0/binder.json", [{"edge": "HE2", "box": [1, 2], **_BIND}]),
    ("0/binder.json", [{"edge": ["HE2"], "vertex": "T3", **_BIND}]),
    ("0/binder.json", [{"edge": "HE2", "vertex": ["T3"], **_BIND}]),
    ("1/proposer.json", [{"op": "propose", "alias": "e_trans",
                          "payload": {**_PROPOSE, "trigger": {"start": "x", "end": 3}}}]),
    ("1/proposer.json", [{"op": "propose", "alias": "e_trans", "payload": {**_PROPOSE, "members": 5}}]),
    ("1/proposer.json", [{"op": "propose", "alias": "e_trans",
                          "payload": {**_PROPOSE, "event_type": {"a": 1}}}]),
    ("1/proposer.json", [{"op": "propose", "alias": ["x"], "payload": _PROPOSE}]),
    ("1/linker.json", [{"op": "link", "target": ["HE1"], "payload": {"vertex": "T1"}}]),
    ("vision/localize.json", [[{"box": [1, 2], "label": "x", "score": 0.9}]]),
    ("vision/localize.json", [[{"box": [0, 0, float("inf"), 10], "label": "x", "score": 0.9}]]),
    ("vision/localize.json", [[5]]),
    ("vision/localize.json", [[{"label": "x"}]]),
    ("vision/describe.json", {}),
    ("0/binder.json", [{"edge": "HE2", "vertex": "T3", "role": "Vehicle", "confidence": True}]),
], ids=["box-number", "box-short", "edge-list", "vertex-list", "trigger-start-text",
        "members-number", "event-type-object", "alias-list", "target-list",
        "region-box-short", "region-box-infinity", "region-number", "region-without-box",
        "describe-without-text", "binder-confidence-bool"])
def test_run_survives_malformed_reply(tmp_path, reply_file, reply):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    (fixtures / "scripts" / "case_convoy" / reply_file).write_text(json.dumps(reply), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("run", "--corpus", str(fixtures / "corpus.jsonl"), "--backend", "script",
                   "--script-dir", str(fixtures / "scripts"), "--out-dir", str(out))
    assert code in (0, 2)
    assert (out / "manifest.json").exists()
