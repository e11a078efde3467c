import json

import pytest

from mmevents import agents as ag
from mmevents.errors import AgentUnavailable, BackendHTTPError, ScriptExhausted, VisionUnavailable
from mmevents.hypergraph import (
    BoxRegion,
    Document,
    Hyperedge,
    ImageRef,
    RoleBinding,
    TextSpan,
    create_hypergraph,
)
from mmevents.ops import AuditEntry
from mmevents.pipeline import PipelineConfig, bind_roles
from mmevents.schema import default_schema

DOC = Document("d", "alpha bravo charlie", ImageRef("x.jpg", 640, 480))


# ---------------------------------------------------------------------------
# parsing


def test_parse_operations_happy_path():
    raw = '''Here you go:
    [{"op": "link", "target": "HE1", "payload": {"vertex": "T1"}, "rationale": "because"},
     {"op": "propose", "alias": "e1", "payload": {"event_type": "Contact:Meet"}}]'''
    proposals, diags = ag.parse_operations(raw, "linker")
    assert not diags
    assert [p.op.op_type for p in proposals] == ["link", "propose"]
    assert proposals[0].index == 0 and proposals[1].index == 1
    assert proposals[1].op.alias == "e1"


def test_parse_operations_is_total_on_garbage():
    for raw in ["", "no json here", "[not json", '{"op": "link"}', None]:
        proposals, _diags = ag.parse_operations(raw or "", "proposer")
        assert proposals == []


def test_parse_operations_skips_bad_items():
    raw = ('[{"op": "teleport", "target": "HE1"},'
           ' {"op": "link", "payload": {"vertex": "T1"}},'
           ' 42,'
           ' {"op": "drop", "target": "HE1"}]')
    proposals, diags = ag.parse_operations(raw, "verifier")
    assert [p.op.op_type for p in proposals] == ["drop"]
    assert len(diags) == 3


@pytest.mark.parametrize("item", [
    {"op": "link", "target": ["HE1"], "payload": {"vertex": "T1"}},
    {"op": "propose", "alias": ["x"], "payload": {"event_type": "Contact:Meet"}},
    {"op": "propose", "payload": {"event_type": "Contact:Meet", "alias": 5}},
    {"op": "propose", "payload": {"event_type": {"a": 1}}},
    {"op": "revise", "target": "HE1", "payload": {"event_type": ["Contact:Meet"]}},
    {"op": "link", "target": "HE1", "payload": {"vertex": ["T1"]}},
    {"op": "propose", "payload": {"event_type": "Contact:Meet", "members": 5}},
    {"op": "propose", "payload": {"event_type": "Contact:Meet", "members": ["T1", 2]}},
    {"op": "unlink", "target": 7, "payload": {"vertex": "T1"}},
    {"op": "propose", "payload": {"event_type": "Contact:Meet", "members": "T1"}},
])
def test_parse_operations_drops_malformed_field_shapes(item):
    raw = json.dumps([item, {"op": "drop", "target": "HE1"}])
    proposals, diags = ag.parse_operations(raw, "linker")
    assert [p.op.op_type for p in proposals] == ["drop"]
    assert len(diags) == 1 and diags[0].startswith("linker[0]: ")


def test_parse_operations_alias_in_payload():
    raw = '[{"op": "propose", "payload": {"event_type": "Contact:Meet", "alias": "e9"}}]'
    proposals, _ = ag.parse_operations(raw, "proposer")
    assert proposals[0].op.alias == "e9"
    assert "alias" not in proposals[0].op.payload


def test_parse_mentions():
    mentions, diags = ag.parse_mentions('["alpha", {"mention": "bravo"}, 7]')
    assert mentions == ["alpha", "bravo"]
    assert len(diags) == 1


# ---------------------------------------------------------------------------
# context rendering


def test_build_context_is_deterministic_and_complete():
    h = create_hypergraph(Document("d", "alpha bravo charlie"), [(TextSpan(0, 5), "alpha")])
    h.edges["HE1"] = Hyperedge(id="HE1", event_type="Contact:Meet",
                               members={"T1"}, trigger=TextSpan(6, 11),
                               trigger_surface="bravo")
    trail = [AuditEntry("linker", "link", "HE1", {"vertex": "T1"}, 1)]
    ctx = ag.build_context("alpha bravo charlie", "a photo", h, trail, 2, default_schema())
    assert ctx == ag.build_context("alpha bravo charlie", "a photo", h, trail, 2, default_schema())
    for needle in ("ROUND 2", "alpha bravo charlie", "a photo", "Contact:Meet",
                   "T1 text[0:5]", "HE1", "round 1 linker link", "Do not repeat"):
        assert needle in ctx


# ---------------------------------------------------------------------------
# ledger


def test_call_ledger_accounting():
    led = ag.CallLedger()
    led.record_main("seed")
    led.record_main("negotiate", attempts=3, usage={"prompt_tokens": 10, "completion_tokens": 5})
    led.record_vision("seed")
    rep = led.report()
    assert rep["main_calls"] == 2
    assert rep["vision_calls"] == 1
    assert rep["total_calls"] == 3
    assert rep["main_attempts"] == 4
    assert rep["per_stage"] == {"negotiate": {"main": 1, "vision": 0},
                                "seed": {"main": 1, "vision": 1}}
    assert rep["input_tokens"] == 10 and rep["output_tokens"] == 5


# ---------------------------------------------------------------------------
# live backend (with injected transport)


def _ok_post(reply):
    def post(url, body, headers, timeout):
        return {"choices": [{"message": {"content": reply}}],
                "usage": {"prompt_tokens": 3, "completion_tokens": 2}}
    return post


def test_live_backend_success():
    backend = ag.LiveBackend("http://x", "m", post=_ok_post("[]"))
    led = ag.CallLedger()
    assert backend.invoke("proposer", "ctx", "d", 1, led, "negotiate") == "[]"
    assert led.main_calls == 1 and led.input_tokens == 3


def test_live_backend_sends_role_instructions_and_params():
    seen = {}

    def post(url, body, headers, timeout):
        seen.update(body)
        seen["auth"] = headers.get("Authorization")
        return {"choices": [{"message": {"content": "[]"}}]}

    backend = ag.LiveBackend("http://x", "m", api_key="k", post=post)
    backend.invoke("verifier", "the context", "d", 1, ag.CallLedger(), "negotiate")
    assert seen["temperature"] == 0.2
    assert seen["max_tokens"] == 8192
    assert seen["auth"] == "Bearer k"
    assert seen["messages"][0]["role"] == "system"
    assert seen["messages"][0]["content"] == ag.role_instructions("verifier")
    assert seen["messages"][1]["content"] == "the context"


def test_live_backend_retries_then_fails():
    calls = []

    def post(url, body, headers, timeout):
        calls.append(1)
        raise BackendHTTPError("boom")

    backend = ag.LiveBackend("http://x", "m", retries=2, post=post)
    led = ag.CallLedger()
    with pytest.raises(AgentUnavailable):
        backend.invoke("proposer", "ctx", "d", 1, led, "negotiate")
    assert len(calls) == 3
    assert led.main_attempts == 3


def test_live_backend_recovers_on_retry():
    state = {"n": 0}

    def post(url, body, headers, timeout):
        state["n"] += 1
        if state["n"] == 1:
            raise BackendHTTPError("transient")
        return {"choices": [{"message": {"content": "ok"}}]}

    backend = ag.LiveBackend("http://x", "m", retries=2, post=post)
    led = ag.CallLedger()
    assert backend.invoke("proposer", "ctx", "d", 1, led, "negotiate") == "ok"
    assert led.main_attempts == 2


@pytest.mark.parametrize("body", [
    {}, {"choices": []}, {"choices": [{"message": {"content": 5}}]}, [1],
], ids=["empty-object", "no-choices", "content-number", "list"])
def test_live_backend_retries_malformed_body(body):
    calls = []

    def post(url, body_, headers, timeout):
        calls.append(1)
        return body

    backend = ag.LiveBackend("http://x", "m", retries=2, post=post)
    led = ag.CallLedger()
    with pytest.raises(AgentUnavailable):
        backend.invoke("proposer", "ctx", "d", 1, led, "negotiate")
    assert len(calls) == 3
    assert led.main_attempts == 3


def test_live_backend_retries_non_json_reply(monkeypatch):
    requests = pytest.importorskip("requests")

    class Reply:
        status_code = 200
        text = "<html>"

        def json(self):
            raise ValueError("Expecting value")

    calls = []
    monkeypatch.setattr(requests, "post", lambda *a, **kw: calls.append(1) or Reply())
    backend = ag.LiveBackend("http://x", "m", retries=1)
    with pytest.raises(AgentUnavailable, match="not JSON"):
        backend.invoke("proposer", "ctx", "d", 1, ag.CallLedger(), "negotiate")
    assert len(calls) == 2


def test_live_backend_ignores_non_integer_token_counts():
    def post(url, body, headers, timeout):
        return {"choices": [{"message": {"content": "ok"}}],
                "usage": {"prompt_tokens": "many", "completion_tokens": 7}}

    led = ag.CallLedger()
    assert ag.LiveBackend("http://x", "m", post=post).invoke(
        "proposer", "ctx", "d", 1, led, "negotiate") == "ok"
    assert (led.input_tokens, led.output_tokens) == (0, 7)


@pytest.mark.parametrize("task,body", [
    ("describe", {}), ("describe", {"text": 5}), ("localize", {}),
    ("localize", {"regions": {"box": [0, 0, 1, 1]}}), ("localize", [1]),
])
def test_live_vision_retries_malformed_body(task, body):
    calls = []

    def post(url, body_, headers, timeout):
        calls.append(1)
        return body

    tool = ag.LiveVisionTool("http://v", retries=1, post=post)
    with pytest.raises(VisionUnavailable, match="after 2 attempts"):
        if task == "describe":
            tool.describe(DOC, ag.CallLedger(), "seed")
        else:
            tool.localize(DOC, "q", ag.CallLedger(), "seed")
    assert len(calls) == 2


@pytest.mark.parametrize("region", [5, {"label": "x"}, {"box": [0, 0, 1, 1], "score": "high"}])
def test_live_vision_rejects_malformed_region(region):
    tool = ag.LiveVisionTool("http://v", post=lambda *a: {"regions": [region]})
    with pytest.raises(VisionUnavailable):
        tool.localize(DOC, "q", ag.CallLedger(), "seed")


# ---------------------------------------------------------------------------
# scripted backend / vision tool


def test_scripted_backend_reads_fixture_once(script_dir):
    backend = ag.ScriptedBackend(script_dir)
    led = ag.CallLedger()
    raw = backend.invoke("seeder", "ctx", "case_convoy", 0, led, "seed")
    assert "militants" in raw
    assert led.main_calls == 1
    with pytest.raises(ScriptExhausted):
        backend.invoke("seeder", "ctx", "case_convoy", 0, led, "seed")


def test_scripted_backend_missing_fixture_raises(script_dir):
    backend = ag.ScriptedBackend(script_dir)
    with pytest.raises(ScriptExhausted):
        backend.invoke("proposer", "ctx", "no_such_doc", 1, ag.CallLedger(), "negotiate")


def test_scripted_backend_reply_wrapper(tmp_path):
    p = tmp_path / "doc" / "1"
    p.mkdir(parents=True)
    (p / "proposer.json").write_text('{"reply": "[1]"}', encoding="utf-8")
    backend = ag.ScriptedBackend(tmp_path)
    assert backend.invoke("proposer", "ctx", "doc", 1, ag.CallLedger(), "negotiate") == "[1]"


def test_scripted_vision_tool(script_dir):
    tool = ag.ScriptedVisionTool(script_dir)
    doc = Document("case_convoy", "t", ImageRef("img/case_convoy.jpg", 640, 480))
    led = ag.CallLedger()
    assert "convoy" in tool.describe(doc, led, "seed")
    regions = tool.localize(doc, "anything", led, "seed")
    assert regions == [([100, 100, 400, 300], "military vehicle group", 0.92)]
    assert led.vision_calls == 2
    with pytest.raises(VisionUnavailable):
        tool.localize(doc, "again", led, "seed")  # reply list exhausted


@pytest.mark.parametrize("task", ["describe", "localize"])
def test_scripted_vision_tool_rejects_fixture_that_is_not_json(tmp_path, task):
    (tmp_path / "d" / "vision").mkdir(parents=True)
    (tmp_path / "d" / "vision" / f"{task}.json").write_text("{bad", encoding="utf-8")
    tool = ag.ScriptedVisionTool(tmp_path)
    with pytest.raises(VisionUnavailable, match="not JSON"):
        if task == "describe":
            tool.describe(DOC, ag.CallLedger(), "seed")
        else:
            tool.localize(DOC, "q", ag.CallLedger(), "seed")


# ---------------------------------------------------------------------------
# geometry helpers


def test_clip_box():
    diags = []
    assert ag.clip_box([-5, -5, 100, 100], DOC, diags) == [0, 0, 100, 100]
    assert any("clipped" in d for d in diags)
    assert ag.clip_box([700, 0, 800, 100], DOC, []) is None
    assert ag.clip_box([10.4, 9.6, 20.2, 30.0], DOC, []) == [10, 10, 20, 30]
    for bad in ([1, 2], [0, 0, float("inf"), 10], [0, float("nan"), 5, 5],
                [0, 0, True, 5], "abcd", 5):
        diags = []
        assert ag.clip_box(bad, DOC, diags) is None
        assert any("discarded" in d for d in diags)


def test_match_localizations():
    # bind_roles matches proposed boxes to the edge's linked image vertices
    h = create_hypergraph(DOC, [(BoxRegion(0, 0, 100, 100), "a"),
                                (BoxRegion(200, 200, 300, 300), "b"),
                                (TextSpan(0, 5), "alpha")])  # T1: not an image vertex
    h.edges["HE1"] = Hyperedge(id="HE1", event_type="Conflict:Attack", members={"O1", "O2", "T1"})
    reply = json.dumps([
        {"edge": "HE1", "box": [0, 0, 100, 90], "role": "Attacker", "confidence": 0.9},
        {"edge": "HE1", "box": [500, 500, 600, 600], "role": "Target", "confidence": 0.9},
    ])

    class Binder:
        def invoke(self, role, context, doc_id, round, ledger, stage):
            return reply

    diags = []
    bind_roles(h, DOC, "context", Binder(), None, PipelineConfig(), default_schema(),
               ag.CallLedger(), diags)
    assert h.edges["HE1"].roles == [RoleBinding("O1", "Attacker", 0.9)]
    assert diags == [
        "bind: box [500, 500, 600, 600] on HE1 overlaps no linked image vertex, discarded"
    ]
