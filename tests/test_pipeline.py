import json

import pytest

from mmevents import agents as ag
from mmevents import ops
from mmevents.errors import InternalInconsistency
from mmevents.hypergraph import Document, Hyperedge, RoleBinding, TextSpan, create_hypergraph
from mmevents.pipeline import (
    PipelineConfig,
    agg_conf,
    consolidate,
    hybrid_score,
    rule_score,
    run_document,
    validate_record,
)
from mmevents.schema import EventRecord, default_schema

SCHEMA = default_schema()


class FakeBackend:
    """In-memory scripted backend keyed on (role, round)."""

    def __init__(self, replies):
        self.replies = dict(replies)

    def invoke(self, role, context, doc_id, round, ledger, stage):
        ledger.record_main(stage)
        return self.replies.get((role, round), "[]")


CONVOY = "The militants were riding in a convoy of vehicles from Raqqa toward Iraq."


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    PipelineConfig()
    with pytest.raises(ValueError):
        PipelineConfig(t_max=0)
    with pytest.raises(ValueError):
        PipelineConfig(tau=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(mode="fancy")


# ---------------------------------------------------------------------------
# scripted end-to-end


def test_case_convoy_end_to_end(corpus, script_dir):
    backend = ag.ScriptedBackend(script_dir)
    vision = ag.ScriptedVisionTool(script_dir)
    result = run_document(corpus["case_convoy"], backend, vision, PipelineConfig(), SCHEMA)

    assert result.t_used == 2
    assert len(result.trail) == 11
    # negotiation never assigns roles (link-then-bind)
    assert all(not e.roles for e in result.negotiated.edges.values())
    # binding populated the transport edge only
    assert len(result.state.edges["HE2"].roles) == 5
    assert result.state.edges["HE1"].roles == []
    assert result.state.edges["HE1"].confidence == 0.6
    assert result.state.edges["HE2"].confidence == 0.95

    assert len(result.records) == 1
    rec = result.records[0].to_json()
    rec.pop("confidence")
    assert rec == {
        "event_type": "Movement:Transport",
        "trigger": "riding",
        "text_arguments": [["Artifact", "militants"], ["Vehicle", "vehicles"],
                           ["Origin", "Raqqa"], ["Destination", "Iraq"]],
        "image_arguments": [["Vehicle", [100, 100, 400, 300]]],
    }
    assert not any("contract violation" in d for d in result.diagnostics)


def test_silent_agents_stop_negotiation_early(corpus, script_dir):
    backend = ag.ScriptedBackend(script_dir)
    result = run_document(corpus["silent_k1"], backend, None,
                          PipelineConfig(t_max=3), SCHEMA)
    assert result.t_used == 1
    assert all(e.round == 1 for e in result.trail)
    assert len(result.records) == 1
    assert result.records[0].trigger == "arrested"


def test_ledger_counts(corpus, script_dir):
    expected = {
        "ideal_text": (9, 0),
        "ideal_visual": (8, 2),
        "case_convoy": (9, 2),
    }
    for doc_id, (main, vis) in expected.items():
        backend = ag.ScriptedBackend(script_dir)
        vision = ag.ScriptedVisionTool(script_dir)
        result = run_document(corpus[doc_id], backend, vision, PipelineConfig(), SCHEMA)
        report = result.ledger.report()
        assert (report["main_calls"], report["vision_calls"]) == (main, vis), doc_id


def test_image_only_document(corpus, script_dir):
    backend = ag.ScriptedBackend(script_dir)
    vision = ag.ScriptedVisionTool(script_dir)
    result = run_document(corpus["ideal_visual"], backend, vision, PipelineConfig(), SCHEMA)
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.trigger == ""
    assert rec.text_arguments == []
    assert rec.image_arguments == [("Attacker", [50, 50, 200, 200]),
                                   ("Target", [250, 50, 450, 300])]


# ---------------------------------------------------------------------------
# seeding details


def test_seed_repeated_mentions_and_non_substrings():
    doc = Document("d", "convoy here convoy")
    backend = FakeBackend({("seeder", 0): '["convoy", "convoy", "tank"]'})
    result = run_document(doc, backend, None, PipelineConfig(), SCHEMA)
    spans = sorted((v.localization.start, v.localization.end)
                   for v in result.state.vertices.values())
    assert spans == [(0, 6), (12, 18)]
    assert any("not a substring" in d for d in result.diagnostics)


# ---------------------------------------------------------------------------
# scoring pieces


def test_agg_conf():
    assert agg_conf([]) == 0.0
    bindings = [RoleBinding("T1", "Place", 0.5), RoleBinding("T2", "Person", 1.0)]
    assert agg_conf(bindings) == 0.75


def test_hybrid_score_blend():
    bindings = [RoleBinding("T1", "Place", 0.8)]
    assert hybrid_score(0.9, bindings, 1.0, alpha=0.5, lam=0.1) == pytest.approx(0.5 * 0.9 + 0.5 * 0.8 + 0.1)
    # alpha=1, lam=0 is exactly the negotiated confidence
    assert hybrid_score(0.37, bindings, 1.0, alpha=1.0, lam=0.0) == 0.37


def _scored_graph():
    doc = Document("d", CONVOY)
    h = create_hypergraph(doc, [(TextSpan(4, 13), "militants")])
    h.edges["HE1"] = Hyperedge(
        id="HE1", event_type="Conflict:Attack", members={"T1"},
        trigger=TextSpan(19, 25), trigger_surface="riding",
        roles=[RoleBinding("T1", "Attacker", 0.8)], confidence=0.9,
    )
    h.next_edge = 2
    return doc, h


def test_rule_score_required_coverage_and_duplicates():
    doc, h = _scored_graph()
    edge = h.edges["HE1"]
    # Attack requires Attacker and Target; only Attacker bound
    assert rule_score(edge, edge.roles, h, SCHEMA) == 0.5
    dup = Hyperedge(id="HE2", event_type="Conflict:Attack", members=set(),
                    trigger=TextSpan(19, 25))
    h.edges["HE2"] = dup
    assert rule_score(edge, edge.roles, h, SCHEMA) == 0.0
    assert rule_score(dup, [], h, SCHEMA) == -0.5


def test_consolidate_filters_below_theta_and_neutral_confidence():
    doc, h = _scored_graph()
    edge = h.edges["HE1"]
    edge.confidence = None  # never adjusted: neutral prior 0.5
    diags = []
    # score = 0.5*0.5 + 0.5*0.8 + 0.1*0.5 = 0.7 — right at the threshold
    records = consolidate(h, doc, PipelineConfig(), SCHEMA, diags)
    assert len(records) == 1
    assert records[0].confidence["event"] == pytest.approx(0.7)
    records = consolidate(h, doc, PipelineConfig(theta_event=0.75), SCHEMA, diags)
    assert records == []
    assert any("filtered" in d for d in diags)


def test_consolidate_trigger_reduced_to_head_token():
    doc, h = _scored_graph()
    h.edges["HE1"].trigger = TextSpan(14, 25)  # "were riding"
    h.edges["HE1"].trigger_surface = "were riding"
    records = consolidate(h, doc, PipelineConfig(), SCHEMA, [])
    assert records[0].trigger == "were"
    records = consolidate(h, doc, PipelineConfig(mode="no-spanalign"), SCHEMA, [])
    assert records[0].trigger == "were riding"


# ---------------------------------------------------------------------------
# ablation modes


def _negotiation_replies(extra_link_payload=""):
    return {
        ("seeder", 0): '["militants", "vehicles"]',
        ("proposer", 1): json.dumps([{
            "op": "propose", "alias": "e1",
            "payload": {"event_type": "Movement:Transport",
                        "trigger": {"text": "riding"}, "members": []},
        }]),
        ("linker", 1): json.dumps([
            {"op": "link", "target": "e1",
             "payload": json.loads('{"vertex": "T1"%s}' % extra_link_payload)},
        ]),
        ("verifier", 1): '[{"op": "adjust_confidence", "target": "e1", "payload": {"value": 0.9}}]',
        ("binder", 0): json.dumps([
            {"edge": "HE1", "vertex": "T1", "role": "Artifact", "confidence": 0.9},
        ]),
    }


def test_role_binding_leaked_into_negotiation_raises(monkeypatch):
    # link-then-bind is checked by an exception, so it holds under `python -O`
    real_apply = ops.apply_commit

    def leaky_apply(*args, **kwargs):
        h = real_apply(*args, **kwargs)
        edge = next(iter(h.edges.values()))
        edge.roles.append(RoleBinding(sorted(edge.members)[0], "Artifact", 0.9))
        return h

    monkeypatch.setattr(ops, "apply_commit", leaky_apply)
    doc = Document("d", CONVOY)
    with pytest.raises(InternalInconsistency):
        run_document(doc, FakeBackend(_negotiation_replies()), None, PipelineConfig(), SCHEMA)


def test_mode_no_linker_all_to_all_fallback():
    doc = Document("d", CONVOY)
    replies = _negotiation_replies()
    replies[("binder", 0)] = json.dumps([
        {"edge": "HE1", "vertex": "T1", "role": "Artifact", "confidence": 0.9},
        {"edge": "HE1", "vertex": "T2", "role": "Vehicle", "confidence": 0.9},
    ])
    result = run_document(doc, FakeBackend(replies), None,
                          PipelineConfig(mode="no-linker"), SCHEMA)
    # linker was never consulted, yet the edge spans every vertex
    assert result.state.edges["HE1"].members == set(result.state.vertices)
    assert len(result.state.edges["HE1"].roles) == 2


def test_mode_no_verifier_leaves_confidence_neutral():
    doc = Document("d", CONVOY)
    result = run_document(doc, FakeBackend(_negotiation_replies()), None,
                          PipelineConfig(mode="no-verifier"), SCHEMA)
    assert result.state.edges["HE1"].confidence is None
    # hybrid falls back to the neutral prior: 0.5*0.5 + 0.5*0.9 + 0.1*1 = 0.8
    assert result.records[0].confidence["event"] == pytest.approx(0.8)


def test_mode_bind_during_link_lifts_roles_from_link_payloads():
    doc = Document("d", CONVOY)
    replies = _negotiation_replies(extra_link_payload=', "role": "Artifact", "confidence": 0.85')
    result = run_document(doc, FakeBackend(replies), None,
                          PipelineConfig(mode="bind-during-link"), SCHEMA)
    roles = result.state.edges["HE1"].roles
    assert [(r.vertex_id, r.role, r.confidence) for r in roles] == [("T1", "Artifact", 0.85)]


@pytest.mark.parametrize("mode", ["full", "bind-during-link", "no edges"])
def test_stage_three_renders_the_context_once(monkeypatch, mode):
    # one rendering per negotiation round run, plus one shared by the binder
    # and the consolidator when the negotiated state has edges
    renders = []
    real_build = ag.build_context

    def counting_build(*args):
        renders.append(args[4])
        return real_build(*args)

    monkeypatch.setattr(ag, "build_context", counting_build)
    calls = []

    class Recording(FakeBackend):
        def invoke(self, role, context, doc_id, round, ledger, stage):
            calls.append((role, context))
            return super().invoke(role, context, doc_id, round, ledger, stage)

    replies = _negotiation_replies()
    if mode == "no edges":
        replies.pop(("proposer", 1))
    cfg = PipelineConfig(mode="full" if mode == "no edges" else mode)
    result = run_document(Document("d", CONVOY), Recording(replies), None, cfg, SCHEMA)

    rounds_run = sum(1 for role, _ in calls if role == ag.PROPOSER)
    assert len(renders) == rounds_run + (1 if result.state.edges else 0)
    stage_three = {role: context for role, context in calls
                   if role in (ag.BINDER, ag.CONSOLIDATOR)}
    if mode == "full":
        binder = stage_three[ag.BINDER]
        assert stage_three[ag.CONSOLIDATOR].startswith(binder + "\n\nDRAFT RECORDS:\n")
    if mode == "no edges":
        assert stage_three == {} and renders == [1]


# ---------------------------------------------------------------------------
# binder robustness


def test_binder_illegal_or_unlinked_bindings_dropped():
    doc = Document("d", CONVOY)
    replies = _negotiation_replies()
    replies[("binder", 0)] = json.dumps([
        {"edge": "HE1", "vertex": "T1", "role": "Attacker", "confidence": 0.9},  # illegal role
        {"edge": "HE1", "vertex": "T2", "role": "Vehicle", "confidence": 0.9},   # not linked
        {"edge": "HE9", "vertex": "T1", "role": "Artifact", "confidence": 0.9},  # unknown edge
        {"edge": "HE1", "vertex": "T1", "role": "Artifact", "confidence": 0.3},  # below tau
        {"edge": "HE1", "vertex": "T1", "role": "Artifact", "confidence": 0.9},
        {"edge": "HE1", "vertex": "T1", "role": "Agent", "confidence": 0.9},     # second role, same vertex
    ])
    result = run_document(doc, FakeBackend(replies), None, PipelineConfig(), SCHEMA)
    roles = result.state.edges["HE1"].roles
    assert [(r.vertex_id, r.role) for r in roles] == [("T1", "Artifact")]
    assert any("not legal" in d for d in result.diagnostics)
    assert any("not linked" in d for d in result.diagnostics)
    assert any("already bound" in d for d in result.diagnostics)


def test_binder_bool_confidence_dropped():
    doc = Document("d", CONVOY)
    replies = _negotiation_replies()
    replies[("binder", 0)] = json.dumps([
        {"edge": "HE1", "vertex": "T1", "role": "Artifact", "confidence": True},
    ])
    result = run_document(doc, FakeBackend(replies), None, PipelineConfig(), SCHEMA)
    assert result.state.edges["HE1"].roles == []
    assert "bind: confidence True out of range on HE1, dropped" in result.diagnostics


# ---------------------------------------------------------------------------
# output contract


def test_validate_record_catches_violations():
    doc = Document("d", CONVOY)
    good = EventRecord("Movement:Transport", "riding",
                       [("Artifact", "militants")], [])
    assert validate_record(doc, good) == []

    multi = EventRecord("Movement:Transport", "were riding", [], [])
    assert any("single token" in v for v in validate_record(doc, multi))

    invented = EventRecord("Movement:Transport", "flying", [], [])
    assert any("not verbatim" in v for v in validate_record(doc, invented))

    img_doc = Document("i", "", image=corpus_image())
    crossed = EventRecord("Conflict:Attack", "", [("Attacker", "x")], [])
    assert any("text arguments" in v for v in validate_record(img_doc, crossed))

    crossed2 = EventRecord("Conflict:Attack", "riding", [], [("Target", [0, 0, 10, 10])])
    assert any("image arguments" in v for v in validate_record(doc, crossed2))

    bad_box = EventRecord("Conflict:Attack", "", [], [("Target", [10, 0, 0, 10])])
    assert any("order" in v for v in validate_record(img_doc, bad_box))

    float_box = EventRecord("Conflict:Attack", "", [], [("Target", [0.5, 0, 10, 10])])
    assert any("four integers" in v for v in validate_record(img_doc, float_box))


def corpus_image():
    from mmevents.hypergraph import ImageRef
    return ImageRef("x.jpg", 640, 480)


def test_event_record_json_round_trip():
    rec = EventRecord("Conflict:Attack", "bombed",
                      [("Attacker", "rebels")], [("Target", [1, 2, 3, 4])],
                      confidence={"event": 0.9, "text_arguments": [0.8], "image_arguments": [0.7]},
                      non_extractive=["arg:Attacker"])
    assert EventRecord.from_json(rec.to_json()) == rec
