import pytest

from mmevents.errors import (
    InternalInconsistency,
    MissingField,
    OutOfRangeConfidence,
    SchemaViolation,
    UnknownTarget,
)
from mmevents.hypergraph import Document, Hyperedge, TextSpan, create_hypergraph
from mmevents.ops import (
    AuditEntry,
    Operation,
    Proposal,
    append_log,
    apply_commit,
    canonical_payload,
    operation_key,
    replay_rounds,
    resolve_conflicts,
    resolve_trigger_text,
    validate,
)
from mmevents.schema import default_schema

TEXT = "alpha bravo charlie delta echo"
DOC = Document("d", TEXT)
SCHEMA = default_schema()


def base_graph():
    h = create_hypergraph(DOC, [
        (TextSpan(0, 5), "alpha"),
        (TextSpan(6, 11), "bravo"),
        (TextSpan(12, 19), "charlie"),
    ])
    return h


def with_edge():
    h = base_graph()
    h.edges["HE1"] = Hyperedge(
        id="HE1", event_type="Conflict:Attack",
        members={"T1"}, trigger=TextSpan(0, 5), trigger_surface="alpha",
    )
    h.next_edge = 2
    return h


def P(agent, op, index=0):
    return Proposal(agent_id=agent, op=op, index=index)


# ---------------------------------------------------------------------------
# canonical payloads & validation


def test_canonical_payload_propose_sorts_members():
    a = canonical_payload("propose", {"event_type": "Conflict:Attack",
                                      "trigger": {"start": 0, "end": 5},
                                      "members": ["T2", "T1"]})
    b = canonical_payload("propose", {"event_type": "Conflict:Attack",
                                      "trigger": {"start": 0, "end": 5},
                                      "members": ["T1", "T2"]})
    assert a == b
    assert a["members"] == ["T1", "T2"]


def test_canonical_payload_coerces_numeric_trigger_offsets():
    out = canonical_payload("propose", {"event_type": "Conflict:Attack",
                                        "trigger": {"start": "3", "end": 5.0}})
    assert out["trigger"] == {"start": 3, "end": 5}


def test_resolve_trigger_text():
    op = Operation("propose", None, {"event_type": "Conflict:Attack",
                                     "trigger": {"text": "bravo"}})
    out = resolve_trigger_text(op, TEXT)
    assert out.payload["trigger"] == {"start": 6, "end": 11}


@pytest.mark.parametrize("op,exc", [
    (Operation("propose", None, {"trigger": {"start": 0, "end": 5}}), MissingField),
    (Operation("propose", None, {"event_type": "No:Such", "trigger": {"start": 0, "end": 5}}), SchemaViolation),
    (Operation("propose", None, {"event_type": "Conflict:Attack"}), MissingField),  # trigger required with text
    (Operation("propose", None, {"event_type": "Conflict:Attack",
                                 "trigger": {"start": 0, "end": 99}}), SchemaViolation),
    (Operation("propose", None, {"event_type": "Conflict:Attack",
                                 "trigger": {"start": 0, "end": 5}, "members": ["T9"]}), UnknownTarget),
    (Operation("revise", "HE9", {"event_type": "Conflict:Attack"}), UnknownTarget),
    (Operation("revise", "HE1", {}), MissingField),
    (Operation("drop", None, {}), MissingField),
    (Operation("link", "HE1", {}), MissingField),
    (Operation("link", "HE1", {"vertex": "T9"}), UnknownTarget),
    (Operation("unlink", "HE9", {"vertex": "T1"}), UnknownTarget),
    (Operation("adjust_confidence", "HE1", {}), MissingField),
    (Operation("adjust_confidence", "HE1", {"value": 1.5}), OutOfRangeConfidence),
    (Operation("adjust_confidence", "HE1", {"value": "high"}), OutOfRangeConfidence),
    (Operation("propose", None, {"event_type": "Conflict:Attack",
                                 "trigger": {"start": "x", "end": 3}}), MissingField),
    (Operation("revise", "HE1", {"trigger": {"start": [0], "end": 5}}), MissingField),
    (Operation("adjust_confidence", "HE1", {"value": True}), OutOfRangeConfidence),
    (Operation("revise", "HE1", {"trigger": None}), MissingField),
    (Operation("revise", "HE1", {"trigger": {"start": 10, "end": 4}}), SchemaViolation),
    (Operation("revise", "HE1", {"trigger": {"start": 0, "end": 99}}), SchemaViolation),
    (Operation("propose", None, {"event_type": "Conflict:Attack",
                                 "trigger": {"start": 5, "end": 5}}), SchemaViolation),
    (Operation("propose", None, {"event_type": "Conflict:Attack",
                                 "trigger": {"start": -1, "end": 5}}), SchemaViolation),
    (Operation("propose", None, {"event_type": "Conflict:Attack",
                                 "trigger": {"start": True, "end": 5}}), MissingField),
    (Operation("revise", "HE1", {"trigger": {"start": 0, "end": 5.9}}), MissingField),
])
def test_validate_rejections(op, exc):
    with pytest.raises(exc):
        validate(op, with_edge(), SCHEMA, text=TEXT)


def test_validate_alias_targets():
    h = base_graph()
    op = Operation("link", "e1", {"vertex": "T1"})
    with pytest.raises(UnknownTarget):
        validate(op, h, SCHEMA, text=TEXT)
    validate(op, h, SCHEMA, text=TEXT, aliases=frozenset({"e1"}))
    # drops must name a committed edge, never an alias
    with pytest.raises(UnknownTarget):
        validate(Operation("drop", "e1", {}), h, SCHEMA, text=TEXT, aliases=frozenset({"e1"}))


def op_key(op: Operation) -> tuple:
    return operation_key(op.op_type, op.target, canonical_payload(op.op_type, op.payload))


def entry_key(entry: AuditEntry) -> tuple:
    return operation_key(entry.op_type, entry.target, entry.payload)


def test_equivalent_propose_ignores_target():
    entry = AuditEntry("proposer", "propose", "HE1",
                       canonical_payload("propose", {"event_type": "Conflict:Attack",
                                                     "trigger": {"start": 0, "end": 5},
                                                     "members": []}), 1)
    op = Operation("propose", None, {"event_type": "Conflict:Attack",
                                     "trigger": {"start": 0, "end": 5}})
    assert op_key(op) == entry_key(entry)
    other = Operation("propose", None, {"event_type": "Conflict:Attack",
                                        "trigger": {"start": 6, "end": 11}})
    assert op_key(other) != entry_key(entry)


def test_equivalent_link_compares_target():
    entry = AuditEntry("linker", "link", "HE1", {"vertex": "T1"}, 1)
    assert op_key(Operation("link", "HE1", {"vertex": "T1"})) == entry_key(entry)
    assert op_key(Operation("link", "HE2", {"vertex": "T1"})) != entry_key(entry)


# ---------------------------------------------------------------------------
# conflict resolution


def test_duplicate_proposals_deduped():
    h = with_edge()
    ops_ = [
        P("proposer", Operation("link", "HE1", {"vertex": "T2"}), 0),
        P("linker", Operation("link", "HE1", {"vertex": "T2"}), 0),
    ]
    unit = resolve_conflicts(ops_, h, [], 1, SCHEMA, text=TEXT)
    assert len(unit.accepted) == 1
    assert unit.accepted[0].agent_id == "proposer"  # earliest agent wins
    assert [r for _, r in unit.rejected] == ["duplicate proposal"]


def test_proposes_differing_only_in_target_are_duplicates():
    # validation ignores a propose's target and the audit entry replaces it,
    # so both would commit the same edge
    payload = {"event_type": "Conflict:Attack", "trigger": {"start": 6, "end": 11}}
    ops_ = [
        P("proposer", Operation("propose", None, payload), 0),
        P("proposer", Operation("propose", "HE7", payload), 1),
    ]
    unit = resolve_conflicts(ops_, base_graph(), [], 1, SCHEMA, text=TEXT)
    assert [p.index for p in unit.accepted] == [0]
    assert [r for _, r in unit.rejected] == ["duplicate proposal"]


def test_revise_that_changes_nothing_is_rejected():
    unit = resolve_conflicts([P("proposer", Operation("revise", "HE1", {"trigger": None}))],
                             with_edge(), [], 1, SCHEMA, text=TEXT)
    assert not unit.accepted and not unit.entries
    assert [r for _, r in unit.rejected] == [
        "MissingField: revise requires a new event_type and/or trigger"]


def test_audit_entries_carry_the_canonical_payload():
    unit = resolve_conflicts([
        P("proposer", Operation("propose", None, {"event_type": "Conflict:Attack",
                                                  "trigger": {"start": "6", "end": 11.0},
                                                  "members": ["T2", "T1"]})),
        P("proposer", Operation("revise", "HE1", {"event_type": "Contact:Meet", "trigger": None}), 1),
    ], with_edge(), [], 1, SCHEMA, text=TEXT)
    assert [(e.op_type, e.payload) for e in unit.entries] == [
        ("propose", {"event_type": "Conflict:Attack", "trigger": {"start": 6, "end": 11},
                     "members": ["T1", "T2"]}),
        ("revise", {"event_type": "Contact:Meet"}),
    ]


def test_no_repeat_against_trail():
    h = with_edge()
    trail = [AuditEntry("linker", "link", "HE1", {"vertex": "T2"}, 1)]
    unit = resolve_conflicts([P("linker", Operation("link", "HE1", {"vertex": "T2"}))],
                             h, trail, 2, SCHEMA, text=TEXT)
    assert not unit.accepted
    assert unit.rejected[0][1] == "repeat of committed operation"


def test_duplicates_are_rejected_before_repeats():
    h = with_edge()
    trail = [AuditEntry("linker", "link", "HE1", {"vertex": "T2"}, 1)]
    ops_ = [
        P("linker", Operation("link", "HE1", {"vertex": "T2"}), 0),
        P("linker", Operation("link", "HE1", {"vertex": "T3"}), 1),
        P("linker", Operation("link", "HE1", {"vertex": "T2"}), 2),
    ]
    unit = resolve_conflicts(ops_, h, trail, 2, SCHEMA, text=TEXT)
    assert [(p.index, r) for p, r in unit.rejected] == [
        (2, "duplicate proposal"), (0, "repeat of committed operation")]
    assert [p.index for p in unit.accepted] == [1]


def test_drop_dominance():
    h = with_edge()
    ops_ = [
        P("proposer", Operation("link", "HE1", {"vertex": "T2"}), 0),
        P("verifier", Operation("drop", "HE1", {}), 0),
        P("verifier", Operation("adjust_confidence", "HE1", {"value": 0.9}), 1),
    ]
    unit = resolve_conflicts(ops_, h, [], 1, SCHEMA, text=TEXT)
    assert [p.op.op_type for p in unit.accepted] == ["drop"]
    assert len(unit.rejected) == 2


def test_unlink_overrides_link():
    h = with_edge()
    ops_ = [
        P("proposer", Operation("link", "HE1", {"vertex": "T1"}), 0),
        P("verifier", Operation("unlink", "HE1", {"vertex": "T1"}), 0),
    ]
    unit = resolve_conflicts(ops_, h, [], 1, SCHEMA, text=TEXT)
    assert [p.op.op_type for p in unit.accepted] == ["unlink"]


def test_single_adjustment_per_edge_earliest_agent_wins():
    h = with_edge()
    ops_ = [
        P("verifier", Operation("adjust_confidence", "HE1", {"value": 0.2}), 0),
        P("proposer", Operation("adjust_confidence", "HE1", {"value": 0.8}), 0),
    ]
    unit = resolve_conflicts(ops_, h, [], 1, SCHEMA, text=TEXT)
    assert len(unit.accepted) == 1
    assert unit.accepted[0].agent_id == "proposer"
    assert unit.accepted[0].op.payload["value"] == 0.8


def test_link_to_rejected_alias_cascades():
    h = base_graph()
    bad_propose = Operation("propose", None,
                            {"event_type": "No:Such", "trigger": {"start": 0, "end": 5}},
                            alias="e1")
    ops_ = [
        P("proposer", bad_propose, 0),
        P("linker", Operation("link", "e1", {"vertex": "T1"}), 0),
    ]
    unit = resolve_conflicts(ops_, h, [], 1, SCHEMA, text=TEXT)
    assert not unit.accepted
    reasons = sorted(r for _, r in unit.rejected)
    assert any("rejected proposal" in r for r in reasons)


def test_application_order():
    h = with_edge()
    ops_ = [
        P("verifier", Operation("adjust_confidence", "HE1", {"value": 0.4}), 0),
        P("proposer", Operation("propose", None,
                                {"event_type": "Contact:Meet",
                                 "trigger": {"start": 6, "end": 11}}, alias="e2"), 0),
        P("linker", Operation("link", "e2", {"vertex": "T2"}), 0),
        P("linker", Operation("unlink", "HE1", {"vertex": "T1"}), 1),
    ]
    unit = resolve_conflicts(ops_, h, [], 1, SCHEMA, text=TEXT)
    assert [p.op.op_type for p in unit.accepted] == [
        "unlink", "propose", "link", "adjust_confidence",
    ]


def test_one_round_trips_every_rule_in_policy_order():
    h = with_edge()
    h.edges["HE1"].members.add("T3")
    h.edges["HE2"] = Hyperedge(id="HE2", event_type="Contact:Meet", trigger=TextSpan(6, 11),
                               trigger_surface="bravo")
    h.next_edge = 3
    trail = [AuditEntry("linker", "link", "HE1", {"vertex": "T3"}, 1)]
    ops_ = [
        P("proposer", Operation("propose", None, {"event_type": "No:Such",
                                                  "trigger": {"start": 0, "end": 5}}, alias="e1"), 0),
        P("proposer", Operation("link", "HE1", {"vertex": "T2"}), 1),
        P("proposer", Operation("adjust_confidence", "HE2", {"value": 0.5}), 2),
        P("proposer", Operation("adjust_confidence", "HE1", {"value": 0.8}), 3),
        P("linker", Operation("link", "HE1", {"vertex": "T2"}), 0),
        P("linker", Operation("link", "HE1", {"vertex": "T3"}), 1),
        P("linker", Operation("link", "HE1", {"vertex": "T1"}), 2),
        P("linker", Operation("link", "e1", {"vertex": "T2"}), 3),
        P("verifier", Operation("drop", "HE2", {}), 0),
        P("verifier", Operation("unlink", "HE1", {"vertex": "T1"}), 1),
        P("verifier", Operation("adjust_confidence", "HE1", {"value": 0.3}), 2),
    ]
    unit = resolve_conflicts(list(reversed(ops_)), h, trail, 2, SCHEMA, text=TEXT)
    assert [(p.agent_id, p.index, r) for p, r in unit.rejected] == [
        ("proposer", 0, "SchemaViolation: event type 'No:Such' not in schema"),
        ("linker", 0, "duplicate proposal"),
        ("linker", 1, "repeat of committed operation"),
        ("proposer", 2, "drop of HE2 overrides this operation"),
        ("linker", 2, "unlink overrides link on this vertex-edge pair"),
        ("verifier", 2, "conflicting confidence adjustment"),
        ("linker", 3, "alias 'e1' refers to a rejected proposal"),
    ]
    assert [(p.agent_id, p.index) for p in unit.accepted] == [
        ("verifier", 0), ("verifier", 1), ("proposer", 1), ("proposer", 3)]
    assert [(e.op_type, e.target, e.payload) for e in unit.entries] == [
        ("drop", "HE2", {}), ("unlink", "HE1", {"vertex": "T1"}),
        ("link", "HE1", {"vertex": "T2"}), ("adjust_confidence", "HE1", {"value": 0.8})]


# ---------------------------------------------------------------------------
# commit application & replay


def _commit(h, proposals, trail, rnd):
    unit = resolve_conflicts(proposals, h, trail, rnd, SCHEMA, text=TEXT)
    h2 = apply_commit(h, unit, SCHEMA, DOC)
    return h2, append_log(trail, unit)


def test_propose_assigns_sequential_ids_and_resolves_aliases():
    h = base_graph()
    proposals = [
        P("proposer", Operation("propose", None,
                                {"event_type": "Conflict:Attack",
                                 "trigger": {"start": 0, "end": 5}}, alias="a"), 0),
        P("proposer", Operation("propose", None,
                                {"event_type": "Contact:Meet",
                                 "trigger": {"start": 6, "end": 11}}, alias="b"), 1),
        P("linker", Operation("link", "b", {"vertex": "T3"}), 0),
    ]
    h2, trail = _commit(h, proposals, [], 1)
    assert sorted(h2.edges) == ["HE1", "HE2"]
    assert h2.edges["HE2"].members == {"T3"}
    assert h2.edges["HE1"].trigger_surface == "alpha"
    # audit entries carry resolved, concrete ids
    assert [e.target for e in trail] == ["HE1", "HE2", "HE2"]
    assert all(e.round == 1 for e in trail)


def test_apply_is_pure():
    h = base_graph()
    before = h.copy()
    _commit(h, [P("proposer", Operation("propose", None,
                                        {"event_type": "Conflict:Attack",
                                         "trigger": {"start": 0, "end": 5}}))], [], 1)
    assert h == before


def test_revise_and_adjust_and_drop():
    h = base_graph()
    h2, trail = _commit(h, [
        P("proposer", Operation("propose", None,
                                {"event_type": "Conflict:Attack",
                                 "trigger": {"start": 0, "end": 5}}, alias="a"), 0),
    ], [], 1)
    h3, trail = _commit(h2, [
        P("proposer", Operation("revise", "HE1",
                                {"event_type": "Conflict:Demonstrate",
                                 "trigger": {"start": 12, "end": 19}}), 0),
        P("verifier", Operation("adjust_confidence", "HE1", {"value": 0.75}), 0),
    ], trail, 2)
    assert h3.edges["HE1"].event_type == "Conflict:Demonstrate"
    assert h3.edges["HE1"].trigger_surface == "charlie"
    assert h3.edges["HE1"].confidence == 0.75
    h4, trail = _commit(h3, [P("verifier", Operation("drop", "HE1", {}))], trail, 3)
    assert not h4.edges
    # drop leaves vertices untouched
    assert set(h4.vertices) == {"T1", "T2", "T3"}


def test_replay_reconstructs_state_per_round():
    h0 = base_graph()
    h1, trail = _commit(h0, [
        P("proposer", Operation("propose", None,
                                {"event_type": "Conflict:Attack",
                                 "trigger": {"start": 0, "end": 5}}, alias="a"), 0),
        P("linker", Operation("link", "a", {"vertex": "T1"}), 0),
    ], [], 1)
    h2, trail = _commit(h1, [
        P("verifier", Operation("adjust_confidence", "HE1", {"value": 0.9}), 0),
    ], trail, 2)
    states = dict(replay_rounds(h0, trail, SCHEMA, DOC))
    assert list(states) == [1, 2]
    assert states[1] == h1
    assert states[2] == h2


def test_replay_empty_trail_is_initial_state():
    h0 = base_graph()
    # no round to replay: the replayed state stays the initial one
    assert list(replay_rounds(h0, [], SCHEMA, DOC)) == []


def test_replay_tampered_trail_raises():
    h0 = base_graph()
    trail = [AuditEntry("linker", "link", "HE1", {"vertex": "T1"}, 1)]
    with pytest.raises(InternalInconsistency):
        list(replay_rounds(h0, trail, SCHEMA, DOC))
    trail = [
        AuditEntry("proposer", "propose", "HE1",
                   {"event_type": "Conflict:Attack",
                    "trigger": {"start": 0, "end": 5}, "members": []}, 1),
        AuditEntry("linker", "link", "HE1", {"vertex": "T9"}, 1),
    ]
    with pytest.raises(InternalInconsistency):
        list(replay_rounds(h0, trail, SCHEMA, DOC))


_PROPOSE_ENTRY = {"event_type": "Conflict:Attack", "trigger": {"start": 0, "end": 5}, "members": []}


@pytest.mark.parametrize("entry", [
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "trigger": {"start": 5, "end": 0}}, 1),
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "trigger": {"start": 0, "end": 99}}, 1),
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "trigger": {"start": "0", "end": 5}}, 1),
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "trigger": {"start": False, "end": 5}}, 1),
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "trigger": {"start": 0}}, 1),
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "trigger": None}, 1),
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "event_type": 5}, 1),
    AuditEntry("proposer", "propose", "HE1", {**_PROPOSE_ENTRY, "members": ["T1", 2]}, 1),
    AuditEntry("proposer", "propose", "HE1", {"trigger": {"start": 0, "end": 5}}, 1),
    AuditEntry("proposer", "revise", "HE1", {"trigger": {"start": 12, "end": 40}}, 1),
    AuditEntry("proposer", "revise", ["HE1"], {"event_type": "Contact:Meet"}, 1),
], ids=["trigger-inverted", "trigger-past-text-end", "trigger-offset-text", "trigger-offset-bool",
        "trigger-without-end", "trigger-missing", "event-type-number", "member-number",
        "event-type-missing", "revise-trigger-past-text-end", "target-list"])
def test_replay_rejects_an_entry_commit_would_reject(entry):
    h0 = with_edge() if entry.op_type == "revise" else base_graph()
    with pytest.raises(InternalInconsistency):
        list(replay_rounds(h0, [entry], SCHEMA, DOC))


def test_replay_propose_id_mismatch_raises():
    h0 = base_graph()
    trail = [AuditEntry("proposer", "propose", "HE7",
                        {"event_type": "Conflict:Attack",
                         "trigger": {"start": 0, "end": 5}, "members": []}, 1)]
    with pytest.raises(InternalInconsistency):
        list(replay_rounds(h0, trail, SCHEMA, DOC))
