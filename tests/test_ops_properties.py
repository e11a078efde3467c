"""Property-based checks of the commit policy (1000+ generated cases each)."""
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mmevents.hypergraph import Document, TextSpan, create_hypergraph
from mmevents.ops import (
    Operation,
    Proposal,
    append_log,
    apply_commit,
    canonical_payload,
    operation_key,
    replay_rounds,
    resolve_conflicts,
)
from mmevents.schema import default_schema

TEXT = "alpha bravo charlie delta echo"
DOC = Document("prop", TEXT)
SCHEMA = default_schema()

EVENT_TYPES = ["Conflict:Attack", "Contact:Meet"]
TRIGGERS = [{"start": 0, "end": 5}, {"start": 6, "end": 11}, {"start": 12, "end": 19}]
TARGETS = ["HE1", "HE2", "HE3", "x1", "x2"]
VERTICES = ["T1", "T2", "T3", "T9"]  # T9 never exists
AGENTS = ["proposer", "linker", "verifier"]


def _h0():
    return create_hypergraph(DOC, [
        (TextSpan(0, 5), "alpha"),
        (TextSpan(6, 11), "bravo"),
        (TextSpan(12, 19), "charlie"),
    ])


propose_st = st.builds(
    lambda et, trig, members, alias: Operation(
        "propose", None,
        {"event_type": et, "trigger": trig, "members": members}, alias,
    ),
    st.sampled_from(EVENT_TYPES),
    st.sampled_from(TRIGGERS),
    st.lists(st.sampled_from(VERTICES[:3]), max_size=2, unique=True),
    st.sampled_from([None, "x1", "x2"]),
)
link_st = st.builds(
    lambda t, v: Operation("link", t, {"vertex": v}),
    st.sampled_from(TARGETS), st.sampled_from(VERTICES),
)
unlink_st = st.builds(
    lambda t, v: Operation("unlink", t, {"vertex": v}),
    st.sampled_from(TARGETS), st.sampled_from(VERTICES),
)
drop_st = st.builds(lambda t: Operation("drop", t, {}), st.sampled_from(TARGETS))
revise_st = st.builds(
    lambda t, et: Operation("revise", t, {"event_type": et}),
    st.sampled_from(TARGETS), st.sampled_from(EVENT_TYPES),
)
adjust_st = st.builds(
    lambda t, v: Operation("adjust_confidence", t, {"value": v}),
    st.sampled_from(TARGETS), st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0, 1.5]),
)
op_st = st.one_of(propose_st, link_st, unlink_st, drop_st, revise_st, adjust_st)

round_st = st.lists(st.tuples(st.sampled_from(AGENTS), op_st), min_size=0, max_size=6)
rounds_st = st.lists(round_st, min_size=1, max_size=3)


def _to_proposals(round_ops):
    counters = {}
    out = []
    for agent, op in round_ops:
        idx = counters.get(agent, 0)
        counters[agent] = idx + 1
        out.append(Proposal(agent_id=agent, op=op, index=idx))
    return out


def _run(rounds, proposal_lists=None):
    """Drive the commit loop; returns (h0, per-round snapshots)."""
    h = _h0()
    h0 = h.copy()
    trail = []
    snapshots = []
    for t, round_ops in enumerate(rounds, 1):
        proposals = proposal_lists[t - 1] if proposal_lists else _to_proposals(round_ops)
        trail_before = list(trail)
        unit = resolve_conflicts(proposals, h, trail, t, SCHEMA, text=TEXT)
        if unit.accepted:
            h = apply_commit(h, unit, SCHEMA, DOC)
            trail = append_log(trail, unit)
        snapshots.append((unit, h.copy(), list(trail), trail_before))
    return h0, snapshots


COMMON = settings(max_examples=1000, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@COMMON
@given(rounds_st)
def test_drop_dominance(rounds):
    _, snapshots = _run(rounds)
    for unit, _h, _trail, _before in snapshots:
        dropped = {p.op.target for p in unit.accepted if p.op.op_type == "drop"}
        for p in unit.accepted:
            if p.op.op_type != "drop":
                assert p.op.target not in dropped


@COMMON
@given(rounds_st)
def test_unlink_over_link(rounds):
    _, snapshots = _run(rounds)
    for unit, _h, _trail, _before in snapshots:
        unlinked = {(p.op.target, p.op.payload.get("vertex"))
                    for p in unit.accepted if p.op.op_type == "unlink"}
        for p in unit.accepted:
            if p.op.op_type == "link":
                assert (p.op.target, p.op.payload.get("vertex")) not in unlinked


@COMMON
@given(rounds_st)
def test_no_repeat_of_committed_operations(rounds):
    _, snapshots = _run(rounds)
    for unit, _h, _trail, trail_before in snapshots:
        for p in unit.accepted:
            key = operation_key(p.op.op_type, p.op.target, canonical_payload(p.op.op_type, p.op.payload))
            assert not any(key == operation_key(e.op_type, e.target, e.payload) for e in trail_before)


@COMMON
@given(rounds_st, st.randoms(use_true_random=False))
def test_arrival_order_invariance(rounds, rng):
    baseline_lists = [_to_proposals(r) for r in rounds]
    _, snaps_a = _run(rounds, proposal_lists=[list(l) for l in baseline_lists])
    shuffled = []
    for lst in [_to_proposals(r) for r in rounds]:
        rng.shuffle(lst)
        shuffled.append(lst)
    _, snaps_b = _run(rounds, proposal_lists=shuffled)
    for (ua, ha, ta, _), (ub, hb, tb, _) in zip(snaps_a, snaps_b):
        assert ha == hb
        assert ta == tb


@COMMON
@given(rounds_st)
def test_replay_soundness_after_every_round(rounds):
    h0, snapshots = _run(rounds)
    for _unit, h, trail, _before in snapshots:
        states = [h0] + [state for _round, state in replay_rounds(h0, trail, SCHEMA, DOC)]
        assert states[-1] == h


@COMMON
@given(rounds_st)
def test_roles_stay_empty_during_negotiation(rounds):
    # link-then-bind: no committed operation may create a role assignment
    _, snapshots = _run(rounds)
    for _unit, h, _trail, _before in snapshots:
        assert all(not e.roles for e in h.edges.values())


@COMMON
@given(rounds_st)
def test_trail_rounds_non_decreasing_and_append_only(rounds):
    _, snapshots = _run(rounds)
    prev = []
    for _unit, _h, trail, _before in snapshots:
        assert trail[: len(prev)] == prev
        rounds_seen = [e.round for e in trail]
        assert rounds_seen == sorted(rounds_seen)
        prev = trail
