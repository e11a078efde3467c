"""Atomic hypergraph operations: validation, conflict resolution, commit, audit.

The operation set is closed: propose / revise / drop / link / unlink /
adjust_confidence. Each negotiation round collects agent proposals,
resolves conflicts under a fixed deterministic policy, applies the
surviving operations in a fixed family order, and appends them to an
append-only audit trail. Replaying the trail from the edge-free initial
state reconstructs the current hypergraph exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import hypergraph as hg
from .boxes import is_number
from .errors import (
    InternalInconsistency,
    MissingField,
    OutOfRangeConfidence,
    SchemaViolation,
    UnknownTarget,
    ValidationError,
)
from .schema import EventSchema
from .textnorm import align_span

FAMILIES = ("propose", "revise", "drop", "link", "unlink", "adjust_confidence")

# Destructive operations first so that links and adjustments only ever
# target surviving edges; proposes precede links so same-round links to
# freshly proposed edges resolve.
APPLICATION_ORDER = ("drop", "unlink", "propose", "revise", "link", "adjust_confidence")
_FAMILY_RANK = {f: i for i, f in enumerate(APPLICATION_ORDER)}

# Fixed tie-break order for same-round conflicts; other agents rank after
# these, by id.
AGENT_ORDER = ("proposer", "linker", "verifier")


@dataclass(frozen=True)
class Operation:
    op_type: str
    target: Optional[str] = None
    payload: dict = field(default_factory=dict)
    alias: Optional[str] = None  # provisional id announced by a propose


@dataclass
class Proposal:
    agent_id: str
    op: Operation
    index: int = 0  # position within the agent's submission


@dataclass(frozen=True)
class AuditEntry:
    agent_id: str
    op_type: str
    target: Optional[str]
    payload: dict
    round: int

    def to_json(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "op_type": self.op_type,
            "target": self.target,
            "payload": self.payload,
            "round": self.round,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AuditEntry":
        """Raises ValueError unless the payload is an object and the round
        an integer (never a boolean)."""
        payload, rnd = obj.get("payload", {}), obj["round"]
        if not isinstance(payload, dict) or type(rnd) is not int:
            raise ValueError(f"trail entry needs an object payload and an integer round: {obj!r}")
        return cls(
            agent_id=obj["agent_id"],
            op_type=obj["op_type"],
            target=obj.get("target"),
            payload=dict(payload),
            round=rnd,
        )


@dataclass
class CommitUnit:
    """One round's outcome. `entries` are the accepted proposals as audit
    entries with concrete edge ids and canonical payloads, in application
    order; they are the only thing `apply_commit` applies."""

    round: int
    accepted: list[Proposal] = field(default_factory=list)
    rejected: list[tuple[Proposal, str]] = field(default_factory=list)
    entries: list[AuditEntry] = field(default_factory=list)


def malformed_fields(target, alias, payload: dict) -> list[str]:
    """Names of the present fields of the wrong type: target, alias,
    event_type and vertex must be strings, members a list of strings."""
    strings = {"target": target, "alias": alias,
               "event_type": payload.get("event_type"), "vertex": payload.get("vertex")}
    bad = [k for k, v in strings.items() if v is not None and not isinstance(v, str)]
    members = payload.get("members")
    if members is not None and not (isinstance(members, list)
                                    and all(isinstance(m, str) for m in members)):
        bad.append("members")
    return bad


def _canonical_trigger(raw) -> Optional[dict]:
    if raw is None:
        return None
    if not isinstance(raw, dict) or "start" not in raw or "end" not in raw:
        raise MissingField("trigger payload must carry integer start/end")
    return {"start": _offset(raw["start"]), "end": _offset(raw["end"])}


def _offset(value) -> int:
    """A trigger offset as an int: integers, integral floats and integer
    strings convert; booleans and fractions raise MissingField."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise MissingField(f"trigger payload must carry integer start/end, not {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MissingField(f"trigger payload must carry integer start/end ({exc})") from exc


def trigger_span(trig, text: str) -> hg.TextSpan:
    """The span of a canonical trigger {"start": int, "end": int}; raises
    MissingField for any other shape and SchemaViolation unless
    0 <= start < end <= len(text). Commit and replay both check here."""
    start, end = (trig.get("start"), trig.get("end")) if isinstance(trig, dict) else (None, None)
    if type(start) is not int or type(end) is not int:
        raise MissingField("trigger payload must carry integer start/end")
    if not 0 <= start < end <= len(text):
        raise SchemaViolation(f"trigger span {trig} out of text bounds")
    return hg.TextSpan(start, end)


def canonical_payload(op_type: str, payload: dict) -> dict:
    """Normalize a payload so equal operations compare equal."""
    if op_type == "propose":
        return {
            "event_type": payload.get("event_type"),
            "trigger": _canonical_trigger(payload.get("trigger")),
            "members": sorted(payload.get("members") or []),
        }
    if op_type == "revise":
        out = {}
        if "event_type" in payload:
            out["event_type"] = payload["event_type"]
        if payload.get("trigger") is not None:
            out["trigger"] = _canonical_trigger(payload["trigger"])
        return out
    if op_type in ("link", "unlink"):
        out = {"vertex": payload.get("vertex")}
        # bind-during-link ablation may carry a provisional role
        for key in ("role", "confidence"):
            if key in payload:
                out[key] = payload[key]
        return out
    if op_type == "adjust_confidence":
        return {"value": payload.get("value")}
    if op_type == "drop":
        return {}
    raise SchemaViolation(f"unknown operation family {op_type!r}")


def resolve_trigger_text(op: Operation, text: str) -> Operation:
    """Turn a {"text": ...} trigger payload into character offsets."""
    payload = dict(op.payload)
    trig = payload.get("trigger")
    if isinstance(trig, dict) and "text" in trig and "start" not in trig:
        start, end = align_span(str(trig["text"]), text)
        payload["trigger"] = {"start": start, "end": end}
        return Operation(op.op_type, op.target, payload, op.alias)
    return op


def validate(
    op: Operation,
    h: hg.Hypergraph,
    schema: EventSchema,
    text: str,
    aliases: frozenset[str] = frozenset(),
) -> dict:
    """Structural validation of the operation's canonical payload, which
    it returns; raises a ValidationError subclass on failure."""
    payload = canonical_payload(op.op_type, op.payload)

    def check_edge_target(allow_alias: bool = True):
        if op.target is None:
            raise MissingField(f"{op.op_type} requires a target edge")
        if op.target not in h.edges and not (allow_alias and op.target in aliases):
            raise UnknownTarget(f"{op.op_type} targets unknown edge {op.target!r}")

    if op.op_type == "propose":
        etype = payload["event_type"]
        if not etype:
            raise MissingField("propose requires event_type")
        if not schema.has_type(etype):
            raise SchemaViolation(f"event type {etype!r} not in schema")
        if payload["trigger"] is not None:
            trigger_span(payload["trigger"], text)
        elif text:
            raise MissingField("trigger required when the document has text")
        for vid in payload["members"]:
            if vid not in h.vertices:
                raise UnknownTarget(f"propose member {vid!r} unknown")
    elif op.op_type == "revise":
        check_edge_target()
        if not payload:
            raise MissingField("revise requires a new event_type and/or trigger")
        if "event_type" in payload and not schema.has_type(payload["event_type"]):
            raise SchemaViolation(f"event type {payload['event_type']!r} not in schema")
        if "trigger" in payload:
            trigger_span(payload["trigger"], text)
    elif op.op_type == "drop":
        check_edge_target(allow_alias=False)
    elif op.op_type in ("link", "unlink"):
        # unlinks apply before same-round proposes, so an alias target can
        # never resolve — and a freshly proposed edge has nothing to unlink
        check_edge_target(allow_alias=(op.op_type == "link"))
        vid = payload["vertex"]
        if not vid:
            raise MissingField(f"{op.op_type} requires a vertex")
        if vid not in h.vertices:
            raise UnknownTarget(f"{op.op_type} names unknown vertex {vid!r}")
    else:  # adjust_confidence
        check_edge_target()
        value = payload["value"]
        if value is None:
            raise MissingField("adjust_confidence requires a value")
        if not is_number(value) or not 0.0 <= value <= 1.0:
            raise OutOfRangeConfidence(f"confidence {value!r} outside [0, 1]")
    return payload


def operation_key(op_type: str, target: Optional[str], payload: dict) -> tuple:
    """An operation's identity, given its canonical payload. Proposals never
    carry a concrete edge id, so a propose is identified by payload alone."""
    return (op_type, None if op_type == "propose" else target, _freeze(payload))


def _agent_rank(agent_id: str) -> tuple:
    try:
        return (0, AGENT_ORDER.index(agent_id))
    except ValueError:
        return (1, agent_id)


def _sort_key(p: Proposal) -> tuple:
    return (_agent_rank(p.agent_id), p.index)


def _application_key(p: Proposal) -> tuple:
    return (_FAMILY_RANK[p.op.op_type], _agent_rank(p.agent_id), p.index)


def resolve_conflicts(
    proposals: Sequence[Proposal],
    h: hg.Hypergraph,
    trail: Sequence[AuditEntry],
    round: int,
    schema: EventSchema,
    text: str,
) -> CommitUnit:
    """Aggregate one round's proposals into a conflict-free commit unit.

    Deterministic in the proposal multiset: proposals are first brought
    into canonical (agent order, submission index) order, so arrival
    order never matters.
    """
    unit = CommitUnit(round=round)
    ordered = sorted(proposals, key=_sort_key)

    aliases = frozenset(
        p.op.alias for p in ordered if p.op.op_type == "propose" and p.op.alias
    )

    # structural validation; each valid proposal becomes one
    # (proposal, canonical payload, operation key) item
    items: list[tuple[Proposal, dict, tuple]] = []
    for p in ordered:
        try:
            payload = validate(p.op, h, schema, text, aliases)
        except ValidationError as exc:
            unit.rejected.append((p, f"{type(exc).__name__}: {exc}"))
            continue
        items.append((p, payload, operation_key(p.op.op_type, p.op.target, payload)))

    def keep(items: list, passes, message: str) -> list:
        """The items `passes(proposal, canonical payload, key)` holds for;
        each other proposal is rejected with `message`, formatted with it as `p`."""
        kept = []
        for item in items:
            if passes(*item):
                kept.append(item)
            else:
                unit.rejected.append((item[0], message.format(p=item[0])))
        return kept

    # the policy's rules in order; the set a rule reads is taken from the
    # survivors of the rules before it
    # 1. deduplicate identical proposals
    seen: set = set()
    items = keep(items, lambda p, c, key: _first(seen, key), "duplicate proposal")
    # 2. no-repeat against the committed trail
    committed = {operation_key(e.op_type, e.target, e.payload) for e in trail}
    items = keep(items, lambda p, c, key: key not in committed, "repeat of committed operation")
    # 3. drop dominance
    dropped = {p.op.target for p, _, _ in items if p.op.op_type == "drop"}
    items = keep(items, lambda p, c, key: p.op.op_type == "drop" or p.op.target not in dropped,
                 "drop of {p.op.target} overrides this operation")
    # 4. unlink overrides link on the same (vertex, edge) pair
    unlinked = {(p.op.target, c["vertex"]) for p, c, _ in items if p.op.op_type == "unlink"}
    items = keep(items, lambda p, c, key: p.op.op_type != "link"
                 or (p.op.target, c["vertex"]) not in unlinked,
                 "unlink overrides link on this vertex-edge pair")
    # 5. at most one confidence adjustment per edge per round
    adjusted: set = set()
    items = keep(items, lambda p, c, key: p.op.op_type != "adjust_confidence"
                 or _first(adjusted, p.op.target), "conflicting confidence adjustment")
    # 6. links to aliases of proposes that did not survive cannot resolve
    live = {p.op.alias for p, _, _ in items if p.op.op_type == "propose" and p.op.alias}
    items = keep(items, lambda p, c, key: p.op.op_type == "propose" or p.op.target not in aliases
                 or p.op.target in live, "alias {p.op.target!r} refers to a rejected proposal")

    items.sort(key=lambda item: _application_key(item[0]))
    unit.accepted = [p for p, _, _ in items]
    unit.entries = _audit_entries(items, h.next_edge, round)
    return unit


def _first(seen: set, key) -> bool:
    """True iff `key` is not yet in `seen`, which holds it afterwards."""
    if key in seen:
        return False
    seen.add(key)
    return True


def _audit_entries(items: Sequence[tuple[Proposal, dict, tuple]], next_edge: int,
                   round: int) -> list[AuditEntry]:
    """Accepted (proposal, canonical payload, key) items as audit entries:
    each propose takes the next edge id in application order, and targets
    naming its alias take it too."""
    ids: dict[str, str] = {}
    entries = []
    for p, payload, _ in items:
        target = ids.get(p.op.target, p.op.target)
        if p.op.op_type == "propose":
            target = f"HE{next_edge}"
            next_edge += 1
            if p.op.alias:
                ids[p.op.alias] = target
        entries.append(AuditEntry(p.agent_id, p.op.op_type, target, payload, round))
    return entries


def _freeze(obj):
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, list):
        return tuple(_freeze(v) for v in obj)
    return obj


def apply_commit(
    h: hg.Hypergraph,
    unit: CommitUnit,
    schema: EventSchema,
    doc: hg.Document,
) -> hg.Hypergraph:
    """Apply a commit unit's audit entries to a copy of `h` and return the
    successor state; `h` itself is never mutated. Negotiation and replay
    both commit through here."""
    out = h.copy()
    for entry in unit.entries:
        _apply_entry(out, entry, doc.text)
    hg.check_invariants(out, schema, doc)
    return out


def _apply_entry(out: hg.Hypergraph, entry: AuditEntry, text: str) -> None:
    """Apply one audit entry in place. Raises InternalInconsistency for an
    entry that cannot apply to `out`: a propose whose id is not the next
    one, an unknown target edge or vertex, or a malformed payload."""
    kind, target, payload = entry.op_type, entry.target, entry.payload
    bad = malformed_fields(target, None, payload)
    if bad:
        raise InternalInconsistency(f"trail entry has malformed {', '.join(bad)}: {payload!r}")
    if kind == "propose":
        expected = f"HE{out.next_edge}"
        if target != expected:
            raise InternalInconsistency(f"propose expected id {expected}, trail says {target}")
        out.next_edge += 1
        out.edges[target] = hg.Hyperedge(id=target, event_type=payload.get("event_type"),
                                         members=set(payload.get("members") or []))
    elif target not in out.edges:
        raise InternalInconsistency(f"trail entry targets unknown edge {target!r}")
    edge = out.edges[target]
    if kind in ("propose", "revise"):
        if kind == "revise" and "event_type" in payload:
            edge.event_type = payload["event_type"]
        if payload.get("trigger") is not None:
            try:
                edge.trigger = trigger_span(payload["trigger"], text)
            except ValidationError as exc:
                raise InternalInconsistency(f"trail entry trigger: {exc}") from exc
            edge.trigger_surface = text[edge.trigger.start:edge.trigger.end]
    elif kind == "drop":
        del out.edges[target]
    elif kind in ("link", "unlink"):
        vid = payload.get("vertex")
        if vid not in out.vertices:
            raise InternalInconsistency(f"trail entry names unknown vertex {vid!r}")
        if kind == "link":
            edge.members.add(vid)
        else:
            edge.members.discard(vid)
            edge.roles = [rb for rb in edge.roles if rb.vertex_id != vid]
    elif kind == "adjust_confidence":
        value = payload.get("value")
        if not is_number(value):
            raise InternalInconsistency(f"confidence value {value!r} is not a number")
        edge.confidence = float(value)
    else:
        raise InternalInconsistency(f"unapplicable operation family {kind!r}")


def append_log(trail: Sequence[AuditEntry], unit: CommitUnit) -> list[AuditEntry]:
    """The trail extended by the unit's entries, in application order."""
    return list(trail) + unit.entries


def replay_rounds(h0: hg.Hypergraph, trail: Sequence[AuditEntry], schema: EventSchema,
                  doc: hg.Document):
    """Fold the audit trail over the edge-free initial state through
    `apply_commit`, yielding (round, state) after each replayed round.
    Each state is the next round's input, so do not mutate it."""
    h = h0
    for rnd, entries in itertools.groupby(trail, key=lambda e: e.round):
        h = apply_commit(h, CommitUnit(rnd, entries=list(entries)), schema, doc)
        yield rnd, h
