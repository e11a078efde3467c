"""Serialization of the full engine state (hypergraph + audit trail).

Wire shape is a single UTF-8 JSON object:
{"vertices": [...], "edges": [...], "counters": {...}, "trail": [...]}
Field order and id ordering are fixed so re-serialization is bit-identical.
"""
from __future__ import annotations

import json

from .boxes import is_number
from .errors import MalformedState
from .hypergraph import (
    BoxRegion,
    Hyperedge,
    Hypergraph,
    RoleBinding,
    TextSpan,
    Vertex,
    sort_ids,
)
from .ops import AuditEntry


def _vertex_to_json(v: Vertex) -> dict:
    loc = v.localization
    if isinstance(loc, TextSpan):
        where = {"kind": "text", "start": loc.start, "end": loc.end}
    else:
        where = {"kind": "image", "bbox": loc.as_list()}
    return {"id": v.id, "localization": where, "surface": v.surface}


def _edge_to_json(e: Hyperedge) -> dict:
    return {
        "id": e.id,
        "event_type": e.event_type,
        "members": sort_ids(e.members),
        "trigger": None if e.trigger is None else {"start": e.trigger.start, "end": e.trigger.end},
        "trigger_surface": e.trigger_surface,
        "roles": [
            {"vertex": rb.vertex_id, "role": rb.role, "confidence": rb.confidence}
            for rb in sorted(e.roles, key=lambda rb: (rb.vertex_id, rb.role))
        ],
        "confidence": e.confidence,
    }


def state_to_json(h: Hypergraph, trail: list[AuditEntry]) -> dict:
    return {
        "vertices": [_vertex_to_json(h.vertices[i]) for i in sort_ids(h.vertices)],
        "edges": [_edge_to_json(h.edges[i]) for i in sort_ids(h.edges)],
        "counters": {"text": h.next_text, "image": h.next_image, "edge": h.next_edge},
        "trail": [e.to_json() for e in trail],
    }


def serialize_state(h: Hypergraph, trail: list[AuditEntry]) -> bytes:
    return json.dumps(state_to_json(h, trail), ensure_ascii=False, sort_keys=True).encode("utf-8")


def _int(value) -> int:
    """Offsets, box coordinates and counters are JSON integers, never booleans."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _span(obj) -> TextSpan:
    return TextSpan(_int(obj["start"]), _int(obj["end"]))


def _vertex_from_json(obj: dict) -> Vertex:
    where = obj["localization"]
    if where["kind"] == "text":
        loc = _span(where)
    elif where["kind"] == "image":
        loc = BoxRegion(*(_int(x) for x in where["bbox"]))
    else:
        raise MalformedState(f"unknown localization kind {where['kind']!r}")
    return Vertex(id=obj["id"], localization=loc, surface=obj["surface"])


def _binding_from_json(obj: dict) -> RoleBinding:
    if not is_number(obj["confidence"]):
        raise ValueError(f"binding confidence {obj['confidence']!r} is not a number")
    return RoleBinding(obj["vertex"], obj["role"], float(obj["confidence"]))


def _edge_from_json(obj: dict) -> Hyperedge:
    trig = obj.get("trigger")
    confidence = obj.get("confidence")
    if confidence is not None and not is_number(confidence):
        raise ValueError(f"edge confidence {confidence!r} is neither a number nor null")
    return Hyperedge(
        id=obj["id"],
        event_type=obj["event_type"],
        members=set(obj.get("members", [])),
        trigger=None if trig is None else _span(trig),
        trigger_surface=obj.get("trigger_surface", ""),
        roles=[_binding_from_json(r) for r in obj.get("roles", [])],
        confidence=confidence,
    )


def state_from_json(data: dict) -> tuple[Hypergraph, list[AuditEntry]]:
    try:
        h = Hypergraph()
        for vobj in data["vertices"]:
            v = _vertex_from_json(vobj)
            h.vertices[v.id] = v
        for eobj in data["edges"]:
            e = _edge_from_json(eobj)
            h.edges[e.id] = e
        counters = data["counters"]
        h.next_text = _int(counters["text"])
        h.next_image = _int(counters["image"])
        h.next_edge = _int(counters["edge"])
        trail = [AuditEntry.from_json(e) for e in data["trail"]]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedState(f"state object violates schema: {exc}") from exc
    for e in h.edges.values():
        unknown = e.members - set(h.vertices)
        if unknown:
            raise MalformedState(f"edge {e.id} references unknown vertices {sorted(unknown)}")
    return h, trail


def deserialize_state(raw: bytes) -> tuple[Hypergraph, list[AuditEntry]]:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedState(f"input is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedState("state must be a JSON object")
    return state_from_json(data)
