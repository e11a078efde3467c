"""Event schema: the fixed map from event types to legal argument roles,
and the event record that extraction exports and evaluation reads."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .boxes import is_box, is_number

DEFAULT_ENTRIES: dict[str, list[str]] = {
    "Movement:Transport": ["Agent", "Artifact", "Vehicle", "Destination", "Origin"],
    "Conflict:Attack": ["Attacker", "Target", "Instrument", "Place"],
    "Conflict:Demonstrate": ["Entity", "Police", "Instrument", "Place"],
    "Justice:ArrestJail": ["Agent", "Person", "Instrument", "Place"],
    "Contact:PhoneWrite": ["Entity", "Instrument", "Place"],
    "Contact:Meet": ["Participant", "Place"],
    "Life:Die": ["Agent", "Instrument", "Victim", "Place"],
    "Transaction:TransferMoney": ["Giver", "Recipient", "Money"],
}

# Roles an event is vacuous without. These are engine defaults, not part
# of the benchmark annotation; override via a schema config file.
DEFAULT_REQUIRED: dict[str, list[str]] = {
    "Movement:Transport": ["Artifact"],
    "Conflict:Attack": ["Attacker", "Target"],
    "Conflict:Demonstrate": ["Entity"],
    "Justice:ArrestJail": ["Person"],
    "Contact:PhoneWrite": ["Entity"],
    "Contact:Meet": ["Participant"],
    "Life:Die": ["Victim"],
    "Transaction:TransferMoney": ["Money"],
}


@dataclass(frozen=True)
class EventSchema:
    entries: dict[str, tuple[str, ...]]
    required_roles: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for etype, roles in self.entries.items():
            if not roles:
                raise ValueError(f"role list for {etype} is empty")
        for etype, req in self.required_roles.items():
            if etype not in self.entries:
                raise ValueError(f"required_roles names unknown type {etype}")
            missing = set(req) - set(self.entries[etype])
            if missing:
                raise ValueError(f"required roles {sorted(missing)} not legal for {etype}")

    @property
    def event_types(self) -> tuple[str, ...]:
        return tuple(self.entries)

    def roles_for(self, event_type: str) -> tuple[str, ...]:
        return self.entries[event_type]

    def has_type(self, event_type: str) -> bool:
        return event_type in self.entries

    def required_for(self, event_type: str) -> tuple[str, ...]:
        return self.required_roles.get(event_type, ())

    def to_json(self) -> dict:
        """The shape `schema_from_json` reads. "order" records the order of
        the event types, which a key-sorted dump of "entries" loses."""
        return {
            "entries": {k: list(v) for k, v in self.entries.items()},
            "order": list(self.entries),
            "required_roles": {k: list(v) for k, v in self.required_roles.items()},
        }


def default_schema() -> EventSchema:
    return EventSchema(
        entries={k: tuple(v) for k, v in DEFAULT_ENTRIES.items()},
        required_roles={k: tuple(v) for k, v in DEFAULT_REQUIRED.items()},
    )


def schema_from_json(data) -> EventSchema:
    """The schema of {"entries": {type: [role, ...]}, "required_roles":
    {type: [role, ...]}, "order": [type, ...]} (required_roles and order
    optional; without order the event types keep the order of entries);
    raises ValueError for any other shape."""
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError("schema is not an object with entries")
    tables = []
    for key in ("entries", "required_roles"):
        table = data.get(key, {})
        if not isinstance(table, dict) or not all(
            isinstance(roles, list) and all(isinstance(r, str) for r in roles)
            for roles in table.values()
        ):
            raise ValueError(f"schema {key} must map event types to lists of role names")
        tables.append({k: tuple(v) for k, v in table.items()})
    order = data.get("order", list(tables[0]))
    if not (isinstance(order, list) and all(isinstance(k, str) for k in order)
            and sorted(order) == sorted(tables[0])):
        raise ValueError("schema order must list each event type of entries once")
    return EventSchema(entries={k: tables[0][k] for k in order}, required_roles=tables[1])


def load_schema(path: str | Path) -> EventSchema:
    """Load an alternative schema from a JSON file in the shape
    `schema_from_json` reads."""
    return schema_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class EventRecord:
    event_type: str
    trigger: str
    text_arguments: list[tuple[str, str]] = field(default_factory=list)
    image_arguments: list[tuple[str, list[int]]] = field(default_factory=list)
    confidence: Optional[dict] = None
    non_extractive: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "event_type": self.event_type,
            "trigger": self.trigger,
            "text_arguments": [[role, text] for role, text in self.text_arguments],
            "image_arguments": [[role, list(box)] for role, box in self.image_arguments],
        }
        if self.confidence is not None:
            out["confidence"] = self.confidence
        if self.non_extractive:
            out["non_extractive"] = list(self.non_extractive)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "EventRecord":
        """Raises ValueError for a record of the wrong shape."""
        if not isinstance(obj, dict):
            raise ValueError(f"event record {obj!r} is not an object")
        text_args = obj.get("text_arguments", [])
        image_args = obj.get("image_arguments", [])
        confidence = obj.get("confidence")
        non_extractive = obj.get("non_extractive", [])
        if not isinstance(obj.get("event_type"), str) or not isinstance(obj.get("trigger", ""), str):
            raise ValueError("event record needs a string event_type and trigger")
        if not _is_pairs(text_args, lambda t: isinstance(t, str)) or not _is_pairs(image_args, is_box):
            raise ValueError("arguments must be [role, text] or [role, four-number box] pairs")
        event = confidence.get("event") if isinstance(confidence, dict) else None
        number = is_number(event)
        if confidence is not None and not (isinstance(confidence, dict) and (event is None or number)):
            raise ValueError(f"confidence {confidence!r} is not an object with a numeric event score")
        if not isinstance(non_extractive, list):
            raise ValueError("non_extractive must be a list")
        return cls(
            event_type=obj["event_type"],
            trigger=obj.get("trigger", ""),
            text_arguments=[(r, t) for r, t in text_args],
            image_arguments=[(r, list(b)) for r, b in image_args],
            confidence=confidence,
            non_extractive=list(non_extractive),
        )


def _is_pairs(value, valid) -> bool:
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and valid(p[1])
        for p in value
    )
