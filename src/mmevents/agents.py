"""Agent and vision-tool contracts: context rendering, reply parsing,
live HTTP and scripted replay backends, and the call ledger.

All agent replies are parsed defensively: a malformed reply can never
crash the pipeline, it just yields zero operations plus diagnostics.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

from .boxes import is_box, is_number
from .errors import (
    AgentUnavailable,
    BackendHTTPError,
    BackendTimeout,
    ScriptExhausted,
    VisionUnavailable,
)
from .hypergraph import Document, Hypergraph, TextSpan, Vertex, sort_ids
from .ops import FAMILIES, AuditEntry, Operation, Proposal, malformed_fields
from .schema import EventSchema

SEEDER = "seeder"
PROPOSER = "proposer"
LINKER = "linker"
VERIFIER = "verifier"
BINDER = "binder"
CONSOLIDATOR = "consolidator"


def role_instructions(role: str) -> str:
    return resources.files("mmevents.prompts").joinpath(f"{role}.txt").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# call ledger


@dataclass
class CallLedger:
    main_calls: int = 0
    vision_calls: int = 0
    main_attempts: int = 0
    per_stage: dict = field(default_factory=dict)
    input_tokens: int = 0
    output_tokens: int = 0

    def _bump(self, stage: str, kind: str) -> None:
        slot = self.per_stage.setdefault(stage, {"main": 0, "vision": 0})
        slot[kind] += 1

    def record_main(self, stage: str, attempts: int = 1, usage: Optional[dict] = None) -> None:
        self.main_calls += 1
        self.main_attempts += attempts
        self._bump(stage, "main")
        if usage:
            self.input_tokens += int(usage.get("prompt_tokens", 0))
            self.output_tokens += int(usage.get("completion_tokens", 0))

    def record_vision(self, stage: str) -> None:
        self.vision_calls += 1
        self._bump(stage, "vision")

    def report(self) -> dict:
        return {
            "main_calls": self.main_calls,
            "vision_calls": self.vision_calls,
            "total_calls": self.main_calls + self.vision_calls,
            "main_attempts": self.main_attempts,
            "per_stage": {k: dict(v) for k, v in sorted(self.per_stage.items())},
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
        }


# ---------------------------------------------------------------------------
# context rendering


def _render_vertex(v: Vertex) -> str:
    loc = v.localization
    if isinstance(loc, TextSpan):
        return f"{v.id} text[{loc.start}:{loc.end}] {v.surface!r}"
    return f"{v.id} image{loc.as_list()} {v.surface!r}"


def build_context(
    text: str,
    visual_context: str,
    h: Hypergraph,
    trail: Sequence[AuditEntry],
    round: int,
    schema: EventSchema,
) -> str:
    """Deterministic text rendering of the full shared state."""
    lines = [f"ROUND {round}", "", "DOCUMENT TEXT:", text or "(no text)", ""]
    lines += ["VISUAL CONTEXT:", visual_context or "(no image)", ""]
    lines.append("EVENT SCHEMA:")
    for etype in schema.event_types:
        lines.append(f"  {etype}: {', '.join(schema.roles_for(etype))}")
    lines += ["", "VERTICES:"]
    for vid in sort_ids(h.vertices):
        lines.append("  " + _render_vertex(h.vertices[vid]))
    lines += ["", "HYPEREDGES:"]
    for eid in sort_ids(h.edges):
        e = h.edges[eid]
        trig = (
            f"{e.trigger_surface!r}@{e.trigger.start}:{e.trigger.end}"
            if e.trigger is not None
            else "(none)"
        )
        conf = "unset" if e.confidence is None else f"{e.confidence:.2f}"
        lines.append(
            f"  {eid} type={e.event_type} trigger={trig} "
            f"members=[{', '.join(sort_ids(e.members))}] confidence={conf}"
        )
    lines += ["", "COMMITTED OPERATIONS:"]
    for entry in trail:
        payload = json.dumps(entry.payload, sort_keys=True, ensure_ascii=False)
        lines.append(
            f"  round {entry.round} {entry.agent_id} {entry.op_type} "
            f"target={entry.target} payload={payload}"
        )
    lines += [
        "",
        "Do not repeat any committed operation (same type, target, and payload).",
        "Corrections must be expressed as inverse operations (unlink, drop).",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reply parsing


def _first_json_array(raw: str):
    decoder = json.JSONDecoder()
    idx = raw.find("[")
    while idx != -1:
        try:
            value, _ = decoder.raw_decode(raw, idx)
        except json.JSONDecodeError:
            idx = raw.find("[", idx + 1)
            continue
        if isinstance(value, list):
            return value
        idx = raw.find("[", idx + 1)
    return None


def parse_operations(raw: str, agent_id: str) -> tuple[list[Proposal], list[str]]:
    """Extract operation proposals from a raw agent reply.

    Total by design: unparseable replies yield zero proposals plus
    diagnostics, never an exception.
    """
    diagnostics: list[str] = []
    arr = _first_json_array(raw or "")
    if arr is None:
        if (raw or "").strip():
            diagnostics.append(f"{agent_id}: no JSON operation array found in reply")
        return [], diagnostics

    proposals: list[Proposal] = []
    for i, item in enumerate(arr):
        if not isinstance(item, dict):
            diagnostics.append(f"{agent_id}[{i}]: operation is not an object")
            continue
        op_type = item.get("op")
        if op_type not in FAMILIES:
            diagnostics.append(f"{agent_id}[{i}]: unknown operation family {op_type!r}")
            continue
        payload = item.get("payload") or {}
        if not isinstance(payload, dict):
            diagnostics.append(f"{agent_id}[{i}]: payload is not an object")
            continue
        payload = dict(payload)
        alias = item.get("alias") or payload.pop("alias", None)
        target = item.get("target")
        bad = malformed_fields(target, alias, payload)
        if bad:
            diagnostics.append(f"{agent_id}[{i}]: malformed {', '.join(bad)}, operation dropped")
            continue
        if op_type != "propose" and not target:
            diagnostics.append(f"{agent_id}[{i}]: MissingField: no target")
            continue
        if op_type == "propose" and not payload.get("event_type"):
            diagnostics.append(f"{agent_id}[{i}]: MissingField: propose without event_type")
            continue
        op = Operation(op_type=op_type, target=target, payload=payload, alias=alias)
        proposals.append(Proposal(agent_id=agent_id, op=op, index=len(proposals)))
    return proposals, diagnostics


def parse_mentions(raw: str) -> tuple[list[str], list[str]]:
    """Parse a seeder reply: a JSON array of mention strings."""
    diagnostics: list[str] = []
    arr = _first_json_array(raw or "")
    if arr is None:
        if (raw or "").strip():
            diagnostics.append("seeder: no JSON mention array found in reply")
        return [], diagnostics
    mentions: list[str] = []
    for i, item in enumerate(arr):
        if isinstance(item, str):
            mentions.append(item)
        elif isinstance(item, dict) and isinstance(item.get("mention"), str):
            mentions.append(item["mention"])
        else:
            diagnostics.append(f"seeder[{i}]: unusable mention entry")
    return mentions, diagnostics


# ---------------------------------------------------------------------------
# backends


class AgentBackend(Protocol):
    def invoke(self, role: str, context: str, doc_id: str, round: int,
               ledger: CallLedger, stage: str) -> str: ...


def _requests_post(url, body, headers, timeout):
    import requests

    try:
        resp = requests.post(url, json=body, headers=headers, timeout=timeout)
    except requests.Timeout as exc:
        raise BackendTimeout(str(exc)) from exc
    except requests.RequestException as exc:
        raise BackendHTTPError(str(exc)) from exc
    if resp.status_code != 200:
        raise BackendHTTPError(f"HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise BackendHTTPError(f"reply body is not JSON: {exc}") from exc


class _HTTPClient:
    """Settings and request loop shared by the live clients."""

    def __init__(self, url: str, model: str = "", api_key: str = "",
                 retries: int = 2, timeout: float = 120.0, post: Optional[Callable] = None):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.retries = retries
        self.timeout = timeout
        self._post = post or _requests_post

    def _request(self, body, read):
        """POST `body` until `read` accepts the reply body, at most
        retries + 1 times. `read` raises BackendHTTPError for a malformed
        body, which is then retried like an HTTP error. Returns (value,
        attempts, None), or (None, attempts, last error) once the retries
        are spent."""
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        attempts = 0
        last_exc: Optional[Exception] = None
        while attempts <= self.retries:
            attempts += 1
            try:
                return read(self._post(self.url, body, headers, self.timeout)), attempts, None
            except (BackendTimeout, BackendHTTPError) as exc:
                last_exc = exc
        return None, attempts, last_exc


def _chat_reply(data) -> tuple[str, Optional[dict]]:
    """Reply text and integer token counts of a chat-completions body."""
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendHTTPError(f"reply body lacks choices[0].message.content ({exc!r})") from exc
    if not isinstance(content, str):
        raise BackendHTTPError(f"reply content {content!r} is not a string")
    usage = data.get("usage")
    if not isinstance(usage, dict):
        return content, None
    return content, {k: v for k, v in usage.items() if isinstance(v, int)}


def _body_field(data, key: str, kind: type):
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind):
        raise BackendHTTPError(f"reply body lacks a {kind.__name__} {key!r}")
    return value


TEMPERATURE = 0.2
MAX_TOKENS = 8192


class LiveBackend(_HTTPClient):
    """Chat-completions-style HTTP backend.

    Request body: {"model", "messages": [system, user], "temperature":
    TEMPERATURE, "max_tokens": MAX_TOKENS}; the reply text is read from
    response["choices"][0]["message"]["content"].
    """

    def invoke(self, role, context, doc_id, round, ledger, stage):
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": role_instructions(role)},
                {"role": "user", "content": context},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        reply, attempts, error = self._request(body, _chat_reply)
        if error is not None:
            ledger.record_main(stage, attempts=attempts)
            raise AgentUnavailable(f"{role} backend failed after {attempts} attempts: {error}")
        content, usage = reply
        ledger.record_main(stage, attempts=attempts, usage=usage)
        return content


class ScriptedBackend:
    """Replay backend reading fixture files {doc_id}/{round}/{role}.json.

    Stage I, binding, and consolidation use round 0. Each fixture reply
    is consumable once per run; a missing or re-requested fixture raises
    ScriptExhausted.
    """

    def __init__(self, script_dir: str | Path):
        self.script_dir = Path(script_dir)
        self._used: set[tuple[str, int, str]] = set()

    def invoke(self, role, context, doc_id, round, ledger, stage):
        key = (doc_id, round, role)
        if key in self._used:
            raise ScriptExhausted(f"fixture for {key} already consumed")
        path = self.script_dir / doc_id / str(round) / f"{role}.json"
        if not path.exists():
            raise ScriptExhausted(f"no fixture at {path}")
        self._used.add(key)
        ledger.record_main(stage)
        raw = path.read_text(encoding="utf-8")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError:
            return raw
        if isinstance(data, dict) and isinstance(data.get("reply"), str):
            return data["reply"]
        return raw


# ---------------------------------------------------------------------------
# vision tool


class VisionTool(Protocol):
    def describe(self, doc: Document, ledger: CallLedger, stage: str) -> str: ...

    def localize(self, doc: Document, query: str, ledger: CallLedger,
                 stage: str) -> list[tuple[list[int], str, float]]: ...


def clip_box(box, doc: Document, diagnostics: list[str]) -> Optional[list[int]]:
    """Clip a box to image bounds; None if it is malformed or nothing remains."""
    if doc.image is None:
        return None
    if not is_box(box):
        diagnostics.append(f"box {box!r} is not a list of four finite numbers, discarded")
        return None
    x0, y0, x1, y1 = (int(round(v)) for v in box)
    cx0, cy0 = max(0, x0), max(0, y0)
    cx1, cy1 = min(doc.image.width, x1), min(doc.image.height, y1)
    if (cx0, cy0, cx1, cy1) != (x0, y0, x1, y1):
        diagnostics.append(f"box {list(box)} clipped to image bounds")
    if cx0 >= cx1 or cy0 >= cy1:
        diagnostics.append(f"box {list(box)} empty after clipping, discarded")
        return None
    return [cx0, cy0, cx1, cy1]


def _region_tuples(regions) -> list[tuple[object, str, float]]:
    """(box, label, score) per localize region; boxes are checked by clip_box."""
    if not isinstance(regions, list):
        raise VisionUnavailable(f"localize reply {regions!r} is not a list of regions")
    out = []
    for region in regions:
        if not isinstance(region, dict) or "box" not in region:
            raise VisionUnavailable(f"localize region {region!r} is not an object with a box")
        score = region.get("score", 0.0)
        if not is_number(score):
            raise VisionUnavailable(f"localize region score {score!r} is not a number")
        out.append((region["box"], str(region.get("label", "")), float(score)))
    return out


class LiveVisionTool(_HTTPClient):
    """HTTP vision tool. POST {"model", "task", "image", "query"?};
    expects {"text": ...} for describe and {"regions": [{"box", "label",
    "score"}]} for localize."""

    def _call(self, body, key: str, kind: type):
        value, attempts, error = self._request(body, lambda data: _body_field(data, key, kind))
        if error is not None:
            raise VisionUnavailable(f"vision tool failed after {attempts} attempts: {error}")
        return value

    def describe(self, doc, ledger, stage):
        text = self._call({"model": self.model, "task": "describe",
                           "image": doc.image.path if doc.image else None}, "text", str)
        ledger.record_vision(stage)
        if not text:
            raise VisionUnavailable("describe returned empty text")
        return text

    def localize(self, doc, query, ledger, stage):
        regions = self._call({"model": self.model, "task": "localize",
                              "image": doc.image.path if doc.image else None, "query": query},
                             "regions", list)
        ledger.record_vision(stage)
        return _region_tuples(regions)


class ScriptedVisionTool:
    """Fixture vision tool.

    {doc_id}/vision/describe.json holds {"text": ...}; localize.json
    holds a list of replies (one per call), each a list of {"box",
    "label", "score"} objects.
    """

    def __init__(self, script_dir: str | Path):
        self.script_dir = Path(script_dir)
        self._localize_cursor: dict[str, int] = {}

    def _fixture(self, doc, task: str):
        path = self.script_dir / doc.doc_id / "vision" / f"{task}.json"
        if not path.exists():
            raise VisionUnavailable(f"no {task} fixture at {path}")
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise VisionUnavailable(f"{task} fixture at {path} is not JSON: {exc}") from exc

    def describe(self, doc, ledger, stage):
        data = self._fixture(doc, "describe")
        ledger.record_vision(stage)
        return _body_field(data, "text", str)

    def localize(self, doc, query, ledger, stage):
        replies = self._fixture(doc, "localize")
        cursor = self._localize_cursor.get(doc.doc_id, 0)
        if not isinstance(replies, list) or cursor >= len(replies):
            raise VisionUnavailable(f"localize fixtures for {doc.doc_id} exhausted")
        self._localize_cursor[doc.doc_id] = cursor + 1
        ledger.record_vision(stage)
        return _region_tuples(replies[cursor])
