"""Three-stage extraction pipeline.

Stage I seeds an edge-free hypergraph from extractive text mentions and
vision-localized regions. Stage II runs budgeted negotiation rounds in
which agents propose atomic operations that are conflict-resolved,
committed, and logged. Stage III binds roles onto the stabilized links,
scores each hypothesis with a hybrid of negotiated confidence, argument
evidence, and schema heuristics, and exports normalized event records.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from . import agents as ag
from . import ops
from .boxes import greedy_match, is_box, is_number
from .errors import (
    DuplicateLocalization,
    EngineError,
    InternalInconsistency,
    InvalidLocalization,
    NoAlignment,
)
from .hypergraph import (
    BoxRegion,
    Document,
    Hypergraph,
    RoleBinding,
    TextSpan,
    add_vertex,
    sort_ids,
)
from .schema import EventRecord, EventSchema
from .textnorm import align_span, head_token_span

MODES = ("full", "no-linker", "no-verifier", "no-spanalign", "bind-during-link")

# prior for edges whose confidence was never adjusted
NEUTRAL_CONFIDENCE = 0.5


@dataclass
class PipelineConfig:
    t_max: int = 2
    tau: float = 0.5
    alpha: float = 0.5
    lam: float = 0.1
    theta_event: float = 0.7
    iou_align: float = 0.5
    mode: str = "full"

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        for name in ("tau", "theta_event", "iou_align", "alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class DocumentResult:
    doc: Document
    records: list[EventRecord]
    state: Hypergraph
    # negotiation-final state, before role binding; exactly what the audit
    # trail reconstructs from the edge-free initial state
    negotiated: Hypergraph
    trail: list[ops.AuditEntry]
    t_used: int
    ledger: ag.CallLedger
    diagnostics: list[str]


# ---------------------------------------------------------------------------
# Stage I


def seed(
    doc: Document,
    backend: ag.AgentBackend,
    vision: Optional[ag.VisionTool],
    schema: EventSchema,
    ledger: ag.CallLedger,
    diagnostics: list[str],
) -> tuple[Hypergraph, str]:
    """Recall-oriented seeding: extractive text mentions plus localized
    image regions; returns the edge-free state and the visual context."""
    h = Hypergraph()
    visual_context = ""

    if doc.text:
        raw = backend.invoke(ag.SEEDER, doc.text, doc.doc_id, 0, ledger, "seed")
        mentions, diags = ag.parse_mentions(raw)
        diagnostics.extend(diags)
        cursor: dict[str, int] = {}
        for mention in mentions:
            pos = doc.text.find(mention, cursor.get(mention, 0))
            if pos < 0:
                diagnostics.append(f"seed: mention {mention!r} is not a substring of the text, skipped")
                continue
            cursor[mention] = pos + 1
            try:
                add_vertex(h, doc, TextSpan(pos, pos + len(mention)), mention)
            except (DuplicateLocalization, InvalidLocalization) as exc:
                diagnostics.append(f"seed: {exc}")

    if doc.image is not None:
        if vision is None:
            raise EngineError("document has an image but no vision tool is configured")
        visual_context = vision.describe(doc, ledger, "seed")
        regions = vision.localize(doc, "salient objects and event participants", ledger, "seed")
        for box, label, score in regions:
            clipped = ag.clip_box(box, doc, diagnostics)
            if clipped is None:
                continue
            try:
                add_vertex(h, doc, BoxRegion(*clipped), label)
            except DuplicateLocalization as exc:
                diagnostics.append(f"seed: {exc}")

    return h, visual_context


# ---------------------------------------------------------------------------
# Stage II


def _resolve_proposal_triggers(proposals, text, diagnostics):
    out = []
    for p in proposals:
        try:
            p.op = ops.resolve_trigger_text(p.op, text)
        except EngineError as exc:
            diagnostics.append(f"{p.agent_id}: trigger unresolvable, proposal dropped ({exc})")
            continue
        out.append(p)
    return out


def negotiate(
    h0: Hypergraph,
    doc: Document,
    visual_context: str,
    backend: ag.AgentBackend,
    cfg: PipelineConfig,
    schema: EventSchema,
    ledger: ag.CallLedger,
    diagnostics: list[str],
) -> tuple[Hypergraph, list[ops.AuditEntry], int]:
    roles = [ag.PROPOSER]
    if cfg.mode != "no-linker":
        roles.append(ag.LINKER)
    if cfg.mode != "no-verifier":
        roles.append(ag.VERIFIER)

    h = h0  # apply_commit returns a new state and never mutates its input
    trail: list[ops.AuditEntry] = []
    last_committed_round = 0

    for t in range(1, cfg.t_max + 1):
        context = ag.build_context(doc.text, visual_context, h, trail, t, schema)
        proposals = []
        for role in roles:
            raw = backend.invoke(role, context, doc.doc_id, t, ledger, "negotiate")
            props, diags = ag.parse_operations(raw, role)
            diagnostics.extend(diags)
            proposals.extend(props)
        proposals = _resolve_proposal_triggers(proposals, doc.text, diagnostics)

        unit = ops.resolve_conflicts(proposals, h, trail, t, schema, doc.text)
        for p, reason in unit.rejected:
            diagnostics.append(f"round {t}: rejected {p.agent_id} {p.op.op_type}: {reason}")

        if not unit.accepted:
            break
        h = ops.apply_commit(h, unit, schema, doc)
        trail = ops.append_log(trail, unit)
        last_committed_round = t
        # link-then-bind: negotiation must never touch role assignments
        if any(e.roles for e in h.edges.values()):
            raise InternalInconsistency("role assignment leaked into Stage II")

    return h, trail, max(last_committed_round, 1)


# ---------------------------------------------------------------------------
# Stage III


def agg_conf(bindings: list[RoleBinding]) -> float:
    if not bindings:
        return 0.0
    return sum(rb.confidence for rb in bindings) / len(bindings)


def rule_score(edge, bindings: list[RoleBinding], h: Hypergraph, schema: EventSchema) -> float:
    required = schema.required_for(edge.event_type)
    if required:
        covered = sum(1 for role in required if any(rb.role == role for rb in bindings))
        coverage = covered / len(required)
    else:
        coverage = 1.0
    duplicates = sum(
        1
        for other in h.edges.values()
        if other.id != edge.id
        and other.event_type == edge.event_type
        and other.trigger == edge.trigger
    )
    return max(-1.0, min(1.0, coverage - 0.5 * duplicates))


def hybrid_score(c: float, bindings: list[RoleBinding], rule: float, alpha: float, lam: float) -> float:
    return alpha * c + (1.0 - alpha) * agg_conf(bindings) + lam * rule


def _retain_binding(edge, vertex_id, role, conf, cfg, schema, diagnostics) -> Optional[RoleBinding]:
    if role not in schema.roles_for(edge.event_type):
        diagnostics.append(
            f"bind: role {role!r} not legal for {edge.event_type} on {edge.id}, dropped"
        )
        return None
    if not is_number(conf) or not 0.0 <= conf <= 1.0:
        diagnostics.append(f"bind: confidence {conf!r} out of range on {edge.id}, dropped")
        return None
    if float(conf) < cfg.tau:
        return None
    if any(rb.vertex_id == vertex_id for rb in edge.roles):
        diagnostics.append(f"bind: {vertex_id} already bound on {edge.id}, extra role dropped")
        return None
    return RoleBinding(vertex_id, role, float(conf))


def bind_roles(
    h: Hypergraph,
    doc: Document,
    context: str,
    backend: ag.AgentBackend,
    vision: Optional[ag.VisionTool],
    cfg: PipelineConfig,
    schema: EventSchema,
    ledger: ag.CallLedger,
    diagnostics: list[str],
) -> None:
    """Populate role assignments on every edge of the negotiated state from
    one binder call on `context`, the rendered Stage III state."""
    raw = backend.invoke(ag.BINDER, context, doc.doc_id, 0, ledger, "bind")
    arr = ag._first_json_array(raw or "")
    if arr is None:
        diagnostics.append("bind: no JSON binding array in binder reply")
        return

    box_proposals: dict[str, list[tuple[list[float], str, float]]] = {}
    for i, item in enumerate(arr):
        if not isinstance(item, dict):
            diagnostics.append(f"bind[{i}]: binding is not an object")
            continue
        eid = item.get("edge")
        if not isinstance(eid, str) or eid not in h.edges:
            diagnostics.append(f"bind[{i}]: unknown or out-of-scope edge {eid!r}")
            continue
        edge = h.edges[eid]
        role = item.get("role")
        conf = item.get("confidence", 0.0)
        if "vertex" in item:
            vid = item["vertex"]
            if not isinstance(vid, str) or vid not in edge.members:
                diagnostics.append(f"bind[{i}]: vertex {vid!r} not linked to {eid}, dropped")
                continue
            rb = _retain_binding(edge, vid, role, conf, cfg, schema, diagnostics)
            if rb:
                edge.roles.append(rb)
        elif "box" in item:
            box = item["box"]
            if not is_box(box):
                diagnostics.append(f"bind[{i}]: box {box!r} is not a list of four finite numbers, dropped")
                continue
            box_proposals.setdefault(eid, []).append((box, role, conf))
        elif "query" in item:
            if vision is None or doc.image is None:
                diagnostics.append(f"bind[{i}]: localization query without an image, dropped")
                continue
            regions = vision.localize(doc, str(item["query"]), ledger, "bind")
            for box, _label, _score in regions:
                clipped = ag.clip_box(box, doc, diagnostics)
                if clipped is not None:
                    box_proposals.setdefault(eid, []).append((clipped, role, conf))
        else:
            diagnostics.append(f"bind[{i}]: binding carries neither vertex, box, nor query")

    for eid, proposals in box_proposals.items():
        edge = h.edges[eid]
        linked_images = [
            h.vertices[vid] for vid in sort_ids(edge.members)
            if isinstance(h.vertices[vid].localization, BoxRegion)
        ]
        refs = [v.localization.as_list() for v in linked_images]
        matched = greedy_match([p[0] for p in proposals], refs, cfg.iou_align)
        matched_idx = {i for i, _, _ in matched}
        for i, (box, role, conf) in enumerate(proposals):
            if i not in matched_idx:
                diagnostics.append(
                    f"bind: box {box} on {eid} overlaps no linked image vertex, discarded"
                )
        for i, j, _score in matched:
            _box, role, conf = proposals[i]
            rb = _retain_binding(edge, linked_images[j].id, role, conf, cfg, schema, diagnostics)
            if rb:
                edge.roles.append(rb)


def roles_from_link_payloads(
    h: Hypergraph,
    trail: list[ops.AuditEntry],
    cfg: PipelineConfig,
    schema: EventSchema,
    diagnostics: list[str],
) -> None:
    """bind-during-link ablation: lift provisional roles carried on link
    payloads into role assignments, without a dedicated binding step."""
    for entry in trail:
        if entry.op_type != "link" or "role" not in entry.payload:
            continue
        eid = entry.target
        if eid not in h.edges:
            continue
        edge = h.edges[eid]
        vid = entry.payload.get("vertex")
        if vid not in edge.members:
            continue
        edge.roles = [rb for rb in edge.roles if rb.vertex_id != vid]  # latest link wins
        rb = _retain_binding(
            edge, vid, entry.payload["role"], entry.payload.get("confidence", 0.0),
            cfg, schema, diagnostics,
        )
        if rb:
            edge.roles.append(rb)


def _extractive(surface: str, doc: Document, cfg: PipelineConfig, flags: list[str],
                flag_name: str, head: bool = False) -> str:
    """The document text `surface` aligns to, cut to its head token when
    `head`; `surface` itself, flagged `flag_name`, when it does not align."""
    if cfg.mode == "no-spanalign":
        return surface
    try:
        start, end = align_span(surface, doc.text)
    except NoAlignment:
        flags.append(flag_name)
        return surface
    if head:
        start, end = head_token_span(start, end, doc.text)
    return doc.text[start:end]


def consolidate(
    h: Hypergraph,
    doc: Document,
    cfg: PipelineConfig,
    schema: EventSchema,
    diagnostics: list[str],
) -> list[EventRecord]:
    """Score, filter, and export surviving hyperedges as event records."""
    records: list[EventRecord] = []
    for eid in sort_ids(h.edges):
        edge = h.edges[eid]
        c = edge.confidence if edge.confidence is not None else NEUTRAL_CONFIDENCE
        rule = rule_score(edge, edge.roles, h, schema)
        c_final = hybrid_score(c, edge.roles, rule, cfg.alpha, cfg.lam)
        if c_final < cfg.theta_event:
            diagnostics.append(f"consolidate: {eid} filtered (score {c_final:.3f} < {cfg.theta_event})")
            continue

        flags: list[str] = []
        trigger = ""
        if doc.text and edge.trigger is not None:
            surface = doc.text[edge.trigger.start:edge.trigger.end]
            trigger = _extractive(surface, doc, cfg, flags, "trigger", head=True)

        text_args: list[tuple[str, str, float, int]] = []
        image_args: list[tuple[str, list[int], float]] = []
        for rb in edge.roles:
            vertex = h.vertices[rb.vertex_id]
            if isinstance(vertex.localization, TextSpan):
                if not doc.text:
                    continue
                rendered = _extractive(vertex.surface, doc, cfg, flags, f"arg:{rb.role}")
                text_args.append((rb.role, rendered, rb.confidence, vertex.localization.start))
            else:
                if doc.image is None:
                    continue
                image_args.append((rb.role, vertex.localization.as_list(), rb.confidence))

        text_args.sort(key=lambda a: (a[3], a[0]))
        image_args.sort(key=lambda a: (a[1], a[0]))
        records.append(
            EventRecord(
                event_type=edge.event_type,
                trigger=trigger,
                text_arguments=[(r, s) for r, s, _c, _pos in text_args],
                image_arguments=[(r, b) for r, b, _c in image_args],
                confidence={
                    "event": c_final,
                    "text_arguments": [c for _r, _s, c, _p in text_args],
                    "image_arguments": [c for _r, _b, c in image_args],
                },
                non_extractive=flags,
            )
        )
    return records


# ---------------------------------------------------------------------------
# output contract validation


def validate_record(doc: Document, record: EventRecord) -> list[str]:
    """Check the unified output contract; returns violation messages."""
    violations = []
    if not doc.text and record.text_arguments:
        violations.append("image-only document carries text arguments")
    if doc.image is None and record.image_arguments:
        violations.append("text-only document carries image arguments")
    if doc.text:
        if not record.trigger:
            violations.append("empty trigger despite document text")
        elif "trigger" not in record.non_extractive:
            if len(record.trigger.split()) != 1:
                violations.append(f"trigger {record.trigger!r} is not a single token")
            if record.trigger not in doc.text:
                violations.append(f"trigger {record.trigger!r} not verbatim in text")
    for role, text in record.text_arguments:
        if f"arg:{role}" not in record.non_extractive and text not in doc.text:
            violations.append(f"text argument {text!r} not verbatim in text")
    for role, box in record.image_arguments:
        if len(box) != 4 or any(not isinstance(v, int) for v in box):
            violations.append(f"bbox {box} is not four integers")
        elif not (box[0] < box[2] and box[1] < box[3]):
            violations.append(f"bbox {box} violates [x_min, y_min, x_max, y_max] order")
    return violations


# ---------------------------------------------------------------------------
# whole-document driver


def run_document(
    doc: Document,
    backend: ag.AgentBackend,
    vision: Optional[ag.VisionTool],
    cfg: PipelineConfig,
    schema: EventSchema,
) -> DocumentResult:
    ledger = ag.CallLedger()
    diagnostics: list[str] = []

    h0, visual_context = seed(doc, backend, vision, schema, ledger, diagnostics)

    h, trail, t_used = negotiate(h0, doc, visual_context, backend, cfg, schema, ledger, diagnostics)
    negotiated = h.copy()

    if cfg.mode == "no-linker":
        # all-to-all membership fallback; not an operation, so it stays out
        # of the trail and of the negotiated state the trail replays to
        for edge in h.edges.values():
            edge.members = set(h.vertices)

    context = None
    if h.edges:
        # binding adds only roles, which build_context does not render, so
        # the binder and the consolidator read one rendering of the state
        context = ag.build_context(doc.text, visual_context, h, trail, 0, schema)
        if cfg.mode == "bind-during-link":
            roles_from_link_payloads(h, trail, cfg, schema, diagnostics)
        else:
            bind_roles(h, doc, context, backend, vision, cfg, schema, ledger, diagnostics)

    records = consolidate(h, doc, cfg, schema, diagnostics)

    if context is not None:
        draft = json.dumps([r.to_json() for r in records], ensure_ascii=False, sort_keys=True)
        remarks = backend.invoke(
            ag.CONSOLIDATOR, context + "\n\nDRAFT RECORDS:\n" + draft,
            doc.doc_id, 0, ledger, "consolidate",
        )
        if (remarks or "").strip() and remarks.strip() != "[]":
            diagnostics.append(f"consolidator remarks: {remarks.strip()[:500]}")

    for record in records:
        for violation in validate_record(doc, record):
            diagnostics.append(f"contract violation: {violation}")

    return DocumentResult(
        doc=doc, records=records, state=h, negotiated=negotiated, trail=trail,
        t_used=t_used, ledger=ledger, diagnostics=diagnostics,
    )
