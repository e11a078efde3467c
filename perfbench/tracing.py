"""Span tracing of the mmevents layers from outside the package.

`Tracer.install` replaces the public functions named in TRACED with
wrappers that record a span per call: name, start, end, parent, doc_id,
round and role.  A function is replaced on every mmevents module that
holds it, so names a module imported directly (`pipeline.align_span`,
`cli.replay_rounds`) are traced too.  Spans stay in memory until `write_spans`.
A layer's self time is its span durations minus those of its child spans.
"""
from __future__ import annotations

import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import harness

# (module, attribute, span name); a dotted attribute is a method
TRACED = (
    ("mmevents.cli", "cmd_run", "cli.run"),
    ("mmevents.cli", "cmd_replay", "cli.replay"),
    ("mmevents.cli", "cmd_eval", "cli.eval"),
    ("mmevents.pipeline", "run_document", "pipeline.run_document"),
    ("mmevents.pipeline", "seed", "pipeline.seed"),
    ("mmevents.pipeline", "negotiate", "pipeline.negotiate"),
    ("mmevents.pipeline", "bind_roles", "pipeline.bind_roles"),
    ("mmevents.pipeline", "consolidate", "pipeline.consolidate"),
    ("mmevents.pipeline", "rule_score", "pipeline.rule_score"),
    ("mmevents.agents", "build_context", "agents.build_context"),
    ("mmevents.agents", "parse_operations", "agents.parse_operations"),
    ("mmevents.agents", "parse_mentions", "agents.parse_mentions"),
    ("mmevents.ops", "resolve_conflicts", "ops.resolve_conflicts"),
    ("mmevents.ops", "resolve_trigger_text", "ops.resolve_trigger_text"),
    ("mmevents.ops", "apply_commit", "ops.apply_commit"),
    ("mmevents.ops", "append_log", "ops.append_log"),
    ("mmevents.ops", "replay_rounds", "ops.replay_rounds"),
    ("mmevents.hypergraph", "add_vertex", "hypergraph.add_vertex"),
    ("mmevents.hypergraph", "Hypergraph.copy", "hypergraph.copy"),
    ("mmevents.hypergraph", "check_invariants", "hypergraph.check_invariants"),
    ("mmevents.textnorm", "align_span", "textnorm.align_span"),
    ("mmevents.state", "serialize_state", "state.serialize_state"),
    ("mmevents.state", "deserialize_state", "state.deserialize_state"),
    ("mmevents.scorer", "evaluate", "scorer.evaluate"),
    ("mmevents.scorer", "match_events", "scorer.match_events"),
    ("mmevents.boxes", "greedy_match", "boxes.greedy_match"),
    ("harness", "DelayedBackend.invoke", "agents.invoke"),
    ("harness", "DelayedVision.describe", "agents.vision"),
    ("harness", "DelayedVision.localize", "agents.vision"),
)

# parameter names that carry a span's document, round or role
_CONTEXT_PARAMS = {"doc": 0, "doc_id": 0, "round": 1, "role": 2, "agent_id": 2}

REJECT_REASONS = ("repeat", "duplicate", "drop_dominance", "unlink_over_link",
                  "conflicting_adjustment", "dead_alias", "validation")


def reject_reason(message: str) -> str:
    """Map a `resolve_conflicts` rejection message to a stable reason code."""
    if message == "repeat of committed operation":
        return "repeat"
    if message == "duplicate proposal":
        return "duplicate"
    if message.startswith("drop of "):
        return "drop_dominance"
    if message.startswith("unlink overrides link"):
        return "unlink_over_link"
    if message == "conflicting confidence adjustment":
        return "conflicting_adjustment"
    if message.startswith("alias "):
        return "dead_alias"
    return "validation"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "doc_id", "round", "role")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.doc_id = None  # context for spans with no parent, set by the caller
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # guards calls and counts across worker threads
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                self._patch(owner, meth, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "mmevents" or mod_name.startswith("mmevents.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def take(self) -> tuple[list[Span], dict, dict]:
        """Hand over the spans and counts recorded so far and start afresh."""
        out = (self.spans, dict(self.calls), dict(self.counts))
        self.spans, self.calls, self.counts = [], defaultdict(int), defaultdict(int)
        return out

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, picks, args, kwargs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        ctx = [parent.doc_id, parent.round, parent.role] if parent else [self.doc_id, None, None]
        for index, param, slot in picks:
            value = args[index] if index < len(args) else kwargs.get(param)
            if value is None:
                continue
            ctx[slot] = getattr(value, "doc_id", value) if slot == 0 else value
        span = Span()
        span.id, span.name, span.parent = next(self._ids), name, parent.id if parent else None
        span.doc_id, span.round, span.role = ctx
        span.end = None
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _count(self, name: str) -> None:
        with self._lock:
            self.calls[name] += 1

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name):
        params = list(inspect.signature(fn).parameters)
        picks = [(i, p, _CONTEXT_PARAMS[p]) for i, p in enumerate(params) if p in _CONTEXT_PARAMS]
        observe = _OBSERVERS.get(name)

        if inspect.isgeneratorfunction(fn):
            # one span per step, so time spent by the consumer is not counted
            def gen_wrapper(*args, **kwargs):
                self._count(name)
                inner = fn(*args, **kwargs)
                while True:
                    span = self._open(name, picks, args, kwargs)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            self._count(name)
            span = self._open(name, picks, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                with self._lock:
                    observe(self.counts, args, kwargs, result)
            return result

        return wrapper



def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        for span in spans:
            f.write(json.dumps(span.to_json()) + "\n")


def _observe_resolve(counts, args, kwargs, unit) -> None:
    proposals = args[0] if args else kwargs["proposals"]
    counts["proposals"] += len(proposals)
    counts["accepted"] += len(unit.accepted)
    for _p, message in unit.rejected:
        counts["rejected." + reject_reason(message)] += 1


def _observe_serialize(counts, args, kwargs, raw) -> None:
    counts["state_bytes"] += len(raw)


_OBSERVERS = {"ops.resolve_conflicts": _observe_resolve, "state.serialize_state": _observe_serialize}


def span_times(spans: list[Span]) -> tuple[dict, dict]:
    """Inclusive and self nanoseconds per span name."""
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    incl: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        incl[s.name] += s.end - s.start
        self_ns[s.name] += s.end - s.start - covered[s.id]
    return incl, self_ns


# per-layer time metrics: metric name -> (span name, inclusive or self)
TIME_METRICS = {
    "textnorm.align_span.ms": ("textnorm.align_span", "incl"),
    "ops.resolve_trigger_text.ms": ("ops.resolve_trigger_text", "incl"),
    "hypergraph.add_vertex.ms": ("hypergraph.add_vertex", "incl"),
    "pipeline.rule_score.ms": ("pipeline.rule_score", "incl"),
    "boxes.greedy_match.ms": ("boxes.greedy_match", "incl"),
    "ops.resolve_conflicts.ms": ("ops.resolve_conflicts", "incl"),
    "hypergraph.copy.ms": ("hypergraph.copy", "incl"),
    "hypergraph.check_invariants.ms": ("hypergraph.check_invariants", "incl"),
    "ops.apply_commit.ms": ("ops.apply_commit", "incl"),
    "ops.append_log.ms": ("ops.append_log", "incl"),
    "agents.build_context.ms": ("agents.build_context", "incl"),
    "agents.parse_operations.ms": ("agents.parse_operations", "incl"),
    "agents.parse_mentions.ms": ("agents.parse_mentions", "incl"),
    "state.serialize_state.ms": ("state.serialize_state", "incl"),
    "state.deserialize_state.ms": ("state.deserialize_state", "incl"),
    "ops.replay_rounds.ms": ("ops.replay_rounds", "incl"),
    "scorer.evaluate.ms": ("scorer.evaluate", "incl"),
    "scorer.match_events.ms": ("scorer.match_events", "incl"),
    "pipeline.seed.self_ms": ("pipeline.seed", "self"),
    "pipeline.negotiate.self_ms": ("pipeline.negotiate", "self"),
    "pipeline.bind_roles.self_ms": ("pipeline.bind_roles", "self"),
    "pipeline.consolidate.self_ms": ("pipeline.consolidate", "self"),
    "cli.run.self_ms": ("cli.run", "self"),
}
CALL_METRICS = ("textnorm.align_span", "hypergraph.copy", "scorer.match_events")
# growth = log2(t_full / t_half) of the inclusive time of these spans
GROWTH_SPANS = tuple(dict.fromkeys(span for span, _ in TIME_METRICS.values() if span != "cli.run"))
ROLES = ("seeder", "proposer", "linker", "verifier", "binder", "consolidator")
MAX_ROUND = 10


def per_doc_times(spans: list[Span], docs: int, speed: float = 1.0) -> dict[str, float]:
    """Inclusive ms per document and span name, times a CPU speed factor."""
    incl, _ = span_times(spans)
    return {name: ns / 1e6 / docs * speed for name, ns in incl.items()}


def layer_metrics(spans: list[Span], calls: dict, counts: dict, meter: harness.Meter, docs: int) -> dict:
    """Per-document layer metrics of one traced phase over `docs` documents."""
    incl, self_ns = span_times(spans)
    out: dict[str, float] = {}
    for metric, (span, kind) in TIME_METRICS.items():
        out[metric] = (incl if kind == "incl" else self_ns).get(span, 0) / 1e6 / docs
    for span in CALL_METRICS:
        out[span + ".calls"] = calls.get(span, 0) / docs

    proposals, accepted = counts.get("proposals", 0), counts.get("accepted", 0)
    out["ops.resolve_conflicts.proposals"] = proposals / docs
    out["ops.resolve_conflicts.accepted"] = accepted / docs
    out["ops.resolve_conflicts.accept_ratio"] = accepted / proposals if proposals else 0.0
    for reason in REJECT_REASONS:
        out[f"ops.resolve_conflicts.rejected.{reason}"] = counts.get("rejected." + reason, 0) / docs
    rounds = calls.get("ops.resolve_conflicts", 0)
    out["pipeline.negotiate.round_ms"] = incl.get("pipeline.negotiate", 0) / 1e6 / rounds if rounds else 0.0
    serialized = calls.get("state.serialize_state", 0)
    out["state.bytes"] = counts.get("state_bytes", 0) / serialized if serialized else 0.0

    for role in ROLES:
        n = meter.calls.get(role, 0)
        out[f"agents.context_bytes.{role}"] = meter.context_bytes.get(role, 0) / n if n else 0.0
        out[f"agents.invoke.{role}.calls"] = n / docs
    for rnd in range(MAX_ROUND + 1):
        n = meter.round_calls.get(rnd, 0)
        out[f"agents.context_bytes.round_{rnd}"] = meter.round_bytes.get(rnd, 0) / n if n else 0.0
    agent_calls = sum(meter.calls.values())
    out["agents.reply_bytes"] = meter.reply_bytes / agent_calls if agent_calls else 0.0
    out["agents.context_kib_per_doc"] = meter.total_context_bytes() / 1024 / docs
    out["agents.invoke.wait_ms"] = meter.invoke_wait_s * 1e3 / docs
    out["agents.vision.wait_ms"] = meter.vision_wait_s * 1e3 / docs
    out["agents.vision.calls"] = meter.vision_calls / docs
    return out


def growth_metrics(full: dict[str, float], half: dict[str, float]) -> dict[str, float]:
    """log2 of per-document time at full over half document size; 0 where a layer did not run."""
    out = {}
    for span in GROWTH_SPANS:
        t_full, t_half = full.get(span, 0.0), half.get(span, 0.0)
        out[span + ".growth"] = math.log2(t_full / t_half) if t_full > 0 and t_half > 0 else 0.0
    return out
