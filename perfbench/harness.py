"""What the benchmark puts around the shipped CLI: delayed scripted
backend and vision doubles, a per-document timer, the reference loop
that measures the host's current CPU speed, and the argument lists of
the CLI calls each workload makes.

Only the backends that `cmd_run` builds are replaced; everything else on
the `cmd_run` path runs as shipped.
"""
from __future__ import annotations

import copy
import json
import threading
import time
import unicodedata
from collections import defaultdict
from pathlib import Path

from mmevents import agents, cli, pipeline

# The reference loop takes this long at the nominal CPU speed (about the
# fast state of a 2-vCPU Xeon host with CPython 3.11).  Compute time is
# reported scaled to that speed: raw seconds * nominal / measured.
REFERENCE_NOMINAL_S = 0.25
_REFERENCE_ROUNDS = 600
BRACKET_SHARE = 0.25  # share of the loop run around each document or set-up
_REFERENCE_TEXT = " ".join(f"{'Kavoru' if i % 7 == 0 else 'token'}{i % 53}," for i in range(400))
_REFERENCE_STATE = {"edges": [{"id": f"HE{i}", "members": [f"T{j}" for j in range(i % 5)], "confidence": 0.5}
                              for i in range(40)]}


def reference_seconds(share: float = 1.0) -> float:
    """Wall time of a fixed pure-Python loop shaped like the engine's work:
    tokenizing and normalizing text, indexing it, copying and dumping state.
    With share < 1 only that share of the loop runs, and its time is scaled up."""
    rounds = max(1, round(_REFERENCE_ROUNDS * share))
    t0 = time.perf_counter()
    for _ in range(rounds):
        tokens = [unicodedata.normalize("NFC", w.strip(",.")).casefold() for w in _REFERENCE_TEXT.split()]
        sum(unicodedata.category(w[0]).startswith("P") for w in tokens)
        index: dict[str, list[int]] = {}
        for i, w in enumerate(tokens):
            index.setdefault(w, []).append(i)
        json.dumps(copy.deepcopy(_REFERENCE_STATE), sort_keys=True)
        sorted(tokens)
    return (time.perf_counter() - t0) * _REFERENCE_ROUNDS / rounds


def speed_factor(before_s: float, after_s: float) -> float:
    """Nominal over current CPU speed, from reference times taken around some work."""
    return 2 * REFERENCE_NOMINAL_S / (before_s + after_s)


class Meter:
    """Per-role and per-round traffic of the agent backend and the vision tool."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.context_bytes: dict[str, int] = defaultdict(int)
        self.round_calls: dict[int, int] = defaultdict(int)
        self.round_bytes: dict[int, int] = defaultdict(int)
        self.reply_bytes = 0
        self.invoke_wait_s = 0.0
        self.vision_calls = 0
        self.vision_wait_s = 0.0
        self.wait_by_doc: dict[str, float] = defaultdict(float)

    def take_doc_waits(self) -> dict[str, float]:
        """Agent and vision wait per document since the last call."""
        with self._lock:
            out, self.wait_by_doc = dict(self.wait_by_doc), defaultdict(float)
        return out

    def agent_call(self, role: str, rnd: int, doc_id: str, context: str, reply: str, wait_s: float) -> None:
        sent = len(context.encode("utf-8"))
        with self._lock:
            self.wait_by_doc[doc_id] += wait_s
            self.calls[role] += 1
            self.context_bytes[role] += sent
            self.round_calls[rnd] += 1
            self.round_bytes[rnd] += sent
            self.reply_bytes += len(reply.encode("utf-8"))
            self.invoke_wait_s += wait_s

    def vision_call(self, doc_id: str, wait_s: float) -> None:
        with self._lock:
            self.wait_by_doc[doc_id] += wait_s
            self.vision_calls += 1
            self.vision_wait_s += wait_s

    def total_context_bytes(self) -> int:
        return sum(self.context_bytes.values())


def _wait(delay_s: float) -> float:
    if not delay_s:
        return 0.0
    t0 = time.perf_counter()
    time.sleep(delay_s)
    return time.perf_counter() - t0


class DelayedBackend(agents.ScriptedBackend):
    """Scripted replies after a fixed wait that stands in for an LLM round-trip."""

    def __init__(self, script_dir, delay_s: float, meter: Meter):
        super().__init__(script_dir)
        self.delay_s = delay_s
        self.meter = meter

    def invoke(self, role, context, doc_id, round, ledger, stage):
        waited = _wait(self.delay_s)
        reply = super().invoke(role, context, doc_id, round, ledger, stage)
        self.meter.agent_call(role, round, doc_id, context, reply, waited)
        return reply


class DelayedVision(agents.ScriptedVisionTool):
    """Scripted vision replies after a fixed wait per call."""

    def __init__(self, script_dir, delay_s: float, meter: Meter):
        super().__init__(script_dir)
        self.delay_s = delay_s
        self.meter = meter

    def describe(self, doc, ledger, stage):
        waited = _wait(self.delay_s)
        out = super().describe(doc, ledger, stage)
        self.meter.vision_call(doc.doc_id, waited)
        return out

    def localize(self, doc, query, ledger, stage):
        waited = _wait(self.delay_s)
        out = super().localize(doc, query, ledger, stage)
        self.meter.vision_call(doc.doc_id, waited)
        return out


class DocTimer:
    """Wall time of each `run_document` call that `cmd_run` makes.

    With `bracket` on (one worker only), the reference loop also runs just
    before and after each document, outside its time, to measure the CPU
    speed it ran at."""

    def __init__(self):
        self.bracket = False
        self.samples: list[tuple[str, float, float | None]] = []  # (doc_id, seconds, speed)
        self.bracket_s = 0.0  # time spent in the reference loop

    def __call__(self, doc, *args, **kwargs):
        before = reference_seconds(BRACKET_SHARE) if self.bracket else None
        t0 = time.perf_counter()
        try:
            # looked up per call so a traced `run_document` is timed too
            return pipeline.run_document(doc, *args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            speed = None
            if self.bracket:
                after = reference_seconds(BRACKET_SHARE)
                speed = speed_factor(before, after)
                self.bracket_s += (before + after) * BRACKET_SHARE
            self.samples.append((doc.doc_id, seconds, speed))


def install(delay_s: float, meter: Meter, timer=None) -> None:
    """Make `cmd_run` build the doubles, and time its documents with `timer`."""

    def make_backends(cfg):
        return (DelayedBackend(cfg["script_dir"], delay_s, meter),
                DelayedVision(cfg["script_dir"], delay_s, meter))

    cli._make_backends = make_backends
    if timer is not None:
        cli.run_document = timer


def run_argv(data: Path, out: Path, t_max: int, parallel: int) -> list[str]:
    return ["run", "--corpus", str(data / "corpus.jsonl"), "--backend", "script",
            "--script-dir", str(data / "scripts"), "--t-max", str(t_max),
            "--parallel", str(parallel), "--out-dir", str(out)]


def replay_argv(state: Path, corpus: Path) -> list[str]:
    return ["replay", "--state", str(state), "--corpus", str(corpus)]


def eval_argv(pred: Path, gold: Path, out: Path) -> list[str]:
    return ["eval", "--pred", str(pred), "--gold", str(gold), "--setting", "multimedia", "--out", str(out)]
