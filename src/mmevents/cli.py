"""Command-line entry points: extraction runs, evaluation, audit-trail
replay, and budget statistics.

Exit codes are a stable contract: 0 ok, 1 usage/config error, 2 partial
failure (some documents failed; partial results still written), 3
validation failure (replay mismatch).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import agents as ag
from .boxes import is_number
from .errors import EngineError, MalformedState
from .hypergraph import Document, ImageRef
from .ops import replay_rounds
from .pipeline import MODES, PipelineConfig, run_document
from .schema import EventRecord, default_schema, load_schema, schema_from_json
from .scorer import SETTINGS, evaluate, render_report
from .state import deserialize_state, serialize_state

ENV_PREFIX = "MMEVENTS_"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def load_corpus(path: str | Path) -> list[Document]:
    """The documents of a JSONL corpus; raises ValueError naming the line
    of the first malformed document or repeated doc_id."""
    docs = []
    seen: set[str] = set()
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        obj = json.loads(line)
        if not (isinstance(obj, dict) and isinstance(obj.get("doc_id"), str)
                and isinstance(obj.get("text", ""), str)):
            raise ValueError(f"corpus line {n} is not an object with a string doc_id and text")
        if obj["doc_id"] in seen:
            raise ValueError(f"corpus line {n} repeats doc_id {obj['doc_id']!r}")
        seen.add(obj["doc_id"])
        image = None
        if obj.get("image_path"):
            try:
                image = ImageRef(obj["image_path"], int(obj["width"]), int(obj["height"]))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"corpus line {n}: image needs an integer width and height") from exc
        docs.append(Document(doc_id=obj["doc_id"], text=obj.get("text", ""), image=image))
    return docs


def _env(name: str, default=None):
    return os.environ.get(ENV_PREFIX + name, default)


def _read_config_file(path: str, defaults: dict) -> dict:
    """The settings of a JSON config file. Raises ValueError naming the key
    of the first setting that is unknown or whose value is not of its
    default's kind: an integer, a number (never a boolean), or a string
    (or null where the default is null)."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("config file is not a JSON object")
    for key, value in obj.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        default = defaults[key]
        if isinstance(default, int):
            ok, kind = type(value) is int, "an integer"
        elif isinstance(default, float):
            ok, kind = is_number(value), "a number"
        else:
            ok, kind = isinstance(value, str) or (value is None and default is None), "a string"
        if not ok:
            raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
    return obj


def build_config(args) -> dict:
    """Config precedence: CLI flag > environment variable > config file > default."""
    p = PipelineConfig()
    cfg = {
        "t_max": p.t_max, "tau": p.tau, "alpha": p.alpha, "lambda": p.lam,
        "theta_event": p.theta_event, "iou_align": p.iou_align, "mode": p.mode,
        "backend": "script", "script_dir": None,
        "api_url": None, "api_key": "", "model": "", "vision_url": None,
        "vision_model": "", "retries": 2, "timeout": 120.0, "schema_file": None,
    }
    if args.config:
        cfg.update(_read_config_file(args.config, cfg))
    for key, env_name in (("api_url", "API_URL"), ("api_key", "API_KEY"),
                          ("model", "MODEL"), ("vision_url", "VISION_URL"),
                          ("vision_model", "VISION_MODEL")):
        value = _env(env_name)
        if value is not None:
            cfg[key] = value
    overrides = {
        "t_max": args.t_max, "tau": args.tau, "alpha": args.alpha,
        "lambda": getattr(args, "lambda_"), "theta_event": args.theta,
        "mode": args.mode, "backend": args.backend, "script_dir": args.script_dir,
    }
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _pipeline_config(cfg: dict) -> PipelineConfig:
    return PipelineConfig(
        t_max=int(cfg["t_max"]), tau=float(cfg["tau"]), alpha=float(cfg["alpha"]),
        lam=float(cfg["lambda"]), theta_event=float(cfg["theta_event"]),
        iou_align=float(cfg["iou_align"]), mode=cfg["mode"],
    )


def _make_backends(cfg: dict):
    if cfg["backend"] == "script":
        if not cfg["script_dir"]:
            raise ValueError("script backend requires --script-dir")
        return ag.ScriptedBackend(cfg["script_dir"]), ag.ScriptedVisionTool(cfg["script_dir"])
    if cfg["backend"] == "live":
        if not cfg["api_url"]:
            raise ValueError("live backend requires api_url (config or MMEVENTS_API_URL)")
        backend = ag.LiveBackend(cfg["api_url"], cfg["model"], cfg["api_key"],
                                 retries=int(cfg["retries"]), timeout=float(cfg["timeout"]))
        vision = None
        if cfg["vision_url"]:
            vision = ag.LiveVisionTool(cfg["vision_url"], cfg["vision_model"], cfg["api_key"],
                                       retries=int(cfg["retries"]), timeout=float(cfg["timeout"]))
        return backend, vision
    raise ValueError(f"unknown backend {cfg['backend']!r}")


def cmd_run(args) -> int:
    started = time.time()
    try:
        cfg = build_config(args)
        pipeline_cfg = _pipeline_config(cfg)
        schema = load_schema(cfg["schema_file"]) if cfg["schema_file"] else default_schema()
        backend, vision = _make_backends(cfg)
        docs = load_corpus(args.corpus)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: bad configuration or corpus: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)
    (out_dir / "trails").mkdir(parents=True, exist_ok=True)
    (out_dir / "states").mkdir(parents=True, exist_ok=True)

    def process(doc):
        try:
            return run_document(doc, backend, vision, pipeline_cfg, schema)
        except EngineError as exc:
            return (doc, f"{type(exc).__name__}: {exc}")

    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(process, docs))
    else:
        results = [process(doc) for doc in docs]

    manifest_docs = {}
    totals = {"main_calls": 0, "vision_calls": 0, "total_calls": 0}
    ledger_per_doc = {}
    any_failed = False

    with (out_dir / "predictions.jsonl").open("w", encoding="utf-8") as pred_f, \
         (out_dir / "diagnostics.jsonl").open("w", encoding="utf-8") as diag_f:
        for doc, result in zip(docs, results):
            if isinstance(result, tuple):
                any_failed = True
                manifest_docs[doc.doc_id] = {"status": "failed", "reason": result[1]}
                diag_f.write(_dump({"doc_id": doc.doc_id, "failure": result[1]}) + "\n")
                continue
            pred_f.write(_dump({
                "doc_id": doc.doc_id,
                "events": [r.to_json() for r in result.records],
            }) + "\n")
            with (out_dir / "trails" / f"{doc.doc_id}.jsonl").open("w", encoding="utf-8") as tf:
                for entry in result.trail:
                    tf.write(_dump(entry.to_json()) + "\n")
            (out_dir / "states" / f"{doc.doc_id}.json").write_bytes(
                serialize_state(result.negotiated, result.trail)
            )
            report = result.ledger.report()
            ledger_per_doc[doc.doc_id] = report
            for key in totals:
                totals[key] += report[key]
            manifest_docs[doc.doc_id] = {
                "status": "ok",
                "t_used": result.t_used,
                "committed_ops": len(result.trail),
                "events": len(result.records),
            }
            if result.diagnostics:
                diag_f.write(_dump({"doc_id": doc.doc_id, "diagnostics": result.diagnostics}) + "\n")

    (out_dir / "ledger.json").write_text(
        _dump({"per_doc": ledger_per_doc, "totals": totals}) + "\n", encoding="utf-8"
    )
    manifest = {
        "config": {k: v for k, v in cfg.items() if k != "api_key"},
        "corpus": str(args.corpus),
        "out_dir": str(out_dir),
        "documents": manifest_docs,
        "ledger_totals": totals,
        "schema": schema.to_json(),
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    (out_dir / "manifest.json").write_text(_dump(manifest) + "\n", encoding="utf-8")
    return 2 if any_failed else 0


def _load_records_file(path: str | Path) -> dict[str, list[EventRecord]]:
    out: dict[str, list[EventRecord]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        events = obj.get("events", []) if isinstance(obj, dict) else None
        if not isinstance(events, list) or not isinstance(obj.get("doc_id"), str):
            raise ValueError(f"line is not an object with a doc_id and an events list: {line[:80]}")
        out[obj["doc_id"]] = [EventRecord.from_json(e) for e in events]
    return out


def cmd_eval(args) -> int:
    try:
        preds = _load_records_file(args.pred)
        golds = _load_records_file(args.gold)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read inputs: {exc}", file=sys.stderr)
        return 1
    report = evaluate(preds, golds, args.setting)
    print(render_report(report))
    if args.out:
        Path(args.out).write_text(_dump(report) + "\n", encoding="utf-8")
    return 0


def _recorded_schema(state_path: Path):
    """The schema recorded in the manifest of the run that wrote
    `state_path` (<run>/states/<doc>.json); the default schema when the
    state has no such run directory or the manifest records none."""
    manifest = state_path.parent.parent / "manifest.json"
    if state_path.parent.name != "states" or not manifest.is_file():
        return default_schema()
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    if not isinstance(recorded, dict):
        raise ValueError(f"{manifest} is not a JSON object")
    return schema_from_json(recorded["schema"]) if "schema" in recorded else default_schema()


def cmd_replay(args) -> int:
    try:
        schema = _recorded_schema(Path(args.state))
        docs = {d.doc_id: d for d in load_corpus(args.corpus)}
        final_h, trail = deserialize_state(Path(args.state).read_bytes())
    except (OSError, json.JSONDecodeError, MalformedState, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc_id = args.doc_id or Path(args.state).stem
    if doc_id not in docs:
        print(f"error: document {doc_id!r} not in corpus", file=sys.stderr)
        return 1
    doc = docs[doc_id]

    h0 = dataclasses.replace(final_h, edges={}, next_edge=1)
    state = h0
    try:
        for rnd, state in replay_rounds(h0, trail, schema, doc):
            edges = ", ".join(
                f"{e.id}({e.event_type}, c={'unset' if e.confidence is None else f'{e.confidence:.2f}'})"
                for e in state.edges.values()
            )
            print(f"round {rnd}: {len(state.edges)} edges: {edges}")
    except EngineError as exc:
        print(f"replay validation failure: {exc}", file=sys.stderr)
        return 3
    if state != final_h:
        print("replay validation failure: replayed state differs from stored state", file=sys.stderr)
        return 3
    print(f"replay ok: {len(trail)} committed operations, {len(state.edges)} edges")
    return 0


def _ok_document_counts(manifest, ledger) -> list[tuple[int, int]]:
    """(t_used, committed_ops) of every ok document in a run's manifest.
    Raises ValueError for a manifest or ledger of the wrong shape."""
    docs = manifest.get("documents") if isinstance(manifest, dict) else None
    if not isinstance(docs, dict) or not all(isinstance(info, dict) for info in docs.values()):
        raise ValueError('manifest.json needs a "documents" object of document objects')
    if not isinstance(ledger, dict) or not {"totals", "per_doc"} <= ledger.keys():
        raise ValueError('ledger.json needs "totals" and "per_doc"')
    counts = []
    for doc_id, info in docs.items():
        if info.get("status") != "ok":
            continue
        if type(info.get("t_used")) is not int or type(info.get("committed_ops")) is not int:
            raise ValueError(f"manifest document {doc_id!r} needs integer t_used and committed_ops")
        counts.append((info["t_used"], info["committed_ops"]))
    return counts


def cmd_stats(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        ledger = json.loads((run_dir / "ledger.json").read_text(encoding="utf-8"))
        counts = _ok_document_counts(manifest, ledger)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read run directory: {exc}", file=sys.stderr)
        return 1
    t_used_dist: dict[str, int] = {}
    ops_dist: dict[str, int] = {}
    for t_used, n_ops in counts:
        t_used_dist[str(t_used)] = t_used_dist.get(str(t_used), 0) + 1
        ops_dist[str(n_ops)] = ops_dist.get(str(n_ops), 0) + 1
    stats = {
        "t_used_distribution": dict(sorted(t_used_dist.items())),
        "committed_ops_distribution": dict(sorted(ops_dist.items())),
        "ledger_totals": ledger["totals"],
        "ledger_per_doc": ledger["per_doc"],
    }
    text = _dump(stats) + "\n"
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmevents", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run extraction over a corpus")
    run.add_argument("--corpus", required=True)
    run.add_argument("--config")
    run.add_argument("--backend", choices=["live", "script"])
    run.add_argument("--script-dir")
    run.add_argument("--mode", choices=MODES)
    run.add_argument("--t-max", type=int, dest="t_max")
    run.add_argument("--tau", type=float)
    run.add_argument("--alpha", type=float)
    run.add_argument("--lambda", type=float, dest="lambda_")
    run.add_argument("--theta", type=float)
    run.add_argument("--parallel", type=int, default=1)
    run.add_argument("--out-dir", required=True)
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="score predictions against gold")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gold", required=True)
    ev.add_argument("--setting", required=True, choices=list(SETTINGS))
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)

    rp = sub.add_parser("replay", help="replay and verify an audit trail")
    rp.add_argument("--state", required=True, help="state file written by `run` (states/{doc_id}.json)")
    rp.add_argument("--corpus", required=True)
    rp.add_argument("--doc-id")
    rp.set_defaults(func=cmd_replay)

    st = sub.add_parser("stats", help="budget and ledger statistics for a run")
    st.add_argument("--run-dir", required=True)
    st.add_argument("--out")
    st.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
