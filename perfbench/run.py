"""Benchmark of the mmevents CLI over seeded, generated workloads.

    python3 perfbench/run.py --workload long_text --seed 1 --seconds 15 --trace 0

Each run generates its inputs from the seed (in a child process, not
timed), then calls `mmevents.cli.main` in this process, one whole-corpus
pass after another, until `--seconds` of passes have run: a closed loop
with the workload's worker count.  After the timed phase it checks the
outputs against the generated design.  The last line of standard output
is one JSON object; the lines before it are a readable report.

With `--trace 0` the metrics are end to end.  With `--trace 1` the run
makes untraced passes for half of `--seconds`, traced passes for the
other half and one traced pass at half document size, and reports
per-layer metrics per document (see README.md next to this file).

Run it from the root of a checkout: the program is imported from ./src.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
P90_MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 150


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    subprocess.run([sys.executable, str(HERE / "gencorpus.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out), "--scale", str(scale)],
                   check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads((out / "design.json").read_text(encoding="utf-8"))


def measure_setup(workload: str, data: Path, work: Path, harness) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to its first timed CLI call,
    each with the CPU speed factor measured around it."""
    times, speeds = [], []
    for i in range(SETUP_PROBES):
        before = harness.reference_seconds(harness.BRACKET_SHARE)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                                 str(data), str(work / f"probe{i}")],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe exited with {rc} before its first timed call")
        times.append(elapsed)
        speeds.append(harness.speed_factor(before, harness.reference_seconds(harness.BRACKET_SHARE)))
    return times, speeds


def call(cli, argv: list[str]) -> int:
    """One in-process CLI call; its standard output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


class Pass:
    """One whole-corpus pass: per-document and pass seconds as measured on
    the wall clock and as scaled to the nominal CPU speed."""

    def __init__(self, docs: int, failed: int, doc_s: list[float], doc_scaled_s: list[float],
                 wall_s: float, scaled_s: float):
        self.docs, self.failed, self.doc_s, self.doc_scaled_s = docs, failed, doc_s, doc_scaled_s
        self.wall_s, self.scaled_s = wall_s, scaled_s


def scaled(wall_s: float, wait_s: float, speed: float) -> float:
    """Wall time with its compute part, all but the agent waits, scaled by `speed`."""
    wait_s = min(wait_s, wall_s)
    return wait_s + (wall_s - wait_s) * speed


class Workload:
    """The CLI calls of one workload over one generated input tree."""

    def __init__(self, name: str, spec, data: Path, out: Path, design: dict, meter, timer):
        self.name, self.spec, self.data, self.out, self.design = name, spec, data, out, design
        self.meter, self.timer = meter, timer
        self.tracer = None  # set for traced passes, which name the document each replay is for
        self.audit = "expected_report" in design
        self.bracket = True  # off in traced runs, whose spans must not contain the reference loop
        self.problems: list[str] = []
        self._pred_digest = None

    def run_pass(self, cli, harness) -> Pass:
        """One pass.  The reference loop runs around each document where
        there is one worker, and around the whole pass, to measure the CPU
        speed that the document's and the pass's compute time is scaled by."""
        before = harness.reference_seconds()
        docs, failed, samples, wall, rest = (self._audit_pass if self.audit else self._run_pass)(cli, harness)
        speed = harness.speed_factor(before, harness.reference_seconds())
        doc_scaled = [scaled(s, wait, doc_speed or speed) for s, wait, doc_speed in samples]
        if rest is None:  # workers overlap: scale the pass as a whole
            wait = sum(w for _, w, _ in samples) / self.spec.parallel
            pass_scaled = scaled(wall, wait, speed)
        else:  # documents one after another, then the rest of the pass
            rest_s, rest_speed = rest
            pass_scaled = sum(doc_scaled) + rest_s * (rest_speed or speed)
        return Pass(docs, failed, [s for s, _, _ in samples], doc_scaled, wall, pass_scaled)

    def _run_pass(self, cli, harness):
        self.timer.samples.clear()
        self.timer.bracket, self.timer.bracket_s = self.bracket and self.spec.parallel == 1, 0.0
        self.meter.take_doc_waits()
        t0 = time.perf_counter()
        rc = call(cli, harness.run_argv(self.data, self.out, self.spec.rounds, self.spec.parallel))
        wall = time.perf_counter() - t0 - self.timer.bracket_s
        waits = self.meter.take_doc_waits()
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        failed = sum(1 for d in manifest["documents"].values() if d["status"] != "ok")
        if rc != 0:
            self.problems.append(f"mmevents run exited with {rc}")
        if len(manifest["documents"]) != self.design["docs"]:
            self.problems.append(f"manifest lists {len(manifest['documents'])} of {self.design['docs']} documents")
        digest = hashlib.sha256((self.out / "predictions.jsonl").read_bytes()).hexdigest()
        if self._pred_digest not in (None, digest):
            self.problems.append("predictions differ between passes over the same inputs")
        self._pred_digest = digest
        samples = [(s, waits.get(doc_id, 0.0), speed) for doc_id, s, speed in self.timer.samples]
        rest = (wall - sum(s for s, _, _ in samples), None) if self.timer.bracket else None
        return self.design["docs"], failed, samples, wall, rest

    def _audit_pass(self, cli, harness):
        corpus = self.data / "corpus.jsonl"
        samples, failed = [], 0
        for state in sorted((self.data / "states").iterdir()):
            if self.tracer is not None:
                self.tracer.doc_id = state.stem
            before = harness.reference_seconds(harness.BRACKET_SHARE) if self.bracket else None
            t0 = time.perf_counter()
            rc = call(cli, harness.replay_argv(state, corpus))
            seconds = time.perf_counter() - t0
            speed = None
            if self.bracket:
                speed = harness.speed_factor(before, harness.reference_seconds(harness.BRACKET_SHARE))
            samples.append((seconds, 0.0, speed))
            failed += rc != 0
        if self.tracer is not None:
            self.tracer.doc_id = None
        self.out.mkdir(parents=True, exist_ok=True)
        before = harness.reference_seconds(harness.BRACKET_SHARE) if self.bracket else None
        t0 = time.perf_counter()
        rc = call(cli, harness.eval_argv(self.data / "predictions.jsonl", self.data / "gold.jsonl",
                                         self.out / "report.json"))
        eval_s = time.perf_counter() - t0
        eval_speed = None
        if self.bracket:
            eval_speed = harness.speed_factor(before, harness.reference_seconds(harness.BRACKET_SHARE))
        if failed:
            self.problems.append(f"{failed} replays failed validation")
        if rc != 0:
            self.problems.append(f"mmevents eval exited with {rc}")
        return len(samples), failed, samples, sum(s for s, _, _ in samples) + eval_s, (eval_s, eval_speed)

    def check(self, cli, harness) -> list[str]:
        """Check the last pass's outputs against the design; return the problems found."""
        problems = list(self.problems)
        report_path = self.out / "report.json"
        if self.audit:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            expected = self.design["expected_report"]
            for section, want in expected.items():
                got = report[section]
                got = {k: got[k] for k in want} if isinstance(got, dict) else got
                if got != want:
                    problems.append(f"eval {section}: got {got}, designed {want}")
            return problems

        rc = call(cli, harness.eval_argv(self.out / "predictions.jsonl", self.data / "gold.jsonl", report_path))
        report = json.loads(report_path.read_text(encoding="utf-8")) if rc == 0 else None
        if report is None or report["em"]["f1"] != 1.0 or report["ar"]["f1"] != 1.0:
            problems.append(f"eval against the designed gold is not perfect: "
                            f"{report and {k: report[k] for k in ('em', 'ar')}}")
        elif report["em"]["matched"] != self.design["events"]:
            problems.append(f"{report['em']['matched']} events matched, {self.design['events']} designed")
        corpus = self.data / "corpus.jsonl"
        for state in sorted((self.out / "states").iterdir()):
            rc = call(cli, harness.replay_argv(state, corpus))
            if rc != 0:
                problems.append(f"replay of {state.name} exited with {rc}")
        ledger = json.loads((self.out / "ledger.json").read_text(encoding="utf-8"))
        if ledger["totals"]["total_calls"] != self.design["total_calls"]:
            problems.append(f"ledger counts {ledger['totals']['total_calls']} calls, "
                            f"{self.design['total_calls']} designed")
        for doc_id, want in self.design["calls"].items():
            got = ledger["per_doc"].get(doc_id, {})
            if (got.get("main_calls"), got.get("vision_calls")) != (want["main"], want["vision"]):
                problems.append(f"{doc_id}: ledger {got.get('main_calls')}/{got.get('vision_calls')} "
                                f"main/vision calls, designed {want['main']}/{want['vision']}")
        return problems


def timed_run(wl: Workload, cli, harness, seconds: float, setup: tuple[list[float], list[float]]):
    passes: list[Pass] = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(wl.run_pass(cli, harness))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = wl.check(cli, harness)

    docs = sum(p.docs for p in passes)
    failed = sum(p.failed for p in passes)
    setup_s, setup_speeds = setup
    raw_ms = [s * 1e3 for p in passes for s in p.doc_s]
    scaled_ms = [s * 1e3 for p in passes for s in p.doc_scaled_s]
    metrics = {
        "docs_per_s": (statistics.median(p.docs / p.scaled_s for p in passes),
                       "docs/s_nominal"),
        "doc_ms_p50": (statistics.median(scaled_ms), "ms_nominal"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(t * f for t, f in zip(setup_s, setup_speeds)), "s"),
    }
    wall = {
        "docs_per_s": statistics.median(p.docs / p.wall_s for p in passes),
        "doc_ms_p50": statistics.median(raw_ms),
        "setup_s": statistics.median(setup_s),
    }
    timed = sum(p.wall_s for p in passes)
    speeds = sorted(p.wall_s / p.scaled_s for p in passes)
    report = [f"{wl.name}: {docs} documents in {len(passes)} passes, {timed:.2f} s timed "
              f"(closed loop, {1 if wl.audit else wl.spec.parallel} worker(s)); "
              f"wall clock / nominal per pass {speeds[0]:.2f}..{speeds[-1]:.2f}",
              f"  {'metric':<20} {'nominal CPU':>12} {'wall clock':>12}"]
    for name, (value, unit) in metrics.items():
        raw = f"{wall[name]:>12.4f}" if name in wall else f"{'':>12}"
        report.append(f"  {name:<20} {value:>12.4f} {raw} {unit.removesuffix('_nominal')}")
    report[3] += f"  (median of {len(raw_ms)} documents)"
    if len(raw_ms) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(scaled_ms, n=10)[-1]
        p90_wall = statistics.quantiles(raw_ms, n=10)[-1]
        report.append(f"  {'doc_ms_p90':<20} {p90:>12.4f} {p90_wall:>12.4f} ms  (over {len(raw_ms)} documents)")
    else:
        report.append(f"  {'doc_ms_p90':<20} {'-':>12} {'-':>12} ms  (not reported: {len(raw_ms)} < "
                      f"{P90_MIN_SAMPLES} documents)")
    if not wl.audit:
        kib = wl.meter.total_context_bytes() / 1024 / docs
        report.append(f"  {'context_kib_per_doc':<20} {kib:>12.4f} {kib:>12.4f} KiB")
    report.append(f"  {'failed_doc_ratio':<20} {failed / docs:>12.4f} {failed / docs:>12.4f}  ({failed} of {docs})")
    report.append(f"  setup_s wall clock over {len(setup_s)} fresh interpreters: "
                  + ", ".join(f"{t:.3f}" for t in setup_s))
    result = {"attempted": docs, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    return result, report + [f"  check: {'; '.join(problems) if problems else 'ok'}"], problems


def traced_run(full: Workload, half: Workload, cli, harness, tracing, seconds: float):
    """Untraced passes for half of `seconds`, traced ones for the other half,
    then one traced pass over the half-size inputs."""
    full.bracket = half.bracket = False
    untraced: list[Pass] = []
    while not untraced or sum(p.wall_s for p in untraced) < seconds / 2:
        untraced.append(full.run_pass(cli, harness))
    full.meter.reset()
    tracer = tracing.Tracer()
    full.tracer = half.tracer = tracer
    tracer.install()
    try:
        passes: list[Pass] = []
        while not passes or sum(p.wall_s for p in passes) < seconds / 2:
            passes.append(full.run_pass(cli, harness))
        spans, calls, counts = tracer.take()
        docs = sum(p.docs for p in passes)
        metrics = tracing.layer_metrics(spans, calls, counts, full.meter, docs)
        # growth compares passes made at different times, so both sides are
        # scaled to the nominal CPU speed
        full_times = tracing.per_doc_times(spans, docs, sum(p.scaled_s for p in passes) / sum(p.wall_s for p in passes))
        half_pass = half.run_pass(cli, harness)
        half_spans, _, _ = tracer.take()
        half_times = tracing.per_doc_times(half_spans, half_pass.docs, half_pass.scaled_s / half_pass.wall_s)
        metrics.update(tracing.growth_metrics(full_times, half_times))
    finally:
        tracer.uninstall()
    untraced_ms = statistics.median(p.scaled_s for p in untraced) * 1e3
    traced_ms = statistics.median(p.scaled_s for p in passes) * 1e3
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    artifact_bytes = sum(f.stat().st_size for f in full.out.rglob("*") if f.is_file()) if not full.audit else 0
    metrics["cli.artifact_bytes"] = artifact_bytes / full.design["docs"]
    tracing.write_spans(spans, WORK / "traces" / f"{full.name}.jsonl")

    problems = full.check(cli, harness) + [f"half size: {p}" for p in half.check(cli, harness)]
    everything = untraced + passes + [half_pass]
    attempted = sum(p.docs for p in everything)
    failed = sum(p.failed for p in everything)
    _, self_ns = tracing.span_times(spans)
    top = sorted(self_ns.items(), key=lambda kv: -kv[1])[:5]
    report = [f"{full.name} (traced): {docs} documents in {len(passes)} traced passes; median pass "
              f"{untraced_ms:.1f} ms untraced, {traced_ms:.1f} ms traced (nominal CPU)",
              "  largest self time per document (ms): "
              + ", ".join(f"{name}={ns / 1e6 / docs:.2f}" for name, ns in top)]
    report += [f"  {name:<44} {value:>14.4f}" for name, value in sorted(metrics.items())]
    report.append(f"  spans written to {WORK.name}/traces/{full.name}.jsonl")
    units = tracing_units(metrics)
    result = {"attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    return result, report + [f"  check: {'; '.join(problems) if problems else 'ok'}"], problems


def tracing_units(metrics: dict) -> dict:
    units = {}
    for name in metrics:
        if name.endswith("ms"):
            units[name] = "ms"
        elif name.endswith(".growth"):
            units[name] = "log2"
        elif "bytes" in name:
            units[name] = "bytes"
        elif name.endswith("kib_per_doc"):
            units[name] = "KiB"
        elif name.endswith("accept_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mmevents" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'mmevents'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gencorpus

    if args.workload not in gencorpus.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(gencorpus.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = gencorpus.WORKLOADS[args.workload]
    # The host slows each vCPU down independently; staying on one keeps the
    # reference loop and the measured work on the same one.  Children inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = work / "data"
        design = generate(args.workload, args.seed, data)

        import mmevents
        if Path(mmevents.__file__).resolve().parent != SRC / "mmevents":
            print(f"perfbench: imported mmevents from {mmevents.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from mmevents import cli
        import harness

        setup = None if args.trace else measure_setup(args.workload, data, work, harness)

        meter, timer = harness.Meter(), harness.DocTimer()
        harness.install(getattr(spec, "delay_ms", 0.0) / 1e3, meter, timer)
        wl = Workload(args.workload, spec, data, work / "out", design, meter, timer)
        if args.trace:
            import tracing

            half_data = work / "half"
            half_design = generate(args.workload, args.seed, half_data, scale=0.5)
            half = Workload(args.workload, spec.scaled(0.5), half_data, work / "half_out",
                            half_design, meter, timer)
            result, report, problems = traced_run(wl, half, cli, harness, tracing, args.seconds)
        else:
            result, report, problems = timed_run(wl, cli, harness, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and result["failed"] == 0
    print("\n".join(report))
    if not correct:
        print("perfbench: output check failed; metrics withheld", file=sys.stderr)
        result["metrics"] = {}
    print(json.dumps({"correct": correct, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
