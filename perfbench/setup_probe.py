"""Set-up probe: start the workload's first CLI call in a fresh interpreter,
print "ready" when it reaches its first timed call, and exit at once.

    python3 perfbench/setup_probe.py WORKLOAD DATA_DIR OUT_DIR

For a run workload the first timed call is `run_document`, after the
imports, configuration, backend construction and corpus load of
`cmd_run`.  For the audit workload it is the state read of the first
`replay`, after the imports and corpus load.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gencorpus  # noqa: E402
import harness  # noqa: E402
from mmevents import cli  # noqa: E402


def ready(*_args, **_kwargs):
    os.write(1, b"ready\n")  # one write: two worker threads may both get here
    os._exit(0)


def main() -> int:
    workload, data, out = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    spec = gencorpus.WORKLOADS[workload]
    if isinstance(spec, gencorpus.AuditSpec):
        cli.deserialize_state = ready
        state = sorted((data / "states").iterdir())[0]
        cli.main(harness.replay_argv(state, data / "corpus.jsonl"))
    else:
        harness.install(spec.delay_ms / 1e3, harness.Meter(), timer=ready)
        cli.main(harness.run_argv(data, out, spec.rounds, spec.parallel))
    print("setup probe: the CLI call returned before its first timed call", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
