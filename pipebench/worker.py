"""One benchmark worker process.

Started by ``run.py`` with BLAS and OpenMP held to one thread.  It imports
the package from the checkout's ``src``, builds the workload's inputs and
set-up, announces ``ready``, runs whole pipeline rounds and checks their
outputs, and ends with one ``result`` message.  Messages are single stdout
lines starting with ``MARK``.

Modes: ``warm`` imports and exits (an untimed start that fills the file
cache); ``setup`` stops after ``ready`` and one speed probe; ``run`` times
untraced rounds until ``--seconds`` of pipeline time are spent (at least one
round), with a speed probe (``probe.py``) before every round and after the
last; ``trace`` runs one untraced round, then one round under the tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

MARK = "@@pipebench "
ROOT = Path(__file__).resolve().parent.parent


def emit(event, **payload):
    print(MARK + json.dumps({"event": event, **payload}), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("warm", "setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    import tfdw

    src = (ROOT / "src").resolve()
    if src not in Path(tfdw.__file__).resolve().parents:
        print(f"tfdw imported from {tfdw.__file__}, not from {src}", file=sys.stderr)
        return 3
    from tfdw.errors import TfdwError

    import tracing
    from probe import REFERENCE_S, Probe
    from workloads import WORKLOADS

    if args.mode == "warm":
        emit("ready")
        return 0
    wl = WORKLOADS[args.workload]
    ctx = wl.setup(wl.inputs(args.seed))
    emit("ready")
    probe = Probe()
    if args.mode == "setup":
        emit("result", probes=[probe.measure()], probe_reference_s=REFERENCE_S)
        return 0

    state = {"attempted": 0, "failed": 0, "failures": [], "errors": []}

    def one_round(tracer=None):
        """Run and check one pipeline round; returns its time."""
        ops = wl.operations(ctx)
        state["attempted"] += ops
        workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.out)
        try:
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.pipeline(ctx, workdir)
                else:
                    with tracer.frame(tracing.ROOT):
                        out = wl.pipeline(ctx, workdir)
            except TfdwError as exc:
                state["failed"] += ops
                state["errors"].append(f"{type(exc).__name__}: {exc}")
                return None
            elapsed = time.perf_counter() - start
            state["failures"] += wl.check(ctx, out)
            return elapsed
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    result = {"probe_reference_s": REFERENCE_S}
    if args.mode == "run":
        # a probe before every round and after the last one
        walls, probes = [], [probe.measure()]
        while True:
            wall = one_round()
            if wall is None:
                break
            walls.append(wall)
            probes.append(probe.measure())
            if sum(walls) >= args.seconds:
                break
        result.update(walls=walls, probes=probes)
    else:
        untraced = one_round()
        tr = tracing.Tracer()
        undo = tracing.instrument(tr)
        try:
            traced = one_round(tr)
        finally:
            tracing.restore(undo)
        if untraced is not None and traced is not None:
            result["layers"] = tracing.layer_values(tr, untraced)
        tr.write(os.path.join(args.out, f"trace-{wl.name}-seed{args.seed}.json"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit("result", **state, **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
