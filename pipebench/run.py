"""Benchmark command: run one workload of the tfdw pipelines and print its
metrics.

    python3 pipebench/run.py --workload cb-table --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src``; nothing is installed.  Every pipeline runs in a fresh
worker process (``worker.py``) whose environment holds BLAS and OpenMP to
one thread, one worker at a time.

Before timing, the package and the benchmark are byte-compiled and one
untimed worker start fills the file cache.  ``setup_s`` is the time from
starting a worker to its ``ready`` message (interpreter start, imports,
inputs, and whatever the workload builds before its pipeline), the median
over the workers of the run; ``wall_s`` is the median time of the run's
pipeline rounds.  Both are reported in reference seconds: each measured time
is scaled by the speed probe (``probe.py``) its worker takes next to it, and
the measured times are printed to stderr.  With ``--trace 0`` the last
stdout line holds ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` it holds the per-layer metrics of one traced round.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MARK = "@@pipebench "
RUN_LIMIT_S = 170.0

# workload -> (set-up-only workers started besides the pipeline worker,
#              probe kernel that scales the pipeline time, and the set-up time)
# The eps-sweep set-up builds the 20-30 s table, dense work, so its one pipeline
# worker measures it; the other set-ups are imports, interpreted work.
WORKLOADS = {
    "cb-table": (3, "dense", "interp"),
    "eps-sweep": (0, "interp", "dense"),
    "supercell-stability": (3, "dense", "interp"),
}

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["TFDW_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_worker(mode, args, deadline):
    """Run one worker to its end; returns (setup seconds, result message)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", repr(args.seconds), "--out", str(OUT),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left to start a worker")
    ready = result = None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            msg = json.loads(line[len(MARK):])
            if msg["event"] == "ready":
                ready = time.perf_counter() - start
            elif msg["event"] == "result":
                result = msg
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "warm" and result is None):
        raise BenchError(f"{mode} worker for {args.workload} exited with code {code}")
    return ready, result


def reference_seconds(seconds, probes, kind, reference):
    """A measured time in reference seconds: scaled by the shortest time of
    the ``kind`` kernel over the probes taken next to it in the same worker."""
    return seconds * reference[kind] / min(p[kind] for p in probes)


def end_to_end_values(setups, walls, peak_rss_mb):
    """``setups`` and ``walls`` hold reference seconds."""
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in END_TO_END}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    package = ROOT / "src" / "tfdw"
    if not (package / "__init__.py").is_file():
        print(f"no tfdw package at {package}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for directory in (package, HERE):
        if not compileall.compile_dir(str(directory), quiet=1, maxlevels=0):
            print(f"byte-compiling {directory} failed", file=sys.stderr)
            return 2

    try:
        start_worker("warm", args, deadline)
        workers = []
        if not args.trace:
            workers = [start_worker("setup", args, deadline) for _ in range(WORKLOADS[args.workload][0])]
        ready, res = start_worker("trace" if args.trace else "run", args, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    workers.append((ready, res))

    for line in res["errors"] + res["failures"]:
        print(line, file=sys.stderr)
    correct = not res["failures"]
    if args.trace:
        if "layers" not in res:
            print("the traced or the untraced round failed; no layer metrics", file=sys.stderr)
            return 1
        metrics = res["layers"]
    else:
        if not res["walls"]:
            print("no pipeline round completed", file=sys.stderr)
            return 1
        _, wall_kind, setup_kind = WORKLOADS[args.workload]
        ref, p = res["probe_reference_s"], res["probes"]
        setups = [reference_seconds(s, r["probes"][:1], setup_kind, ref) for s, r in workers]
        walls = [reference_seconds(w, p[i : i + 2], wall_kind, ref) for i, w in enumerate(res["walls"])]
        print("measured: " + json.dumps({
            "setup_s": [s for s, _ in workers],
            "setup_probes": [r["probes"][0] for _, r in workers],
            "round_s": res["walls"],
            "round_probes": p,
        }), file=sys.stderr)
        metrics = end_to_end_values(setups, walls, res["peak_rss_mb"])
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
