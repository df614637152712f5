"""Steadiness study: run the benchmark command over a set of seeds and
summarize each metric's spread.

    python3 pipebench/study.py --label A --seeds 1-10
    python3 pipebench/study.py --label B --seeds 11-20 --compare A

Runs are made one at a time, workload by workload, exactly as the command is
run by hand.  Every result line is appended to ``out/study-<label>.jsonl`` as
it arrives.  The summary gives, per workload and metric, the median, the
quartiles (``statistics.quantiles(n=4)``), the spread (q3 - q1) / median
and, with ``--compare``, the change of the median against the other set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(label):
    rows = []
    with open(OUT / f"study-{label}.jsonl") as fh:
        for line in fh:
            rows.append(json.loads(line))
    return rows


def summarize(rows):
    by = {}
    for r in rows:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    out = {}
    for key, values in by.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[key] = {"n": len(values), "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default=None, help="e.g. 1-10; omit to only summarize")
    p.add_argument("--workloads", default=None, help="comma list; default: all in BENCHMARK.json")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--compare", default=None, help="label of an earlier set")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    OUT.mkdir(exist_ok=True)

    if args.seeds:
        with open(OUT / f"study-{args.label}.jsonl", "a") as log:
            for wl in names:
                for seed in parse_seeds(args.seeds):
                    cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                        continue
                    result = json.loads(lines[-1])
                    measured = [x for x in proc.stderr.splitlines() if x.startswith("measured:")]
                    log.write(json.dumps({"workload": wl, "seed": seed, "result": result,
                                          "measured": measured}) + "\n")
                    log.flush()
                    print(wl, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)

    summary = summarize(load(args.label))
    other = summarize(load(args.compare)) if args.compare else {}
    for (wl, name), s in sorted(summary.items()):
        line = (f"{wl:20s} {name:14s} n={s['n']:2d} median={s['median']:.4f} "
                f"q1={s['q1']:.4f} q3={s['q3']:.4f} spread={100 * s['spread']:.2f}%")
        if (wl, name) in other:
            base = other[(wl, name)]["median"]
            line += f" vs {args.compare}: {100 * (s['median'] - base) / base:+.2f}%"
        print(line)


if __name__ == "__main__":
    main()
