"""Steadiness and determinism self-check for the benchmark.

    python3 bench/steady.py --seeds 0-9 [--workloads a,b] [--seconds S]
                            [--trace-check] [--save FILE] [--compare FILE]

Runs bench/run.py once per (workload, seed), untraced, one after another,
and prints each end-to-end metric's median and quartile spread
((Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them).
A spread above a third of the metric's bound in BENCHMARK.json is flagged
(`setup_s` is flagged above a tenth, its spread is informational).
--compare FILE checks that no median got worse than in a saved earlier
set by more than the bound.  --trace-check runs the traced run twice per
workload and requires identical counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int, walls: list) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable if a == "python3" else a for a in argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    walls.append(time.perf_counter() - t0)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n{proc.stdout[-3000:]}")
    return out


def seeds_arg(s: str) -> list:
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace-check", action="store_true")
    p.add_argument("--save", type=Path)
    p.add_argument("--compare", type=Path)
    a = p.parse_args()
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    earlier = json.loads(a.compare.read_text()) if a.compare else {}
    saved, bad = {}, 0
    for w in a.workloads.split(","):
        values: dict = {}
        walls: list = []
        for seed in a.seeds:
            for name, m in run(w, seed, a.seconds, 0, walls)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[w] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            limit = 0.1 if name == "setup_s" else bound / 3
            flag = "" if spread <= limit else f"  <-- spread above {limit:.3f}"
            if name in earlier.get(w, {}):
                before = earlier[w][name]["median"]
                worse = (med - before) / before if bounds[name]["better"] == "lower" \
                    else (before - med) / before
                flag += f"  vs earlier {before:.6g}: {worse:+.3f}"
                if worse > bound:
                    flag += "  <-- worse than the bound"
                    bad += 1
            bad += name != "setup_s" and spread > limit
            saved[w][name] = {"median": med, "spread": spread, "values": vals}
            print(f"{w:<14} {name:<12} median {med:<12.6g} spread {spread:.4f} "
                  f"(bound {bound}){flag}", flush=True)
        print(f"{w:<14} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
        if a.trace_check:
            traced: list = []
            first, second = (run(w, a.seeds[0], a.seconds, 1, traced)["metrics"]
                             for _ in range(2))
            counts = [k for k, m in first.items() if m["unit"] == "count"]
            diff = [k for k in counts if first[k]["value"] != second[k]["value"]]
            print(f"{w:<14} traced twice ({max(traced):.1f} s at most): {len(counts)} counts, "
                  f"{'identical' if not diff else 'DIFFER at ' + ', '.join(diff)}", flush=True)
            bad += bool(diff)
    if a.save:
        a.save.write_text(json.dumps(saved, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
