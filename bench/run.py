"""symlie benchmark: one closed-loop client, one process, no extra threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): cli_corpus, spin_study,
dense_deform, eval_symmetry.  Every operation starts cold, as a user's
first call does: CLI commands run in a fresh interpreter, and in-process
workloads load a fresh algebra for every round, so only calls on the same
algebra share the package's caches.

--trace 0 runs a fixed number of whole cycles of operations: as many as
fill --seconds at the reference commit's speed (Workload.cycle_count), so
every run of a workload does the same work.  Every time it reports is in
reference seconds, corrected for the machine's changing speed
(refclock.py); the raw times are printed beside them.  It prints:

  op_p50_s     median operation latency
  op_tail_s    highest percentile with at least 10 samples beyond it
  ops_per_s    operations completed per second of loop wall time
  audit_all_s  median latency of `symlie audit --all`, four runs spread over
               the loop; they are not operations of the workload
  setup_s      median over 11 fresh interpreters of: import symlie, then
               generate and load the workload's inputs
  peak_rss_mb  peak RSS of the process running the operations, read after
               the first two cycles (a fixed amount of work); for
               cli_corpus the largest over the child processes
  error_rate   operations that raised, exited non-zero, missed their
               deadline or failed their output check, over those attempted
               (carried as `failed` / `attempted` in the result line)

--trace 1 runs one cycle untraced and the same cycle traced, each in a fresh
interpreter, then the first round traced once more (a fixed amount of work;
--seconds does not apply).  It prints the per-layer metrics (spans.py) and
trace.overhead_frac, and fails unless the two traced runs give identical
call counts for the operations they share.

The lines before the result show every metric with its unit and sample
count; the result line carries the ones BENCHMARK.json declares.
Every operation's output is checked (workloads.py) and, for seeds with
recorded digests, compared with the output of the reference commit.  The
last line of standard output is the JSON result.  Exit status 2 means the
benchmark could not run (for example, no symlie package in ./src).

Maintenance: `--record-digests --cycles K` records the digests of the first
K cycles for --seed into bench/digests.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import provenance
from provenance import ROOT, ProvenanceError
from refclock import RefClock
from workloads import WORKLOADS, Workload, audit_all_op, digest

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".bench_work"
OP_DEADLINE_S = 60.0       # one operation
RUN_DEADLINE_S = 165.0     # the whole invocation; the caller allows 180
SETUP_PROBES = 11
AUDIT_ALL_PROBES = 4


class OpDeadline(Exception):
    pass


def _alarm(signum, frame):
    raise OpDeadline()


class Runner:
    """Runs operations one at a time, times them, and checks their outputs."""

    def __init__(self, wl: Workload, seed: int, deadline_at: float, digests: dict,
                 span_dir: Path | None = None, tracer=None):
        self.wl, self.seed, self.deadline_at = wl, seed, deadline_at
        self.expected = digests.get("seeds", {}).get(str(seed), {}).get(wl.name, {})
        self.audit_all_digest = digests.get("audit_all")
        self.span_dir, self.tracer = span_dir, tracer
        self.env = provenance.child_env()
        self.records: list = []        # (key, latency_s, ok, started_at)
        self.clock = RefClock()
        self.problems: list = []
        self.digests: dict = {}
        self.overhead_s = 0.0          # time spent outside operations: checks, loading

    def remaining(self) -> float:
        return self.deadline_at - time.perf_counter()

    def call(self, op, budget):
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
        if self.tracer:
            self.tracer.op = op.key
        spent = self.clock.spent
        t0 = time.perf_counter()

        def took():  # without the clock's timer samples, which count as overhead
            return time.perf_counter() - t0 - (self.clock.spent - spent)
        try:
            raw = op.call()
            return took(), raw, None
        except OpDeadline:
            return took(), None, f"missed its {budget:.0f} s deadline"
        except Exception as exc:  # a failing operation is counted, not fatal
            return took(), None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.overhead_s += self.clock.spent - spent
            if self.tracer:
                self.tracer.op = None

    def command(self, op, budget):
        if self.span_dir is None:
            argv = [sys.executable, "-m", "symlie", *op.argv]
        else:
            spans = self.span_dir / f"{len(self.records):05d}.jsonl"
            argv = [sys.executable, str(BENCH / "cli_shim.py"), "--spans", str(spans),
                    "--op", op.key, "--", *op.argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, f"missed its {budget:.0f} s deadline"
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            return dt, None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return dt, proc.stdout, None

    def run(self, op) -> bool:
        """Run one operation; False when the run deadline left no room for it."""
        budget = min(OP_DEADLINE_S, self.remaining())
        if budget < 1.0:
            return False
        self.overhead_s += self.clock.tick()
        started = time.perf_counter()
        dt, raw, err = (self.call if op.argv is None else self.command)(op, budget)
        self.overhead_s += self.clock.tick()
        t0 = time.perf_counter()
        problems = [err] if err else self.check(op, raw)
        self.records.append((op.key, dt, not problems, started))
        self.problems += [f"{op.key}: {p}" for p in problems]
        self.overhead_s += time.perf_counter() - t0
        return True

    def check(self, op, raw) -> list:
        try:
            doc = json.loads(raw) if op.argv is not None else op.canon(raw)
            problems = op.check(doc)
        except Exception as exc:  # a malformed output is a failed check
            return [f"output unreadable or incomplete ({type(exc).__name__}: {exc})"]
        got = digest(doc)
        self.digests[op.key] = got
        want = self.audit_all_digest if op.key.endswith("audit_all") else self.expected.get(op.key)
        if want is not None and got != want:
            problems.append(f"output digest {got} differs from the reference {want}")
        return problems

    def cycles(self, count: int, limit_ops: int | None = None, after_op=None) -> float:
        """Run `count` whole cycles, calling after_op(cycles done, fractions
        included) after every operation.  Returns the loop wall time without
        the time spent checking outputs, loading inputs, sampling the clock
        and in after_op."""
        start = time.perf_counter()
        for c in range(count):
            t0 = time.perf_counter()
            ops = self.wl.ops(c)
            self.overhead_s += time.perf_counter() - t0
            for i, op in enumerate(ops):
                if limit_ops is not None and len(self.records) >= limit_ops:
                    return time.perf_counter() - start - self.overhead_s
                if not self.run(op):
                    self.problems.append("run deadline reached; remaining operations not run")
                    return time.perf_counter() - start - self.overhead_s
                if after_op:
                    t0 = time.perf_counter()
                    after_op(c + (i + 1) / len(ops))
                    self.overhead_s += time.perf_counter() - t0
        return time.perf_counter() - start - self.overhead_s


# ---------------------------------------------------------------------------
# statistics and output

def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, n): the highest order statistic with at least
    ten samples above it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: dict,
         declared: str) -> None:
    """Print every metric, then the result line with the metrics that
    BENCHMARK.json declares under `declared`."""
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>12} {unit:<6} {notes.get(name, '')}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {}
    for m in spec[declared]:
        value, unit = metrics[m["name"]]
        if value is None or unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']} is absent or not in {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))


def child(args: list, timeout: float) -> dict:
    """Run this script in a fresh interpreter; return its last output line as JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:4]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# modes

def setup_probe(a) -> None:
    t0 = time.perf_counter()
    S = provenance.import_symlie()
    WORKLOADS[a.workload](a.seed, a.workdir).setup(S)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def run_pass(a, deadline_at) -> None:
    """One fixed-work pass in this fresh interpreter, traced or not."""
    tracer = None
    t0 = time.perf_counter()
    S = provenance.import_symlie()
    import_s = time.perf_counter() - t0
    wl = WORKLOADS[a.workload](a.seed, a.workdir)
    span_dir = a.workdir / "spans" if a.mode == "traced" else None
    if span_dir:
        span_dir.mkdir(parents=True, exist_ok=True)
        if wl.in_process:
            from spans import Tracer
            tracer = Tracer()
            tracer.import_s = import_s
            tracer.install()
    wl.setup(S)
    runner = Runner(wl, a.seed, deadline_at, load_digests(),
                    span_dir=None if wl.in_process else span_dir, tracer=tracer)
    before = tracer.cache_stats() if tracer else {}
    runner.cycles(a.cycles, limit_ops=a.limit_ops)
    if tracer:
        after = tracer.cache_stats()
        tracer.dump(span_dir / "inproc.jsonl",
                    {"cache": {k: [*before[k], *after[k]] for k in after}})
    # in reference seconds (refclock.py), so that trace.overhead_frac does
    # not measure a change in the machine's speed between the two passes
    print(json.dumps({"op_s": sum(dt * runner.clock.scale(t, t + dt)
                                  for _, dt, _, t in runner.records),
                      "attempted": len(runner.records),
                      "failed": sum(not r[2] for r in runner.records),
                      "problems": runner.problems[:20]}))


def timed_run(a, wl_cls, deadline_at) -> int:
    digests = load_digests()
    t0 = time.perf_counter()
    S = provenance.import_symlie()
    wl = wl_cls(a.seed, a.workdir)
    wl.setup(S)
    own_setup = time.perf_counter() - t0
    runner = Runner(wl, a.seed, deadline_at, digests)
    count = wl.cycle_count(a.seconds)
    rss = {}
    setups = []                    # (raw set-up seconds, probe start, probe end)
    # Probes that are not operations of the workload, spread evenly over the
    # loop (by cycles done, not by time) so that a slow spell of the machine
    # does not hit all of them.  Peak RSS is read after a fixed amount of
    # work: two cycles in process, and for cli_corpus, whose peak is the
    # largest child's, one cycle, before the first probe can be that child.
    probes = ["setup", "audit"] * AUDIT_ALL_PROBES + ["setup"] * (SETUP_PROBES - AUDIT_ALL_PROBES)
    rss_at = 2 if wl.in_process else 1
    first = 0 if wl.in_process else rss_at
    due = [first + (count - first) * (k + 0.5) / len(probes) for k in range(len(probes))]

    def probe(kind):
        if kind == "audit":
            runner.run(audit_all_op(f"probe{len(runner.records)}.audit_all"))
            return
        # the child runs on this process's CPU; samples on either side of it
        # give its speed
        runner.clock.sample()
        t0 = time.perf_counter()
        out = child(["--setup-probe", "--workload", a.workload, "--seed", str(a.seed),
                     "--workdir", str(a.workdir / f"probe{len(setups)}")], runner.remaining())
        setups.append((out["setup_s"], t0, time.perf_counter()))
        runner.clock.sample()

    def read_rss():
        rss["value"] = rss_mb(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)

    def after_op(done):
        if done >= rss_at and "value" not in rss:
            read_rss()
        while due and due[0] <= done:
            due.pop(0)
            probe(probes.pop(0))

    runner.clock.start()
    try:
        wall = runner.cycles(count, after_op=after_op)
    finally:
        runner.clock.stop()
    if "value" not in rss:  # cut short by the run deadline
        read_rss()
    for kind in probes:  # left by a run cut short
        probe(kind)
    # every time below is in reference seconds (refclock.py); raw in the notes
    records = runner.records
    clock = runner.clock

    def timed(keep):  # (raw, reference) latency of the records kept
        return [(dt, dt * clock.scale(t, t + dt)) for key, dt, _, t in records if keep(key)]
    audit_all = timed(lambda key: key.endswith("audit_all"))
    loop = timed(lambda key: not key.startswith("probe"))
    lat = [r for _, r in loop]
    raw_op_s = sum(dt for dt, _ in loop)
    ref_wall = sum(lat) + (wall - raw_op_s) * clock.overall()
    completed = sum(ok for key, _, ok, _ in records if not key.startswith("probe"))
    attempted = len(records)
    failed = sum(not ok for _, _, ok, _ in records)
    tail_v, tail_p, n = tail(lat)
    metrics = {
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_v, "s"),
        "ops_per_s": (completed / ref_wall, "1/s"),
        "audit_all_s": (statistics.median(r for _, r in audit_all) if audit_all else None, "s"),
        "setup_s": (statistics.median(raw * clock.scale(t0, t1) for raw, t0, t1 in setups), "s"),
        "peak_rss_mb": (rss.get("value"), "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    notes = {
        "op_p50_s": f"n={n} ops; raw {statistics.median(dt for dt, _ in loop):.4g} s",
        "op_tail_s": f"p{tail_p:.1f}, {min(10, n - 1)} of {n} samples beyond; "
                     f"raw {tail([dt for dt, _ in loop])[0]:.4g} s",
        "ops_per_s": f"{completed} ops in {ref_wall:.2f} s loop wall ({wall:.2f} s raw), "
                     f"{count} cycles, 1 closed-loop client",
        "audit_all_s": f"n={len(audit_all)}"
                       + (f"; raw {statistics.median(dt for dt, _ in audit_all):.4g} s" if audit_all else ""),
        "setup_s": f"n={len(setups)} fresh interpreters; "
                   f"raw {statistics.median(raw for raw, _, _ in setups):.4g} s; "
                   f"this process: {own_setup:.4f} s",
        "peak_rss_mb": f"after {rss_at} cycle(s)" + ("" if wl.in_process else ", largest child"),
        "error_rate": f"{failed} failed of {attempted} attempted",
    }
    for p in runner.problems[:20]:
        print(f"  problem: {p}")
    print(f"# {a.workload}: {len(lat)} ops in {wall:.2f} s; machine speed "
          f"{clock.overall():.3f} x reference over {len(clock.took)} kernel samples")
    # error_rate is carried by `failed` / `attempted` in the result line
    emit(failed == 0 and not runner.problems, attempted, failed, metrics, notes, "end_to_end")
    return 0


def traced_run(a, deadline_at) -> int:
    from spans import layer_metrics, op_counts, read_pass
    round_ops = WORKLOADS[a.workload].round_ops
    passes = {}
    for tag, mode, limit in (("untraced", "untraced", None), ("traced", "traced", None),
                             ("repeat", "traced", round_ops)):
        args = ["--pass", mode, "--workload", a.workload, "--seed", str(a.seed),
                "--cycles", "1", "--workdir", str(a.workdir / tag)]
        if limit:
            args += ["--limit-ops", str(limit)]
        remaining = deadline_at - time.perf_counter()
        args += ["--deadline", str(remaining - 2)]
        passes[tag] = child(args, remaining)
    full = read_pass((a.workdir / "traced" / "spans").glob("*.jsonl"))
    again = read_pass((a.workdir / "repeat" / "spans").glob("*.jsonl"))
    counts_full, counts_again = op_counts(*full[:2]), op_counts(*again[:2])
    ops_again = {op for _, op in counts_again if op is not None}
    shared = {k: v for k, v in counts_full.items() if k[1] in ops_again}
    again_ops = {k: v for k, v in counts_again.items() if k[1] in ops_again}
    problems = [f"{t}: {p}" for t, out in passes.items() for p in out["problems"]]
    if shared != again_ops:
        diff = sorted(k for k in set(shared) | set(again_ops) if shared.get(k) != again_ops.get(k))
        problems.append(f"call counts differ between two traced runs at {diff[:5]}")

    metrics = layer_metrics(*full)
    u, t = passes["untraced"]["op_s"], passes["traced"]["op_s"]
    metrics["trace.overhead_frac"] = (t / u - 1.0, "ratio")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(f"# {a.workload}: traced {passes['traced']['attempted']} ops "
          f"(untraced {u:.3f} s of ops, traced {t:.3f} s); "
          f"{len(again_ops)} counts repeated over {len(ops_again)} ops")
    notes = {"complexes.differential_matrix.cache_hit_ratio": "no cache_info exposed"
             if metrics["complexes.differential_matrix.cache_hit_ratio"][0] is None else ""}
    attempted = sum(out["attempted"] for out in passes.values())
    failed = sum(out["failed"] for out in passes.values())
    emit(not problems, attempted, failed, metrics, notes, "per_layer")
    return 0


def record_digests(a, deadline_at) -> int:
    S = provenance.import_symlie()
    wl = WORKLOADS[a.workload](a.seed, a.workdir)
    wl.setup(S)
    runner = Runner(wl, a.seed, deadline_at, {})
    runner.cycles(a.cycles)
    runner.run(audit_all_op())
    if runner.problems:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    data = load_digests()
    mine = {k: v for k, v in runner.digests.items() if not k.endswith("audit_all")}
    audit_all = {v for k, v in runner.digests.items() if k.endswith("audit_all")}
    known = data.get("audit_all")
    if len(audit_all) != 1 or (known and known not in audit_all):
        print(f"audit --all digests disagree: {audit_all} vs {known}", file=sys.stderr)
        return 1
    data["audit_all"] = audit_all.pop()
    data.setdefault("seeds", {}).setdefault(str(a.seed), {})[a.workload] = mine
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(mine)} digests for {a.workload} seed {a.seed}")
    return 0


def main() -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pass", dest="mode", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--cycles", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--limit-ops", type=int, help=argparse.SUPPRESS)
    p.add_argument("--deadline", type=float, default=RUN_DEADLINE_S, help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--record-digests", action="store_true", help=argparse.SUPPRESS)
    a = p.parse_args()
    deadline_at = started + (3600.0 if a.record_digests else a.deadline)
    # One CPU for this process and every child it starts (they inherit it):
    # the host slows each vCPU by its own amount, so the reference kernel
    # describes a child's speed only when both run on the same CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    own_workdir = a.workdir is None
    if own_workdir:
        a.workdir = WORK / f"{a.workload}-{a.seed}-{os.getpid()}"
    try:
        a.workdir.mkdir(parents=True, exist_ok=True)
        if a.setup_probe:
            setup_probe(a)
            return 0
        if a.mode:
            run_pass(a, deadline_at)
            return 0
        if a.record_digests:
            return record_digests(a, deadline_at)
        S = provenance.import_symlie()
        where = subprocess.run([sys.executable, "-c", "import symlie; print(symlie.__file__)"],
                               cwd=ROOT, env=provenance.child_env(), capture_output=True,
                               text=True, timeout=60)
        if where.returncode != 0:
            raise ProvenanceError(f"a child interpreter cannot import symlie: "
                                  f"{where.stderr[-300:]}")
        provenance.check_origin(where.stdout.strip())
        prov = provenance.describe(a.seed, str(Path(S.__file__).parent))
        print(f"# symlie benchmark: workload={a.workload} trace={a.trace} "
              f"seconds={a.seconds:g} {json.dumps(prov)}")
        if a.trace:
            return traced_run(a, deadline_at)
        return timed_run(a, WORKLOADS[a.workload], deadline_at)
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"error: cannot import symlie: {exc}", file=sys.stderr)
        return 2
    finally:
        if own_workdir:
            shutil.rmtree(a.workdir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:  # another run is still using it
                pass


if __name__ == "__main__":
    sys.exit(main())
