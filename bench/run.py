"""naecut benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 bench/run.py                      # every workload, each in a fresh process
    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One client submits one instance at a time (a closed loop) in a single
thread.  `--seed` shuffles the submission order; the corpus itself comes
from the workload's corpus seed (`--corpus-seed`, default in workloads.py).
With `--trace 0` the run prints the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it runs each instance untraced and then traced, and prints the
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from clock import SpeedClock
from tracing import NullTracer, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
# setup_s is the median of at least this many set-ups, spanning at least SETUP_MIN_S.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# Past this many seconds of timed work the remaining instances count as
# timeouts without being started, so a run ends within three minutes even
# when every instance hits its limit.
RUN_CAP_S = 120.0


class InstanceTimeout(BaseException):
    """Raised by SIGALRM when an instance overruns its limit.

    A BaseException, so the library's `except Exception`-style handlers
    cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def run_limited(fn, limit_s: float):
    """fn() under a wall-clock alarm; the alarm is cleared however fn ends."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are ten or fewer."""
    xs = sorted(samples)
    k = len(xs) - 10 if len(xs) > 10 else len(xs)
    return 100.0 * k / len(xs), xs[k - 1], len(xs) - k


def load_naecut():
    """Import naecut from this checkout's src/."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import naecut
    import naecut.cli

    return naecut, naecut.cli


class Runner:
    """Runs one workload's jobs under their limits and checks their outputs."""

    def __init__(self, workload, nc, cli, reference, clock, deadline):
        self.workload, self.nc, self.cli = workload, nc, cli
        self.reference, self.clock, self.deadline = reference, clock, deadline
        # Timeouts that stopped a climb, by job id: later passes carry them
        # over instead of spending the limit on them again.
        self.carried: dict[str, dict] = {}

    def run_job(self, job, tracer, limit_s):
        """One instance: outcome, raw and calibrated time, sizes, failed checks."""
        rec = {"id": job.id, "group": job.group, "n": job.n, "traced": tracer.enabled, "problems": []}
        tracer.instance = job.id
        mark = self.clock.mark()
        t0 = time.perf_counter()
        try:
            result = run_limited(lambda: tracer.call("bench.instance", job.run, self.nc, self.cli, tracer), limit_s)
            rec.update(outcome=result.outcome, digest=result.digest, problems=result.problems)
        except InstanceTimeout:
            rec["outcome"] = "timeout"
        except self.nc.BudgetExceeded as exc:
            rec.update(outcome="timeout", budget=str(exc))
        except Exception as exc:  # any crash of the library is a failed operation
            rec.update(outcome="error", problems=[f"{type(exc).__name__}: {exc}"[:300]])
        rec["raw_ms"] = (time.perf_counter() - t0) * 1000.0
        # A timeout lasts its wall-clock limit, which calibration would only blur.
        rec["ms"] = rec["raw_ms"] * (1.0 if rec["outcome"] == "timeout" else self.clock.scale(mark))
        rec.update(job.sizes)
        expected = self.reference.get(job.id)
        if "digest" in rec and expected is not None and expected != rec["digest"]:
            rec["problems"].append(f"witness digest {rec['digest']} != reference {expected}")
        if rec["problems"] or rec["outcome"] == "error":
            print(f"FAIL {self.workload.name} {job.id}: {'; '.join(rec['problems'])}", file=sys.stderr, flush=True)
        return rec

    def run_pass(self, jobs, order_seed, tracer=None):
        """Submit every job once, in a seeded order; returns the records.

        With a tracer, each job runs twice back to back, untraced and then
        traced, so both timings see the same machine state.
        """
        rng = random.Random(order_seed)
        order = sorted(rng.sample(jobs, len(jobs)), key=lambda j: j.stage)
        stopped: set[int] = set()
        records = []
        for job in order:
            remaining = self.deadline - time.perf_counter()
            if job.id in self.carried and job.group not in stopped:
                records.append(dict(self.carried[job.id], carried=True))
                stopped.add(job.group)
                continue
            if job.group in stopped or remaining <= 0:
                records.append({"id": job.id, "group": job.group, "n": job.n, "outcome": "timeout",
                                "skipped": True, "ms": 0.0, "raw_ms": 0.0, "problems": []})
                continue
            limit_s = min(self.workload.limit_s, remaining)
            rec = self.run_job(job, NullTracer(), limit_s)
            records.append(rec)
            if tracer is not None:
                with tracer.installed(self.nc, self.cli):
                    records.append(self.run_job(job, tracer, limit_s))
            if self.workload.stop_on_timeout and rec["outcome"] == "timeout":
                stopped.add(job.group)
                self.carried[job.id] = rec
        return records


def end_to_end(workload, jobs, passes, setup_s, time_key="ms"):
    """End-to-end metrics of the untraced passes, timed by `time_key`, plus notes for the log."""
    clauses = {job.id: job.clauses for job in jobs}
    instance = {job.id: job.instance or job.id for job in jobs}
    walls, n_max, rates = [], [], []
    per_instance: dict[str, list[float]] = {}
    attempted = decided = 0
    for records in passes:
        wall = sum(rec[time_key] for rec in records) / 1000.0
        best: dict[int, int] = {job.group: 0 for job in jobs}
        done = 0
        verdict_ms: dict[str, float] = {}
        undecided = set()
        for rec in records:
            attempted += 1
            if rec["outcome"] in ("sat", "unsat"):
                decided += 1
                done += clauses[rec["id"]]
                key = instance[rec["id"]]
                verdict_ms[key] = verdict_ms.get(key, 0.0) + rec[time_key]
                best[rec["group"]] = max(best[rec["group"]], rec["n"])
            else:
                undecided.add(instance[rec["id"]])
        for key, ms in verdict_ms.items():
            if key not in undecided:
                per_instance.setdefault(key, []).append(ms)
        walls.append(wall)
        n_max.append(statistics.median(best.values()))
        rates.append(done / wall)
    latencies = [statistics.median(ms) for ms in per_instance.values()]
    if latencies:
        pct, tail_ms, beyond = tail(latencies)
        p50 = statistics.median(latencies)
    else:  # nothing decided: every latency is at least the limit
        pct, tail_ms, beyond, p50 = 100.0, workload.limit_s * 1000.0, 0, workload.limit_s * 1000.0
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_ms,
        "decided_share": decided / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "clauses_per_s": statistics.median(rates),
        "ladder_n_max": statistics.median(n_max),
    }
    notes = [
        f"latency_tail_ms is p{pct:.1f} of {len(latencies)} decided instances, {beyond} beyond it",
        f"passes {len(passes)}: {', '.join(f'{w:.3f}' for w in walls)} s",
    ]
    return metrics, notes


def measure(workload, seed: int, seconds: float, trace: bool, reference: dict, out_dir: Path):
    """Set up, run timed passes and check outputs; returns the result object."""
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = out_dir / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = SpeedClock()

    def timed(fn):
        """(fn(), raw seconds, calibrated seconds)"""
        mark = clock.mark()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return out, raw, raw * clock.scale(mark)

    try:
        (nc, cli), *import_s = timed(load_naecut)
        if trace:
            tracer = Tracer()
            with tracer.installed(nc, cli):
                tracer.instance = "setup"
                jobs = workload.setup(nc, str(workdir))
        else:
            setups = []  # (raw, calibrated) seconds
            while len(setups) < SETUP_REPEATS or sum(raw for raw, _ in setups) < SETUP_MIN_S:
                jobs = None  # so peak_rss_mb never holds two corpora
                jobs, *times = timed(lambda: workload.setup(nc, str(workdir)))
                setups.append(times)
            setup_s = [import_s[i] + statistics.median(t[i] for t in setups) for i in (0, 1)]
        runner = Runner(workload, nc, cli, reference, clock, time.perf_counter() + RUN_CAP_S)
        passes = []
        start = time.perf_counter()
        while True:
            records = runner.run_pass(jobs, seed * 1000 + len(passes), tracer if trace else None)
            passes.append(records)
            # Another pass runs if it fits in `seconds`, judged by this pass
            # without the timeouts the next one carries over.
            upcoming = sum(rec["raw_ms"] for rec in records if rec["id"] not in runner.carried) / 1000.0
            if trace or upcoming == 0 or time.perf_counter() - start + upcoming > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_records = [rec for records in passes for rec in records]
    failed = sum(1 for rec in all_records if rec["problems"] or rec["outcome"] == "error")
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{tag}.instances.jsonl", "w", encoding="utf-8") as fh:
        for rec in all_records:
            fh.write(json.dumps(rec) + "\n")
    outcomes: dict[str, int] = {}
    for rec in all_records:
        outcomes[rec["outcome"]] = outcomes.get(rec["outcome"], 0) + 1
    summary = f"outcomes {json.dumps(outcomes, sort_keys=True)}, failed_share {failed / len(all_records)}"

    if trace:
        tracer.write(out_dir / f"{tag}.spans.jsonl")
        metrics = layer_metrics(tracer.spans)
        plain, traced = (sum(r["raw_ms"] for r in all_records if r.get("traced") == flag) / 1000
                         for flag in (False, True))
        metrics["trace.overhead_s"] = traced - plain
        metrics["trace.overhead_share"] = (traced - plain) / plain
        notes = [f"each instance ran untraced ({plain:.3f} s in all) and then traced ({traced:.3f} s)", summary]
    else:
        metrics, notes = end_to_end(workload, jobs, passes, setup_s[1])
        raw, _ = end_to_end(workload, jobs, passes, setup_s[0], "raw_ms")
        notes.append("raw (uncalibrated) " + ", ".join(
            f"{name} {raw[name]:.6g}" for name in ("setup_s", "wall_s", "latency_p50_ms", "latency_tail_ms", "clauses_per_s")))
        notes.append(summary)
    digests = {rec["id"]: rec.get("digest") for rec in passes[0] if not rec.get("traced")}
    return {"attempted": len(all_records), "failed": failed, "metrics": metrics, "notes": notes,
            "digests": digests}


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print every metric of BENCHMARK.json by name with its unit; return the JSON line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value} {m['unit']}")
    for note in result["notes"]:
        print(f"note {note}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own fresh process, so setup and memory are its own."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines() or [""]
        results[name] = json.loads(lines[-1]) if lines[-1].startswith("{") else {"correct": False}
        results[name]["exit"] = proc.returncode
    print(json.dumps(results))
    return 0 if all(r["correct"] and r["exit"] == 0 for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="submission-order seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed passes continue while the next one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, help="corpus seed; reference digests cover the default only")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    for needed in (spec_path, REFERENCE, ROOT / "src" / "naecut" / "__init__.py"):
        if not needed.is_file():
            print(f"error: {needed} not found", file=sys.stderr)
            return 2
    if args.workload is None:
        return run_all(args)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    factory = workloads.WORKLOADS[args.workload]
    workload = factory() if args.corpus_seed is None else factory(seed=args.corpus_seed)
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), references.get(workload.key, {}), out_dir)
    line = report(result, spec, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
