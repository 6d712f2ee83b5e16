"""Closed-loop runner: set-up, the timed loop, the traced loop, metrics,
the determinism record and the run report."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"
STATE_DIR = BENCH_DIR / ".state"
WORK_DIR = BENCH_DIR / ".work"

# set-up runs this often per untraced run; setup_s is the median
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "snapshots_per_s": "1/s",
    "estimates_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


class Tally:
    """What the ops of one run did: latencies, failures, work and digests."""

    def __init__(self):
        self.attempted = 0
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.snapshots = 0
        self.estimates = 0
        self.kinds: Counter = Counter()
        self.digests: dict[str, str] = {}

    def record_digests(self, outputs: dict) -> None:
        """Equal inputs must give equal outputs: snapshot j is a pure
        function of (seed, j), so any drift is a bug."""
        for name, data in outputs.items():
            digest = workloads.sha256(data)
            if self.digests.setdefault(name, digest) != digest:
                raise workloads.CheckFailed(f"{name}: output differs from an earlier op's")

    def run_op(self, op: workloads.Op) -> None:
        self.attempted += 1
        self.kinds[op.kind] += 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # a raising op counts as failed; the loop goes on
            self.latencies.append(time.perf_counter() - start)
            self.failures.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            self.record_digests(op.check(result))
        except Exception as exc:  # a wrong or unreadable output counts as failed
            self.failures.append(f"{op.kind}: {exc!r}")
            return
        self.snapshots += op.snapshots
        self.estimates += op.estimates


def run_cycles(cycle, tally: Tally, seconds: float | None = None, cycles: int | None = None):
    """Run whole cycles, one op after the other, until ``seconds`` have
    passed or ``cycles`` cycles are done; return (wall seconds, cycles)."""
    start = time.perf_counter()
    done = 0
    while True:
        for op in cycle:
            tally.run_op(op)
        done += 1
        elapsed = time.perf_counter() - start
        if (done >= cycles) if cycles is not None else (elapsed >= seconds):
            return elapsed, done


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    if len(ordered) > 1:
        p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8]
    else:
        p90 = ordered[0]
    return {
        "ops": len(ordered),
        "p50_ms": statistics.median(ordered) * 1e3,
        "p90_ms": p90 * 1e3,
        "samples_beyond_p90": sum(1 for x in ordered if x > p90),
        "max_ms": ordered[-1] * 1e3,
        "in_order_ms": [round(x * 1e3, 3) for x in latencies],
    }


def machine_record() -> dict:
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
        caches = {
            key.strip(): value.strip()
            for key, _, value in (line.partition(":") for line in lscpu.splitlines())
            if "cache" in key.lower()
        }
    except (OSError, subprocess.SubprocessError) as exc:
        caches = {"unavailable": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "lscpu_caches": caches,
    }


def check_history(record_name: str, digests: dict) -> list[str]:
    """Compare this run's digests with the first run at the same workload,
    seed and sizes; the first run writes the record."""
    path = STATE_DIR / f"{record_name}.json"
    if not path.exists():
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return []
    earlier = json.loads(path.read_text())
    return [
        f"{name}: digest {digests.get(name)} differs from {earlier.get(name)} in {path.name}"
        for name in sorted(set(earlier) | set(digests))
        if earlier.get(name) != digests.get(name)
    ]


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """One benchmark run; returns (result line, report)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, smoke)
        setup_s, records = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            records.append(workload.setup())
            setup_s.append(time.perf_counter() - start)
        cycle = workload.cycle()
        tally = Tally()
        setup_digests = [
            {f"setup:{k}": workloads.sha256(v) for k, v in r.digests.items()} for r in records
        ]
        if any(d != setup_digests[0] for d in setup_digests):
            tally.failures.append("set-up outputs differ between repeats")
        tally.digests.update(setup_digests[0])

        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "smoke": smoke}
        if trace:
            untraced_s, cycles = run_cycles(cycle, tally, seconds=seconds / 2)
            tracer = spans.Tracer()
            with tracer.installed():
                traced_s, _ = run_cycles(cycle, tally, cycles=cycles)
            metrics = spans.layer_metrics(tracer.spans, traced_s, untraced_s)
            units = spans.PER_LAYER
            report["accounting"] = {
                "wall_s": traced_s,
                "self_s_sum": sum(s.self_s for s in tracer.spans),
                "unattributed_s": metrics["trace.unattributed_s"],
                "untraced_wall_s": untraced_s,
                "cycles_each_phase": cycles,
                "spans": len(tracer.spans),
            }
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}{'-smoke' if smoke else ''}.json"
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                [vars(s) for s in tracer.spans], separators=(",", ":")) + "\n")
            report["spans_file"] = str(spans_path.relative_to(BENCH_DIR))
        else:
            wall_s, cycles = run_cycles(cycle, tally, seconds=seconds)
            if tally.snapshots:
                snapshots_per_s = tally.snapshots / wall_s
            else:  # the timed loop acquires nothing; report the set-up's rate
                snapshots_per_s = records[0].acquired / statistics.median(
                    r.acquire_s for r in records)
            latency = latency_summary(tally.latencies)
            metrics = {
                "setup_s": statistics.median(setup_s),
                "latency_p50_ms": latency["p50_ms"],
                "latency_p90_ms": latency["p90_ms"],
                "snapshots_per_s": snapshots_per_s,
                "estimates_per_s": tally.estimates / wall_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            report["wall_s"] = wall_s
            report["cycles"] = cycles
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mode = "smoke" if smoke else "full"
    mismatches = check_history(f"{name}-{mode}-seed{seed}", tally.digests)
    failed = len(tally.failures)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report.update({
        "result": result,
        "failed_ops_frac": failed / max(1, tally.attempted),
        "failures": tally.failures[:20],
        "determinism": {"digests": tally.digests, "mismatches": mismatches},
        "ops_by_kind": dict(tally.kinds),
        "latency": latency_summary(tally.latencies),
        "setup_s": setup_s,
        "sizes": workload.sizes(),
        "machine": machine_record(),
    })
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if smoke else ""
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}{suffix}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for line in tally.failures[:5] + mismatches[:5]:
        print(f"{name}: {line}", file=sys.stderr)
    return result, report


def smoke() -> int:
    """Every workload at reduced size, untraced and traced, checking that
    each declared metric is printed, the span accounting adds up and a
    changed digest is flagged."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    problems = []
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", spans.PER_LAYER)):
        got = {m["name"]: m["unit"] for m in declared[key]}
        if got != expected:
            problems.append(f"BENCHMARK.json {key} differs from the code: {got} != {expected}")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code")

    for name in workloads.WORKLOADS:
        record = STATE_DIR / f"{name}-smoke-seed0.json"
        record.unlink(missing_ok=True)
        start = time.perf_counter()
        for trace in (False, True):
            result, report = run(name, 0, 1.0, trace, smoke=True)
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {report['failures']} "
                                f"{report['determinism']['mismatches']}")
            for metric, entry in result["metrics"].items():
                if not math.isfinite(entry["value"]):
                    problems.append(f"{name}: {metric} = {entry['value']}")
                if not trace and entry["value"] <= 0:
                    problems.append(f"{name}: end-to-end {metric} = {entry['value']}")
            if trace:
                acc = report["accounting"]
                if abs(acc["self_s_sum"] + acc["unattributed_s"] - acc["wall_s"]) > 1e-6:
                    problems.append(f"{name}: self times + unattributed != wall: {acc}")
        print(f"smoke {name}: a changed digest must be flagged next", file=sys.stderr)
        digests = json.loads(record.read_text())
        digests[next(iter(digests))] = "0" * 64
        record.write_text(json.dumps(digests))
        result, _ = run(name, 0, 0.1, False, smoke=True)
        if result["correct"]:
            problems.append(f"{name}: a changed digest was not flagged")
        record.unlink()
        print(f"smoke {name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)

    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    print(json.dumps({"smoke": "pass" if not problems else "fail", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description="aqstate closed-loop benchmark")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size run of every workload and metric")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
