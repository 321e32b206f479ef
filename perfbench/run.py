"""pmodel benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is derive, logic, recognize or parse (see NOTES.md for what each
exercises). Each is a closed loop: one single-threaded client in this
process sends the next operation when the last one returns. Inputs come from
the seed; the program is imported from ./src and receives only the generated
inputs. Every output is checked by an oracle that does not call the program,
outside the timed region.

--trace 0 measures the end-to-end metrics over S seconds of timed work
(and at least MIN_OPS operations). Every PROBE_EVERY_S the process is pinned
to the CPU that ran a fixed probe fastest (CpuChooser).

    setup_s         median over fresh interpreters of importing pmodel and
                    pmodel.cli and loading the workload's input files
    ops_per_s       operations whose output passed the check / timed seconds
    latency_p50_ms  median latency of one operation
    latency_p99_ms  99th percentile latency of one operation
    passed_ratio    operations that passed the check / operations attempted
    peak_rss_mb     peak resident set of this process

--trace 1 makes one fixed traced pass over the workload's first inputs and
reports calls, self time and counts per program function, then alternates
traced and untraced windows over S seconds to report the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when an operation fails
outside the defect classes recorded for the workload (NOTES.md); every
failure, known or not, is counted in `failed`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from array import array

import harness
import tracer

PROBE_EVERY_S = 0.5
WINDOW_S = 1.0
SETUP_SAMPLES = 11
MIN_OPS = 1000  # so that 10 samples lie beyond the 99th percentile
BAND = 0.005  # half-width of the rank band a percentile averages
WARMUP_S = 0.5
WALL_LIMIT_S = 150.0

perf_counter = time.perf_counter


class Tally:
    """Attempts, failures and failure classes over the operations run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.by_class = {}
        self.errors = []
        self.time_by_kind = {}  # timed seconds per input kind, where a workload names kinds

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.errors += other.errors[: 5 - len(self.errors)]
        for cls, count in other.by_class.items():
            self.by_class[cls] = self.by_class.get(cls, 0) + count

    def record(self, workload, item, out, error, dt=0.0):
        self.attempted += 1
        kind = workload.kind(item) if hasattr(workload, "kind") else None
        if kind is not None:
            self.time_by_kind[kind] = self.time_by_kind.get(kind, 0.0) + dt
        ok = False
        if error is None:
            try:
                ok = workload.check(item, out)
            except Exception as exc:  # a malformed output is a failed check
                error = exc
        if ok:
            return True
        self.failed += 1
        cls = workload.failure_class(item) if hasattr(workload, "failure_class") else None
        self.by_class[cls] = self.by_class.get(cls, 0) + 1
        if cls is None:
            self.unexpected += 1
            if len(self.errors) < 5:
                self.errors.append(f"{item!r:.200} -> {error!r:.200}" if error else f"{item!r:.300}")
        return False


def run_op(workload, api, item):
    t0 = perf_counter()
    try:
        out, error = workload.op(api, item), None
    except Exception as exc:  # counted as a failed operation
        out, error = None, exc
    return perf_counter() - t0, out, error


class Latencies:
    """Operation times in a preallocated array, so the benchmark's own memory
    does not grow with the speed of the program (peak_rss_mb stays the
    program's). Times past the capacity are not kept."""

    CAPACITY = 2_000_000

    def __init__(self):
        self.values = array("f", bytes(4 * self.CAPACITY))
        self.n = 0

    def add(self, dt):
        if self.n < self.CAPACITY:
            self.values[self.n] = dt
            self.n += 1

    def percentiles(self):
        """Median and 99th percentile, and the number of samples beyond the
        99th. Each percentile is the mean of the latencies ranked within
        BAND of it, so that one slow or fast operation at the rank does not
        decide it."""
        ordered = sorted(self.values[: self.n])

        def around(q):
            lo = int((q - BAND) * self.n)
            return statistics.fmean(ordered[lo : max(lo + 1, math.ceil((q + BAND) * self.n))])

        return around(0.5), around(0.99), self.n - math.ceil(0.99 * self.n)


class CpuChooser:
    """Every PROBE_EVERY_S, between operations, time the same few operations
    on each CPU this process may run on, and pin the process to the fastest.

    On a shared host the speed of each CPU changes by up to 1.7x for seconds
    at a time, independently of the other CPU (NOTES.md). Running where the
    host currently interferes least is what makes runs comparable; the
    program and its inputs are the same on every CPU. Child processes (the
    set-up samples) inherit the choice."""

    MAX_CPUS = 8

    def __init__(self, workload):
        self.workload = workload
        self.items = workload.probe_items(next(workload.blocks("probe")))
        try:
            self.cpus = sorted(os.sched_getaffinity(0))[: self.MAX_CPUS]
        except (AttributeError, OSError):  # no affinity control here
            self.cpus = []
        self.chosen = []
        self.last = float("-inf")

    def choose(self, api):
        """Re-pin when PROBE_EVERY_S has passed since the last choice."""
        if len(self.cpus) < 2 or perf_counter() - self.last < PROBE_EVERY_S:
            return
        timings = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                run_op(self.workload, api, self.items[0])  # settle on the CPU
                t0 = perf_counter()
                for item in self.items:
                    run_op(self.workload, api, item)
                timings.append((perf_counter() - t0, cpu))
            cpu = min(timings)[1]
            os.sched_setaffinity(0, {cpu})
        except OSError:  # affinity refused: stop choosing
            self.cpus = []
            return
        self.chosen.append(cpu)
        self.last = perf_counter()


def timed_windows(workload, api, blocks, seconds, tally, latencies, between=None, min_ops=0):
    """Run windows of whole blocks, each of at least WINDOW_S timed seconds,
    until `seconds` of timed work and `min_ops` operations. `between` runs
    before each window and returns the call table for it.

    Returns per-window (operations passed, timed seconds) and the CPUs chosen."""
    windows = []
    deadline = time.monotonic() + WALL_LIMIT_S
    timed = 0.0
    chooser = CpuChooser(workload)
    while (timed < seconds or latencies.n < min_ops) and time.monotonic() < deadline:
        if between is not None:
            api = between(len(windows), timed / seconds)
        passed, busy = 0, 0.0
        while busy < WINDOW_S:
            for item in next(blocks):
                chooser.choose(api)
                dt, out, error = run_op(workload, api, item)
                busy += dt
                latencies.add(dt)
                passed += tally.record(workload, item, out, error, dt)
        timed += busy
        windows.append((passed, busy))
    return windows, chooser.chosen


def rate(windows):
    """Operations passed per timed second over the given windows."""
    return sum(p for p, _ in windows) / sum(b for _, b in windows)


def warm_up(workload, api):
    """Untimed operations from their own stream, so lazy set-up and caches
    settle before timing."""
    end = perf_counter() + WARMUP_S
    for block in workload.blocks("warmup"):
        for item in block:
            run_op(workload, api, item)
        if perf_counter() > end:
            return


def end_to_end(root, workload, m, seconds):
    harness.load_inputs(m, workload)
    api = harness.make_api(m)
    latencies = Latencies()
    warm_up(workload, api)
    gc.collect()

    tally = Tally()
    setup = []

    def between(index, progress):
        # spread the set-up samples over the run, so a slow spell of the
        # host moves few of them
        if len(setup) < min(SETUP_SAMPLES, int(progress * SETUP_SAMPLES)):
            setup.append(harness.setup_sample(root, workload)["setup_s"])
        return api

    windows, cpus = timed_windows(
        workload, api, workload.blocks("timed"), seconds, tally, latencies, between, MIN_OPS
    )
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < SETUP_SAMPLES:
        setup.append(harness.setup_sample(root, workload)["setup_s"])
    p50, p99, beyond = latencies.percentiles()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (rate(windows), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "passed_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    notes = [
        f"timed: {sum(b for _, b in windows):.2f} s in {len(windows)} windows; samples: {latencies.n} "
        f"({beyond} beyond p99); set-up samples: {len(setup)}",
        f"failed_ratio: {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted})",
        "window ops/s: " + " ".join(f"{p / b:.0f}" for p, b in windows),
        "set-up samples (ms): " + " ".join(f"{x * 1e3:.0f}" for x in setup),
        "CPU chosen per probe: " + " ".join(map(str, cpus)),
    ]
    busy = sum(tally.time_by_kind.values())
    notes += [f"time share {k}: {v / busy:.3f}" for k, v in sorted(tally.time_by_kind.items())]
    return tally, metrics, notes


def per_layer(root, workload, m, seconds):
    recorder = tracer.SpanRecorder()
    harness.load_inputs(m, workload, recorder)
    api = harness.make_api(m, recorder)
    undo = tracer.patch(m, workload.patches, recorder, harness.COUNTERS)
    tally = Tally()
    try:
        blocks = workload.blocks("timed")
        for _ in range(workload.traced_blocks):
            for item in next(blocks):
                _, out, error = run_op(workload, api, item)
                recorder.flush()
                tally.record(workload, item, out, error)
    finally:
        tracer.unpatch(undo)
    totals = recorder.totals()
    metrics = {name: (value, harness.PER_LAYER[name][0]) for name, value in harness.layer_metrics(totals).items()}

    # Tracing overhead: traced and untraced windows alternate, so both see
    # the same host.
    plain = harness.make_api(m)
    state = {"undo": []}

    def between(index, progress):
        tracer.unpatch(state["undo"])
        state["undo"] = []
        if index % 2 == 0:
            return plain
        # a fresh recorder per window bounds memory; counts are not kept
        fresh = tracer.SpanRecorder()
        state["undo"] = tracer.patch(m, workload.patches, fresh, {})
        return harness.make_api(m, fresh, {})

    overhead = Tally()
    try:
        windows, _ = timed_windows(
            workload, plain, workload.blocks("overhead"), seconds, overhead, Latencies(), between
        )
    finally:
        tracer.unpatch(state["undo"])
    untraced = rate(windows[0::2])
    traced = rate(windows[1::2]) if len(windows) > 1 else untraced
    probes = [harness.setup_sample(root, workload) for _ in range(5)]
    metrics.update({
        "import.pmodel_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "import.pmodel_cli_s": (statistics.median(p["cli_import_s"] for p in probes), "s"),
        "trace.untraced_ops_per_s": (untraced, "1/s"),
        "trace.traced_ops_per_s": (traced, "1/s"),
        "trace.slowdown": (untraced / traced if traced else 0.0, "ratio"),
    })
    shares = {}
    busy = sum(row["self_s"] for row in totals.values())
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        shares[name] = row["self_s"] / busy if busy else 0.0
    notes = [f"traced operations: {tally.attempted}; overhead windows: {len(windows)}"]
    notes += [f"self-time share {name}: {share:.3f}" for name, share in shares.items() if share]
    tally.merge(overhead)
    return tally, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    m = harness.import_program(root)
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = harness.WORKLOADS[args.workload](args.seed, workdir, os.path.join(root, "src", "pmodel", "corpus"))
        harness.setup_sample(root, workload)  # compiles bytecode; not counted
        measure = per_layer if args.trace else end_to_end
        tally, metrics, notes = measure(root, workload, m, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    if args.workload == "derive":
        for cls, count in sorted(tally.by_class.items(), key=lambda kv: str(kv[0])):
            print(f"  failed in class {cls}: {count} ({count / tally.attempted:.4f} of attempted)")
    for error in tally.errors:
        print(f"  unexpected failure: {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
