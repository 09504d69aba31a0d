"""One measured run (or one set-up sample) in a fresh process.

Run by ``perfbench/run.py`` as ``python3 -m pcbench.child`` with the
program's ``src`` and ``perfbench`` on ``PYTHONPATH``.  Prints one JSON
object on its last stdout line.

``--phase setup`` builds the workload (cluster, inputs, load, references,
one warm-up job) and reports how long that took.  ``--phase run`` does
the same and then measures rounds: untraced until ``--seconds`` have
passed and at least :data:`MIN_JOBS` jobs ran (``--trace 0``), or a
fixed number of untraced and traced rounds, interleaved (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
import traceback

import numpy

from repro.obs.timeline import validate_chrome_trace

from pcbench import layers, speed
from pcbench.stats import percentile
from pcbench.trace import Recorder, install, to_chrome_trace
from pcbench.workloads import WORKLOADS

#: Every run issues at least this many jobs, so p90 has 10 samples
#: beyond it.
MIN_JOBS = 100
#: Untraced runs stop adding rounds after this long, whatever the
#: requested duration, so a run always ends inside its time limit.
MAX_MEASURE_S = 120.0


class JobLog:
    """Times every ``execute_computations`` call from outside."""

    def __init__(self, cluster):
        self.latencies = []
        self.labels = []
        self.label = None
        self.harvest = None  # a layers.JobHarvest while tracing
        self.recorder = None
        original = cluster.execute_computations

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - started)
                self.labels.append(self.label)
                if self.harvest is not None:
                    self.harvest.add(cluster.last_trace,
                                     cluster.last_program, self.recorder)

        cluster.execute_computations = timed


class Runner:
    """Runs a workload's rounds and keeps every timing.

    The speed probe (:mod:`pcbench.speed`) runs between operations, so
    each operation's wall time and the latencies of its jobs are divided
    by the factor of the probes just before and after it.  Only the
    operations themselves are timed; probes and output checks are not.
    """

    def __init__(self, workload):
        self.workload = workload
        self.jobs = JobLog(workload.cluster)
        self.attempted = 0
        self.failed = 0
        #: (raw seconds, normalized seconds, traced) per round
        self.rounds = []
        #: normalized latency of every job, in issue order
        self.latencies = []
        #: speed factor each job ran at
        self.factors = []
        self._last_probe = speed.probe()

    def round(self, traced=False):
        index = len(self.rounds)
        raw = normalized = 0.0
        for operation in self.workload.round(index):
            first = len(self.jobs.latencies)
            self.jobs.label = operation.label
            error = output = None
            started = time.perf_counter()
            try:
                output = operation.run()
            except Exception:  # noqa: BLE001 - counted as failed jobs
                error = traceback.format_exc()
            elapsed = time.perf_counter() - started
            probe = speed.probe()
            factor = speed.factor(self._last_probe, probe)
            self._last_probe = probe
            raw += elapsed
            normalized += elapsed / factor
            issued = self.jobs.latencies[first:]
            self.latencies.extend(v / factor for v in issued)
            self.factors.extend(factor for _ in issued)
            if error is None:
                try:
                    if not operation.check(output):
                        error = "output differs from the reference"
                except Exception:  # noqa: BLE001 - a broken output fails
                    error = traceback.format_exc()
            self.attempted += max(len(issued), 1 if error else 0)
            if error is not None:
                self.failed += max(len(issued), 1)
                print("round %d %s failed: %s"
                      % (index, operation.label, error), file=sys.stderr)
        self.rounds.append((raw, normalized, traced))

    def round_seconds(self, traced=False, normalized=True):
        return [r[1] if normalized else r[0]
                for r in self.rounds if r[2] == traced]


def peak_rss_bytes(pid):
    """Peak resident bytes of ``pid`` plus all its live descendants."""
    total = 0
    try:
        with open("/proc/%d/status" % pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) * 1024
        children = []
        for tid in os.listdir("/proc/%d/task" % pid):
            with open("/proc/%d/task/%s/children" % (pid, tid)) as handle:
                children.extend(int(c) for c in handle.read().split())
    except (FileNotFoundError, ProcessLookupError):
        return total  # exited while we looked
    return total + sum(peak_rss_bytes(child) for child in children)


def measure_untraced(runner, seconds):
    started = time.perf_counter()
    while True:
        runner.round()
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S:
            break
        if (elapsed >= seconds and len(runner.latencies) >= MIN_JOBS
                and len(runner.rounds) >= 3):
            break


def measure_traced(runner, out_path):
    """Interleave untraced and traced rounds until the traced ones issued
    :data:`MIN_JOBS` jobs; returns the per-layer metrics."""
    cluster = runner.workload.cluster
    jobs = runner.jobs
    recorder = Recorder()
    harvest = layers.JobHarvest()
    counters = dict.fromkeys(layers.PROGRAM_COUNTERS, 0)
    traced_jobs = 0
    traced_factors = []
    while traced_jobs < MIN_JOBS:
        runner.round()
        before_counts = layers.counter_values(cluster.metrics())
        first = len(jobs.latencies)
        installation = install(recorder, layers.TARGETS)
        jobs.harvest, jobs.recorder = harvest, recorder
        try:
            runner.round(traced=True)
        finally:
            jobs.harvest = jobs.recorder = None
            installation.remove()
        traced_jobs += len(jobs.latencies) - first
        traced_factors.extend(runner.factors[first:])
        after_counts = layers.counter_values(cluster.metrics())
        for key in counters:
            counters[key] += after_counts[key] - before_counts[key]
    payload = to_chrome_trace(recorder.spans, recorder.remote)
    problems = validate_chrome_trace(payload)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    for problem in problems:
        print("chrome trace: %s" % problem, file=sys.stderr)
    metrics = layers.per_layer_metrics(
        recorder, harvest, counters, runner.round_seconds(traced=True),
        runner.round_seconds(),
        sum(runner.round_seconds(traced=True, normalized=False)),
        statistics.median(traced_factors),
    )
    return metrics, traced_jobs, not problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    before = speed.probe()
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    sizes = workload.setup()
    sizes.update(workload.warm_up() or {})
    setup_raw_s = time.perf_counter() - started
    setup_factor = speed.factor(before, speed.probe())
    result = {"setup_s": setup_raw_s / setup_factor,
              "setup_raw_s": setup_raw_s, "sizes": sizes,
              "transport": workload.transport,
              "n_workers": workload.n_workers}
    if args.phase == "setup":
        workload.close()
        print(json.dumps(result))
        return 0

    runner = Runner(workload)
    labels = runner.jobs.labels
    correct = True
    if args.trace:
        per_layer, traced_jobs, correct = measure_traced(
            runner, args.trace_out
        )
        result["per_layer"] = per_layer
        result["traced_jobs"] = traced_jobs
    else:
        measure_untraced(runner, args.seconds)
        latencies = runner.latencies
        raw = runner.jobs.latencies
        result["end_to_end"] = {
            "run_s": statistics.median(runner.round_seconds()),
            "job_p50_s": percentile(latencies, 50),
            "job_p90_s": percentile(latencies, 90),
        }
        result["raw"] = {
            "run_s": statistics.median(
                runner.round_seconds(normalized=False)),
            "job_p50_s": percentile(raw, 50),
            "job_p90_s": percentile(raw, 90),
            "speed_factor_median": statistics.median(runner.factors),
        }
        result["rounds"] = len(runner.rounds)
        # Which job type each percentile fell in, to show it sits inside
        # one type rather than on a boundary between two.
        order = sorted(range(len(latencies)), key=latencies.__getitem__)
        result["p50_type"] = labels[order[len(order) // 2]]
        result["p90_type"] = labels[
            order[min(len(order) - 1, math.ceil(0.9 * len(order)) - 1)]]
    result["jobs"] = len(labels)
    result["job_types"] = sorted(set(labels))
    result["peak_rss_bytes"] = peak_rss_bytes(os.getpid())
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["correct"] = correct and runner.failed == 0
    result["numpy"] = numpy.__version__
    workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
