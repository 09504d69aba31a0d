"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload tpch-nested --seed 1 --seconds 10 \
        --trace 0

Every measurement happens in fresh child processes (``pcbench.child``),
so ``peak_rss_mb`` covers the cluster's worker processes and the
children's stderr can be searched for tracebacks.  Set-up is sampled
three times, each in its own process, and reported as the median; the
third process goes on to measure.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate, traced run (see
``pcbench/layers.py``).  A line before it (``{"info": ...}``) records the
seed, input sizes, transport, worker count, host and versions.  Full
results, child stderr and the traced run's Chrome trace go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("tpch-nested", "lineitem-columnar", "linalg-blocks",
             "ingest-spill")
SETUP_SAMPLES = 3
#: Each run must end within 180 s; leave room for teardown.
DEADLINE_S = 170.0
TRACEBACK = "Traceback (most recent call last)"
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")
_MIB = float(1 << 20)


class ChildFailed(RuntimeError):
    pass


def _group_alive(pgid):
    """Whether any not-yet-exited process remains in process group pgid."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
        # fields[0] is the state, fields[2] the process group id.
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            return True
    return False


def _reap_group(pgid, grace_s=5.0):
    """Wait until every process of the child's group has ended."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


def run_child(args, env, timeout, log):
    """Run ``pcbench.child`` with ``args``; returns (result, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcbench.child"] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise ChildFailed("child timed out after %.0f s" % timeout)
    finally:
        _reap_group(proc.pid)
    log.write("$ pcbench.child %s\n%s\n" % (" ".join(args), err))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("child exited with %s:\n%s"
                          % (proc.returncode, err[-4000:]))
    return json.loads(lines[-1]), err


def _own_peak_rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def _source_digest():
    """SHA-256 over the program's source tree (the checkout may not be a
    git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("no program to measure: %s/repro is missing" % SRC,
              file=sys.stderr)
        return 2

    started = time.monotonic()
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    scratch = os.path.join(OUT, "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([HERE, SRC])
    # Spill files, catalog journals and other temporaries stay inside
    # the checkout.
    env["TMPDIR"] = scratch
    # One BLAS thread: with two CPUs shared with other work, a threaded
    # matrix product waits on whichever CPU is slowed, which made
    # linalg-blocks runs differ by 2x.  The 4 simulated workers run in
    # one process either way.
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        with open(os.path.join(OUT, stem + ".stderr.log"), "w") as log:
            for _sample in range(SETUP_SAMPLES - 1):
                result, _err = run_child(
                    common + ["--phase", "setup"], env,
                    DEADLINE_S - (time.monotonic() - started), log)
                setups.append(result["setup_s"])
            result, err = run_child(
                common + ["--phase", "run", "--trace-out",
                          os.path.join(OUT, stem + ".chrome.json")],
                env, DEADLINE_S - (time.monotonic() - started), log)
    except ChildFailed as failure:
        print(str(failure), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(result["setup_s"])
    tracebacks = err.count(TRACEBACK)

    if args.trace:
        metrics = result["per_layer"]
        metrics["cluster.stderr_tracebacks"] = {"value": tracebacks,
                                                "unit": "count"}
    else:
        e2e = result["end_to_end"]
        peak = (result["peak_rss_bytes"] + _own_peak_rss()) / _MIB
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": e2e["run_s"], "unit": "s"},
            "job_p50_s": {"value": e2e["job_p50_s"], "unit": "s"},
            "job_p90_s": {"value": e2e["job_p90_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": result["sizes"], "transport": result["transport"],
        "n_workers": result["n_workers"], "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": result["numpy"],
        "commit": _commit(), "source_sha256": _source_digest(),
        "jobs": result["jobs"], "job_types": result["job_types"],
        "setup_samples_s": setups, "stderr_tracebacks": tracebacks,
        "setup_raw_s": result["setup_raw_s"], "blas_threads": 1,
    }
    for key in ("rounds", "p50_type", "p90_type", "traced_jobs", "raw"):
        if key in result:
            info[key] = result[key]
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    with open(os.path.join(OUT, stem + ".json"), "w") as handle:
        json.dump({"info": info, **final}, handle, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
