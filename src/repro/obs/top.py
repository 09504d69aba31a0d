"""``pc top``: a live console over a running cluster.

``python -m repro.obs.top`` is the operator's first look at a cluster:
one line per worker showing liveness (the Supervisor's ALIVE / SUSPECT /
DEAD verdict), the back-end pid, the task it is executing right now, its
consumption rate (rows/sec, differentiated from the heartbeat slot's
rows counter between samples), buffer-pool residency, and how many times
the back-end was re-forked.  Everything it shows is read from state the
runtime already publishes — heartbeat slots via ``Supervisor.vitals``
and the metrics registry via ``cluster.metrics()`` — so watching costs
the cluster nothing.

The module is importable without a cluster: :class:`ClusterTop` takes
any object with ``workers`` and a ``transport`` (whose supervisor may be
None on the simulated transport, where liveness is definitionally
ALIVE).  ``main()`` spins up a small demo cluster on the process
transport, runs a job in the background, and renders a bounded number of
frames — a smoke-testable stand-in for an interactive session.
"""

from __future__ import annotations

import time

_STATE_ORDER = {"alive": 0, "suspect": 1, "dead": 2}


class WorkerSample:
    """One worker's row in a frame."""

    __slots__ = ("worker_id", "state", "pid", "task_id", "rows",
                 "rows_per_s", "pool_bytes", "pool_capacity", "reforks")

    def __init__(self, worker_id, state, pid, task_id, rows, rows_per_s,
                 pool_bytes, pool_capacity, reforks):
        self.worker_id = worker_id
        self.state = state
        self.pid = pid
        self.task_id = task_id
        self.rows = rows
        self.rows_per_s = rows_per_s
        self.pool_bytes = pool_bytes
        self.pool_capacity = pool_capacity
        self.reforks = reforks


class ClusterTop:
    """Samples and renders per-worker liveness and throughput."""

    def __init__(self, cluster, clock=time.monotonic):
        self.cluster = cluster
        self.clock = clock
        self._last_rows = {}  # worker_id -> (sample time, rows)

    def sample(self):
        """One frame: a list of :class:`WorkerSample`, one per worker."""
        supervisor = getattr(self.cluster.transport, "supervisor", None)
        now = self.clock()
        frame = []
        for worker in self.cluster.workers:
            state, pid, task_id, rows = "alive", None, 0, 0
            if supervisor is not None:
                vitals = supervisor.vitals(worker.worker_id)
                if vitals is not None:
                    state = vitals.state
                    pid, task_id, rows = vitals.pid, vitals.task_id, \
                        vitals.rows
            if pid is None:
                pid = getattr(worker.backend, "child_pid", None)
            last = self._last_rows.get(worker.worker_id)
            rate = 0.0
            if last is not None and now > last[0] and rows >= last[1]:
                rate = (rows - last[1]) / (now - last[0])
            self._last_rows[worker.worker_id] = (now, rows)
            pool = worker.storage.pool
            frame.append(WorkerSample(
                worker.worker_id, state, pid, task_id, rows, rate,
                pool.in_memory_bytes, pool.capacity_bytes,
                worker.refork_count,
            ))
        frame.sort(key=lambda sample: (-_STATE_ORDER.get(sample.state, 0),
                                       sample.worker_id))
        return frame

    def render(self, frame=None):
        """The frame as terminal-ready text (header + one row/worker)."""
        if frame is None:
            frame = self.sample()
        lines = [
            "%-10s %-8s %8s %6s %12s %12s %14s %7s"
            % ("WORKER", "STATE", "PID", "TASK", "ROWS", "ROWS/S",
               "POOL", "REFORK")
        ]
        for sample in frame:
            residency = "--"
            if sample.pool_capacity:
                residency = "%s/%s" % (
                    _human_bytes(sample.pool_bytes),
                    _human_bytes(sample.pool_capacity),
                )
            lines.append(
                "%-10s %-8s %8s %6s %12d %12.0f %14s %7d"
                % (
                    sample.worker_id,
                    sample.state.upper(),
                    sample.pid if sample.pid else "-",
                    sample.task_id or "-",
                    sample.rows,
                    sample.rows_per_s,
                    residency,
                    sample.reforks,
                )
            )
        return "\n".join(lines)


def _human_bytes(count):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return ("%d%s" if unit == "B" else "%.1f%s") % (count, unit)
        count /= 1024.0
    return "%dB" % count  # pragma: no cover - loop always returns


def main(argv=None):
    """Watch a demo cluster: bounded frames, suitable for smoke tests.

    Real deployments would point this at a long-lived job service
    (ROADMAP item 3); until then it demonstrates the console against a
    local process-transport cluster executing a TPC-H-shaped job.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live per-worker console for a repro cluster.",
    )
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--frames", type=int, default=5,
                        help="frames to render before exiting")
    parser.add_argument("--interval", type=float, default=0.2,
                        help="seconds between frames")
    parser.add_argument("--transport", default="process",
                        choices=("sim", "process"))
    options = parser.parse_args(argv)

    # Imported lazily: repro.cluster imports repro.obs at module load,
    # so a module-level import here would be circular.
    import threading

    from repro.cluster import PCCluster
    from repro.tpch import TpchSpec, customers_per_supplier_pc, \
        load_pc_customers

    cluster = PCCluster(n_workers=options.workers,
                        transport=options.transport)
    try:
        load_pc_customers(cluster, TpchSpec(n_customers=60, n_parts=40,
                                            n_suppliers=8, seed=9))
        stop_at = time.monotonic() + options.frames * options.interval

        def churn():
            while time.monotonic() < stop_at:
                customers_per_supplier_pc(cluster)

        job = threading.Thread(target=churn, daemon=True)
        job.start()
        top = ClusterTop(cluster)
        for frame in range(options.frames):
            print("frame %d/%d" % (frame + 1, options.frames))
            print(top.render())
            print()
            if frame + 1 < options.frames:
                time.sleep(options.interval)
        job.join(timeout=30)
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
