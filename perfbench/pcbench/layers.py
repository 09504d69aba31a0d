"""The layer account: what the traced run wraps and how it reports it.

Layers are named after the program's modules: ``tcap`` (compile,
optimize, verify, plan), ``cluster`` (scheduler stages, task dispatch,
task pickling, awaiting back-end processes, client loads and reads),
``engine`` (task bodies, scans, kernels, aggregation merge), ``memory``
(the allocator and page byte copies), ``storage`` (page checksums and
buffer-pool pins) and ``catalog`` (the write-ahead journal).

Every ``*_s`` metric is *self* time in seconds: a span's duration minus
the wrapped calls nested inside it, so the per-layer seconds plus the
unaccounted remainder add up to the traced rounds' wall time.  Counts
and seconds are totals over the traced rounds, whose number is fixed per
workload.  Work that runs inside process-transport back-ends is not
visible to the wrappers; it is read from the job trace (remote task
spans, added to ``engine.run_s``) and from ``cluster.metrics()`` deltas.
"""

from __future__ import annotations

import statistics

import numpy as np

from pcbench.trace import Target, self_times


def _bytes_of_result(name):
    def observe(rec, args, result):
        rec.tally(name, bytes=len(result))
    return observe


def _crc_bytes(rec, args, result):
    rec.tally("storage.crc", bytes=len(args[0]))


def _kernel_rows(batch_index):
    # Kernels run only for columnar-marked operators; None means the
    # batch fell back to the per-row path.
    def observe(rec, args, result):
        rows = len(args[batch_index])
        if result is None:
            rec.tally("engine.kernel", fallback_rows=rows)
        else:
            rec.tally("engine.kernel", kernel_rows=rows)
    return observe


def _aggregate_rows(rec, args, result):
    sink, batch = args[0], args[1]
    statement = sink.statement
    if statement.info.get("columnar") != "1":
        return
    if not (isinstance(batch.column(statement.key_column), np.ndarray)
            and isinstance(batch.column(statement.value_column),
                           np.ndarray)):
        rec.tally("engine.kernel", fallback_rows=len(batch))


TARGETS = [
    Target("tcap.compile", "repro.tcap.compiler:compile_computations"),
    Target("tcap.optimize", "repro.tcap.optimizer:optimize"),
    Target("tcap.optimize", "repro.tcap.optimizer.columnar:mark_columnar"),
    Target("tcap.verify", "repro.tcap.verify:verify_program"),
    Target("tcap.plan", "repro.engine.physical:plan_pipelines"),
    Target("cluster.stage",
           "repro.cluster.scheduler:DistributedScheduler.execute"),
    Target("cluster.dispatch", "repro.cluster.worker:WorkerNode.submit"),
    Target("cluster.await", "repro.cluster.worker:WorkerNode.await_result"),
    Target("cluster.pickle", "repro.cluster.transport:serialize_task",
           observe=_bytes_of_result("cluster.pickle")),
    Target("cluster.read", "repro.cluster.cluster:PCCluster.read"),
    Target("cluster.load", "repro.cluster.cluster:ClusterLoader.append"),
    Target("cluster.load",
           "repro.cluster.cluster:ClusterLoader.append_built"),
    Target("cluster.load", "repro.cluster.cluster:ClusterLoader.flush"),
    Target("cluster.load",
           "repro.cluster.cluster:ColumnarClusterLoader.append_columns"),
    Target("cluster.load",
           "repro.cluster.cluster:ColumnarClusterLoader.flush"),
    Target("engine.run", "repro.cluster.worker:BackendProcess.run_user_code"),
    Target("engine.scan", "repro.engine.pipeline:object_batches"),
    Target("engine.kernel", "repro.engine.kernels:apply_kernel",
           observe=_kernel_rows(2)),
    Target("engine.kernel", "repro.engine.kernels:filter_kernel",
           observe=_kernel_rows(1)),
    Target("engine.agg_merge", "repro.engine.pipeline:AggregateSink.consume",
           observe=_aggregate_rows),
    Target("engine.agg_merge", "repro.engine.pipeline:AggregateSink.finish"),
    Target("memory.alloc", "repro.memory.block:AllocationBlock.allocate",
           leaf=True),
    Target("memory.free", "repro.memory.block:AllocationBlock.free_object",
           leaf=True),
    Target("memory.to_bytes", "repro.memory.block:AllocationBlock.to_bytes",
           observe=_bytes_of_result("memory.to_bytes")),
    Target("memory.from_bytes",
           "repro.memory.block:AllocationBlock.from_bytes"),
    Target("storage.crc", "repro.storage.replication:page_checksum",
           observe=_crc_bytes),
    Target("storage.pin", "repro.storage.buffer_pool:BufferPool.pin"),
    Target("catalog.wal", "repro.catalog.catalog:CatalogJournal.append"),
]

#: ``cluster.metrics()`` counters whose deltas over the traced rounds
#: feed the account (they include work replayed from back-end processes).
PROGRAM_COUNTERS = {
    "rows": "pc_engine_rows_in_total",
    "kernel_rows": "pc_engine_columnar_rows_total",
    "spills": "pc_pool_spills_total",
    "reloads": "pc_pool_reloads_total",
    "replica_writes": "pc_repl_replica_writes_total",
    "failover_reads": "pc_repl_failover_reads_total",
    "repl_checksum_failures": "pc_repl_checksum_failures_total",
    "pool_checksum_failures": "pc_pool_checksum_failures_total",
}

#: name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "tcap.compile_s": "s", "tcap.optimize_s": "s", "tcap.verify_s": "s",
    "tcap.plan_s": "s", "tcap.jobs": "count",
    "cluster.stage_s": "s", "cluster.tasks": "count",
    "cluster.tasks_shipped": "count", "cluster.ship_ratio": "ratio",
    "cluster.pickle_s": "s", "cluster.pickle_bytes": "bytes",
    "cluster.await_s": "s", "cluster.task_retries": "count",
    "cluster.shuffle_bytes": "bytes", "cluster.shuffle_msgs": "count",
    "cluster.stderr_tracebacks": "count", "cluster.read_s": "s",
    "cluster.load_s": "s",
    "engine.run_s": "s", "engine.scan_s": "s", "engine.kernel_s": "s",
    "engine.agg_merge_s": "s", "engine.rows": "count",
    "engine.kernel_rows": "count", "engine.kernel_share": "ratio",
    "memory.allocs": "count", "memory.alloc_s": "s", "memory.frees": "count",
    "memory.to_bytes_calls": "count", "memory.to_bytes_mb": "MB",
    "memory.to_bytes_s": "s", "memory.from_bytes_calls": "count",
    "memory.from_bytes_s": "s",
    "storage.crc_calls": "count", "storage.crc_mb": "MB",
    "storage.crc_s": "s", "storage.pins": "count", "storage.pin_s": "s",
    "storage.spills": "count", "storage.reloads": "count",
    "storage.pool_hit_ratio": "ratio", "storage.replica_writes": "count",
    "storage.failover_reads": "count", "storage.checksum_failures": "count",
    "catalog.wal_appends": "count", "catalog.wal_s": "s",
    "obs.trace_overhead": "ratio", "obs.unaccounted_share": "ratio",
}

_MB = float(1 << 20)


class JobHarvest:
    """What the program's own job traces add to the account."""

    def __init__(self):
        self.shuffle_bytes = 0
        self.shuffle_msgs = 0
        self.retries = 0
        #: rows entering columnar-marked apply/filter operators in
        #: back-end processes, and all apply/filter kernel rows
        self.remote_marked_rows = 0
        self.apply_filter_kernel_rows = 0

    def add(self, trace, program, recorder):
        """Fold one finished job's trace into the account.

        Remote task spans (recorded in back-end processes, already moved
        onto this process's clock by the scheduler) become remote spans
        of ``recorder``.  Their operator spans give the rows that entered
        columnar-marked operators in the back-end.
        """
        totals = trace.totals()
        self.shuffle_bytes += totals.get("net.bytes_total", 0)
        self.shuffle_msgs += totals.get("net.messages", 0)
        self.retries += totals.get("retry.count", 0)
        self.apply_filter_kernel_rows += (
            totals.get("op.apply.columnar_rows", 0)
            + totals.get("op.filter.columnar_rows", 0)
        )
        marked_kinds = set()
        for statement in getattr(program, "statements", ()):
            if statement.info.get("columnar") == "1":
                marked_kinds.add(
                    type(statement).__name__.lower().replace("stmt", "")
                )
        for span in trace.root.walk():
            if span.pid is None:
                continue
            if span.kind == "task":
                recorder.add_remote("engine.remote", span.start,
                                    span.start + span.duration_s, span.pid)
            elif span.kind == "op" and span.name in marked_kinds:
                self.remote_marked_rows += span.counters.get("op.rows_in", 0)


def counter_values(snapshot):
    return {key: snapshot.value(name) for key, name in
            PROGRAM_COUNTERS.items()}


def per_layer_metrics(recorder, harvest, counters, traced_rounds,
                      untraced_rounds, traced_raw_s, speed_factor):
    """Every per-layer metric the traced process can see.

    ``cluster.stderr_tracebacks`` is left to the parent process, which
    holds this process's stderr.

    ``counters`` are program-counter deltas over the traced rounds;
    ``traced_rounds`` and ``untraced_rounds`` are the normalized seconds
    of each round run with and without the wrappers, ``traced_raw_s``
    the traced rounds' total wall seconds, and every reported span time
    is divided by ``speed_factor`` (see :mod:`pcbench.speed`).
    """
    remote = recorder.remote
    own_raw = self_times(recorder.spans)
    own = {name: value / speed_factor for name, value in own_raw.items()}
    tally = recorder.tallies

    def seconds(*names):
        return sum(own.get(name, 0.0) for name in names)

    def calls(name, key="calls"):
        value = tally.get(name, {}).get(key, 0)
        return value / speed_factor if key == "seconds" else value

    remote_s = sum(s.end - s.start for s in remote) / speed_factor
    tasks = calls("cluster.dispatch")
    shipped = len(remote)
    pins = calls("storage.pin")
    kernel_rows = counters["kernel_rows"]
    # Rows that entered a columnar-marked operator but ran per row.  In
    # back-end processes only apply/filter entries are visible: their
    # operator spans' rows minus the kernel rows that ran there.
    remote_kernel_rows = (harvest.apply_filter_kernel_rows
                          - calls("engine.kernel", "kernel_rows"))
    fallback = calls("engine.kernel", "fallback_rows") + max(
        0, harvest.remote_marked_rows - remote_kernel_rows)
    marked = kernel_rows + fallback
    leaf_raw_s = sum(tally.get(name, {}).get("seconds", 0)
                     for name in ("memory.alloc", "memory.free"))
    # Self times partition the wrapped calls' coverage of the rounds;
    # leaf (allocator) time is subtracted from its parent's self time.
    accounted_raw_s = sum(own_raw.values()) + leaf_raw_s
    overhead = (statistics.median(traced_rounds)
                / statistics.median(untraced_rounds) - 1.0)
    values = {
        "tcap.compile_s": seconds("tcap.compile"),
        "tcap.optimize_s": seconds("tcap.optimize"),
        "tcap.verify_s": seconds("tcap.verify"),
        "tcap.plan_s": seconds("tcap.plan"),
        "tcap.jobs": calls("tcap.compile"),
        "cluster.stage_s": seconds("cluster.stage", "cluster.dispatch"),
        "cluster.tasks": tasks,
        "cluster.tasks_shipped": shipped,
        "cluster.ship_ratio": shipped / tasks if tasks else 0.0,
        "cluster.pickle_s": seconds("cluster.pickle"),
        "cluster.pickle_bytes": calls("cluster.pickle", "bytes"),
        "cluster.await_s": seconds("cluster.await"),
        "cluster.task_retries": harvest.retries,
        "cluster.shuffle_bytes": harvest.shuffle_bytes,
        "cluster.shuffle_msgs": harvest.shuffle_msgs,
        "cluster.read_s": seconds("cluster.read"),
        "cluster.load_s": seconds("cluster.load"),
        "engine.run_s": seconds("engine.run") + remote_s,
        "engine.scan_s": seconds("engine.scan"),
        "engine.kernel_s": seconds("engine.kernel"),
        "engine.agg_merge_s": seconds("engine.agg_merge"),
        "engine.rows": counters["rows"],
        "engine.kernel_rows": kernel_rows,
        "engine.kernel_share": kernel_rows / marked if marked else 0.0,
        "memory.allocs": calls("memory.alloc"),
        "memory.alloc_s": calls("memory.alloc", "seconds"),
        "memory.frees": calls("memory.free"),
        "memory.to_bytes_calls": calls("memory.to_bytes"),
        "memory.to_bytes_mb": calls("memory.to_bytes", "bytes") / _MB,
        "memory.to_bytes_s": seconds("memory.to_bytes"),
        "memory.from_bytes_calls": calls("memory.from_bytes"),
        "memory.from_bytes_s": seconds("memory.from_bytes"),
        "storage.crc_calls": calls("storage.crc"),
        "storage.crc_mb": calls("storage.crc", "bytes") / _MB,
        "storage.crc_s": seconds("storage.crc"),
        "storage.pins": pins,
        "storage.pin_s": seconds("storage.pin"),
        "storage.spills": counters["spills"],
        "storage.reloads": counters["reloads"],
        "storage.pool_hit_ratio": (1.0 - counters["reloads"] / pins
                                   if pins else 1.0),
        "storage.replica_writes": counters["replica_writes"],
        "storage.failover_reads": counters["failover_reads"],
        "storage.checksum_failures": (counters["repl_checksum_failures"]
                                      + counters["pool_checksum_failures"]),
        "catalog.wal_appends": calls("catalog.wal"),
        "catalog.wal_s": seconds("catalog.wal"),
        "obs.trace_overhead": overhead,
        "obs.unaccounted_share": 1.0 - accounted_raw_s / traced_raw_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items() if name in values}
