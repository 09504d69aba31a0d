"""The task loop of a process-backed worker back-end.

This module is the *child* side of :class:`~repro.cluster.transport.
ProcessTransport`: it runs in a spawned OS process and executes one task
at a time off a queue.  A task arrives fully described — the compiled
program, the stage list, the source (shared-memory page names or plain
columns), the sink kind — so the child needs none of the coordinator's
cluster machinery; it deliberately imports only the engine and memory
layers.

Sealed pages are attached zero-copy: the coordinator exports each page's
``multiprocessing.shared_memory`` segment name, the child attaches by
name and wraps the mapped bytes in an
:meth:`~repro.memory.block.AllocationBlock.from_buffer` view — the
paper's "a page moves between processes with zero (de)serialization",
for real this time.

Results travel back as plain Python values plus the engine-metric and
trace-counter deltas the coordinator replays into its shadow engine.  A
task whose result would carry PC objects (handles/facades pointing into
page memory) is *rejected*, not failed: the coordinator re-runs that
portion inline.

Since PR 9 the child runs a real :class:`~repro.obs.Tracer` (DESIGN
§14): every task executes inside a ``task`` span that adopts the
coordinator's trace context (``spec["trace_ctx"]``), each TCAP operator
gets one coalesced ``op`` span (first batch to last), and the finished
span batch ships back inside the result envelope — or, on failure,
inside the *error* envelope with the spans marked ``truncated``, so a
retry never loses the counters the attempt accumulated.  A
:class:`~repro.obs.FlightRecorder` writing a parent-allocated shared
ring keeps the last-N structured events readable even after a SIGKILL.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback

from multiprocessing import shared_memory

from repro.engine import kernels
from repro.engine.pipeline import (
    AggregateSink,
    HashBuildSink,
    MaterializeSink,
    PipelineEngine,
    object_batches,
)
from repro.engine.vectors import batches_of
from repro.memory.block import AllocationBlock
from repro.memory.builtins import AnyObject, VectorType
from repro.memory.columnar import ColumnarPage
from repro.obs.events import FlightRecorder
from repro.obs.tracer import Span, Tracer

_ROOT_VECTOR = VectorType(AnyObject)

#: Live progress of the task loop, published by the heartbeat thread.
#: Plain dict writes are atomic under the GIL, so the task loop updates
#: it lock-free and the beat thread reads whatever is current.
_progress = {"task": 0, "rows": 0}

#: The in-flight task's tracer/engine, kept module-level so the main
#: loop's error path can harvest partial spans and counter deltas after
#: ``_execute`` unwound (the satellite fix: deltas accumulated before an
#: exception must ship in the error envelope).
_task_state = {}


def _beat_loop(slot, interval):
    """Publish liveness + progress into the shared heartbeat slot.

    Runs as a daemon thread so it dies with the process — and, more
    importantly, *freezes* with it: a SIGSTOP suspends every thread, so
    the beat sequence stops advancing exactly while the worker cannot
    make progress.  The master's Supervisor reads staleness off this
    slot (see :mod:`repro.cluster.supervisor` for the field layout).
    """
    pid = os.getpid()
    seq = 0
    while True:
        seq += 1
        slot[0] = float(seq)  # BEAT_SEQ
        slot[2] = float(pid)  # BEAT_PID
        slot[3] = float(_progress["task"])  # BEAT_TASK
        slot[4] = float(_progress["rows"])  # BEAT_ROWS
        # The timestamp is written last: a torn read can at worst pair a
        # fresh timestamp with one-beat-old progress, never a stale
        # timestamp with fresh progress (which would delay detection).
        slot[1] = time.monotonic()  # BEAT_TIME
        time.sleep(interval)


class _TaskRejected(Exception):
    """The task cannot run (or return) remotely; run it inline instead."""


class _PlanStub:
    """The one slice of the physical plan the engine consults."""

    def __init__(self, build_sides):
        self.build_sides = build_sides


class _OpSpanRecorder:
    """Coalesces operator applications into one ``op`` span per operator.

    Plugs into :class:`PipelineEngine`'s profiler seam, so it sees every
    TCAP operator application on both the collect and the sink paths.  A
    task applies each operator once per batch; a span per application
    would explode the trace, so the span for an operator covers its
    first application through its latest one, with per-batch row counts
    accumulated on the span.  Spans attach directly to the task's root
    span (never the tracer stack: coalesced ops overlap in time).
    """

    def __init__(self, root):
        self._root = root
        self._ops = {}

    def operator(self, name, fn, stage, batch):
        span = self._ops.get(name)
        if span is None:
            span = Span(name, kind="op")
            span.pid = self._root.pid
            span.parent_id = self._root.span_id
            self._ops[name] = span
            self._root.children.append(span)
        span.inc("op.rows_in", len(batch))
        result = fn(stage, batch)
        span.end = time.monotonic()
        if result is not None:
            span.inc("op.rows_out", len(result))
        return result

    def note_columnar_rows(self, name, rows):
        """Book array-kernel rows where the coordinator's replay reads.

        With a profiler set, the engine routes columnar row counts here
        instead of its tracer fallback.  They go on the task *root*
        span, whose direct counters ship flat in the ``"trace"`` delta —
        the channel ``_apply_remote_deltas`` re-books its
        ``pc_op_columnar_rows_total`` series from.  Putting them on the
        op span instead would strand them (replay only reads the flat
        dict) and double-count once the span tree is grafted.
        """
        self._root.inc("op.%s.columnar_rows" % name, rows)


class _StagesView:
    """Adapter giving a bare stage list the Pipeline interface."""

    def __init__(self, stages):
        self.stages = stages


#: (shm, view) pairs whose buffers were still referenced at detach time
#: (e.g. numpy views created by user stages); re-tried after later tasks.
_lingering = []


def _detach(attachments):
    for pair in attachments + _lingering[:]:
        shm, view = pair
        try:
            view.release()
        except BufferError:
            if pair not in _lingering:
                _lingering.append(pair)
            continue
        try:
            shm.close()
        except BufferError:  # pragma: no cover  # pcsan: disable=PC005
            continue  # view released above, so close() cannot raise this
        if pair in _lingering:
            _lingering.remove(pair)


def _page_objects(blocks):
    """Yield every object (or columnar row batch) of the attached blocks.

    Columnar pages yield one :class:`ColumnarRows` per page — downstream
    ``object_batches`` slices or expands it depending on whether the scan
    was columnar-lowered; row pages yield their root-vector handles.
    """
    for block in blocks:
        colpage = ColumnarPage.attach(block)
        if colpage is not None:
            yield colpage.rows()
            continue
        offset, _code = block.root()
        if offset is None:
            continue
        for handle in _ROOT_VECTOR.facade(block, offset):
            yield handle


def _source_batches(source, engine, registry, attachments):
    kind = source[0]
    if kind == "pages":
        blocks = []
        for name, size in source[1]:
            # Attaching re-registers the name with the resource tracker
            # this spawned child shares with the coordinator: a no-op,
            # the create registered it.  The coordinator's unlink is the
            # only unregister; a second one from here makes the tracker
            # raise KeyError.
            shm = shared_memory.SharedMemory(name=name)
            # shm.buf is the mapped segment, not a PC block's
            # backing store; the block façade is built over it below.
            view = memoryview(shm.buf)[:size]  # pcsan: disable=PC002
            attachments.append((shm, view))
            blocks.append(AllocationBlock.from_buffer(view, registry=registry))
        columnar = len(source) > 3 and bool(source[3])
        return object_batches(
            _page_objects(blocks), source[2], engine.batch_size,
            columnar=columnar,
        )
    return batches_of(source[1], engine.batch_size)


def _build_sink(engine, sink_spec):
    kind = sink_spec[0]
    if kind == "aggregate":
        # merge semantics apply against the coordinator's store, so the
        # child always builds plain groups; the coordinator's sink
        # merges on install.
        return AggregateSink(engine, sink_spec[1])
    if kind == "hash_build":
        return HashBuildSink(engine, sink_spec[1])
    if kind == "materialize":
        return MaterializeSink(engine, sink_spec[1])
    raise _TaskRejected("unknown sink kind %r" % (kind,))


def _run_collect(engine, stages, batches, tracer):
    """Mirror of the scheduler's inline collect loop, counters included."""
    columns = None
    for batch in batches:
        engine.metrics.batches += 1
        engine.metrics.rows_in += len(batch)
        _progress["rows"] += len(batch)
        tracer.add("engine.batches")
        tracer.add("engine.rows_in", len(batch))
        current = batch
        empty = False
        for stage in stages:
            engine.metrics.stage_invocations += 1
            current = engine._apply_stage(stage, current)
            if len(current) == 0:
                empty = True
                break
        if empty:
            continue
        tracer.add("engine.rows_out", len(current))
        if columns is None:
            columns = {name: [] for name in current.names()}
        for name in columns:
            # Array-backed columns must leave as plain Python values
            # (picklable, and free of page-memory references).
            columns[name].extend(
                kernels.reify_column(current.column(name))
            )
    return columns


def _reject_pc_values(value, depth=0):
    """Refuse to ship results still pointing into page memory."""
    if hasattr(value, "pc_block") or hasattr(value, "deref"):
        raise _TaskRejected(
            "result holds PC objects; page-backed values cannot leave "
            "the back-end process"
        )
    if depth >= 4 or value is None:
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_pc_values(key, depth + 1)
            _reject_pc_values(item, depth + 1)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _reject_pc_values(item, depth + 1)


def _pack_deltas(engine, root, events):
    """The shipping form of one task's evidence (result or error leg).

    The root span's *direct* counters travel flat in ``"trace"`` — the
    coordinator replays them with ``tracer.add`` onto its own open task
    span, exactly as the counter-only protocol did — and are emptied off
    the shipped span tree so grafting cannot double-count them.  The op
    spans keep their own counters; they exist only remotely.  Spans
    serialize relative to the root's start, with the root's absolute
    ``time.monotonic()`` carried once as ``"span_base"`` for the
    coordinator's clock-offset shift.
    """
    trace_counts = dict(root.counters)
    root.counters = {}
    return {
        "metrics": engine.metrics.as_dict() if engine is not None else {},
        "trace": trace_counts,
        "spans": [root.to_dict()],
        "span_base": root.start,
        "events": events,
        "pid": os.getpid(),
    }


def _failure_deltas(recorder):
    """Harvest whatever the failed task accumulated before it blew up.

    ``_execute`` registered its tracer/engine in ``_task_state`` before
    running; by the time we get here the task span has been closed by
    the context-manager unwind (or is force-closed via ``abandon`` if
    the failure skipped the unwind), so the evidence is complete as far
    as it goes — it is marked ``truncated`` because the task did not
    finish, not because the spans are malformed.  Returns None when the
    failure precedes any execution state (e.g. a spec unpickle error).
    """
    tracer = _task_state.get("tracer")
    if tracer is None:
        return None
    trace = tracer.abandon() or tracer.last_trace
    if trace is None:
        return None
    root = trace.root
    for span in root.walk():
        span.truncated = True
    events = []
    if recorder is not None:
        events = recorder.snapshot(_task_state.get("events_since", 0))
    return _pack_deltas(_task_state.get("engine"), root, events)


def _execute(spec, task_id=0, recorder=None):
    tracer = Tracer()
    context = spec.get("trace_ctx") or {}
    if context.get("trace_id"):
        tracer.trace_id = context["trace_id"]
    with tracer.span("task-%d" % task_id, kind="task") as root:
        root.pid = os.getpid()
        root.parent_id = context.get("parent_span_id")
        engine = PipelineEngine(
            spec["program"], _PlanStub(spec["build_sides"]), None,
            batch_size=spec["batch_size"], tracer=tracer,
            profiler=_OpSpanRecorder(root),
        )
        _task_state["tracer"] = tracer
        _task_state["engine"] = engine
        engine.hash_tables.update(spec["hash_tables"])
        attachments = []
        try:
            batches = _source_batches(
                spec["source"], engine, spec["registry"], attachments
            )
            stages = spec["stages"]
            sink_spec = spec["sink"]
            kind = sink_spec[0]
            if kind == "collect":
                result = _run_collect(engine, stages, batches, tracer)
            else:
                sink = _build_sink(engine, sink_spec)
                view = _StagesView(stages)
                for batch in batches:
                    engine.metrics.batches += 1
                    engine.metrics.rows_in += len(batch)
                    _progress["rows"] += len(batch)
                    engine._process_batch(view, batch, sink)
                if kind == "aggregate":
                    result = (list(sink.groups.keys()),
                              list(sink.groups.values()))
                elif kind == "hash_build":
                    result = sink.table
                else:
                    result = sink.columns
            _reject_pc_values(result)
        finally:
            _detach(attachments)
    events = []
    if recorder is not None:
        events = recorder.snapshot(_task_state.get("events_since", 0))
    deltas = _pack_deltas(engine, root, events)
    return result, deltas


def backend_main(task_queue, result_queue, heartbeat=None,
                 beat_interval=0.05, flight=None):
    """The back-end process's main loop: one task at a time, until None.

    With a ``heartbeat`` slot (a shared ``Array('d', 5)``), a daemon
    thread publishes liveness + progress every ``beat_interval`` seconds
    for the master-side Supervisor; without one the loop behaves exactly
    as before (foreign callers, heartbeat-less tests).  ``flight`` is an
    optional parent-allocated shared byte ring: the child's flight
    recorder mirrors every event into it, so the master can read this
    process's last-N events even after a SIGKILL.
    """
    if heartbeat is not None:
        threading.Thread(
            target=_beat_loop, args=(heartbeat, beat_interval),
            name="pc-heartbeat", daemon=True,
        ).start()
    recorder = FlightRecorder(buffer=flight)
    while True:
        item = task_queue.get()
        if item is None:
            break
        task_id, blob = item
        _progress["task"] = task_id
        _progress["rows"] = 0
        _task_state.clear()
        _task_state["events_since"] = recorder.seq
        recorder.record("task.dispatch", task=task_id)
        try:
            try:
                spec = pickle.loads(blob)
                result, deltas = _execute(spec, task_id=task_id,
                                          recorder=recorder)
            except _TaskRejected as rejected:
                recorder.record("task.reject", task=task_id,
                                reason=str(rejected)[:120])
                result_queue.put((task_id, "reject", str(rejected)))
                continue
            except Exception:  # noqa: BLE001 - reported as a crash, parent re-forks
                recorder.record("task.error", task=task_id)
                # The error envelope carries the deltas accumulated
                # before the exception (spans marked truncated), so a
                # retry never loses this attempt's counters.
                result_queue.put((task_id, "error", {
                    "traceback": traceback.format_exc(limit=20),
                    "deltas": _failure_deltas(recorder),
                }))
                continue
            recorder.record("task.complete", task=task_id,
                            rows=_progress["rows"])
            try:
                payload = pickle.dumps((result, deltas))
            except Exception as exc:  # noqa: BLE001 - unshippable, not fatal
                result_queue.put(
                    (task_id, "reject", "unpicklable result: %s" % exc)
                )
                continue
            result_queue.put((task_id, "ok", payload))
        finally:
            _progress["task"] = 0
            _task_state.clear()
