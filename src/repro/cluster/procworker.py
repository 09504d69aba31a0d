"""The task loop of a process-backed worker back-end.

This module is the *child* side of :class:`~repro.cluster.transport.
ProcessTransport`: it runs in a spawned OS process and executes one task
at a time off a queue.  A task arrives fully described — the compiled
program, the stage list, the source (shared-memory page names or plain
columns), and the sink's :meth:`~repro.engine.pipeline.Sink.ship_spec`
(the class and arguments that rebuild it here) — so the child needs none
of the coordinator's cluster machinery; it deliberately imports only the
engine and memory layers.  The portion runs through
:meth:`~repro.engine.pipeline.PipelineEngine.run_stages`, the same batch
loop an in-process back-end runs, so both transports book the same
engine counters.

Sealed pages are attached zero-copy: the coordinator exports each page's
``multiprocessing.shared_memory`` segment name, the child attaches by
name and wraps the mapped bytes in an
:meth:`~repro.memory.block.AllocationBlock.from_buffer` view — the
paper's "a page moves between processes with zero (de)serialization",
for real this time.

Results travel back as the sink's unfinished
:meth:`~repro.engine.pipeline.Sink.state` plus one map of counter
deltas: the task's engine books into a registry of its own, and the
coordinator books those counts into the worker's registry, trace
mirrors included; the coordinator's own sink loads that state
(:meth:`~repro.engine.pipeline.Sink.load`), which finishes it.  A task
whose result would carry PC objects (handles/facades pointing into page
memory) is *rejected*, not failed: the coordinator re-runs that portion
inline and counts the re-run (``pc_task_inline_reruns_total``).

The child runs a real :class:`~repro.obs.Tracer` (DESIGN §14): every
task executes inside a ``task`` span that adopts the coordinator's trace
context (``spec["trace_ctx"]``), each TCAP operator gets one coalesced
``op`` span (first batch to last), and the finished span batch ships
back inside the result envelope — or, on failure, inside the *error*
envelope with the spans marked ``truncated``, so a retry never loses the
counters the attempt accumulated.  A :class:`~repro.obs.FlightRecorder`
writing a parent-allocated shared ring keeps the last-N structured
events readable even after a SIGKILL.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback

from multiprocessing import shared_memory

from repro.engine.pipeline import PipelineEngine, object_batches
from repro.engine.vectors import batches_of
from repro.memory.block import AllocationBlock
from repro.memory.builtins import AnyObject, VectorType
from repro.memory.columnar import ColumnarPage
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

_ROOT_VECTOR = VectorType(AnyObject)

#: The in-flight task's id, tracer and engine, plus the flight-recorder
#: mark its events start at.  The main loop's error path harvests partial
#: spans and counter deltas from it after ``_execute`` unwound, and the
#: heartbeat thread publishes the task registry's ``rows_in`` as
#: progress; the engine stays until the next task starts, so the last
#: task's row count remains readable after it ends.  Plain dict reads
#: and writes are atomic under the GIL, so neither side locks.
_task_state = {"task": 0}


def _rows_in():
    engine = _task_state.get("engine")
    # One dict read (``value_for``), not ``value``'s walk over the
    # series: the task thread may add the series while this thread reads.
    return engine.counters["rows_in"].value_for() if engine else 0


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
        slot[3] = float(_task_state.get("task", 0))  # BEAT_TASK
        slot[4] = float(_rows_in())  # BEAT_ROWS
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
    TCAP operator application of the task, whatever its sink.  A
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

    ``"counts"`` are the task registry's counter values, which are this
    task's deltas; the coordinator books them into the worker's registry
    inside its open task span.  Spans serialize relative to the root's
    start, with the root's absolute ``time.monotonic()`` carried once as
    ``"span_base"`` for the coordinator's clock-offset shift.
    """
    return {
        "counts": engine.registry.counts() if engine is not None else {},
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
    # Named after the worker the coordinator dispatched to, so every
    # ``kind="task"`` span in the merged trace is a worker's.
    with tracer.span(context.get("worker_id", "task-%d" % task_id),
                     kind="task", detail="task %d" % task_id) as root:
        root.pid = os.getpid()
        root.parent_id = context.get("parent_span_id")
        # The task registry has no tracer: the counts' trace mirrors
        # land once, when the coordinator books them.
        engine = PipelineEngine(
            spec["program"], _PlanStub(spec["build_sides"]), None,
            batch_size=spec["batch_size"], registry=MetricsRegistry(),
            tracer=tracer, profiler=_OpSpanRecorder(root),
        )
        _task_state["tracer"] = tracer
        _task_state["engine"] = engine
        engine.hash_tables.update(spec["hash_tables"])
        sink_cls, sink_args = spec["sink"]
        sink = sink_cls(engine, *sink_args)
        attachments = []
        try:
            batches = _source_batches(
                spec["source"], engine, spec["registry"], attachments
            )
            engine.run_stages(spec["stages"], batches, sink)
            result = sink.state()
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
        _task_state.clear()
        _task_state.update(task=task_id, events_since=recorder.seq)
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
            recorder.record("task.complete", task=task_id, rows=_rows_in())
            try:
                payload = pickle.dumps((result, deltas))
            except Exception as exc:  # noqa: BLE001 - unshippable, not fatal
                result_queue.put(
                    (task_id, "reject", "unpicklable result: %s" % exc)
                )
                continue
            result_queue.put((task_id, "ok", payload))
        finally:
            _task_state["task"] = 0
