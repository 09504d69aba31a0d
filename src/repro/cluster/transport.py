"""Pluggable cluster transports: the accounting core plus two backends.

The :class:`Transport` base carries everything the cluster needs to move
bytes between nodes — the byte/message accounting, fault injection with
drop/corrupt/delay verdicts, checksum verification with a re-send budget
— exactly the machinery :class:`~repro.cluster.network.SimulatedNetwork`
always had; the simulator is now simply the transport whose back-ends
stay in-process (the deterministic CI / fault-matrix backend).

:class:`ProcessTransport` is the real one.  Each worker's back-end is a
spawned OS process (the paper's front-end/back-end split made literal):
the coordinator submits self-contained task blobs over a per-worker task
queue, the child attaches to sealed pages through
``multiprocessing.shared_memory`` *by segment name* — page bytes are
never pickled — and ``refork_backend`` terminates the child and leases a
fresh one.  ``spawn`` (not ``fork``) is used deliberately: a forked
child would inherit the coordinator's entire heap — open buffer pools,
pinned pages, lock state — while the paper's back-end is a clean process
that receives everything it needs explicitly.

Children are pooled process-wide (spawn costs ~100 ms with imports) and
reused across clusters; a crashed or busy child is terminated instead of
reused, so a leased child is always known-clean.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import queue
import time
import weakref
import zlib

from repro.cluster.supervisor import (
    BEAT_ROWS,
    BEAT_TIME,
    DEFAULT_BEAT_INTERVAL_S,
    HEARTBEAT_FIELDS,
    Supervisor,
    _env_float,
)
from repro.cluster.worker import BackendProcess, CompletedFuture
from repro.errors import (
    BackendCrashedError,
    PageCorruptionError,
    TaskDeadlineError,
    TransferDroppedError,
    WorkerCrashError,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.events import RING_BYTES, read_ring
from repro.storage.replication import corrupt_bytes, page_checksum

try:  # optional: only the process transport's task path needs it
    import cloudpickle
except ImportError:  # pragma: no cover - depends on the environment
    cloudpickle = None


def estimate_value_bytes(value):
    """Cheap size estimate for row-shipped Python values."""
    if isinstance(value, str):
        return 16 + len(value)
    if isinstance(value, (list, tuple)):
        return 16 + sum(estimate_value_bytes(v) for v in value)
    if isinstance(value, dict):
        return 16 + sum(
            estimate_value_bytes(k) + estimate_value_bytes(v)
            for k, v in value.items()
        )
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return 16 + int(nbytes)
    return 16


def rows_checksum(rows):
    """CRC32 stamp for a shuffled row batch.

    Rows are structured Python values, not page bytes, so the checksum
    runs over their ``repr`` — deterministic for the value types that
    travel the shuffle path, and cheap enough for fault-injected runs
    (the no-injector fast path skips it entirely).
    """
    crc = 0
    for row in rows:
        crc = zlib.crc32(repr(row).encode("utf-8", "backslashreplace"), crc)
    return crc & 0xFFFFFFFF


#: Frame prepended to a row batch to materialize a ``corrupt`` verdict —
#: detectable by the checksum, impossible in real shuffle data.
_CORRUPT_ROW_FRAME = ("__pc-corrupt-frame__",)


class Transport:
    """Byte-accounted message passing between nodes, fault-injectable.

    Subclasses pick how worker back-ends execute (:meth:`make_backend`)
    and advertise the page residency their back-ends need
    (``page_residency``); all shipping and accounting is shared.
    """

    name = "base"
    #: Buffer-pool residency workers should use so this transport's
    #: back-ends can reach sealed pages ("mem" or "shm").
    page_residency = "mem"

    def __init__(self, tracer=None, fault_injector=None, retry_policy=None,
                 metrics=None, recorder=None):
        self.tracer = tracer or Tracer()
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        #: optional flight recorder (page ships et al. leave events).
        self.recorder = recorder
        # All accounting lives in the metrics registry; each counter
        # declares its trace-mirror name once.
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry(tracer=self.tracer)
        self._c_messages = self.metrics.counter(
            "pc_net_messages_total", help="Simulated network transfers",
            trace="net.messages",
        )
        self._c_bytes_total = self.metrics.counter(
            "pc_net_bytes_total", help="Bytes moved over the network",
            trace="net.bytes_total",
        )
        self._c_bytes_zero_copy = self.metrics.counter(
            "pc_net_bytes_zero_copy_total",
            help="Bytes moved as whole PC pages (no serde)",
            trace="net.bytes_zero_copy",
        )
        self._c_bytes_rows = self.metrics.counter(
            "pc_net_bytes_rows_total",
            help="Bytes moved as structured rows (join shuffles)",
            trace="net.bytes_rows",
        )
        self._c_link_bytes = self.metrics.counter(
            "pc_net_link_bytes_total",
            help="Bytes moved per (src, dst) link",
            labelnames=("src", "dst"),
            trace="net.link.{src}->{dst}",
        )
        self._c_transfers_dropped = self.metrics.counter(
            "pc_net_transfers_dropped_total",
            help="Transfers dropped by fault injection",
            trace="net.transfers_dropped",
        )
        self._c_transfers_corrupted = self.metrics.counter(
            "pc_net_transfers_corrupted_total",
            help="Transfers delivered with bit-flipped payloads",
            trace="net.transfers_corrupted",
        )
        self._c_transfer_retries = self.metrics.counter(
            "pc_net_transfer_retries_total",
            help="Re-sends after drops or detected corruption",
            trace="net.transfer_retries",
        )
        self._c_delay_events = self.metrics.counter(
            "pc_net_delay_events_total",
            help="Transfers hit by an injected delay",
            trace="net.delay_events",
        )
        self._c_delay_ms = self.metrics.counter(
            "pc_net_delay_ms_total",
            help="Simulated delay in whole milliseconds",
            trace="net.delay_ms",
        )
        self._c_delay_seconds = self.metrics.counter(
            "pc_net_delay_seconds_total",
            help="Simulated delay in (float) seconds",
            trace="net.delay_s_total",
        )

    # -- back-end lifecycle ------------------------------------------------------

    def make_backend(self, worker):
        """A fresh back-end for ``worker`` (in-process by default)."""
        return BackendProcess(worker)

    def close(self):
        """Release transport-held resources (child processes etc.)."""

    def _record(self, src, dst, nbytes, counter):
        self._c_messages.inc()
        self._c_bytes_total.inc(nbytes)
        self._c_link_bytes.inc(nbytes, src=src, dst=dst)
        counter.inc(nbytes)

    def _retry_budget(self):
        return (
            self.retry_policy.transfer_retries
            if self.retry_policy is not None else 0
        )

    def _deliver(self, src, dst, nbytes, counter):
        """Attempt delivery, re-sending dropped transfers per policy.

        Returns the final verdict: ``"deliver"`` or ``"corrupt"`` (the
        payload arrived, but bit-flipped — the *caller* decides whether
        its payload type can detect that).
        """
        attempts = 0
        while True:
            verdict, delay_s = "deliver", 0.0
            if self.fault_injector is not None:
                verdict, delay_s = self.fault_injector.on_transfer(
                    src, dst, nbytes
                )
            if delay_s:
                self._c_delay_seconds.inc(delay_s)
                self._c_delay_events.inc()
                self._c_delay_ms.inc(int(delay_s * 1000))
            if verdict != "drop":
                self._record(src, dst, nbytes, counter)
                return verdict
            self._c_transfers_dropped.inc()
            budget = self._retry_budget()
            if attempts >= budget:
                raise TransferDroppedError(
                    "transfer %s->%s (%d bytes) dropped and retry budget "
                    "of %d exhausted" % (src, dst, nbytes, budget)
                )
            attempts += 1
            self._c_transfer_retries.inc()

    def ship_page(self, src, dst, data, checksum=None):
        """Move a PC page's bytes; zero serialization on either end.

        Receipt is a trust boundary only when the network can alter
        bytes.  Without a fault injector no verdict but ``deliver`` is
        possible and the receiver gets the sender's own buffer, so no
        checksum is computed.  With one, every arrival is verified
        against ``checksum`` (the page's sealed CRC32; computed here
        from the sent bytes when the caller passes none): a corrupted
        arrival is re-sent within the transfer retry budget and raises
        :class:`~repro.errors.PageCorruptionError` once it is exhausted,
        so corrupted bytes are never handed to the receiver.
        """
        nbytes = len(data)
        if self.recorder is not None:
            self.recorder.record("net.page_ship", src=src, dst=dst,
                                 bytes=nbytes)
        if self.fault_injector is None:
            self._deliver(src, dst, nbytes, self._c_bytes_zero_copy)
            return data
        if checksum is None:
            checksum = page_checksum(data)
        attempts = 0
        while True:
            verdict = self._deliver(src, dst, nbytes, self._c_bytes_zero_copy)
            payload = data
            if verdict == "corrupt":
                payload = corrupt_bytes(data)
                self._c_transfers_corrupted.inc()
            if page_checksum(payload) == checksum:
                return payload
            budget = self._retry_budget()
            if attempts >= budget:
                raise PageCorruptionError(
                    "page transfer %s->%s (%d bytes) arrived corrupt and "
                    "the re-send budget of %d is exhausted"
                    % (src, dst, nbytes, budget)
                )
            attempts += 1
            self._c_transfer_retries.inc()

    def ship_rows(self, src, dst, rows):
        """Move structured rows (the join-shuffle path).

        Row batches get the same integrity contract as pages: the batch
        is stamped with :func:`rows_checksum` before sending, a
        ``corrupt`` verdict is *detected* on receipt and re-sent within
        the transfer retry budget, and
        :class:`~repro.errors.PageCorruptionError` surfaces once the
        budget is exhausted — corrupted rows are never handed to the
        receiver.  Without a fault injector no verdict can be anything
        but ``deliver``, so the checksum work is skipped entirely.
        """
        nbytes = sum(estimate_value_bytes(row) for row in rows)
        if self.fault_injector is None:
            self._deliver(src, dst, nbytes, self._c_bytes_rows)
            return rows
        checksum = rows_checksum(rows)
        attempts = 0
        while True:
            verdict = self._deliver(src, dst, nbytes, self._c_bytes_rows)
            payload = rows
            if verdict == "corrupt":
                payload = [_CORRUPT_ROW_FRAME] + list(rows)
                self._c_transfers_corrupted.inc()
            if rows_checksum(payload) == checksum:
                return payload
            budget = self._retry_budget()
            if attempts >= budget:
                raise PageCorruptionError(
                    "row transfer %s->%s (%d rows) arrived corrupt and "
                    "the re-send budget of %d is exhausted"
                    % (src, dst, len(rows), budget)
                )
            attempts += 1
            self._c_transfer_retries.inc()

    def reset(self):
        for counter in (
            self._c_messages, self._c_bytes_total, self._c_bytes_zero_copy,
            self._c_bytes_rows, self._c_link_bytes,
            self._c_transfers_dropped, self._c_transfers_corrupted,
            self._c_transfer_retries, self._c_delay_events,
            self._c_delay_ms, self._c_delay_seconds,
        ):
            counter.reset()


# -- remote tasks ----------------------------------------------------------------


def remote_available():
    """Whether remote task blobs can be built at all (needs cloudpickle)."""
    return cloudpickle is not None


def serialize_task(spec):
    """Pickle a task spec for a back-end process (cloudpickle: closures)."""
    if cloudpickle is None:
        raise RuntimeError("cloudpickle is not available")
    return cloudpickle.dumps(spec)


class RemoteTask:
    """One worker's stage portion, packaged for a back-end process.

    ``blob`` is a self-contained cloudpickle payload the child executes
    with :mod:`repro.cluster.procworker`; ``run_inline`` re-runs the same
    portion in the coordinator (the fallback when the child reports the
    task unshippable); ``on_result`` installs a successful remote
    outcome into the coordinator's shadow state; ``cleanup`` releases
    resources held for the task's duration (the pins keeping exported
    pages' shared-memory segments alive) and is invoked by the scheduler
    exactly once, whatever the outcome.
    """

    def __init__(self, blob, run_inline, on_result, label="", cleanup=None):
        self.blob = blob
        self.run_inline = run_inline
        self.on_result = on_result
        self.label = label
        self.cleanup = cleanup

    def __repr__(self):
        return "<RemoteTask %s (%d bytes)>" % (self.label, len(self.blob))


class RemoteOutcome:
    """What a completed remote task hands back to the coordinator.

    Beyond the result and the child's counter deltas (``counts``, in
    :meth:`~repro.obs.MetricsRegistry.counts` form), it carries its span
    batch (serialized :meth:`Span.to_dict` trees, timestamps relative to
    ``span_base`` on the *child's* ``time.monotonic()`` clock), the
    flight-recorder events of the task, and the clock calibration
    (``clock_offset`` such that master ≈ child + offset, accurate to
    ``clock_error_s``) the coordinator needs to graft the spans into the
    job tree.  Error and death envelopes build one too (``result=None``)
    so partial evidence takes the same grafting path.
    """

    def __init__(self, result, counts, spans=(), span_base=0.0, events=(),
                 clock_offset=0.0, clock_error_s=0.0, pid=None):
        self.result = result
        self.counts = counts
        self.spans = list(spans or ())
        self.span_base = span_base
        self.events = list(events or ())
        self.clock_offset = clock_offset
        self.clock_error_s = clock_error_s
        self.pid = pid

    @classmethod
    def from_deltas(cls, deltas, result=None, clock_offset=0.0,
                    clock_error_s=0.0):
        """Build from a child's shipped ``deltas`` dict (ok or error leg)."""
        return cls(
            result,
            deltas.get("counts") or {},
            spans=deltas.get("spans"),
            span_base=deltas.get("span_base", 0.0),
            events=deltas.get("events"),
            clock_offset=clock_offset,
            clock_error_s=clock_error_s,
            pid=deltas.get("pid"),
        )


class _PendingFuture:
    """Await-side handle of a task submitted to a back-end process."""

    def __init__(self, child, backend, task, task_id):
        self._child = child
        self._backend = backend
        self._task = task
        self._task_id = task_id
        self._done = False
        self._value = None
        self._error = None
        #: armed by ProcessBackend.submit from RetryPolicy.timeout_s —
        #: an absolute monotonic-clock instant, enforced while awaiting.
        self.deadline = None
        self.timeout_s = None
        #: the transport's Supervisor, consulted on every await poll tick.
        self.supervisor = None

    def _monitor(self, worker_id):
        """Build the per-poll-tick liveness/deadline check, if supervised."""
        supervisor = self.supervisor
        if supervisor is None:
            return None
        child, deadline, timeout_s = self._child, self.deadline, self.timeout_s

        def check():
            return supervisor.enforce(
                worker_id, child, deadline=deadline, timeout_s=timeout_s
            )

        return check

    def result(self):
        if self._done:
            if self._error is not None:
                raise self._error
            return self._value
        self._done = True
        worker_id = self._backend.worker.worker_id
        status, payload = self._child.wait_for(
            self._task_id, monitor=self._monitor(worker_id)
        )
        if status == "ok":
            try:
                result, deltas = pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001 - any decode failure is a crash
                self._backend.crashed = True
                self._error = WorkerCrashError(
                    "undecodable result from back-end process of worker "
                    "%r: %s" % (worker_id, exc)
                )
                raise self._error from exc
            offset, error_s = self._child.calibrate_clock()
            self._value = RemoteOutcome.from_deltas(
                deltas, result=result, clock_offset=offset,
                clock_error_s=error_s,
            )
            return self._value
        if status == "reject":
            # The child judged the task unshippable (PC-object results,
            # unpicklable pieces); the portion runs inline in the
            # front-end instead — same code, same crash semantics — and
            # is counted, because the child's work is done twice.
            self._backend.note_inline_rerun(self._task, payload)
            try:
                self._value = self._backend.run_user_code(
                    self._task.run_inline
                )
            except WorkerCrashError as crash:
                self._error = crash
                raise
            return self._value
        self._backend.crashed = True
        if status == "error":
            # A Python-level failure inside the child: the envelope is a
            # dict carrying the traceback plus the deltas the task
            # accumulated before it blew up (spans marked truncated), so
            # retries keep the attempt's counters.
            message, deltas = payload["traceback"], payload["deltas"]
            self._error = WorkerCrashError(
                "back-end process of worker %r died: %s"
                % (worker_id, message)
            )
            if deltas:
                offset, error_s = self._child.calibrate_clock()
                self._error.remote_outcome = RemoteOutcome.from_deltas(
                    deltas, clock_offset=offset, clock_error_s=error_s,
                )
            self._error.detected_at = time.monotonic()
            raise self._error
        verdict = self._child.kill_verdicts.pop(self._task_id, None)
        if verdict is not None and verdict[1]:
            self._error = TaskDeadlineError(
                "task %r on worker %r: %s"
                % (self._task.label, worker_id, verdict[0])
            )
        elif verdict is not None:
            self._error = WorkerCrashError(
                "back-end process of worker %r declared dead: %s"
                % (worker_id, verdict[0])
            )
        else:
            self._error = WorkerCrashError(
                "back-end process of worker %r died: %s"
                % (worker_id, payload)
            )
        outcome = self._child.post_mortem_outcome(self._task_id, worker_id)
        if outcome is not None:
            self._error.remote_outcome = outcome
        # When the death was detected, for recovery-latency accounting
        # (WorkerNode.await_result observes now -> post-re-fork).
        self._error.detected_at = time.monotonic()
        raise self._error


# -- the child-process pool -------------------------------------------------------


class _ChildProcess:
    """One spawned back-end process plus its task/result queues."""

    def __init__(self):
        # Imported lazily so the child's spawn import of procworker does
        # not drag the whole cluster package into every interpreter.
        from repro.cluster.procworker import backend_main

        ctx = multiprocessing.get_context("spawn")
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        # Liveness + progress slot the child's beat thread writes into;
        # lock-free because each field is a single aligned double.
        self.heartbeat = ctx.Array(
            "d", HEARTBEAT_FIELDS, lock=False
        )
        # The child's flight-recorder ring: fixed-width JSON records in
        # shared memory, single-writer (the child), readable by the
        # master post-mortem after a SIGKILL.
        self.flight = ctx.Array("c", RING_BYTES, lock=False)
        self.beat_interval_s = _env_float(
            "PC_SUP_BEAT_S", DEFAULT_BEAT_INTERVAL_S
        )
        self.started_at = time.monotonic()
        self._proc = ctx.Process(
            target=backend_main,
            args=(self._tasks, self._results, self.heartbeat,
                  self.beat_interval_s, self.flight),
            daemon=True,
        )
        self._proc.start()
        self._task_ids = itertools.count(1)
        self._arrived = {}
        self._outstanding = set()
        #: task_id -> submit instant (master clock), for synthesizing a
        #: truncated task span when the child dies without an envelope.
        self.submit_times = {}
        #: task_id -> (reason, deadline_exceeded) for supervisor kills,
        #: consumed by _PendingFuture to type the resulting error.
        self.kill_verdicts = {}
        #: lazily calibrated clock translation (master ≈ child + offset).
        self.clock_offset = None
        self.clock_error_s = None
        self.broken = False

    @property
    def pid(self):
        return self._proc.pid

    def healthy(self):
        return not self.broken and self._proc.is_alive()

    def idle(self):
        return not self._outstanding

    def submit(self, task, backend):
        task_id = next(self._task_ids)
        self.submit_times[task_id] = time.monotonic()
        self._tasks.put((task_id, task.blob))
        self._outstanding.add(task_id)
        return _PendingFuture(self, backend, task, task_id)

    def calibrate_clock(self):
        """Estimate the child→master ``time.monotonic()`` offset.

        Each heartbeat publishes the child's monotonic clock at beat
        time; a master-side sample ``now - BEAT_TIME`` therefore equals
        ``offset + staleness`` with staleness in ``[0, beat interval]``.
        Sampling across at least one beat period and keeping the minimum
        bounds the estimate's error by the beat interval — the handshake
        DESIGN §14 promises.  Calibrated once per child (children are
        pooled), lazily, on first use.  A child that never beat (or died
        first) yields offset 0 with an infinite error bound; on Linux
        both processes read the same CLOCK_MONOTONIC, so 0 is in fact
        the right translation.
        """
        if self.clock_offset is not None:
            return self.clock_offset, self.clock_error_s
        interval = self.beat_interval_s
        best = None
        horizon = time.monotonic() + 1.25 * interval
        while time.monotonic() < horizon:
            beat_time = self.heartbeat[BEAT_TIME]
            if beat_time:
                sample = time.monotonic() - beat_time
                if best is None or sample < best:
                    best = sample
            if not self._proc.is_alive():
                break
            time.sleep(min(interval / 8.0, 0.01))
        if best is None:
            self.clock_offset, self.clock_error_s = 0.0, float("inf")
        else:
            self.clock_offset, self.clock_error_s = best, interval
        return self.clock_offset, self.clock_error_s

    def post_mortem_outcome(self, task_id, worker_id):
        """Synthesize the evidence for a task whose child never answered.

        A SIGKILLed child ships nothing, but the master still has the
        heartbeat slot (rows consumed), the shared flight ring (last-N
        events, readable post-mortem), and its own submit instant — so
        the coordinator can graft a ``truncated`` task span covering
        submit → detection rather than leaving a hole in the trace.
        Timestamps are assembled directly in the master's clock frame:
        ``span_base`` is the submit instant and ``clock_offset`` is 0.
        """
        submitted = self.submit_times.get(task_id)
        if submitted is None:
            return None
        now = time.monotonic()
        offset = self.clock_offset or 0.0
        events = []
        for event in read_ring(self.flight):
            ts = event.get("ts", 0.0) + offset
            if ts >= submitted - self.beat_interval_s:
                events.append(dict(event, ts=ts - submitted))
        span = {
            "name": worker_id,
            "kind": "task",
            "detail": "task %d synthesized by the coordinator: the "
                      "back-end died without delivering" % task_id,
            "start_s": 0.0,
            "duration_s": now - submitted,
            "counters": {"sup.rows_consumed": int(self.heartbeat[BEAT_ROWS])},
            "children": [],
            "pid": self.pid,
            "truncated": True,
        }
        if events:
            span["events"] = events
        return RemoteOutcome(
            None, {}, spans=[span], span_base=submitted,
            events=events, clock_offset=0.0,
            clock_error_s=self.clock_error_s
            if self.clock_error_s is not None else float("inf"),
            pid=self.pid,
        )

    def _pull_result(self, timeout):
        """One queue read; True if a result was installed, False if not.

        A SIGKILL can land while the child's queue feeder holds the pipe
        mid-write, tearing the stream — a torn read is treated like an
        empty queue (the liveness check right after books the death).
        """
        try:
            tid, status, payload = self._results.get(timeout=timeout)
        except queue.Empty:
            return False
        except (EOFError, OSError, pickle.UnpicklingError,  # pcsan: disable=PC005
                ValueError, TypeError):
            return False  # torn stream from a killed writer
        self._arrived[tid] = (status, payload)
        return True

    def wait_for(self, task_id, monitor=None):
        """Block until ``task_id``'s result (or the child's death) arrives.

        ``monitor`` is the supervisor's per-tick check: consulted only
        after the queue came up empty — an arrived result always wins
        over a kill verdict, which is what makes supervised re-dispatch
        safe against double execution — and at most once per task (a
        killed child needs no second verdict).
        """
        while task_id not in self._arrived:
            if self._pull_result(0.1):
                continue
            if monitor is not None and task_id not in self.kill_verdicts:
                verdict = monitor()
                if verdict is not None:
                    self.kill_verdicts[task_id] = verdict
            if not self._proc.is_alive():
                # Final drain: results the child flushed right before
                # dying may still be in flight through the queue feeder.
                while self._pull_result(0.2):
                    pass
                if task_id in self._arrived:
                    break
                self.broken = True
                for tid in self._outstanding:
                    self._arrived.setdefault(tid, (
                        "died",
                        "process exited with code %s" % self._proc.exitcode,
                    ))
        self._outstanding.discard(task_id)
        status, payload = self._arrived.pop(task_id)
        if status != "died":
            # The task delivered despite any kill verdict (result raced
            # the SIGKILL out the door): the verdict is moot.
            self.kill_verdicts.pop(task_id, None)
        return status, payload

    def stop(self):
        """Terminate the child and release its queue resources."""
        self.broken = True
        try:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=2)
        except (OSError, ValueError):  # pragma: no cover  # pcsan: disable=PC005
            pass  # teardown race: the child is gone either way
        for q in (self._tasks, self._results):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover  # pcsan: disable=PC005
                pass  # queue already closed


#: Spawn is slow (fresh interpreter + imports), so healthy children are
#: pooled process-wide and reused across clusters.
_MAX_IDLE_CHILDREN = 8
_idle_children = []
_all_children = set()


def _lease_child():
    while _idle_children:
        child = _idle_children.pop()
        if child.healthy() and child.idle():
            return child
        child.stop()
        _all_children.discard(child)
    child = _ChildProcess()
    _all_children.add(child)
    return child


def _release_child(child, healthy=True):
    if (
        healthy and child.healthy() and child.idle()
        and len(_idle_children) < _MAX_IDLE_CHILDREN
    ):
        _idle_children.append(child)
    else:
        child.stop()
        _all_children.discard(child)


@atexit.register
def _shutdown_children():
    for child in list(_all_children):
        child.stop()
    _all_children.clear()
    del _idle_children[:]


def _release_leased(leased):
    """Transport finalizer: return every still-leased child to the pool."""
    for child in list(leased):
        _release_child(child)
    del leased[:]


# -- the process transport --------------------------------------------------------


class ProcessBackend(BackendProcess):
    """A worker back-end running in a leased OS process.

    Remote tasks go over the child's task queue; plain callables (output
    sinks, orphan re-runs, anything touching coordinator state) run in
    the front-end exactly as the in-process backend would run them.
    """

    asynchronous = True

    def __init__(self, worker, transport):
        super().__init__(worker)
        self._transport = transport
        self._child = transport.lease_child()
        transport.supervisor.watch(worker.worker_id, self._child)

    @property
    def child_pid(self):
        """OS pid of the backing process (None after shutdown)."""
        return self._child.pid if self._child is not None else None

    def submit(self, fn, *args, **kwargs):
        if isinstance(fn, RemoteTask):
            if self.crashed:
                raise BackendCrashedError(
                    "back-end of worker %r already crashed; the front-end "
                    "must re-fork it before dispatching again"
                    % (self.worker.worker_id,)
                )
            future = self._child.submit(fn, self)
            future.supervisor = self._transport.supervisor
            policy = self._transport.retry_policy
            timeout_s = getattr(policy, "timeout_s", None)
            if timeout_s is not None:
                # A real wall-clock deadline, independent of the policy's
                # injectable clock: on this transport elapsed time is
                # real, so the timeout must be too.
                future.timeout_s = timeout_s
                future.deadline = time.monotonic() + timeout_s
            return future
        return super().submit(fn, *args, **kwargs)

    def note_inline_rerun(self, task, reason):
        """Count a task the child rejected and the coordinator re-runs."""
        transport = self._transport
        transport._c_inline_reruns.inc()
        if transport.recorder is not None:
            transport.recorder.record(
                "task.inline_rerun", worker=self.worker.worker_id,
                task=task.label, reason=str(reason)[:120],
            )

    def shutdown(self):
        child, self._child = self._child, None
        if child is not None:
            self._transport.supervisor.unwatch(
                self.worker.worker_id, child
            )
            self._transport.retire_child(child, healthy=not self.crashed)


class ProcessTransport(Transport):
    """Workers backed by real OS processes over shared-memory pages."""

    name = "process"
    page_residency = "shm"

    def __init__(self, tracer=None, fault_injector=None, retry_policy=None,
                 metrics=None, recorder=None):
        super().__init__(tracer=tracer, fault_injector=fault_injector,
                         retry_policy=retry_policy, metrics=metrics,
                         recorder=recorder)
        #: liveness + deadline authority over this transport's children.
        self.supervisor = Supervisor(metrics=self.metrics,
                                     recorder=recorder)
        self._c_inline_reruns = self.metrics.counter(
            "pc_task_inline_reruns_total",
            help="Tasks a back-end process rejected (results holding PC "
                 "objects or unpicklable) and the coordinator re-ran inline",
            trace="task.inline_reruns",
        )
        self._leased = []
        self._finalizer = weakref.finalize(
            self, _release_leased, self._leased
        )

    def make_backend(self, worker):
        return ProcessBackend(worker, self)

    def lease_child(self):
        child = _lease_child()
        self._leased.append(child)
        return child

    def retire_child(self, child, healthy=True):
        if child in self._leased:
            self._leased.remove(child)
        _release_child(child, healthy=healthy)

    def close(self):
        for child in list(self._leased):
            self.retire_child(child)


def make_transport(spec=None, **kwargs):
    """Build a transport from a spec string (or pass a built one through).

    ``spec`` may be ``"sim"``, ``"process"``, ``None`` (resolve from the
    ``PC_TRANSPORT`` environment variable, defaulting to ``"sim"``), or
    an already-constructed :class:`Transport` (returned as-is).
    """
    if isinstance(spec, Transport):
        return spec
    if spec is None:
        spec = os.environ.get("PC_TRANSPORT") or "sim"
    if spec == "sim":
        from repro.cluster.network import SimulatedNetwork

        return SimulatedNetwork(**kwargs)
    if spec == "process":
        return ProcessTransport(**kwargs)
    raise ValueError(
        "unknown transport %r (expected 'sim' or 'process')" % (spec,)
    )
