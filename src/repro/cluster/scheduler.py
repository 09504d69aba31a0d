"""The distributed query scheduler (Section 2, Appendix D).

The scheduler takes an optimized TCAP program plus its physical plan and
turns every pipeline into distributed *job stages*:

* ``PipelineJobStage`` — a pipeline segment run by every worker's back-end
  over its local data;
* ``BuildHashTableJobStage`` — building join hash tables from shuffled or
  broadcast data;
* ``AggregationJobStage`` — merging shuffled pre-aggregation Maps (the
  consuming stage of Figure 5).

Join physicality is decided here, not in TCAP: a build side estimated
smaller than ``broadcast_threshold`` bytes is broadcast to every worker;
otherwise both sides are hash-partitioned (the paper's 2 GB rule,
Section 8.3.2, scaled to simulation sizes).

Aggregation shuffles are the paper's signature move and are reproduced
bit-for-bit: each worker's pre-aggregated groups are materialized into a
PC ``Map`` on a combiner page, the page's *bytes* are shipped, and the
receiver reads the Map straight out of the arrived bytes — zero
serialization on both ends.

Fault tolerance (Section 2's dual-process rationale): every per-worker
task runs through :meth:`DistributedScheduler._run_worker_task`, which
builds its inputs and sink fresh per attempt.  When the back-end crashes
(a user-code bug, an injected fault, a failed page reload), the front-end
re-forks it and the scheduler consults its
:class:`~repro.cluster.faults.RetryPolicy`: allowed retries re-dispatch
*only the failed worker's portion* of the stage against the surviving
front-end storage, after an exponential backoff (reported as a ``retry``
span).  Completed stages' per-worker outputs (hash tables, materialized
stores) are checkpointed at stage boundaries so a re-forked back-end can
be rebuilt mid-job.  A worker that exhausts its attempts either fails the
job with an :class:`~repro.errors.ExecutionError` naming the stage and
worker, or — when the policy allows blacklisting — is decommissioned:
its durable partitions are redistributed to the surviving workers and the
job restarts over them.
"""

from __future__ import annotations

import contextlib

from repro.core.computation import AggregateComp
from repro.engine import kernels
from repro.engine.physical import (
    SINK_AGGREGATE,
    SINK_HASH_BUILD,
    SINK_MATERIALIZE,
    SINK_OUTPUT,
    SOURCE_SCAN,
)
from repro.engine.pipeline import (
    AggregateSink,
    CollectSink,
    HashBuildSink,
    MaterializeSink,
    PipelineEngine,
    Sink,
)
from repro.cluster.transport import (
    RemoteOutcome,
    RemoteTask,
    remote_available,
    serialize_task,
)
from repro.engine.vectors import batches_of
from repro.errors import (
    BufferPoolExhaustedError,
    ExecutionError,
    InjectedFaultError,
    PageReloadError,
    StorageError,
    WorkerCrashError,
    WorkerLostError,
)
from repro.memory.block import AllocationBlock
from repro.memory.builtins import MapType, stable_hash
from repro.memory.objects import make_object_on
from repro.obs.tracer import Span
# Not called here since combiner pages ship unstamped; kept bound because
# profilers that rebind every module alias of the CRC look it up here.
from repro.storage.replication import page_checksum  # noqa: F401
from repro.tcap.ir import ApplyStmt, JoinStmt, OutputStmt
from repro.tcap.verify import verify_program

#: Scaled stand-in for the paper's 2 GB broadcast-join threshold.
DEFAULT_BROADCAST_THRESHOLD = 8 << 20


class JobStage:
    """A record of one scheduled distributed job stage (for Figure 4).

    ``span`` links the record to its trace span, so the job log and the
    trace report the same stage with the same wall time.
    """

    def __init__(self, kind, detail):
        self.kind = kind
        self.detail = detail
        self.span = None

    @property
    def duration_s(self):
        return self.span.duration_s if self.span is not None else None

    def __repr__(self):
        return "%s(%s)" % (self.kind, self.detail)


class DistributedScheduler:
    """Schedules one execution of a program across the cluster."""

    def __init__(self, cluster, program, plan,
                 broadcast_threshold=DEFAULT_BROADCAST_THRESHOLD):
        self.cluster = cluster
        self.program = program
        self.plan = plan
        self.broadcast_threshold = broadcast_threshold
        self.tracer = cluster.tracer
        # Submit-time plan verification (repro.tcap.verify): type-check
        # the compiled program against the catalog *before* any stage is
        # planned or dispatched, so a mistyped plan dies here — no worker
        # spawn, no partial sink output — with a PlanTypeError naming the
        # offending TCAP statement.
        if getattr(cluster, "verify_plans", False):
            with self.tracer.span("verify", kind="phase"):
                verify_program(
                    program,
                    catalog=cluster.catalog,
                    layout_of=cluster._columnar_layout_of,
                )
        self.faults = cluster.fault_injector
        self.fault_metrics = cluster.fault_metrics
        self.profiler = cluster.profiler
        self.retry_policy = cluster.retry_policy
        self.join_modes = {}  # join output vlist -> "broadcast"|"partition"
        self.job_log = []
        self._checkpoints = {}  # worker_id -> {"hash_tables": .., "store": ..}
        self._current_stage = None
        #: remote (process-backed) offload needs cloudpickle for task blobs
        self._remote_off = not remote_available()
        #: the cluster's flight recorder (scheduler decisions leave events)
        self.flight = getattr(cluster, "flight", None)
        self._c_remote_spans = cluster.metrics_registry.counter(
            "pc_trace_remote_spans_total",
            help="Spans recorded in back-end processes and grafted into "
                 "job traces",
            trace="trace.remote_spans",
        )

    # -- engines -------------------------------------------------------------------

    @property
    def _job_key(self):
        """The key this scheduler registers its engines under."""
        return id(self)

    def engine_for(self, worker):
        """This job's pipeline engine on ``worker``'s current back-end.

        Keyed into the back-end's transient state, so a re-fork implicitly
        invalidates it; the replacement engine is seeded with the
        checkpointed outputs of the stages that already completed.
        """
        engine = worker.backend.engines.get(self._job_key)
        if engine is None:
            def scan_reader(scan_stmt, _worker=worker):
                repl = self.cluster.replication
                # Columnar-marked scans get whole-page array batches; the
                # engine falls back per page if a row page sneaks in.
                columnar = scan_stmt.info.get("columnar") == "1"
                if repl.has_page_map(
                    scan_stmt.database, scan_stmt.set_name
                ):
                    # Replica-map governed set: this worker reads exactly
                    # the pages assigned to it (first live replica), with
                    # failover and corruption healing built in.
                    return repl.scan_objects(
                        scan_stmt.database, scan_stmt.set_name,
                        worker_id=_worker.worker_id,
                        columnar_pages=columnar,
                    )
                page_set = _worker.storage.get_set(
                    scan_stmt.database, scan_stmt.set_name
                )
                return page_set.scan_objects(columnar_pages=columnar)

            engine = PipelineEngine(
                self.program, self.plan, scan_reader,
                batch_size=self.cluster.batch_size,
                registry=worker.metrics, tracer=self.tracer,
                profiler=self.profiler,
            )
            checkpoint = self._checkpoints.get(worker.worker_id)
            if checkpoint is not None:
                engine.hash_tables.update(checkpoint["hash_tables"])
                engine.store.update(checkpoint["store"])
            worker.backend.engines[self._job_key] = engine
        return engine

    def _checkpoint_workers(self):
        """Snapshot every worker's completed-stage outputs.

        Called at successful stage boundaries.  The snapshot lives with
        the scheduler (front-end durable territory), so when a back-end is
        re-forked mid-job its replacement engine can be rebuilt without
        re-running the stages that already finished.
        """
        for worker in self.workers:
            engine = worker.backend.engines.get(self._job_key)
            if engine is None:
                continue
            self._checkpoints[worker.worker_id] = {
                "hash_tables": dict(engine.hash_tables),
                "store": dict(engine.store),
            }

    def _release_engines(self):
        """Drop this job's engines from every back-end (leak fix).

        Without this, engines keyed by finished jobs accumulate in
        ``BackendProcess.engines`` across executions — and a recycled job
        key could even resurrect a stale engine.
        """
        for worker in self.cluster.workers:
            worker.backend.release_job(self._job_key)

    @property
    def workers(self):
        return self.cluster.active_workers

    # -- main entry ------------------------------------------------------------------

    def execute(self):
        try:
            while True:
                try:
                    self._execute_plan()
                    return self.job_log
                except WorkerLostError as lost:
                    self._degrade(lost)
        finally:
            self._release_engines()

    def _execute_plan(self):
        for pipeline in self.plan:
            if pipeline.sink_kind == SINK_HASH_BUILD:
                self._run_build(pipeline)
            elif pipeline.sink_kind == SINK_AGGREGATE:
                self._run_aggregate(pipeline)
            elif pipeline.sink_kind == SINK_MATERIALIZE:
                self._run_materialize(pipeline)
            elif pipeline.sink_kind == SINK_OUTPUT:
                self._run_output(pipeline)
            else:
                raise ExecutionError(
                    "unschedulable sink %r" % pipeline.sink_kind
                )

    # -- fault recovery -----------------------------------------------------------------

    def _armed_attempt(self, worker, stage_kind, make_attempt):
        """Build one attempt, substituting an injected crash when armed.

        ``make_attempt()`` builds the attempt fresh — re-reading sources
        from front-end storage and re-creating the sink — and returns
        ``(payload, abort)``: what to dispatch (a closure, or a
        :class:`RemoteTask` bound for a back-end process) and a rollback
        undoing any durable half-effects of a failed try.  When the fault
        injector decrees a crash for this attempt, the payload is
        replaced by a raising closure, so injected crashes behave
        identically on every transport: the back-end runs it, crashes,
        and is re-forked (killing a real child process, if there is one).
        """
        payload, abort = make_attempt()
        if self.faults is not None and self.faults.should_crash_backend(
            worker.worker_id, stage_kind
        ):
            self._cleanup_payload(payload)
            worker_id = worker.worker_id

            def crash():
                raise InjectedFaultError(
                    "injected back-end crash on %s during %s"
                    % (worker_id, stage_kind)
                )

            payload = crash
        return payload, abort

    @staticmethod
    def _cleanup_payload(payload):
        """Release a payload's held resources (exported-page pins), once."""
        if isinstance(payload, RemoteTask) and payload.cleanup is not None:
            cleanup, payload.cleanup = payload.cleanup, None
            cleanup()

    def _retry_pause(self, worker, stage_kind, attempts):
        """The backoff between attempts, reported as a ``retry`` span."""
        backoff = self.retry_policy.backoff_s(attempts)
        if self.flight is not None:
            self.flight.record(
                "sched.retry", worker=worker.worker_id, stage=stage_kind,
                attempt=attempts + 1, backoff_ms=int(backoff * 1000),
            )
        with self.tracer.span(
            "retry", kind="retry",
            detail="%s on %s, attempt %d"
            % (stage_kind, worker.worker_id, attempts + 1),
        ) as retry_span:
            retry_span.inc("retry.count")
            retry_span.inc(
                "retry.backoff_ms", max(1, int(backoff * 1000))
            )
            self.retry_policy.sleep(backoff)

    def _run_worker_task(self, worker, make_attempt, submitted=None):
        """Run one worker's portion of the current stage, with retries.

        ``submitted`` is a first attempt already in flight (see
        :meth:`_submit_attempt`); every other attempt is built here and
        submitted inside its task span, so the engine counters a
        synchronous back-end emits while running are attributed to this
        worker's task.
        """
        policy = self.retry_policy
        stage = self._current_stage
        stage_kind = stage.kind if stage is not None else "task"
        if submitted is None:
            future, started = None, policy.clock()
        else:
            payload, abort, future, started = submitted
        attempts = 0
        while True:
            attempts += 1
            if future is None:
                payload, abort = self._armed_attempt(
                    worker, stage_kind, make_attempt
                )
            try:
                try:
                    with self._task_span(worker) as span:
                        if attempts > 1:
                            span.inc("task.retry_attempt")
                        try:
                            if future is None:
                                future = worker.submit(payload)
                            outcome = worker.await_result(future)
                        except WorkerCrashError as crash:
                            self._graft_crash_evidence(worker, span, crash)
                            raise
                        if isinstance(outcome, RemoteOutcome):
                            payload.on_result(outcome)
                finally:
                    future = None
                    self._cleanup_payload(payload)
                if attempts > 1:
                    self.fault_metrics.tasks_recovered.inc()
                return
            except WorkerCrashError as crash:
                self.fault_metrics.backend_crashes.inc()
                if abort is not None:
                    abort()
                # The policy clock covers sim determinism; real deadline
                # kills (process transport) arrive pre-judged on the
                # crash itself, so either channel books a timeout.
                timed_out = policy.timed_out(started) or getattr(
                    crash, "deadline_exceeded", False
                )
                if timed_out or not policy.should_retry(attempts):
                    self._fail_permanently(
                        worker, stage, attempts, crash, timed_out
                    )
                self._retry_pause(worker, stage_kind, attempts)

    def _submit_attempt(self, worker, make_attempt):
        """Build and submit one worker's first attempt without awaiting it.

        Returns the ``submitted`` tuple :meth:`_run_worker_task` awaits.
        """
        stage = self._current_stage
        stage_kind = stage.kind if stage is not None else "task"
        payload, abort = self._armed_attempt(worker, stage_kind, make_attempt)
        return (payload, abort, worker.submit(payload),
                self.retry_policy.clock())

    def _parallel(self):
        """Whether submit-all/await-all buys real overlap on this cluster."""
        return any(
            getattr(worker.backend, "asynchronous", False)
            for worker in self.workers
        )

    def _run_worker_tasks(self, items, on_lost=None):
        """Run per-worker attempts, overlapping them when back-ends allow.

        ``items`` is a list of ``(worker, make_attempt)`` pairs, run in
        order.  With asynchronous (process) back-ends every worker's
        first attempt is submitted up front, and losses are handled
        *after* all awaits finish, because already-submitted survivors
        snapshot their sources at submit time and cannot pick up orphans
        mid-flight.  With synchronous back-ends (the simulator) each
        worker runs in turn and a loss is handled at once, so a worker
        blacklisted meanwhile is skipped.

        ``on_lost(worker, lost, completed)`` absorbs a lost worker or
        re-raises; without it the loss propagates immediately.  Returns
        the set of worker ids that completed their portion.
        """
        parallel = self._parallel()
        runs = [
            (worker, make_attempt,
             self._submit_attempt(worker, make_attempt) if parallel
             else None)
            for worker, make_attempt in items
            if worker.worker_id not in self.cluster.blacklist
        ]
        completed, losses = set(), []
        for worker, make_attempt, submitted in runs:
            if worker.worker_id in self.cluster.blacklist:
                continue
            try:
                self._run_worker_task(worker, make_attempt, submitted)
                completed.add(worker.worker_id)
            except WorkerLostError as lost:
                if on_lost is None:
                    raise
                if parallel:
                    losses.append((worker, lost))
                else:
                    on_lost(worker, lost, completed)
        for worker, lost in losses:
            # _fail_permanently's surviving-workers check ran against
            # the cluster as it stood at await time; earlier entries in
            # this loop may have decommissioned workers since.  Re-check
            # the floor before each deferred loss is absorbed.
            if len(self.workers) - 1 < self.retry_policy.min_surviving_workers:
                raise ExecutionError(
                    "worker %s lost (%s), but decommissioning it would "
                    "leave fewer than %d surviving worker(s)"
                    % (
                        lost.worker_id, lost.reason,
                        self.retry_policy.min_surviving_workers,
                    )
                ) from lost
            on_lost(worker, lost, completed)
        return completed

    def _fail_permanently(self, worker, stage, attempts, crash, timed_out):
        """A worker task is out of retries: blacklist or fail the job."""
        policy = self.retry_policy
        kind = stage.kind if stage is not None else "task"
        detail = stage.detail if stage is not None else ""
        why = "task timeout" if timed_out else "retries exhausted"
        survivors = len(self.workers) - 1
        if (
            policy.blacklist_on_exhaustion
            and survivors >= policy.min_surviving_workers
        ):
            raise WorkerLostError(
                worker.worker_id,
                "%s in stage %s (%s) after %d attempt(s): %s"
                % (why, kind, detail, attempts, crash),
            ) from crash
        raise ExecutionError(
            "stage %s (%s) failed permanently on worker %s "
            "after %d attempt(s) (%s): %s"
            % (kind, detail, worker.worker_id, attempts, why, crash)
        ) from crash

    def _degrade(self, lost):
        """Blacklist a permanently-dead worker and restart the job.

        Graceful degradation: the dead worker's durable partitions are
        redistributed to its peers (the front-end storage survives the
        back-end, so pages move as verbatim bytes), this job's partial
        outputs are cleared, and the stage loop re-runs from the top over
        the surviving workers.
        """
        moved = self.cluster.decommission_worker(
            lost.worker_id, reason=lost.reason
        )
        if self.flight is not None:
            self.flight.record("sched.blacklist", worker=lost.worker_id,
                               reason=str(lost.reason)[:120],
                               pages_moved=moved)
        # decommission_worker already counted the redistributed pages;
        # the blacklist event span carries only the blacklisting itself.
        with self.tracer.span(
            "blacklist", kind="fault",
            detail="worker %s blacklisted (%s); %d page(s) redistributed"
            % (lost.worker_id, lost.reason, moved),
        ):
            self.fault_metrics.workers_blacklisted.inc()
        self.job_log.append(JobStage(
            "WorkerBlacklistedEvent",
            "%s decommissioned; job restarting on %d worker(s)"
            % (lost.worker_id, len(self.workers)),
        ))
        # Restart from a clean slate: transient engines, checkpoints, and
        # physical join decisions are all worker-count dependent.
        self._release_engines()
        self._checkpoints.clear()
        self.join_modes.clear()
        for statement in self.program.statements:
            if isinstance(statement, OutputStmt):
                key = (statement.database, statement.set_name)
                if key in self.cluster.storage_manager:
                    self.cluster.clear_set(*key)

    # -- segment execution helpers ------------------------------------------------------

    @contextlib.contextmanager
    def _stage(self, kind, detail):
        """Record one job stage: a job-log entry plus its trace span."""
        stage = JobStage(kind, detail)
        self.job_log.append(stage)
        profiled = (
            self.profiler.stage(kind) if self.profiler is not None
            else contextlib.nullcontext()
        )
        with self.tracer.span(kind, kind="stage", detail=detail) as span, \
                profiled:
            stage.span = span
            self._current_stage = stage
            try:
                yield stage
            finally:
                self._current_stage = None
        # Only reached when the stage completed: checkpoint its outputs
        # so mid-job re-forks can rebuild engines without re-running it.
        self._checkpoint_workers()

    def _task_span(self, worker):
        """The per-worker task span nested under the current stage."""
        return self.tracer.span(worker.worker_id, kind="task")

    def _segments(self, stages):
        """Split a stage chain at every *partitioned* join probe."""
        segments = [[]]
        for stage in stages:
            if (
                isinstance(stage, JoinStmt)
                and self.join_modes.get(stage.output) == "partition"
            ):
                segments.append([stage])
            else:
                segments[-1].append(stage)
        return segments

    def _scan_batches_factory(self, worker, pipeline):
        """Fresh source batches for one attempt, off the current engine."""
        return lambda: self.engine_for(worker)._source_batches(pipeline)

    # -- remote (process-backed) task offload ------------------------------------------

    def _scan_source_builder(self, worker, pipeline):
        """A deferred shippable-source description for one worker.

        Called per attempt; returns ``(source, cleanup)`` or None when
        the portion must run inline.  Scan sources export the worker's
        assigned pages as shared-memory references — mirroring the
        replica-governed scan's page selection, failover accounting, and
        corruption healing exactly — and keep every exported page
        *pinned* until ``cleanup`` runs, so eviction cannot unlink a
        segment the child is still reading.  A pool too small to pin the
        whole scan falls back to inline execution (where the engine
        streams pages one at a time through the spill machinery).
        """
        if pipeline.source_kind != SOURCE_SCAN:
            source_name = pipeline.source

            def build_store():
                columns = self.engine_for(worker).store.get(source_name)
                if columns is None:
                    # Let the inline path raise its usual ExecutionError.
                    return None
                return ("columns", columns), None

            return build_store
        scan = pipeline.source

        def build_scan():
            repl = self.cluster.replication
            pinned = []

            def cleanup():
                for pool, page_id in pinned:
                    pool.unpin(page_id)

            refs = []
            try:
                if repl.has_page_map(scan.database, scan.set_name):
                    copies = repl.scan_page_copies(
                        scan.database, scan.set_name,
                        worker_id=worker.worker_id,
                    )
                elif worker.storage.has_set(scan.database, scan.set_name):
                    page_set = worker.storage.get_set(
                        scan.database, scan.set_name
                    )
                    copies = [
                        (page_set, page_id)
                        for page_id in page_set.page_ids
                    ]
                else:
                    copies = []
                for page_set, page_id in copies:
                    pool = page_set.pool
                    page = pool.pin(page_id)
                    pinned.append((pool, page_id))
                    if page.shm is None:
                        cleanup()
                        return None
                    refs.append((page.shm.name, page.block.size))
            except BufferPoolExhaustedError:
                # Pool pressure: run this attempt inline, where the
                # engine streams pages one at a time through the spill
                # machinery instead of pinning the whole scan.
                cleanup()
                return None
            except StorageError:
                # A flaky reload or a missing replica: the inline scan
                # would hit the same fault inside the back-end, so
                # re-raise and let the attempt machinery treat it as a
                # back-end crash — identical retry/refork accounting on
                # both transports.
                cleanup()
                raise
            # The 4th element tells the remote worker whether this scan
            # was columnar-lowered (attach pages as array batches).
            columnar = scan.info.get("columnar") == "1"
            return ("pages", refs, scan.column, columnar), cleanup

        return build_scan

    def _apply_remote_deltas(self, worker, outcome):
        """Book a child's counter deltas and graft its span batch into
        the job tree.

        The counts go into the worker's registry, where the engine that
        built the task declared them, inside the worker's task span, so
        their trace mirrors land there exactly as on the inline path.
        Span timestamps arrive relative to ``outcome.span_base`` on the
        child's clock; ``span_base + clock_offset`` shifts the whole
        batch into the coordinator's ``time.monotonic()`` frame (DESIGN
        §14), after which the remote root becomes a child of the open
        task span.  Flight-recorder events the child shipped attach to
        its root span.
        """
        worker.metrics.add_counts(outcome.counts)
        self._graft_remote_spans(outcome)

    def _graft_crash_evidence(self, worker, span, crash):
        """Preserve what a crashed remote attempt managed to produce.

        The transport attaches a ``remote_outcome`` to the crash when it
        has evidence — the error envelope's pre-exception deltas and
        truncated spans, or the synthesized span + flight-ring dump of a
        child that died without answering.  Replayed inside the still-
        open task span (the caller re-raises right after), so retries
        never lose the attempt's counters and the trace shows what the
        worker was doing when it died.
        """
        if isinstance(span, Span):  # a disabled tracer yields a null span
            span.truncated = True
        outcome = getattr(crash, "remote_outcome", None)
        if outcome is None:
            return
        self._apply_remote_deltas(worker, outcome)

    def _graft_remote_spans(self, outcome):
        """Attach a remote span batch under the currently open span."""
        parent = self.tracer.active
        if parent is None or not outcome.spans:
            return
        shift_s = outcome.span_base + outcome.clock_offset
        grafted = 0
        for payload in outcome.spans:
            try:
                span = Span.from_dict(payload)
            except (KeyError, TypeError, ValueError):  # pcsan: disable=PC005
                # Malformed span batch (torn by a dying child): the
                # counters already landed above, only the tree is lost.
                self.tracer.add("trace.span_graft_failures")
                continue
            span.shift(shift_s)
            span.parent_id = parent.span_id
            if span.pid is None:
                span.pid = outcome.pid
            parent.children.append(span)
            grafted += sum(1 for _ in span.walk())
        if grafted:
            self._c_remote_spans.inc(grafted)
            error_s = outcome.clock_error_s
            if error_s == error_s and error_s not in (float("inf"),):
                # Finite calibration error only: an uncalibrated child
                # (inf bound) would poison the span's JSON encoding.
                parent.counters["trace.clock_error_s"] = max(
                    parent.counters.get("trace.clock_error_s", 0.0),
                    error_s,
                )

    def _remote_task(self, worker, stages, source_builder, sink,
                     run_inline):
        """Package one worker's stage portion for its back-end process.

        Returns None whenever the portion must run inline instead: the
        back-end is in-process, cloudpickle is unavailable, the sink or
        source is unshippable, or the spec fails to serialize.  The
        returned task's ``on_result`` replays the child's metric deltas
        and loads the child's sink state into ``sink``.
        """
        sink_spec = sink.ship_spec()
        if self._remote_off or sink_spec is None or source_builder is None:
            return None
        if not getattr(worker.backend, "asynchronous", False):
            return None
        try:
            built = source_builder()
        except StorageError as fault:
            # Replay the export fault through the back-end so it books
            # as a crash (retry + re-fork), mirroring where the inline
            # scan would have raised it.
            def replay_fault(fault=fault):
                raise fault

            return replay_fault
        if built is None:
            return None
        source, cleanup = built
        engine = self.engine_for(worker)
        tables = {}
        for stage in stages:
            if isinstance(stage, JoinStmt):
                table = engine.hash_tables.get(stage.output)
                if table is None:
                    self._run_cleanup(cleanup)
                    return None
                tables[stage.output] = table

        def on_result(outcome):
            self._apply_remote_deltas(worker, outcome)
            sink.load(outcome.result)

        active = self.tracer.active
        spec = {
            "program": self.program,
            "build_sides": dict(self.plan.build_sides),
            "batch_size": self.cluster.batch_size,
            "stages": list(stages),
            "source": source,
            "sink": sink_spec,
            "hash_tables": tables,
            # Trace context (DESIGN §14): the child's task span adopts
            # this job's trace id and worker name, and hangs off the span
            # open at build time (the stage span; grafting re-parents
            # onto the task span the coordinator opens around the
            # dispatch).
            "trace_ctx": {
                "trace_id": self.tracer.trace_id,
                "worker_id": worker.worker_id,
                "parent_span_id": active.span_id if active is not None
                else None,
            },
            # The master registry is authoritative and its codes are
            # cluster-consistent (local catalogs mirror them on their
            # simulated .so fetches); the worker-local registry may not
            # have lazily fetched every type the pages reference yet.
            "registry": self.cluster.catalog.registry,
        }
        try:
            blob = serialize_task(spec)
        except Exception:  # program/tables hold something unpicklable
            self._run_cleanup(cleanup)
            return None
        return RemoteTask(
            blob, run_inline, on_result,
            label="%s on %s" % (type(sink).__name__, worker.worker_id),
            cleanup=cleanup,
        )

    @staticmethod
    def _run_cleanup(cleanup):
        if cleanup is not None:
            cleanup()

    # -- stage runners -----------------------------------------------------------------

    def _sink_attempt(self, worker, stages, batches_factory, sink_factory,
                      source_builder=None, sinks=None):
        """make_attempt for a run that folds batches into a fresh sink.

        Each attempt's sink is recorded in ``sinks[worker_id]`` when a
        dict is given, so a collecting caller can read the columns of
        the attempt that succeeded.
        """

        def make_attempt():
            sink = sink_factory(worker)
            if sinks is not None:
                sinks[worker.worker_id] = sink

            def run():
                sink.engine.run_stages(stages, batches_factory(), sink)
                sink.finish()

            task = self._remote_task(
                worker, stages, source_builder, sink, run,
            )
            return (task if task is not None else run), sink.abort

        return make_attempt

    def _run_stages_into_sink(self, worker, stages, batches_factory,
                              sink_factory, source_builder=None):
        """Run ``stages`` into a per-attempt sink built by ``sink_factory``."""
        self._run_worker_task(worker, self._sink_attempt(
            worker, stages, batches_factory, sink_factory, source_builder
        ))

    def _collect_sink(self, worker):
        return CollectSink(self.engine_for(worker))

    def _collected(self, workers, sinks):
        """Every worker's collected columns, in ``workers`` order."""
        return [
            sinks[worker.worker_id].columns or {}
            if worker.worker_id in sinks else {}
            for worker in workers
        ]

    def _collect_from_workers(self, pipeline, stages):
        """Every worker's collected columns for one segment, in order."""
        workers = list(self.workers)
        sinks = {}
        self._run_worker_tasks([
            (worker, self._sink_attempt(
                worker, stages,
                self._scan_batches_factory(worker, pipeline),
                self._collect_sink,
                self._scan_source_builder(worker, pipeline),
                sinks,
            ))
            for worker in workers
        ])
        return self._collected(workers, sinks)

    def _shuffle_columns(self, per_worker_columns, hash_column):
        """Repartition rows by ``hash % n_workers``; returns per-worker columns."""
        workers = self.workers
        n = len(workers)
        received = [None] * n
        for src_index, columns in enumerate(per_worker_columns):
            if not columns:
                continue
            names = list(columns)
            hashes = columns[hash_column]
            buckets = [dict((name, []) for name in names) for _ in range(n)]
            for row, hash_value in enumerate(hashes):
                dest = hash_value % n
                bucket = buckets[dest]
                for name in names:
                    bucket[name].append(columns[name][row])
            for dst_index, bucket in enumerate(buckets):
                if not bucket[names[0]]:
                    continue
                rows = list(zip(*(bucket[name] for name in names)))
                self.cluster.network.ship_rows(
                    workers[src_index].worker_id,
                    workers[dst_index].worker_id,
                    rows,
                )
                target = received[dst_index]
                if target is None:
                    target = {name: [] for name in names}
                    received[dst_index] = target
                for name in names:
                    target[name].extend(bucket[name])
        return [r or {} for r in received]

    def _probe_segments(self, pipeline, per_worker_columns, segments,
                        sink_factory):
        """Run the remaining probe segments, shuffling between them."""
        for index, segment in enumerate(segments):
            join = segment[0]
            build_side = self.plan.build_sides.get(join.output, "right")
            probe_hash = (
                join.left_hash if build_side == "right" else join.right_hash
            )
            per_worker_columns = self._shuffle_columns(
                per_worker_columns, probe_hash
            )
            last = index == len(segments) - 1
            workers = list(self.workers)
            sinks = {}
            items = []
            for w_index, worker in enumerate(workers):
                cols = per_worker_columns[w_index]

                def batches_factory(_cols=cols):
                    return batches_of(_cols, self.cluster.batch_size)

                def source_builder(_cols=cols):
                    return ("columns", _cols), None

                items.append((worker, self._sink_attempt(
                    worker, segment, batches_factory,
                    sink_factory if last else self._collect_sink,
                    source_builder, sinks,
                )))
            self._run_worker_tasks(items)
            if not last:
                per_worker_columns = self._collected(workers, sinks)

    def _run_distributed_pipeline(self, pipeline, sink_factory):
        """Run a full pipeline on every worker, honoring join partitioning.

        Single-segment scan-sourced stages get the no-restart failover
        path: when a worker is declared lost mid-stage and every page it
        was scanning survives on a replica, the survivors *absorb* its
        orphaned pages (merge-aware sinks) and the stage completes without
        restarting the job.  Anything unabsorbable re-raises and falls
        back to the restart-from-scratch degradation.
        """
        segments = self._segments(pipeline.stages)
        first, rest = segments[0], segments[1:]
        if not rest:
            def on_lost(worker, lost, completed):
                if not self._can_absorb(lost, pipeline):
                    raise lost
                self._absorb_lost_worker(
                    lost, pipeline, first, sink_factory, completed
                )

            items = [
                (worker, self._sink_attempt(
                    worker, first,
                    self._scan_batches_factory(worker, pipeline),
                    sink_factory,
                    self._scan_source_builder(worker, pipeline),
                ))
                for worker in list(self.workers)
            ]
            self._run_worker_tasks(items, on_lost=on_lost)
            return
        collected = self._collect_from_workers(pipeline, first)
        self._probe_segments(pipeline, collected, rest, sink_factory)

    def _can_absorb(self, lost, pipeline):
        """Whether a lost worker's stage portion can move to survivors.

        Absorption needs (a) a scan source whose pages are governed by
        the catalog replica map — so the lost worker's input survives
        elsewhere — and (b) no unrecoverable per-worker state from
        earlier stages: a checkpointed *partitioned* hash-table shard or
        materialized store partition died with the worker, forcing the
        restart fallback.  Broadcast hash tables are identical on every
        worker, so losing one copy loses nothing.
        """
        if pipeline.source_kind != SOURCE_SCAN:
            return False
        scan = pipeline.source
        if not self.cluster.replication.has_page_map(
            scan.database, scan.set_name
        ):
            return False
        checkpoint = self._checkpoints.get(lost.worker_id)
        if checkpoint is not None:
            if checkpoint["store"]:
                return False
            for output in checkpoint["hash_tables"]:
                if self.join_modes.get(output) != "broadcast":
                    return False
        return True

    def _absorb_lost_worker(self, lost, pipeline, stages, sink_factory,
                            completed):
        """Decommission a lost worker and re-run its orphans on survivors.

        The worker's scan assignment (the pages it was reading) is
        captured before decommissioning; afterwards those pages' first
        live replicas sit on survivors.  Survivors that already finished
        this stage run *only* the orphaned pages through merge-aware
        sinks; survivors still queued pick the orphans up automatically
        through their refreshed scan assignments.
        """
        scan = pipeline.source
        repl = self.cluster.replication
        before = repl.scan_assignments(scan.database, scan.set_name)
        orphans = {
            uid for uid, worker_id in before.items()
            if worker_id == lost.worker_id
        }
        moved = self.cluster.decommission_worker(
            lost.worker_id, reason=lost.reason
        )
        self._checkpoints.pop(lost.worker_id, None)
        with self.tracer.span(
            "absorb", kind="fault",
            detail="worker %s lost (%s); %d orphaned page(s) absorbed by "
            "survivors, no restart" % (
                lost.worker_id, lost.reason, len(orphans)
            ),
        ):
            self.fault_metrics.workers_blacklisted.inc()
            self.fault_metrics.workers_absorbed.inc()
        self.job_log.append(JobStage(
            "WorkerAbsorbedEvent",
            "%s decommissioned mid-stage; %d orphaned page(s) absorbed "
            "by %d survivor(s) without a job restart"
            % (lost.worker_id, len(orphans), len(self.workers)),
        ))
        if not orphans:
            return
        after = repl.scan_assignments(scan.database, scan.set_name)
        for worker in self.workers:
            if worker.worker_id not in completed:
                # Still queued in the stage loop: its refreshed scan
                # assignment already includes any orphans routed to it.
                continue
            assigned = {
                uid for uid in orphans
                if after.get(uid) == worker.worker_id
            }
            if assigned:
                self._run_orphan_pages(
                    worker, scan, stages, sink_factory, assigned
                )

    def _run_orphan_pages(self, worker, scan, stages, sink_factory, uids):
        """Run ``stages`` over just the orphaned pages, merging results."""
        from repro.engine.pipeline import object_batches

        def batches_factory():
            objects = self.cluster.replication.scan_objects(
                scan.database, scan.set_name,
                worker_id=worker.worker_id, only_uids=uids,
            )
            return object_batches(
                objects, scan.column, self.cluster.batch_size
            )

        def merge_sink_factory(w):
            sink = sink_factory(w)
            if hasattr(sink, "merge"):
                sink.merge = True
            return sink

        self._run_stages_into_sink(
            worker, stages, batches_factory, merge_sink_factory
        )

    # -- per-sink handlers ------------------------------------------------------------------

    def _estimate_source_bytes(self, pipeline):
        """Rough size of a pipeline's source for the broadcast decision."""
        if pipeline.source_kind == SOURCE_SCAN:
            scan = pipeline.source
            repl = self.cluster.replication
            if repl.has_page_map(scan.database, scan.set_name):
                # Replica-aware: count each page once, not once per copy.
                return repl.estimated_bytes(scan.database, scan.set_name)
            total = 0
            for worker in self.workers:
                # PC005 fix: probe first instead of swallowing the miss —
                # a worker simply not holding a partition is the normal
                # case, not an exception to discard.
                if not worker.storage.has_set(scan.database, scan.set_name):
                    continue
                page_set = worker.storage.get_set(
                    scan.database, scan.set_name
                )
                for page_id in page_set.page_ids:
                    try:
                        page = worker.storage.pool.pin(page_id)
                    except PageReloadError:  # pcsan: disable=PC005
                        # An estimate tolerates a flaky reload; the scan
                        # itself retries through the stage machinery.
                        continue
                    total += page.block.used if page.block else 0
                    worker.storage.pool.unpin(page_id)
            return total
        total_rows = 0
        for worker in self.workers:
            store = self.engine_for(worker).store.get(pipeline.source) or {}
            for column in store.values():
                total_rows += len(column)
                break
        return total_rows * 64

    def _run_build(self, pipeline):
        join = pipeline.sink
        size = self._estimate_source_bytes(pipeline)
        mode = (
            "broadcast" if size <= self.broadcast_threshold else "partition"
        )
        self.join_modes[join.output] = mode
        with self._stage(
            "BuildHashTableJobStage",
            "%s join build for %s (est %d bytes)" % (mode, join.output, size),
        ):
            self._run_build_stage(pipeline, join, mode)

    def _run_build_stage(self, pipeline, join, mode):
        if mode == "broadcast":
            def build_sink_factory(w):
                return HashBuildSink(self.engine_for(w), join)

            def ship_to_master(worker, merged):
                table = self.engine_for(worker).hash_tables[join.output]
                rows = [row for bucket in table.values() for row in bucket]
                self.cluster.network.ship_rows(
                    worker.worker_id, "master", rows
                )
                for hash_value, bucket in table.items():
                    merged.setdefault(hash_value, []).extend(bucket)

            merged = {}
            if self._parallel():
                # Builds overlap across back-end processes; the ship and
                # merge pass stays a serial coordinator loop.
                items = [
                    (worker, self._sink_attempt(
                        worker, pipeline.stages,
                        self._scan_batches_factory(worker, pipeline),
                        build_sink_factory,
                        self._scan_source_builder(worker, pipeline),
                    ))
                    for worker in self.workers
                ]
                self._run_worker_tasks(items)
                for worker in self.workers:
                    ship_to_master(worker, merged)
            else:
                # Deterministic simulator path: build and ship interleave
                # per worker, preserving the historical fault-draw order.
                for worker in self.workers:
                    self._run_stages_into_sink(
                        worker, pipeline.stages,
                        self._scan_batches_factory(worker, pipeline),
                        build_sink_factory,
                    )
                    ship_to_master(worker, merged)
            for worker in self.workers:
                rows = [r for b in merged.values() for r in b]
                self.cluster.network.ship_rows("master", worker.worker_id, rows)
                self.engine_for(worker).hash_tables[join.output] = merged
            return

        # Partitioned: collect (hash, row) per worker, shuffle, build shards.
        side = self.plan.build_sides[join.output]
        hash_column = join.right_hash if side == "right" else join.left_hash
        collected = self._collect_from_workers(pipeline, pipeline.stages)
        shuffled = self._shuffle_columns(collected, hash_column)
        columns_kept = (
            join.right_columns if side == "right" else join.left_columns
        )
        for w_index, worker in enumerate(self.workers):
            columns = shuffled[w_index]
            table = {}
            if columns:
                cols = [columns[c] for c in columns_kept]
                for row, hash_value in enumerate(columns[hash_column]):
                    table.setdefault(hash_value, []).append(
                        tuple(column[row] for column in cols)
                    )
            self.engine_for(worker).hash_tables[join.output] = table

    def _run_aggregate(self, pipeline):
        agg = pipeline.sink
        comp = self.program.computations[agg.computation]
        # Producing stage: per-worker pre-aggregation (pipelining threads).
        with self._stage(
            "PipelineJobStage", "pre-aggregation for %s" % agg.output,
        ):
            self._run_distributed_pipeline(
                pipeline,
                lambda worker: AggregateSink(self.engine_for(worker), agg),
            )

        # Shuffle combiner pages: hash-partition the pre-aggregated keys.
        workers = self.workers
        n = len(workers)
        with self._stage(
            "AggregationJobStage",
            "shuffled merge for %s over %d partitions" % (agg.output, n),
        ):
            final_groups = [dict() for _ in range(n)]
            for src_index, worker in enumerate(workers):
                engine = self.engine_for(worker)
                store = engine.store.pop(agg.output, None)
                if store is None:
                    continue
                partitions = [dict() for _ in range(n)]
                for key, value in zip(store["key"], store["val"]):
                    bucket = partitions[stable_hash(key) % n]
                    if key in bucket:
                        # A store can carry a key twice after a survivor
                        # absorbed a lost peer's portion — combine, never
                        # silently overwrite.
                        bucket[key] = comp.combine(bucket[key], value)
                    else:
                        bucket[key] = value
                for dst_index, partition in enumerate(partitions):
                    if not partition:
                        continue
                    self._ship_aggregate_partition(
                        comp, worker, workers[dst_index], partition,
                        final_groups[dst_index],
                    )
            for w_index, worker in enumerate(workers):
                groups = final_groups[w_index]
                self.tracer.add("agg.merged_keys", len(final_groups[w_index]))
                self.engine_for(worker).store[agg.output] = {
                    "key": list(groups.keys()),
                    "val": list(groups.values()),
                }

    def _ship_aggregate_partition(self, comp, src, dst, partition, into):
        """Move one hash partition of pre-aggregated data src -> dst.

        When the aggregation declares PC key/value descriptors, the
        partition travels as a real PC Map on a combiner page: the sealed
        page's bytes are shipped verbatim with no copy, and the receiver
        reads the Map where the bytes arrived, with no rebuild and no
        deserialization (Figure 5).
        """
        network = self.cluster.network
        if comp.key_type is not None and comp.value_type is not None:
            map_type = MapType(comp.key_type, comp.value_type)
            pending = list(partition.items())
            while pending:
                block = AllocationBlock(
                    self.cluster.combiner_page_size,
                    registry=src.local_catalog.registry,
                )
                handle = make_object_on(block, map_type, None)
                combiner = handle.deref()
                shipped = 0
                from repro.errors import BlockFullError

                try:
                    for key, value in pending:
                        combiner.put(key, value)
                        shipped += 1
                except BlockFullError:
                    if shipped == 0:
                        raise
                block.set_root(handle.offset, handle.type_code)
                # Combiner pages are never stored, so they carry no
                # stamp: when the network can corrupt bytes, ship_page
                # checksums the sent page and verifies its receipt.
                data = network.ship_page(
                    src.worker_id, dst.worker_id, block.sealed_view()
                )
                arrived = AllocationBlock.attach_sealed(
                    data, registry=dst.local_catalog.registry
                )
                offset, _code = arrived.root()
                arrived_map = map_type.facade(arrived, offset)
                for key, value in arrived_map.items():
                    key = comp.decode_key(key)
                    value = comp.decode_value(value)
                    if key in into:
                        into[key] = comp.combine(into[key], value)
                    else:
                        into[key] = value
                pending = pending[shipped:]
        else:
            rows = list(partition.items())
            network.ship_rows(src.worker_id, dst.worker_id, rows)
            for key, value in rows:
                if key in into:
                    into[key] = comp.combine(into[key], value)
                else:
                    into[key] = value

    def _run_materialize(self, pipeline):
        with self._stage(
            "PipelineJobStage", "materialize %s" % pipeline.sink,
        ):
            self._run_distributed_pipeline(
                pipeline,
                lambda worker: MaterializeSink(self.engine_for(worker),
                                               pipeline.sink),
            )

    def _run_output(self, pipeline):
        output = pipeline.sink
        self.cluster.ensure_set(output.database, output.set_name)
        agg_comp = self._aggregate_behind(output)

        def sink_factory(worker):
            page_set = worker.storage.get_set(
                output.database, output.set_name
            )
            if agg_comp is not None:
                return MapOutputSink(
                    self.engine_for(worker), output, page_set, agg_comp
                )
            return ClusterOutputSink(
                self.engine_for(worker), output, page_set, self.cluster
            )

        with self._stage(
            "PipelineJobStage",
            "pipeline into %s.%s" % (output.database, output.set_name),
        ):
            premarks = {
                worker.worker_id: len(
                    worker.storage.get_set(
                        output.database, output.set_name
                    ).page_ids
                )
                for worker in self.workers
            }
            self._run_distributed_pipeline(pipeline, sink_factory)
            self._register_output_pages(output, premarks)

    def _register_output_pages(self, output, premarks):
        """Checksum, record, and replicate the pages this stage wrote.

        Sink pages are written in place on each worker; before the stage
        is declared complete they are stamped into the catalog's replica
        map and copied to their ring replicas, so output sets get the
        same durability as loaded ones.  The new-page lists are snapshot
        *before* any replica is shipped — replica copies land in peer
        partitions and must not be mistaken for freshly written output.
        """
        new_pages = {}
        for worker in self.workers:
            page_set = worker.storage.get_set(
                output.database, output.set_name
            )
            mark = premarks.get(worker.worker_id, 0)
            pages = list(page_set.page_ids[mark:])
            if pages:
                new_pages[worker.worker_id] = pages
        for worker_id, pages in new_pages.items():
            self.cluster.replication.register_local_pages(
                output.database, output.set_name, worker_id, pages
            )

    def _aggregate_behind(self, output_stmt):
        """The AggregateComp whose pairs this OUTPUT writes, if any."""
        for statement in self.program.statements:
            if (
                isinstance(statement, ApplyStmt)
                and statement.new_column == output_stmt.column
                and statement.info.get("type") == "pairUp"
            ):
                comp = self.program.computations.get(statement.computation)
                if isinstance(comp, AggregateComp) and comp.key_type is not None:
                    return comp
        return None


class ClusterOutputSink(Sink):
    """Writes pipeline output to the worker-local partition of a set.

    PC objects (handles / facades) are stored in place on set pages;
    plain Python values fall back to a worker-local Python list that the
    client gathers on :meth:`PCCluster.read`.  The sink records where the
    partition stood at creation, so :meth:`abort` can roll a failed
    attempt's half-written pages back before a retry.
    """

    def __init__(self, engine, output_stmt, page_set, cluster):
        super().__init__(engine)
        self.statement = output_stmt
        self.page_set = page_set
        self.cluster = cluster
        self._writer = None
        self._key = (output_stmt.database, output_stmt.set_name)
        self._pages_mark = len(page_set.page_ids)
        self._objects_mark = page_set.object_count
        self._python_mark = len(cluster.python_outputs.get(self._key, ()))

    def _ensure_writer(self):
        if self._writer is None:
            self._writer = self.page_set.writer().__enter__()
        return self._writer

    def allocation_block(self):
        return self._ensure_writer()._page.block

    def roll_page(self):
        writer = self._ensure_writer()
        writer._seal_page()
        writer._open_page()

    def consume(self, batch):
        writer = self._ensure_writer()
        key = (self.statement.database, self.statement.set_name)
        for value in kernels.reify_column(batch.column(self.statement.column)):
            if hasattr(value, "pc_page"):
                # A columnar scan's row view is page-backed but not a
                # handle: store its detached form as a Python output
                # (columnar *output* sets are not written in v1).
                self.cluster.python_outputs.setdefault(key, []).append(
                    value.detach()
                )
            elif hasattr(value, "pc_block") or hasattr(value, "deref"):
                writer._root.append(value)
                self.page_set.object_count += 1
            else:
                self.cluster.python_outputs.setdefault(key, []).append(value)

    def finish(self):
        if self._writer is not None:
            self._writer.__exit__(None, None, None)
            self.engine.counters["pages_written"].inc(
                len(self.page_set.page_ids)
            )

    def abort(self):
        if self._writer is not None and self._writer._page is not None:
            self.page_set.pool.free_page(self._writer._page.page_id)
            self._writer._page = None
            self._writer._root = None
        self._writer = None
        _rollback_pages(self.page_set, self._pages_mark, self._objects_mark)
        outputs = self.cluster.python_outputs.get(self._key)
        if outputs is not None:
            del outputs[self._python_mark:]


class MapOutputSink(Sink):
    """Writes aggregation pairs as a PC Map object in the destination set.

    This reproduces the paper's aggregation sink: the stored set holds
    ``Map`` objects (one per worker partition), readable with zero
    deserialization and expanded back into pairs on scan.
    """

    def __init__(self, engine, output_stmt, page_set, comp):
        super().__init__(engine)
        self.statement = output_stmt
        self.page_set = page_set
        self.map_type = MapType(comp.key_type, comp.value_type)
        self.pairs = []
        self._pages_mark = len(page_set.page_ids)
        self._objects_mark = page_set.object_count

    def consume(self, batch):
        self.pairs.extend(
            kernels.reify_column(batch.column(self.statement.column))
        )

    def finish(self):
        if not self.pairs:
            return
        from repro.errors import BlockFullError, ExecutionError

        pending = list(self.pairs)
        shipped = 0
        with self.page_set.writer() as writer:
            while pending:
                def build(block):
                    nonlocal shipped
                    shipped = 0
                    handle = make_object_on(block, self.map_type, None)
                    view = handle.deref()
                    for key, value in pending:
                        try:
                            view.put(key, value)
                        except BlockFullError:
                            if shipped == 0:
                                raise
                            break
                        shipped += 1
                    return handle

                writer.append_built(build)
                if shipped == 0:
                    raise ExecutionError(
                        "one aggregation pair exceeds the page size"
                    )
                pending = pending[shipped:]
        self.engine.counters["pages_written"].inc(
            len(self.page_set.page_ids)
        )

    def abort(self):
        _rollback_pages(self.page_set, self._pages_mark, self._objects_mark)


def _rollback_pages(page_set, pages_mark, objects_mark):
    """Free every page a failed attempt appended past ``pages_mark``."""
    for page_id in page_set.page_ids[pages_mark:]:
        page_set.pool.free_page(page_id)
    del page_set.page_ids[pages_mark:]
    page_set.object_count = objects_mark
