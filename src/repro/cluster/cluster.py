"""PCCluster: the user-facing handle on a simulated PC deployment.

A :class:`PCCluster` stands up one master (catalog manager, distributed
storage manager, TCAP optimizer, distributed query scheduler) and N
workers (front-end + back-end process pairs), wired through a
byte-accounted simulated network — the full runtime of Figure 4 inside
one Python process.

Typical use mirrors the paper's client code::

    cluster = PCCluster(n_workers=4)
    cluster.register_type(DataPoint)
    cluster.create_database("db")
    cluster.create_set("db", "points", DataPoint)
    with cluster.loader("db", "points") as load:
        for row in data:
            load.append(DataPoint, dims=..., data=row)
    writer.execute(cluster)
    centroids = cluster.read("db", "centroids", as_pairs=True, comp=my_agg)

Fault tolerance: pass a :class:`~repro.cluster.faults.FaultInjector` to
exercise back-end crashes, dropped transfers, and reload failures, and a
:class:`~repro.cluster.faults.RetryPolicy` to control how the scheduler
recovers (per-task retries with backoff, transfer re-sends, optional
worker blacklisting with partition redistribution).
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.analysis import sanitizer as pcsan
from repro.catalog import CatalogJournal, CatalogManager
from repro.engine.physical import plan_pipelines
from repro.engine.vectors import DEFAULT_BATCH_SIZE
from repro.errors import (
    BlockFullError,
    CatalogError,
    ExecutionError,
    PageReloadError,
    StorageError,
)
from repro.obs import (
    FlightRecorder,
    HealthCheck,
    MetricsRegistry,
    MetricsSnapshot,
    StageProfiler,
    Tracer,
)
from repro.obs.tracer import Span
from repro.memory.builtins import AnyObject, MapFacade, VectorType
from repro.memory.columnar import ColumnarPage
from repro.memory.handle import Handle
from repro.memory.objects import make_object_on
from repro.schema import Schema
from repro.storage import DistributedStorageManager, ReplicationManager
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.shm_registry import ShmRegistry
from repro.tcap.compiler import compile_computations
from repro.tcap.optimizer import mark_columnar, optimize
from repro.cluster.faults import RetryPolicy
from repro.cluster.transport import make_transport
from repro.cluster.scheduler import (
    DEFAULT_BROADCAST_THRESHOLD,
    DistributedScheduler,
)
from repro.cluster.worker import WorkerNode

_ROOT_VECTOR = VectorType(AnyObject)


class _FaultCounters:
    """Fault / recovery counters shared by the cluster and its schedulers.

    Declared once against the master registry; the ``faults.*`` trace
    counters are the mirrors of these declarations, so the trace and
    ``cluster.metrics()`` report fault activity under matching names.
    """

    def __init__(self, metrics):
        self.backend_crashes = metrics.counter(
            "pc_faults_backend_crashes_total",
            help="Back-end process crashes (injected or real)",
            trace="faults.backend_crashes",
        )
        self.tasks_recovered = metrics.counter(
            "pc_faults_tasks_recovered_total",
            help="Worker tasks that succeeded on a retry",
            trace="faults.tasks_recovered",
        )
        self.workers_blacklisted = metrics.counter(
            "pc_faults_workers_blacklisted_total",
            help="Workers decommissioned after exhausting retries",
            trace="faults.workers_blacklisted",
        )
        self.workers_absorbed = metrics.counter(
            "pc_faults_workers_absorbed_total",
            help="Lost workers whose stage portion survivors absorbed",
            trace="faults.workers_absorbed",
        )
        self.workers_killed = metrics.counter(
            "pc_faults_workers_killed_total",
            help="Workers lost entirely (front-end storage included)",
            trace="faults.workers_killed",
        )
        self.pages_redistributed = metrics.counter(
            "pc_faults_pages_redistributed_total",
            help="Pages moved off dead workers onto survivors",
            trace="faults.pages_redistributed",
        )


class PCCluster:
    """One master plus ``n_workers`` simulated worker nodes."""

    def __init__(self, n_workers=4, page_size=DEFAULT_PAGE_SIZE,
                 worker_memory=64 << 20, batch_size=DEFAULT_BATCH_SIZE,
                 broadcast_threshold=DEFAULT_BROADCAST_THRESHOLD,
                 combiner_page_size=None, spill_root=None,
                 fault_injector=None, retry_policy=None, profiling=False,
                 sanitize=False, transport=None, tracing=True,
                 verify_plans=True):
        # The master's durable territory: the catalog journals every DDL
        # and replica-map mutation (write-ahead) under the spill root, so
        # recover() can rebuild its state after a simulated master crash.
        if spill_root is None:
            self._master_dir = tempfile.mkdtemp(prefix="pc-master-")
        else:
            os.makedirs(spill_root, exist_ok=True)
            self._master_dir = spill_root
        self.journal = CatalogJournal(
            os.path.join(self._master_dir, "catalog.journal")
        )
        self.catalog = CatalogManager(journal=self.journal)
        # Shared-memory hygiene: named segments are journaled next to the
        # catalog WAL, and segments stranded by a previous hard-killed
        # run under this spill root are reaped before any pool opens.
        self.shm_registry = ShmRegistry(
            os.path.join(self._master_dir, "shm.registry")
        )
        self.shm_registry.sweep_orphans()
        # ``tracing=False`` swaps in the null tracer: spans become the
        # shared no-op span and no trace is built — the zero-overhead
        # baseline BENCH_trace.json's overhead budget is measured against.
        self.tracer = Tracer(enabled=tracing)
        # The master process's metrics registry.  Every master-side
        # component (network, replication, scheduler, fault recovery)
        # publishes here; each worker front-end has its own registry and
        # metrics() merges them all into one cluster-wide snapshot.
        self.metrics_registry = MetricsRegistry(tracer=self.tracer)
        # PCSan: must be enabled before any worker allocates a block, so
        # every AllocationBlock in the cluster gets a shadow.  sanitize=
        # False leaves whatever the process-wide state is (env opt-in via
        # PC_SANITIZE=1 still applies); neither default installs wrappers.
        if sanitize:
            self.sanitizer = pcsan.enable(metrics=self.metrics_registry)
        else:
            self.sanitizer = pcsan.current_sanitizer()
        self.fault_metrics = _FaultCounters(self.metrics_registry)
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        # Static plan verification (repro.tcap.verify): the scheduler
        # type-checks every compiled plan against the catalog before it
        # dispatches anything.  On by default; False is the escape hatch
        # for deliberately-broken plans in fault experiments.
        self.verify_plans = verify_plans
        # The master-side flight recorder (DESIGN §14): a constant-memory
        # ring of structured runtime events, dumped into the job trace
        # when something dies.  Children get their own shared rings.
        self.flight = FlightRecorder(capacity=256)
        # ``transport`` picks where worker back-ends live: "sim" (default)
        # keeps them in-process and deterministic, "process" backs each one
        # with a real spawned OS process attaching sealed pages over
        # shared memory.  ``self.network`` stays as the historical alias.
        self.transport = make_transport(
            transport, tracer=self.tracer, fault_injector=fault_injector,
            retry_policy=self.retry_policy, metrics=self.metrics_registry,
            recorder=self.flight,
        )
        self.network = self.transport
        self.page_size = page_size
        self.batch_size = batch_size
        self.broadcast_threshold = broadcast_threshold
        self.combiner_page_size = combiner_page_size or page_size
        self.workers = []
        self.blacklist = set()
        self.storage_manager = DistributedStorageManager(self.catalog)
        for index in range(n_workers):
            spill = None
            if spill_root is not None:
                spill = "%s/worker-%d" % (spill_root, index)
            worker = WorkerNode(
                "worker-%d" % index, self.catalog, worker_memory, page_size,
                spill_dir=spill, tracer=self.tracer,
                fault_injector=fault_injector, transport=self.transport,
                shm_registry=self.shm_registry,
            )
            self.workers.append(worker)
            self.storage_manager.attach_server(worker.storage)
        self.replication = ReplicationManager(
            self.catalog, self.storage_manager, self.network,
            tracer=self.tracer, metrics=self.metrics_registry,
        )
        # The per-stage / per-operator profiler observes every worker's
        # buffer pool; profiling=False drops it wholesale (zero overhead).
        self.profiler = None
        if profiling:
            self.profiler = StageProfiler(
                registry=self.metrics_registry, tracer=self.tracer,
                pools=[w.storage.pool for w in self.workers],
            )
        self._c_jobs = self.metrics_registry.counter(
            "pc_sched_jobs_total", help="Jobs executed by the scheduler",
        )
        self._h_job_seconds = self.metrics_registry.histogram(
            "pc_sched_job_seconds", help="Wall seconds per executed job",
        )
        self._g_workers_active = self.metrics_registry.gauge(
            "pc_cluster_workers_active", help="Workers not blacklisted",
        )
        self._g_workers_blacklisted = self.metrics_registry.gauge(
            "pc_cluster_workers_blacklisted", help="Blacklisted workers",
        )
        self._g_replication_satisfied = self.metrics_registry.gauge(
            "pc_cluster_replication_satisfied",
            help="1 when every replica-mapped page is at its set's "
                 "replication factor",
        )
        self.metrics_registry.on_collect(self._collect_cluster_gauges)
        self.python_outputs = {}  # (db, set) -> python values (non-PC sinks)
        self.last_program = None
        self.last_plan = None
        self.last_job_log = None

    # -- metadata -------------------------------------------------------------------

    def register_type(self, cls_or_descriptor):
        """Register a PC type with the master catalog (required before use)."""
        return self.catalog.register_type(cls_or_descriptor)

    def create_database(self, name):
        self.storage_manager.create_database(name)

    def create_set(self, database, name, cls=None, *, page_size=None,
                   replication=1, layout=None, schema=None):
        """Create a set partitioned over all workers — the one DDL surface.

        ``replication=k`` keeps ``k`` synchronous copies of every page on
        ring-chosen workers: reads fail over to any live replica, and a
        node loss triggers re-replication instead of data loss.

        ``layout`` picks the physical page format: ``"row"`` (the default;
        object pages holding a root vector of handles) or ``"columnar"``
        (struct-of-arrays pages whose fixed-stride columns the engine can
        run whole-page numpy kernels over).  Columnar sets need a
        :class:`repro.schema.Schema`, given either explicitly via
        ``schema=`` (a Schema or a ``[("x", f64), ...]`` field list, which
        implies ``layout="columnar"``) or derived from ``cls`` when all of
        its fields are fixed-stride primitives.  Setting ``PC_LAYOUT=
        columnar`` in the environment makes derivable sets columnar by
        default without touching call sites.
        """
        type_name = None
        if isinstance(cls, str):
            type_name = cls
            cls = None
        elif cls is not None:
            self.register_type(cls)
            type_name = getattr(cls, "__name__", getattr(cls, "name", None))
        if schema is not None and not isinstance(schema, Schema):
            schema = Schema(schema)
        if layout is None:
            if schema is not None:
                layout = "columnar"
            elif os.environ.get("PC_LAYOUT") == "columnar" and cls is not None:
                # Default-on leg: derivable classes go columnar, the rest
                # keep the row layout (no schema, no array kernels).
                schema = Schema.from_class(cls)
                layout = "columnar" if schema is not None else "row"
            else:
                layout = "row"
        elif layout == "columnar" and schema is None:
            if cls is not None:
                schema = Schema.from_class(cls)
            if schema is None:
                raise CatalogError(
                    "columnar layout for %s.%s needs a schema= (or a cls "
                    "whose fields are all fixed-stride primitives)"
                    % (database, name)
                )
        elif layout == "row" and schema is not None:
            raise CatalogError(
                "layout='row' does not take a schema; drop schema= or ask "
                "for layout='columnar'"
            )
        return self.storage_manager.create_set(
            database, name, type_name, page_size=page_size,
            replication=replication, layout=layout, schema=schema,
        )

    def ensure_set(self, database, name):
        """Create a set if it does not exist (used for output sets)."""
        self.storage_manager.create_database(database)
        if (database, name) not in self.storage_manager:
            self.storage_manager.create_set(database, name, None)

    def clear_set(self, database, name):
        """Drop all stored pages of a set (keeps the metadata)."""
        for partition in self.storage_manager.partitions(database, name):
            partition.clear()
        if (database, name) in self.storage_manager:
            self.catalog.clear_pages(database, name)
        self.python_outputs.pop((database, name), None)

    def drop_set(self, database, name):
        self.storage_manager.drop_set(database, name)
        self.python_outputs.pop((database, name), None)

    # -- worker health -----------------------------------------------------------------

    @property
    def active_workers(self):
        """Workers that have not been blacklisted."""
        return [
            w for w in self.workers if w.worker_id not in self.blacklist
        ]

    def decommission_worker(self, worker_id, reason=None):
        """Blacklist a worker and redistribute its partitions to peers.

        The worker's *front-end* storage is durable (the paper's premise:
        only the back-end is unsafe), so losing the back-end loses no
        data.  Sets governed by the catalog replica map keep serving from
        their other replicas; pages whose only copy lived here are
        evacuated verbatim to a survivor first.  Legacy sets (no replica
        map) have all their pages shipped to the survivors, as before.
        After detaching, replication factors are restored on the
        survivors.  Returns the number of pages moved.
        """
        dead = next(
            (w for w in self.workers if w.worker_id == worker_id), None
        )
        if dead is None or worker_id in self.blacklist:
            return 0
        survivors = [
            w for w in self.active_workers if w.worker_id != worker_id
        ]
        if not survivors:
            raise ExecutionError(
                "cannot decommission %s: no surviving workers" % worker_id
            )
        self.blacklist.add(worker_id)
        moved = 0
        for key, page_set in dead.storage.sets():
            try:
                meta = self.catalog.set_metadata(*key)
            except CatalogError:
                meta = None
            if meta is not None and meta.pages:
                moved += self.replication.forget_worker(
                    key[0], key[1], worker_id, evacuate_from=dead.storage
                )
                continue
            for index, page_id in enumerate(list(page_set.page_ids)):
                peer = survivors[(moved + index) % len(survivors)]
                page = dead.storage.pool.pin(page_id)
                try:
                    with page.block.sealed_view() as data:
                        shipped = self.network.ship_page(
                            worker_id, peer.worker_id, data
                        )
                        peer.storage.create_set(
                            key[0], key[1], type_name=page_set.type_name,
                            page_size=page_set.page_size,
                            layout=page_set.layout, schema=page_set.schema,
                        ).adopt_page_bytes(shipped)
                finally:
                    dead.storage.pool.unpin(page_id)
            moved += len(page_set.page_ids)
            if meta is not None and worker_id in meta.partitions:
                self.catalog.set_partitions(
                    key[0], key[1],
                    [w for w in meta.partitions if w != worker_id],
                )
        self.storage_manager.detach_server(worker_id)
        self.replication.restore_replication()
        self.fault_metrics.pages_redistributed.inc(moved)
        return moved

    def kill_worker(self, worker_id, reason=None):
        """Simulate the total loss of a node — front-end storage included.

        Unlike :meth:`decommission_worker`, nothing can be read off the
        dead node: every set must be recovered from its live replicas.  A
        page without one is data loss and raises
        :class:`~repro.errors.ReplicationError`.  Afterwards each set's
        replication factor is restored on the survivors.  Returns the
        number of replica copies created.
        """
        dead = next(
            (w for w in self.workers if w.worker_id == worker_id), None
        )
        if dead is None or worker_id in self.blacklist:
            return 0
        if not [w for w in self.active_workers if w.worker_id != worker_id]:
            raise ExecutionError(
                "cannot kill %s: no surviving workers" % worker_id
            )
        self.blacklist.add(worker_id)
        self.storage_manager.detach_server(worker_id)
        for meta in self.catalog.list_sets():
            if meta.pages:
                self.replication.forget_worker(
                    meta.database, meta.name, worker_id
                )
            elif worker_id in meta.partitions:
                self.catalog.set_partitions(
                    meta.database, meta.name,
                    [w for w in meta.partitions if w != worker_id],
                )
        created = self.replication.restore_replication()
        # The counter is incremented inside the event span so the trace
        # mirror lands on the "kill" node, as the event counters used to.
        with self.tracer.span(
            "kill", kind="fault",
            detail="worker %s lost entirely (%s); %d replica(s) re-created"
            % (worker_id, reason or "killed", created),
        ):
            self.fault_metrics.workers_killed.inc()
        return created

    # -- master crash recovery -----------------------------------------------------

    def recover(self):
        """Simulate a master restart: rebuild the catalog from its journal.

        The in-memory DDL and replica-map state is discarded and replayed
        from the write-ahead journal, after which reads and queries serve
        the same answers as before the crash.  A restart is also the
        moment crash hygiene runs: shared-memory segments recorded in the
        registry but owned by dead processes are reaped, exactly like the
        startup sweep in ``__init__``.  Returns the number of journal
        records applied.
        """
        self.shm_registry.sweep_orphans()
        return self.catalog.replay_journal()

    # -- loading data -----------------------------------------------------------------

    def loader(self, database, set_name, page_size=None):
        """Client-side bulk loader: build pages locally, ship bytes.

        Pages are filled on the client with in-place allocations and
        dispatched whole to round-robin workers — the paper's
        ``sendData`` with zero-cost movement.  Use as a context manager:
        a clean exit flushes the final partial page; an exception inside
        the block *discards* the open page instead of shipping a
        half-built one.

        For a ``layout="columnar"`` set the returned loader builds
        struct-of-arrays pages instead: ``append`` takes the schema
        columns as keywords and ``append_columns`` loads whole arrays at
        once.
        """
        schema = self._columnar_layout_of(database, set_name)
        if schema is not None:
            return ColumnarClusterLoader(
                self, database, set_name, page_size or self.page_size,
                schema,
            )
        return ClusterLoader(self, database, set_name,
                             page_size or self.page_size)

    def _columnar_layout_of(self, database, set_name):
        """The set's Schema when its catalog layout is columnar, else None.

        This is both the loader dispatch and the layout oracle handed to
        :func:`repro.tcap.optimizer.mark_columnar` when planning a job.
        """
        try:
            meta = self.catalog.set_metadata(database, set_name)
        except CatalogError:  # pcsan: disable=PC005
            # Not-yet-created sets (e.g. a job's output set) simply are
            # not columnar; creation-time errors surface on their own.
            return None
        if meta.layout != "columnar":
            return None
        return meta.schema

    # -- execution ----------------------------------------------------------------------

    def execute_computations(self, sinks, optimized=True,
                             build_side_overrides=None, job_name="job",
                             columnar=None):
        """Compile, optimize, plan, and run a computation graph.

        Returns the scheduler's job log (the Figure 4 trace); the full
        span tree with counters is available as :attr:`last_trace`
        afterwards (even when a stage raised — partial traces are often
        the most interesting ones).

        ``columnar`` controls whether eligible operator subgraphs over
        columnar-layout scans are lowered onto whole-page array kernels
        (:func:`repro.tcap.optimizer.mark_columnar`).  The default (None)
        is on unless ``PC_COLUMNAR=0`` is set; pass False to force every
        operator down the object path (the parity tests' baseline).
        """
        if columnar is None:
            columnar = os.environ.get("PC_COLUMNAR", "1") != "0"
        started = time.perf_counter()
        # PCSan pin-leak detection: pins held before the job are fine
        # (client handles, prior jobs); anything above that baseline
        # still pinned when the job ends leaked inside this job.
        san = self.sanitizer
        pools = [w.storage.pool for w in self.workers]
        pin_baseline = san.snapshot_pins(pools) if san is not None else None
        flight_baseline = self.flight.seq
        crash_baseline = self.fault_metrics.backend_crashes.value
        with self.tracer.span(job_name, kind="job") as job_span:
            with self.tracer.span("compile", kind="phase"):
                program = compile_computations(sinks)
                if optimized:
                    optimize(program)
                if columnar:
                    mark_columnar(program, self._columnar_layout_of)
            with self.tracer.span("plan", kind="phase"):
                overrides = self._choose_build_sides(program)
                overrides.update(build_side_overrides or {})
                plan = plan_pipelines(program, build_side_overrides=overrides)
            scheduler = DistributedScheduler(
                self, program, plan,
                broadcast_threshold=self.broadcast_threshold,
            )
            self.last_program = program
            self.last_plan = plan
            failed = True
            try:
                job_log = scheduler.execute()
                failed = False
            finally:
                self.last_job_log = scheduler.job_log
                job_span.inc("job.stages", len(scheduler.job_log))
                job_span.inc("job.pipelines", len(plan))
                job_span.inc("job.workers", len(self.active_workers))
                self._c_jobs.inc()
                self._h_job_seconds.observe(time.perf_counter() - started)
                # Flight-recorder dump (DESIGN §14): when the job failed
                # or any back-end died mid-job, attach the master ring's
                # events from this job's window to the job span, so the
                # trace carries the last-N-events context of the verdict.
                died = (self.fault_metrics.backend_crashes.value
                        > crash_baseline)
                if (failed or died) and isinstance(job_span, Span):
                    job_span.events.extend(
                        self.flight.snapshot(since_seq=flight_baseline)
                    )
                if san is not None:
                    san.check_pins(pools, pin_baseline)
        return job_log

    def _choose_build_sides(self, program):
        """Pick each join's smaller input as the hash-build side.

        This is a physical decision the user never makes (the paper's
        data independence): the producer chain of each join input is
        walked back to its SCAN and the stored set sizes compared.
        Inputs whose size cannot be traced keep the default.
        """
        from repro.tcap.ir import JoinStmt, OutputStmt, ScanStmt

        producers = {
            s.output: s for s in program.statements
            if not isinstance(s, OutputStmt)
        }

        def source_bytes(vlist):
            statement = producers.get(vlist)
            while statement is not None and not isinstance(
                statement, (ScanStmt, JoinStmt)
            ):
                inputs = statement.input_names()
                if not inputs:
                    return None
                statement = producers.get(inputs[0])
            if not isinstance(statement, ScanStmt):
                return None
            if self.replication.has_page_map(
                statement.database, statement.set_name
            ):
                # Replica-aware: each page counted once, not per copy.
                return self.replication.estimated_bytes(
                    statement.database, statement.set_name
                )
            total = 0
            try:
                partitions = self.storage_manager.partitions(
                    statement.database, statement.set_name
                )
            except (CatalogError, StorageError):  # pcsan: disable=PC005
                # Unknown or not-yet-loaded source: size cannot be traced,
                # keep the default build side.  Anything else (a genuine
                # bug) must propagate, not silently skew join planning.
                return None
            for partition in partitions:
                for page_id in partition.page_ids:
                    try:
                        page = partition.pool.pin(page_id)
                    except PageReloadError:  # pcsan: disable=PC005
                        # Planning only needs an estimate; a flaky reload
                        # must not kill the job before it starts.
                        continue
                    total += page.block.used if page.block else 0
                    partition.pool.unpin(page_id)
            return total

        overrides = {}
        for statement in program.statements:
            if not isinstance(statement, JoinStmt):
                continue
            left = source_bytes(statement.left_input)
            right = source_bytes(statement.right_input)
            if left is not None and right is not None and left < right:
                overrides[statement.output] = "left"
        return overrides

    # -- reading results --------------------------------------------------------------------

    def read(self, database, set_name, *, as_pairs=False, comp=None):
        """Gather a set's contents to the client — the one read API.

        With ``as_pairs=False`` (default) returns the stored objects: PC
        objects come back as handles/facades (the client shares the
        process in this simulation), Python-value outputs come back
        as-is.  With ``as_pairs=True`` the set is treated as an
        aggregation output and merged into one ``{key: value}`` dict;
        ``comp`` (the AggregateComp) supplies ``decode_key`` /
        ``decode_value`` / ``combine`` for stored PC Maps.

        An unknown database or set raises
        :class:`~repro.errors.SetNotFoundError` — a typo'd name must not
        masquerade as an empty result.
        """
        results = []
        if self.replication.has_page_map(database, set_name):
            # Replica-map governed set: each page is read once, from its
            # first live replica, healed on the way if its spill reload
            # fails the CRC — the failover read path.
            results.extend(self.replication.scan_objects(database, set_name))
        else:
            for partition in self.storage_manager.partitions(
                database, set_name
            ):
                results.extend(partition.scan_objects())
        results.extend(self.python_outputs.get((database, set_name), []))
        if not as_pairs:
            return results
        merged = {}
        decode_key = comp.decode_key if comp is not None else (lambda k: k)
        decode_value = comp.decode_value if comp is not None else (lambda v: v)
        combine = comp.combine if comp is not None else None
        for item in results:
            view = item
            if isinstance(item, Handle) and not item.is_null:
                view = item.deref()
            if isinstance(view, MapFacade):
                pairs = view.items()
            elif isinstance(view, tuple) and len(view) == 2:
                pairs = [view]
            else:
                raise StorageError(
                    "set %s.%s does not look like an aggregation output"
                    % (database, set_name)
                )
            for key, value in pairs:
                key = decode_key(key)
                value = decode_value(value)
                if key in merged and combine is not None:
                    merged[key] = combine(merged[key], value)
                else:
                    merged[key] = value
        return merged

    # -- introspection ------------------------------------------------------------------------

    @property
    def last_trace(self):
        """The :class:`~repro.obs.Trace` of the most recent job, or None.

        An alias for ``traces(1)[0]``; back-to-back jobs rotate through
        the ring :meth:`traces` reads, so earlier evidence survives.
        """
        return self.tracer.last_trace

    def traces(self, n=1):
        """The last ``n`` completed job traces, most recent first.

        A small ring (:data:`repro.obs.tracer.TRACE_RING_SIZE` deep)
        keeps back-to-back jobs — the TPC-H acceptance suite, retry
        storms — from clobbering each other's evidence; returns fewer
        than ``n`` entries when fewer jobs have completed.
        """
        return self.tracer.recent_traces(n)

    @property
    def supervisor(self):
        """The transport's :class:`~repro.cluster.supervisor.Supervisor`.

        None on transports without real back-end processes (sim) — there
        is nothing to heartbeat; crashes there are plain exceptions.
        """
        return getattr(self.transport, "supervisor", None)

    def _collect_cluster_gauges(self):
        self._g_workers_active.set(len(self.active_workers))
        self._g_workers_blacklisted.set(len(self.blacklist))
        self._g_replication_satisfied.set(
            1 if self._replication_satisfied() else 0
        )

    def _replication_satisfied(self):
        """Whether every replica-mapped page is at its set's factor."""
        live = len(self.storage_manager.worker_ids)
        for meta in self.catalog.list_sets():
            if not meta.pages:
                continue
            want = min(meta.replication, live)
            factors = self.replication.replication_factors(
                meta.database, meta.name
            )
            if any(count < want for count in factors.values()):
                return False
        return True

    def metrics(self):
        """One merged :class:`~repro.obs.MetricsSnapshot` of the cluster.

        The master registry (network, replication, scheduler, faults) and
        every worker front-end's registry (buffer pools, engines — each
        stamped with its ``worker`` label) collapse into a single
        snapshot, ready for ``to_prometheus()`` / ``to_json()`` /
        ``render()``.
        """
        return MetricsSnapshot.merge(
            [self.metrics_registry.snapshot()]
            + [worker.metrics.snapshot() for worker in self.workers]
        )

    def health(self, check=None, snapshot=None):
        """Evaluate health rules against the current metrics.

        Returns the list of :class:`~repro.obs.HealthStatus` results from
        ``check`` (default: :meth:`HealthCheck.default`).
        """
        check = check if check is not None else HealthCheck.default()
        return check.evaluate(
            snapshot if snapshot is not None else self.metrics()
        )

    def healthy(self, check=None):
        """Whether every health rule passes right now."""
        return all(status.ok for status in self.health(check=check))

    # -- lifecycle ----------------------------------------------------------------------------

    def close(self):
        """Release transport-held resources (idempotent).

        Under the process transport this returns every worker's child
        process to the shared pool (or terminates it) and unlinks the
        shared-memory segments the buffer pools still own.  The simulated
        transport holds nothing, so closing is free — but closing every
        cluster keeps code portable across transports.
        """
        for worker in self.workers:
            worker.backend.shutdown()
        for worker in self.workers:
            worker.storage.pool.close()
        self.transport.close()
        self.shm_registry.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class ClusterLoader:
    """Builds pages client-side and dispatches them to workers.

    A context manager: ``__exit__`` flushes the final partial page on a
    clean exit and discards the open block when the body raised, so a
    failed load never ships a half-built page (and callers can no longer
    forget the manual ``flush()``).
    """

    def __init__(self, cluster, database, set_name, page_size):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.page_size = page_size
        self._block = None
        self._root = None
        self.pages_shipped = 0
        self.objects_loaded = 0
        self.objects_discarded = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.flush()
        else:
            self.discard()
        return False

    def _open_block(self):
        from repro.memory.block import AllocationBlock

        self._block = AllocationBlock(
            self.page_size, registry=self.cluster.catalog.registry
        )
        handle = make_object_on(self._block, _ROOT_VECTOR, [])
        self._block.set_root(handle.offset, handle.type_code)
        self._root = _ROOT_VECTOR.facade(self._block, handle.offset)

    def append(self, type_or_class, init=None, **fields):
        """Allocate one object in place on the client page."""
        if self._block is None:
            self._open_block()
        for attempt in (0, 1):
            try:
                self._root.reserve(len(self._root) + 1)
                handle = make_object_on(
                    self._block, type_or_class, init, **fields
                )
                self._root.append(handle)
                handle.release()
                self.objects_loaded += 1
                return
            except BlockFullError as full:
                if attempt:
                    raise StorageError(
                        "one object does not fit on an empty %d-byte page"
                        % self.page_size
                    ) from full
                self._ship_block()
                self._open_block()

    def append_built(self, build):
        """Allocate via ``build(block) -> handle`` on the client page."""
        if self._block is None:
            self._open_block()
        for attempt in (0, 1):
            try:
                from repro.memory.objects import use_allocation_block

                self._root.reserve(len(self._root) + 1)
                with use_allocation_block(self._block):
                    handle = build(self._block)
                self._root.append(handle)
                handle.release()
                self.objects_loaded += 1
                return
            except BlockFullError as full:
                if attempt:
                    raise StorageError(
                        "one object does not fit on an empty %d-byte page"
                        % self.page_size
                    ) from full
                self._ship_block()
                self._open_block()

    def _ship_block(self):
        if self._block is None or len(self._root) == 0:
            return
        # The replication layer stamps the sealed page's checksum, places
        # it on the set's ring replicas, and records the placement in the
        # catalog's (journaled) replica map.
        self.cluster.replication.store_page(
            self.database, self.set_name, self._block.sealed_view(),
            len(self._root), source="client",
        )
        self.pages_shipped += 1
        self._block = None
        self._root = None

    def flush(self):
        """Ship the final partially-filled page."""
        self._ship_block()

    def discard(self):
        """Drop the open partially-built page without shipping it."""
        if self._root is not None:
            self.objects_discarded += len(self._root)
        self._block = None
        self._root = None


class ColumnarClusterLoader:
    """Builds struct-of-arrays pages client-side for a columnar set.

    Rows are buffered per column and laid onto a
    :class:`~repro.memory.columnar.ColumnarPage` whenever a full page's
    worth (``capacity``) accumulates; the sealed page bytes ship through
    the same replication path as row pages.  Same context-manager
    contract as :class:`ClusterLoader`: clean exit flushes, an exception
    discards the buffered remainder.
    """

    def __init__(self, cluster, database, set_name, page_size, schema):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.page_size = page_size
        self.schema = schema
        self.capacity = ColumnarPage.capacity_for(schema, page_size)
        if self.capacity < 1:
            raise StorageError(
                "no row of %r fits on a %d-byte page"
                % (schema, page_size)
            )
        self._names = schema.names()
        self._buffers = {name: [] for name in self._names}
        self._buffered = 0
        self.pages_shipped = 0
        self.objects_loaded = 0
        self.objects_discarded = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.flush()
        else:
            self.discard()
        return False

    def append(self, type_or_class=None, init=None, **fields):
        """Buffer one row; keywords must cover every schema column.

        ``type_or_class`` is accepted (and ignored) so row-loader call
        sites can switch a set to columnar without edits — the schema
        already fixes the row type.
        """
        try:
            for name in self._names:
                self._buffers[name].append(fields[name])
        except KeyError:
            raise StorageError(
                "columnar append needs every schema column; missing %r"
                % (sorted(set(self._names) - set(fields)),)
            ) from None
        self._buffered += 1
        self.objects_loaded += 1
        if self._buffered >= self.capacity:
            self._ship_page()

    def append_columns(self, **columns):
        """Buffer many rows at once from equal-length per-column arrays."""
        lengths = {len(columns[name]) for name in self._names
                   if name in columns}
        if set(columns) != set(self._names) or len(lengths) != 1:
            raise StorageError(
                "append_columns needs equal-length values for exactly the "
                "schema columns %r" % (self._names,)
            )
        count = lengths.pop()
        for name in self._names:
            values = columns[name]
            buffer = self._buffers[name]
            buffer.extend(
                values.tolist() if hasattr(values, "tolist") else values
            )
        self._buffered += count
        self.objects_loaded += count
        while self._buffered >= self.capacity:
            self._ship_page()

    def append_built(self, build):
        raise StorageError(
            "columnar sets store fixed-stride columns, not built objects; "
            "use append(**fields) / append_columns(**arrays)"
        )

    def _ship_page(self):
        if not self._buffered:
            return
        take = min(self._buffered, self.capacity)
        columns = {}
        for name in self._names:
            buffer = self._buffers[name]
            columns[name] = buffer[:take]
            self._buffers[name] = buffer[take:]
        page = ColumnarPage.build(
            self.schema, columns, self.page_size,
            registry=self.cluster.catalog.registry,
        )
        self.cluster.replication.store_page(
            self.database, self.set_name, page.block.sealed_view(),
            len(page), source="client",
        )
        self._buffered -= take
        self.pages_shipped += 1

    def flush(self):
        """Ship everything still buffered (the final partial page last)."""
        while self._buffered:
            self._ship_page()

    def discard(self):
        """Drop the buffered, not-yet-shipped rows."""
        self.objects_discarded += self._buffered
        self._buffers = {name: [] for name in self._names}
        self._buffered = 0
