"""Pipelined, vectorized execution of physical plans (Appendix C).

The :class:`PipelineEngine` executes the pipelines produced by
:func:`repro.engine.physical.plan_pipelines` on one worker.  Vector-list
batches are pushed through each pipeline's stages; sinks collect results:

* hash-table sinks build the join tables probe pipelines consume;
* aggregation sinks pre-aggregate into a per-pipeline hash map (the
  paper's per-thread ``Map`` on an output page);
* collect and materialize sinks accumulate a segment's output columns;
* output sinks either collect Python values (local mode) or allocate PC
  objects in place on output-set pages (cluster mode), rolling to a fresh
  page on the out-of-memory fault and counting the resulting zombie pages.

:meth:`PipelineEngine.run_stages` is the one per-worker batch loop, used
locally, by the cluster scheduler, and inside back-end processes; sinks
that can run in a back-end process say how to rebuild them there
(:meth:`Sink.ship_spec`) and how to move their state back
(:meth:`Sink.state` / :meth:`Sink.load`).

Batches are processed with the current output page installed as the
active allocation block, so user code calling ``make_object`` inside a
native lambda allocates directly on the output page — the paper's
"data should be constructed where it is ultimately needed".
"""

from __future__ import annotations

import numpy as np

from repro.errors import BlockFullError, ExecutionError
from repro.obs import MetricsRegistry, Tracer
from repro.engine import kernels
from repro.memory.builtins import MapFacade, stable_hash
from repro.memory.columnar import ColumnarRows
from repro.memory.handle import Handle
from repro.memory.objects import use_allocation_block
from repro.engine.physical import (
    SINK_AGGREGATE,
    SINK_HASH_BUILD,
    SINK_MATERIALIZE,
    SINK_OUTPUT,
    SOURCE_SCAN,
)
from repro.engine.vectors import DEFAULT_BATCH_SIZE, VectorList, batches_of
from repro.tcap.ir import (
    ApplyStmt,
    FilterStmt,
    FlattenStmt,
    HashStmt,
    JoinStmt,
)


#: The engine's counts, each booked into a metrics registry as
#: ``pc_engine_<name>_total``, with the trace mirror it carries (if any).
_ENGINE_COUNTS = {
    "batches": "engine.batches",
    "rows_in": "engine.rows_in",
    "rows_out": "engine.rows_out",
    "stage_invocations": None,
    "pages_written": None,
    "zombie_pages": None,
    "pre_aggregated_keys": None,
    "probe_matches": None,
}


#: Operator labels for the profiler's ``pc_op_seconds`` histogram.
_OPERATOR_NAMES = {
    ApplyStmt: "apply",
    FilterStmt: "filter",
    HashStmt: "hash",
    FlattenStmt: "flatten",
    JoinStmt: "join",
}


class PipelineEngine:
    """Executes a physical plan over one worker's data."""

    def __init__(self, program, plan, scan_reader, batch_size=None,
                 registry=None, tracer=None, profiler=None):
        """``scan_reader(scan_stmt)`` yields the objects of a stored set.
        The engine books its counts into ``registry`` as
        ``pc_engine_<name>_total`` counters; without one it gets a private
        registry, so a local run's counts are exactly that run's.  With a
        ``profiler`` every TCAP operator application is timed into the
        ``pc_op_seconds{operator=...}`` histograms.
        """
        self.program = program
        self.plan = plan
        self.scan_reader = scan_reader
        self.batch_size = batch_size or DEFAULT_BATCH_SIZE
        self.tracer = tracer or Tracer()
        self.registry = registry if registry is not None else \
            MetricsRegistry(tracer=self.tracer)
        #: ``{name: Counter}``, declared in ``registry`` (get-or-create);
        #: ``columnar_rows`` counts the rows each operator ran on its
        #: array kernel.
        self.counters = {
            name: self.registry.counter(
                "pc_engine_%s_total" % name,
                help="Pipeline-engine counter: %s" % name.replace("_", " "),
                trace=trace,
            )
            for name, trace in _ENGINE_COUNTS.items()
        }
        self.counters["columnar_rows"] = self.registry.counter(
            "pc_engine_columnar_rows_total",
            help="Rows each operator processed on the columnar "
                 "(whole-page array kernel) path",
            labelnames=("operator",),
            trace="op.{operator}.columnar_rows",
        )
        self.profiler = profiler
        self.hash_tables = {}  # join output vlist -> {hash: [row tuples]}
        self.store = {}  # materialized vlist -> {column: list}
        self.outputs = {}  # (db, set) -> list (local-mode output sinks)

    # -- public ------------------------------------------------------------------

    def run(self):
        """Execute every pipeline in dependency order."""
        for pipeline in self.plan:
            self._run_pipeline(pipeline)
        return self.outputs

    # -- pipeline execution --------------------------------------------------------

    def _run_pipeline(self, pipeline):
        sink = self._make_sink(pipeline)
        self.run_stages(pipeline.stages, self._source_batches(pipeline), sink)
        sink.finish()

    def run_stages(self, stages, batches, sink):
        """Push every batch through ``stages`` into ``sink``.

        The one per-worker batch loop: the local engine, the cluster
        scheduler's inline attempts and the back-end process all run a
        worker's stage portion through here, so every engine counter is
        booked in one place.  Finishing the sink is the caller's: a
        back-end process ships the unfinished :meth:`Sink.state` and the
        coordinator finishes it on :meth:`Sink.load`.
        """
        for batch in batches:
            self._process_batch(stages, batch, sink)

    def _process_batch(self, stages, batch, sink):
        """Push one batch through all stages into the sink.

        Allocation faults from a page-backed sink roll the output page and
        re-run the batch from the top; objects the failed attempt left on
        the sealed page become dead space, and the sealed page — which may
        hold output rows already — is the paper's zombie output page.
        """
        counters = self.counters
        counters["batches"].inc()
        counters["rows_in"].inc(len(batch))
        for attempt in range(3):
            block = sink.allocation_block()
            try:
                if block is not None:
                    with use_allocation_block(block):
                        current = self._apply_stages(stages, batch)
                        if current is not None:
                            sink.consume(current)
                else:
                    current = self._apply_stages(stages, batch)
                    if current is not None:
                        sink.consume(current)
                if current is not None:
                    counters["rows_out"].inc(len(current))
                return
            except BlockFullError:
                if attempt == 2:
                    raise
                sink.roll_page()
                counters["zombie_pages"].inc()

    def _apply_stages(self, stages, batch):
        """Run all stages; returns None when a stage empties the batch."""
        current = batch
        invocations = self.counters["stage_invocations"]
        for stage in stages:
            invocations.inc()
            current = self._apply_stage(stage, current)
            if len(current) == 0:
                return None
        return current

    def _apply_stage(self, stage, batch):
        if self.profiler is not None:
            return self.profiler.operator(
                _OPERATOR_NAMES.get(type(stage), type(stage).__name__),
                self._apply_stage_inner, stage, batch,
            )
        return self._apply_stage_inner(stage, batch)

    def _apply_stage_inner(self, stage, batch):
        if stage.info.get("columnar") == "1":
            result = self._apply_columnar(stage, batch)
            if result is not None:
                return result
        # Fallback boundary: operators past this point run per-row, so any
        # array columns are lowered back to plain Python values first.
        batch = kernels.reify(batch)
        if isinstance(stage, ApplyStmt):
            fn = self.program.stage_fn(stage.computation, stage.stage)
            inputs = [batch.column(c) for c in stage.apply_columns]
            produced = fn(*inputs)
            out = batch.shallow_copy(stage.copy_columns)
            return out.with_column(stage.new_column, list(produced))
        if isinstance(stage, FilterStmt):
            mask = batch.column(stage.bool_column)
            return VectorList({
                name: [v for v, keep in zip(batch.column(name), mask) if keep]
                for name in stage.copy_columns
            })
        if isinstance(stage, HashStmt):
            keys = batch.column(stage.key_column)
            out = batch.shallow_copy(stage.copy_columns)
            return out.with_column(
                stage.new_column, [stable_hash(k) for k in keys]
            )
        if isinstance(stage, FlattenStmt):
            out = {c: [] for c in stage.output_columns()}
            copies = [batch.column(c) for c in stage.copy_columns]
            for row, seq in enumerate(batch.column(stage.seq_column)):
                for item in seq:
                    out[stage.new_column].append(item)
                    for name, column in zip(stage.copy_columns, copies):
                        out[name].append(column[row])
            return VectorList(out)
        if isinstance(stage, JoinStmt):
            return self._probe(stage, batch)
        raise ExecutionError("unknown stage %r" % type(stage).__name__)

    def _apply_columnar(self, stage, batch):
        """Try the whole-batch kernel for a columnar-marked stage.

        Returns None when the batch is not actually array-typed (orphan
        replays, post-fallback segments) — the caller then takes the
        per-row path, which is always correct.
        """
        if isinstance(stage, ApplyStmt):
            result = kernels.apply_kernel(self, stage, batch)
        elif isinstance(stage, FilterStmt):
            result = kernels.filter_kernel(stage, batch)
        else:
            result = None
        if result is not None:
            self.counters["columnar_rows"].inc(
                len(batch),
                operator=_OPERATOR_NAMES.get(type(stage),
                                             type(stage).__name__),
            )
        return result

    def _probe(self, stage, batch):
        table = self.hash_tables.get(stage.output)
        if table is None:
            raise ExecutionError(
                "hash table for %s was not built" % stage.output
            )
        build_side = self.plan.build_sides.get(stage.output, "right")
        if build_side == "right":
            probe_columns, probe_hash = stage.left_columns, stage.left_hash
            built_columns = stage.right_columns
        else:
            probe_columns, probe_hash = stage.right_columns, stage.right_hash
            built_columns = stage.left_columns
        out = {c: [] for c in stage.output_columns()}
        probe_cols = [batch.column(c) for c in probe_columns]
        matches = 0
        for row, hash_value in enumerate(batch.column(probe_hash)):
            for built_row in table.get(hash_value, ()):
                matches += 1
                for name, column in zip(probe_columns, probe_cols):
                    out[name].append(column[row])
                for name, value in zip(built_columns, built_row):
                    out[name].append(value)
        if matches:
            self.counters["probe_matches"].inc(matches)
        return VectorList(out)

    # -- sources ---------------------------------------------------------------------

    def _source_batches(self, pipeline):
        if pipeline.source_kind == SOURCE_SCAN:
            scan = pipeline.source
            yield from object_batches(
                self.scan_reader(scan), scan.column, self.batch_size,
                columnar=scan.info.get("columnar") == "1",
            )
            return
        columns = self.store.get(pipeline.source)
        if columns is None:
            raise ExecutionError(
                "vector list %r was not materialized" % pipeline.source
            )
        yield from batches_of(columns, self.batch_size)

    # -- sinks -----------------------------------------------------------------------

    def _make_sink(self, pipeline):
        if pipeline.sink_kind == SINK_HASH_BUILD:
            return HashBuildSink(self, pipeline.sink)
        if pipeline.sink_kind == SINK_AGGREGATE:
            return AggregateSink(self, pipeline.sink)
        if pipeline.sink_kind == SINK_MATERIALIZE:
            return MaterializeSink(self, pipeline.sink)
        if pipeline.sink_kind == SINK_OUTPUT:
            return ListOutputSink(self, pipeline.sink)
        raise ExecutionError("unknown sink kind %r" % pipeline.sink_kind)


def object_batches(objects, column, batch_size, columnar=False):
    """Batch a scanned object stream into single-column vector lists.

    Shared by the engine's scan source and the scheduler's orphan-page
    re-runs; stored aggregation Maps are expanded into their pairs either
    way.  A columnar page arrives in the stream as one
    :class:`~repro.memory.columnar.ColumnarRows` item: with ``columnar``
    set it is sliced into array batches the kernels consume whole,
    otherwise it is expanded into per-row views for the object path.
    """
    chunk = []
    for item in objects:
        if isinstance(item, ColumnarRows):
            if columnar:
                if chunk:
                    yield VectorList({column: chunk})
                    chunk = []
                for start in range(0, len(item), batch_size):
                    yield VectorList(
                        {column: item.slice(start, start + batch_size)}
                    )
            else:
                chunk.extend(item)
                while len(chunk) >= batch_size:
                    yield VectorList({column: chunk[:batch_size]})
                    chunk = chunk[batch_size:]
            continue
        expanded = _expand_aggregate_object(item)
        if expanded is None:
            chunk.append(item)
        else:
            chunk.extend(expanded)
        if len(chunk) >= batch_size:
            yield VectorList({column: chunk})
            chunk = []
    if chunk:
        yield VectorList({column: chunk})


def _expand_aggregate_object(item):
    """Expand a stored aggregation Map into its (key, value) pairs.

    Aggregation results are stored as PC Map objects (Appendix D.2); a
    downstream computation scanning such a set consumes the pairs.
    Returns None when ``item`` is not an aggregation map.
    """
    if isinstance(item, MapFacade):
        return list(item.items())
    if isinstance(item, Handle) and not item.is_null:
        view = item.deref()
        if isinstance(view, MapFacade):
            return list(view.items())
    return None


class Sink:
    """Base pipe sink."""

    def __init__(self, engine):
        self.engine = engine

    def allocation_block(self):
        """The output page block stages should allocate onto, if any."""
        return None

    def roll_page(self):
        raise BlockFullError(0, 0)  # sinks without pages cannot recover

    def consume(self, batch):
        raise NotImplementedError

    def finish(self):
        """Flush at end of pipeline."""

    def abort(self):
        """Undo any *durable* half-effects of a failed attempt.

        Called by the scheduler's retry machinery after a back-end crash,
        before the task is re-dispatched into a fresh sink.  Sinks whose
        state is engine-transient (discarded with the re-forked back-end)
        need do nothing; page-writing sinks roll their partial pages back.
        """

    # -- shipping to a back-end process ---------------------------------------------
    #
    # A shippable sink is rebuilt in the back-end process from
    # ``ship_spec()``, fed there, and its unfinished ``state()`` shipped
    # back; the coordinator's own sink ``load``s that state, which
    # finishes it, so merge semantics and finish-time accounting happen
    # exactly once, front-end side.

    #: The attribute a shippable sink accumulates into.
    state_attr = None

    def ship_spec(self):
        """``(sink class, args)`` rebuilding this sink in a back-end
        process as ``cls(engine, *args)``, or None when it must run here
        (it writes worker-local pages or merges into coordinator state)."""
        return None

    def state(self):
        """What this sink accumulated, before :meth:`finish`."""
        return getattr(self, self.state_attr)

    def load(self, state):
        """Install a back-end process's :meth:`state`, then finish."""
        setattr(self, self.state_attr, state)
        self.finish()


class HashBuildSink(Sink):
    """Builds the hash table for a join's build side."""

    state_attr = "table"

    def __init__(self, engine, join_stmt):
        super().__init__(engine)
        self.join = join_stmt
        side = engine.plan.build_sides[join_stmt.output]
        if side == "right":
            self.hash_column = join_stmt.right_hash
            self.columns = join_stmt.right_columns
        else:
            self.hash_column = join_stmt.left_hash
            self.columns = join_stmt.left_columns
        self.table = {}

    def consume(self, batch):
        batch = kernels.reify(batch)
        cols = [batch.column(c) for c in self.columns]
        for row, hash_value in enumerate(batch.column(self.hash_column)):
            self.table.setdefault(hash_value, []).append(
                tuple(column[row] for column in cols)
            )

    def finish(self):
        self.engine.hash_tables[self.join.output] = self.table

    def ship_spec(self):
        return HashBuildSink, (self.join,)


class AggregateSink(Sink):
    """Pre-aggregates (key, value) pairs — the paper's producing stage.

    With ``merge=True`` the finished groups are combined into whatever the
    engine's store already holds for this output instead of overwriting
    it — the mode the scheduler uses when a surviving worker absorbs a
    lost peer's orphaned scan pages after its own portion completed.
    """

    state_attr = "groups"

    def __init__(self, engine, agg_stmt, merge=False):
        super().__init__(engine)
        self.statement = agg_stmt
        self.comp = engine.program.computations[agg_stmt.computation]
        self.groups = {}
        self.merge = merge

    def consume(self, batch):
        keys = batch.column(self.statement.key_column)
        values = batch.column(self.statement.value_column)
        if (
            self.statement.info.get("columnar") == "1"
            and isinstance(keys, np.ndarray)
            and isinstance(values, np.ndarray)
        ):
            # Declared-sum aggregation over array columns: one grouped
            # bincount per batch instead of a per-row combine loop.
            kernels.aggregate_sum(self.groups, keys, values)
            self.engine.counters["columnar_rows"].inc(
                len(batch), operator="aggregate"
            )
            return
        keys = kernels.reify_column(keys)
        values = kernels.reify_column(values)
        combine = self.comp.combine
        groups = self.groups
        for key, value in zip(keys, values):
            if key in groups:
                groups[key] = combine(groups[key], value)
            else:
                groups[key] = value

    def finish(self):
        self.engine.counters["pre_aggregated_keys"].inc(len(self.groups))
        groups = self.groups
        existing = (
            self.engine.store.get(self.statement.output)
            if self.merge else None
        )
        if existing:
            merged = dict(zip(existing["key"], existing["val"]))
            combine = self.comp.combine
            for key, value in groups.items():
                if key in merged:
                    merged[key] = combine(merged[key], value)
                else:
                    merged[key] = value
            groups = merged
        self.engine.store[self.statement.output] = {
            "key": list(groups.keys()),
            "val": list(groups.values()),
        }

    def ship_spec(self):
        return None if self.merge else (AggregateSink, (self.statement,))


class CollectSink(Sink):
    """Accumulates a stage portion's output columns as plain values.

    The scheduler collects through it wherever a partitioned join splits
    a pipeline: the columns are shuffled to the next segment's workers.
    Array-backed columns are lowered on arrival, so the columns are
    picklable and free of page-memory references.
    """

    state_attr = "columns"

    def __init__(self, engine):
        super().__init__(engine)
        self.columns = None

    def consume(self, batch):
        batch = kernels.reify(batch)
        if self.columns is None:
            self.columns = {name: [] for name in batch.names()}
        for name in self.columns:
            self.columns[name].extend(batch.column(name))

    def ship_spec(self):
        return CollectSink, ()


class MaterializeSink(CollectSink):
    """Materializes a multi-consumer vector list.

    ``merge=True`` appends the finished columns to the store's existing
    entry instead of replacing it (see :class:`AggregateSink`).
    """

    def __init__(self, engine, vlist_name, merge=False):
        super().__init__(engine)
        self.vlist_name = vlist_name
        self.merge = merge

    def ship_spec(self):
        return None if self.merge else (MaterializeSink, (self.vlist_name,))

    def finish(self):
        columns = self.columns or {}
        existing = (
            self.engine.store.get(self.vlist_name) if self.merge else None
        )
        if existing:
            merged = {name: list(vals) for name, vals in existing.items()}
            for name, vals in columns.items():
                merged.setdefault(name, []).extend(vals)
            columns = merged
        self.engine.store[self.vlist_name] = columns


class ListOutputSink(Sink):
    """Local-mode output: collect Python values."""

    def __init__(self, engine, output_stmt):
        super().__init__(engine)
        self.statement = output_stmt

    def consume(self, batch):
        key = (self.statement.database, self.statement.set_name)
        self.engine.outputs.setdefault(key, []).extend(
            kernels.reify_column(batch.column(self.statement.column))
        )
