"""Per-stage / per-operator execution profiling.

The scheduler wraps every distributed job stage, and the pipeline engine
every TCAP operator application, in a :class:`StageProfiler` scope.  Each
scope records:

* **wall time** (``time.perf_counter``) into a log-bucketed histogram
  (``pc_sched_stage_seconds{stage=...}`` / ``pc_op_seconds{operator=...}``),
  the series the Figure 4/5 style breakdowns and every later perf PR are
  judged against (p50/p95/p99 come out of the bucket math);
* **CPU time** (``time.process_time``) — in the single-process simulation
  the wall/CPU gap is time spent sleeping or in I/O;
* **pages touched** — the delta of buffer-pool pins across all provided
  pools while the scope was open;
* **peak-bytes watermark** — the high-water mark of total buffer-pool
  occupancy inside the scope.  Scopes nest correctly: a child scope's
  peak also counts toward its parent's.

Every quantity is *also* attached to the active trace span
(``prof.wall_ms`` / ``prof.cpu_ms`` / ``prof.pages_touched`` /
``prof.peak_bytes`` and ``op.<name>.*``), so one job's trace and the
cluster-lifetime metrics tell the same story.

Profiling is dropped wholesale when disabled
(``PCCluster(profiling=False)``): the engine and scheduler then call the
wrapped function directly, paying nothing.  The enabled-path overhead is
bounded by the CI metrics leg at <5% of the Figure-4 runtime benchmark.
"""

from __future__ import annotations

import time

from repro.obs.metrics import MetricsRegistry


class StageProfiler:
    """Times stages and operators into histograms and trace spans."""

    def __init__(self, registry=None, tracer=None, pools=None):
        self.registry = registry if registry is not None else \
            MetricsRegistry()
        self.tracer = tracer
        #: buffer pools observed for pages-touched / peak-bytes; the
        #: cluster appends each worker's pool (duck-typed: a ``metrics``
        #: registry holding its pin counter, ``in_memory_bytes`` and
        #: ``peak_in_memory_bytes`` attributes).
        self.pools = list(pools) if pools is not None else []
        self.stage_seconds = self.registry.histogram(
            "pc_sched_stage_seconds",
            help="Wall seconds per distributed job stage",
            labelnames=("stage",),
        )
        self.stages_total = self.registry.counter(
            "pc_sched_stages_total",
            help="Distributed job stages executed",
            labelnames=("stage",),
        )
        self.stage_cpu_seconds = self.registry.counter(
            "pc_sched_stage_cpu_seconds_total",
            help="CPU seconds per distributed job stage",
            labelnames=("stage",),
        )
        self.stage_pages = self.registry.counter(
            "pc_sched_stage_pages_touched_total",
            help="Buffer-pool pins during each job stage",
            labelnames=("stage",),
        )
        self.stage_peak_bytes = self.registry.gauge(
            "pc_sched_stage_peak_bytes",
            help="Max peak buffer-pool occupancy seen in any one stage run",
            labelnames=("stage",),
        )
        self.op_seconds = self.registry.histogram(
            "pc_op_seconds",
            help="Wall seconds per TCAP operator application",
            labelnames=("operator",),
        )
        self.op_cpu_seconds = self.registry.counter(
            "pc_op_cpu_seconds_total",
            help="CPU seconds per TCAP operator",
            labelnames=("operator",),
        )
        self.op_rows = self.registry.counter(
            "pc_op_rows_total",
            help="Rows emitted per TCAP operator",
            labelnames=("operator",),
        )
        self.op_pages = self.registry.counter(
            "pc_op_pages_touched_total",
            help="Buffer-pool pins during operator applications",
            labelnames=("operator",),
        )
        self.op_peak_bytes = self.registry.gauge(
            "pc_op_peak_bytes",
            help="Max peak buffer-pool occupancy in any one operator run",
            labelnames=("operator",),
        )
        #: hot-path caches, keyed by operator/stage name: pre-resolved
        #: per-series metric handles, pre-formatted trace-counter names,
        #: and the peak watermark already exported (avoids a labeled
        #: gauge read on every application).
        self._op_handles = {}
        self._stage_handles = {}
        self._op_trace_keys = {}
        self._op_peak_seen = {}
        self._stage_peak_seen = {}

    def add_pool(self, pool):
        self.pools.append(pool)

    # -- nesting-aware pool watermarks ---------------------------------------------

    def _pins_total(self):
        return sum(pool.metrics.get("pc_pool_pages_pinned_total").value
                   for pool in self.pools)

    def _begin_scope(self):
        """Snapshot pin counts and reset peak watermarks (restorable)."""
        saved_peaks = []
        for pool in self.pools:
            saved_peaks.append(pool.peak_in_memory_bytes)
            pool.peak_in_memory_bytes = pool.in_memory_bytes
        return self._pins_total(), saved_peaks

    def _end_scope(self, begin_state):
        """(pages_touched, peak_bytes); restores parent-scope watermarks."""
        pins_before, saved_peaks = begin_state
        peak = 0
        for pool, saved in zip(self.pools, saved_peaks):
            peak += pool.peak_in_memory_bytes
            # A parent scope's watermark must reflect this child's peak.
            pool.peak_in_memory_bytes = max(saved, pool.peak_in_memory_bytes)
        return self._pins_total() - pins_before, peak

    # -- stage profiling ------------------------------------------------------------

    def stage(self, stage_name):
        """Context manager profiling one distributed job stage."""
        return _Scope(self, stage_name, kind="stage")

    # -- operator profiling -----------------------------------------------------------

    def _op_handle(self, name):
        handles = self._op_handles.get(name)
        if handles is None:
            handles = self._op_handles[name] = (
                self.op_seconds.child(operator=name),
                self.op_cpu_seconds.child(operator=name),
                self.op_rows.child(operator=name),
                self.op_pages.child(operator=name),
            )
            self._op_trace_keys[name] = (
                "op.%s.calls" % name, "op.%s.wall_ms" % name,
                "op.%s.cpu_ms" % name, "op.%s.rows" % name,
            )
        return handles

    def operator(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a profiled operator scope; returns its result."""
        seconds, cpu_seconds, op_rows, op_pages = self._op_handle(name)
        begin = self._begin_scope()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        pages, peak = self._end_scope(begin)
        seconds.observe(wall)
        cpu_seconds.inc(cpu)
        rows = len(result) if result is not None else 0
        if rows:
            op_rows.inc(rows)
        if pages:
            op_pages.inc(pages)
        if peak > self._op_peak_seen.get(name, -1):
            self._op_peak_seen[name] = peak
            self.op_peak_bytes.set(peak, operator=name)
        tracer = self.tracer
        if tracer is not None and tracer.active is not None:
            names = self._op_trace_keys[name]
            tracer.add(names[0])
            tracer.add(names[1], wall * 1e3)
            tracer.add(names[2], cpu * 1e3)
            if rows:
                tracer.add(names[3], rows)
        return result


class _Scope:
    """One profiled stage scope (wall/cpu/pages/peak on exit)."""

    def __init__(self, profiler, name, kind):
        self.profiler = profiler
        self.name = name
        self.kind = kind

    def __enter__(self):
        self._begin = self.profiler._begin_scope()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        profiler = self.profiler
        name = self.name
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        pages, peak = profiler._end_scope(self._begin)
        handles = profiler._stage_handles.get(name)
        if handles is None:
            handles = profiler._stage_handles[name] = (
                profiler.stage_seconds.child(stage=name),
                profiler.stages_total.child(stage=name),
                profiler.stage_cpu_seconds.child(stage=name),
                profiler.stage_pages.child(stage=name),
            )
        seconds, total, cpu_seconds, stage_pages = handles
        seconds.observe(wall)
        total.inc()
        cpu_seconds.inc(cpu)
        if pages:
            stage_pages.inc(pages)
        if peak > profiler._stage_peak_seen.get(name, -1):
            profiler._stage_peak_seen[name] = peak
            profiler.stage_peak_bytes.set(peak, stage=name)
        tracer = profiler.tracer
        if tracer is not None and tracer.active is not None:
            tracer.add("prof.wall_ms", wall * 1e3)
            tracer.add("prof.cpu_ms", cpu * 1e3)
            tracer.add("prof.pages_touched", pages)
            tracer.add("prof.peak_bytes", peak)
        return False
