"""Pluggable-transport tests: sim/process parity and shuffle integrity.

The transport layer (DESIGN §11) carries two back-ends behind one
interface: the deterministic ``SimulatedNetwork`` and the
``ProcessTransport`` whose workers run user code in real spawned
processes attached to sealed pages over POSIX shared memory.  These
tests pin the contracts the split must keep: row shuffles get the same
checksum/re-send integrity as page transfers, a crashed back-end
refuses work until it is re-forked, the re-fork counter is a real
PC004-compliant metric, and an injected crash racing an in-flight
shuffle produces byte-identical TPC-H results on both transports.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cluster import (
    FakeClock,
    FaultInjector,
    PCCluster,
    RetryPolicy,
    SimulatedNetwork,
    make_transport,
)
from repro.cluster.transport import ProcessTransport, remote_available
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.errors import BackendCrashedError, PageCorruptionError, \
    WorkerCrashError
from repro.lillinalg import DistributedMatrix
from repro.tpch import TpchSpec, customers_per_supplier_pc, load_pc_customers
from repro.tpch.lineitem import load_lineitems, q6_revenue, reference_q6

from test_cluster_execution import Label, _load_points
from test_cluster_execution import Label, _load_points
from test_fault_tolerance import (
    expected_sums,
    fast_policy,
    load_points,
    make_cluster,
    run_aggregation,
)


# -- transport selection --------------------------------------------------------------


def test_make_transport_resolves_names_and_passthrough():
    sim = make_transport("sim")
    assert isinstance(sim, SimulatedNetwork)
    assert sim.name == "sim" and sim.page_residency == "mem"
    proc = make_transport("process")
    assert isinstance(proc, ProcessTransport)
    assert proc.name == "process" and proc.page_residency == "shm"
    assert make_transport(sim) is sim  # instances pass through untouched
    with pytest.raises(ValueError, match="unknown transport"):
        make_transport("carrier-pigeon")
    proc.close()


def test_cluster_exposes_selected_transport(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    assert cluster.transport is cluster.network


# -- satellite: row-shuffle integrity (seed regression) -------------------------------


def test_corrupted_row_shuffle_is_detected_and_resent(tmp_path):
    # Seed behavior under test: ship_rows delivered a ``corrupt`` verdict
    # unchanged.  Now the batch is checksummed, the corruption detected
    # on receipt, and the batch re-sent within the transfer budget.
    injector = FaultInjector().corrupt_transfer(times=1)
    cluster = make_cluster(tmp_path, "c", injector=injector)
    rows = [(1, 2.0), (2, 3.0), (3, 5.0)]
    shipped = cluster.network.ship_rows("worker-0", "worker-1", rows)
    assert shipped == rows  # the receiver never sees the corrupt batch
    assert cluster.metrics().value("pc_net_transfers_corrupted_total") == 1
    assert cluster.metrics().value("pc_net_transfer_retries_total") == 1


def test_corrupted_row_shuffle_without_budget_raises(tmp_path):
    injector = FaultInjector().corrupt_transfer(times=1)
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=RetryPolicy.disabled()
    )
    with pytest.raises(PageCorruptionError, match="re-send budget"):
        cluster.network.ship_rows("worker-0", "worker-1", [(1, 1.0)])
    assert cluster.metrics().value("pc_net_transfers_corrupted_total") == 1
    assert cluster.metrics().value("pc_net_transfer_retries_total") == 0


def test_row_shuffle_checksum_skipped_without_injector(tmp_path):
    cluster = make_cluster(tmp_path, "c")  # no fault injector
    rows = [(7, 11.0)]
    assert cluster.network.ship_rows("worker-0", "worker-1", rows) is rows


# -- satellite: crashed back-end rejects dispatch -------------------------------------


def test_crashed_backend_rejects_dispatch_until_reforked(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    worker = cluster.workers[0]

    def boom():
        raise RuntimeError("user code exploded")

    with pytest.raises(WorkerCrashError):
        worker.dispatch(boom)  # the crash re-forks via dispatch...
    assert worker.refork_count == 1

    worker.backend.crashed = True  # ...but a dead back-end, un-reforked:
    before = worker.refork_count
    with pytest.raises(BackendCrashedError, match="re-fork"):
        worker.dispatch(lambda: 1)
    assert worker.refork_count == before  # rejection is not a crash

    worker.refork_backend()
    assert worker.dispatch(lambda: 41 + 1) == 42
    assert worker.refork_count == before + 1


def test_run_user_code_on_crashed_backend_raises_backend_crashed(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    backend = cluster.workers[0].backend

    def boom():
        raise ValueError("nope")

    with pytest.raises(WorkerCrashError):
        backend.run_user_code(boom)
    assert backend.crashed
    with pytest.raises(BackendCrashedError, match="worker-0"):
        backend.run_user_code(lambda: 1)


# -- satellite: re-fork counter is a real metric --------------------------------------


def test_refork_count_is_pc004_counter_with_trace_mirror(tmp_path):
    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-1", times=1)
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=fast_policy(clock)
    )
    load_points(cluster)
    assert run_aggregation(cluster) == expected_sums()
    snapshot = cluster.metrics()
    assert snapshot.value("pc_worker_reforks_total") == 1
    assert snapshot.value("pc_worker_reforks_total", worker="worker-1") == 1
    assert snapshot.value("pc_worker_reforks_total", worker="worker-0") == 0
    # the same increment feeds the job trace
    assert cluster.last_trace.totals()["faults.reforks"] == 1
    assert "pc_worker_reforks_total" in snapshot.to_prometheus()


# -- satellite: re-fork racing an in-flight shuffle -----------------------------------

TPCH_SPEC = TpchSpec(n_customers=30, n_parts=40, n_suppliers=6, seed=11)


def _tpch_with_midshuffle_crash(tmp_path, subdir, transport, injector=None):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    cluster = PCCluster(
        n_workers=3, page_size=1 << 14, spill_root=str(root),
        fault_injector=injector,
        retry_policy=fast_policy(FakeClock()) if injector else None,
        transport=transport,
    )
    load_pc_customers(cluster, TPCH_SPEC, replication=2)
    result, total = customers_per_supplier_pc(cluster)
    return cluster, result, total


@pytest.mark.parametrize("transport", ["sim", "process"])
def test_refork_racing_inflight_shuffle_is_byte_identical(
    tmp_path, transport
):
    # Baseline: the same TPC-H job with no faults, on the simulator.
    _, baseline, baseline_total = _tpch_with_midshuffle_crash(
        tmp_path, "clean-" + transport, "sim"
    )
    # Crash worker-1's back-end during the pre-aggregation pipeline that
    # feeds the shuffle: with the process transport its peers' tasks are
    # already submitted when the loss is detected, so the re-fork +
    # retry races real in-flight work.
    injector = FaultInjector().crash_backend(
        "worker-1", stage_kind="PipelineJobStage", times=1
    )
    cluster, result, total = _tpch_with_midshuffle_crash(
        tmp_path, "faulted-" + transport, transport, injector
    )
    assert injector.counts["backend_crashes"] == 1
    assert sum(w.refork_count for w in cluster.workers) == 1
    assert total == baseline_total > 0
    assert result == baseline


@pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)
def test_process_transport_runs_real_child_processes(tmp_path):
    root = tmp_path / "proc"
    root.mkdir()
    cluster = PCCluster(
        n_workers=2, page_size=1 << 14, spill_root=str(root),
        transport="process",
    )
    load_points(cluster, n=120)
    assert run_aggregation(cluster) == expected_sums(n=120)
    pids = {
        worker.backend.child_pid for worker in cluster.workers
    } - {None}
    assert pids, "no task ran in a child process"
    assert os.getpid() not in pids
    cluster.close()


# -- one worker-task body: counted re-runs and counter parity ---------------------------

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)


def _inline_reruns(cluster):
    return cluster.metrics().value("pc_task_inline_reruns_total")


@needs_process
def test_rejected_tasks_are_counted_as_inline_reruns(tmp_path):
    # A child whose result holds PC objects rejects the task and the
    # coordinator re-runs it inline: the work is done twice, so it must
    # show as a counter, its trace mirror, and a flight event.
    cluster = PCCluster(n_workers=2, page_size=1 << 16,
                        spill_root=str(tmp_path / "lla"), transport="process")
    try:
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(7, 6)), rng.normal(size=(6, 4))
        da = DistributedMatrix.from_numpy(cluster, "lla", a, 3, 3)
        db = DistributedMatrix.from_numpy(cluster, "lla", b, 3, 3)
        before = _inline_reruns(cluster)
        jobs_before = len(cluster.traces(16))
        assert np.allclose(da.multiply(db).to_numpy(), a @ b)
        reruns = _inline_reruns(cluster) - before
        assert reruns >= 1
        traces = cluster.traces(16)  # most recent first
        assert sum(t.totals().get("task.inline_reruns", 0)
                   for t in traces[:len(traces) - jobs_before]) == reruns
        events = [e for e in cluster.flight.snapshot()
                  if e["kind"] == "task.inline_rerun"]
        assert len(events) == reruns
        assert all("PC objects" in e["reason"] for e in events)
    finally:
        cluster.close()

    # A columnar scan-and-sum ships plain values: nothing is re-run.
    cluster = PCCluster(n_workers=2, page_size=1 << 16,
                        spill_root=str(tmp_path / "q6"), transport="process")
    try:
        columns = load_lineitems(cluster, 600, seed=3)
        before = cluster.metrics()
        assert q6_revenue(cluster, columnar=True) == reference_q6(columns)
        after = cluster.metrics()
        assert after.value("pc_trace_remote_spans_total") > \
            before.value("pc_trace_remote_spans_total")  # tasks shipped
        assert after.value("pc_task_inline_reruns_total") == 0
    finally:
        cluster.close()


class _LabelJoin(JoinComp):
    def get_selection(self, label, point):
        return lambda_from_member(label, "cluster_id") == \
            lambda_from_member(point, "cluster_id")

    def get_projection(self, label, point):
        return lambda_from_native(
            [label, point], lambda lab, p: (lab.label, p.x)
        )


class _SumByLabel(AggregateComp):
    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1])


def load_labeled_points(cluster, n):
    _load_points(cluster, n=n)
    cluster.create_set("db", "labels", Label)
    with cluster.loader("db", "labels") as load:
        for c in range(4):
            load.append(Label, cluster_id=c, label="L%d" % c)


_ENGINE_FAMILIES = tuple(
    "pc_engine_%s_total" % name for name in (
        "batches", "rows_in", "rows_out", "stage_invocations",
        "pages_written", "zombie_pages", "pre_aggregated_keys",
        "probe_matches", "columnar_rows",
    )
)


def _engine_counts(before, after):
    """Per-series ``pc_engine_*`` deltas between two snapshots (worker
    labels dropped: which worker ran a task is the placement's choice)."""
    counts = {}
    for name in _ENGINE_FAMILIES:
        for labels in after.labels(name) or [{}]:
            labels = {k: v for k, v in labels.items() if k != "worker"}
            key = (name,) + tuple(sorted(labels.items()))
            counts[key] = after.value(name, **labels) - \
                before.value(name, **labels)
    return counts


def _shipped_counts(tmp_path, transport, job, n_workers=3, **kwargs):
    """Engine-counter deltas, ``engine.*``/``op.*`` trace totals and
    remote spans grafted for one job on ``transport``."""
    cluster = PCCluster(n_workers=n_workers, page_size=1 << 12,
                        spill_root=str(tmp_path / transport),
                        transport=transport, **kwargs)
    try:
        prepare, run = job
        prepare(cluster)
        before = cluster.metrics()
        result = run(cluster)
        after = cluster.metrics()
        totals = cluster.last_trace.totals()
        return (
            result,
            _engine_counts(before, after),
            {name: value for name, value in totals.items()
             if name.startswith("engine.")
             or name.endswith(".columnar_rows")},
            after.value("pc_trace_remote_spans_total")
            - before.value("pc_trace_remote_spans_total"),
        )
    finally:
        cluster.close()


def _join_aggregate(cluster):
    """A partitioned join feeding an aggregate: a collect segment (build
    and probe side) and an aggregate sink."""
    agg = _SumByLabel().set_input(
        _LabelJoin().set_input(0, ObjectReader("db", "labels"))
        .set_input(1, ObjectReader("db", "points"))
    )
    cluster.execute_computations(Writer("db", "sums").set_input(agg))
    assert any("partition join" in stage.detail
               for stage in cluster.last_job_log)
    return dict(cluster.read("db", "sums", as_pairs=True, comp=agg))


@needs_process
def test_engine_counters_match_across_transports(tmp_path):
    job = (lambda cluster: load_labeled_points(cluster, n=60),
           _join_aggregate)
    sim = _shipped_counts(tmp_path, "sim", job, broadcast_threshold=0)
    process = _shipped_counts(tmp_path, "process", job,
                              broadcast_threshold=0)
    assert sim[:3] == process[:3]
    assert sim[1][("pc_engine_batches_total",)] > 0
    assert sim[1][("pc_engine_rows_out_total",)] > 0
    assert sim[1][("pc_engine_probe_matches_total",)] > 0
    assert sim[2]["engine.rows_out"] == \
        sim[1][("pc_engine_rows_out_total",)]
    assert process[3] > 0  # the process run really shipped tasks


@needs_process
def test_columnar_counts_match_across_transports(tmp_path):
    job = (lambda cluster: load_lineitems(cluster, 600, seed=3),
           lambda cluster: q6_revenue(cluster, columnar=True))
    sim = _shipped_counts(tmp_path, "sim", job, n_workers=2)
    process = _shipped_counts(tmp_path, "process", job, n_workers=2)
    assert sim[:3] == process[:3]
    for operator in ("apply", "filter", "aggregate"):
        rows = sim[1][("pc_engine_columnar_rows_total",
                       ("operator", operator))]
        assert rows > 0
        assert sim[2]["op.%s.columnar_rows" % operator] == rows
    assert process[3] > 0


# -- shutdown hygiene ---------------------------------------------------------------------

_ONE_PROCESS_JOB = textwrap.dedent("""
    import sys

    sys.path.insert(0, sys.argv[1])
    from test_fault_tolerance import (
        expected_sums, load_points, run_aggregation,
    )
    from repro.cluster import PCCluster

    if __name__ == "__main__":
        with PCCluster(n_workers=2, page_size=1 << 12,
                       spill_root=sys.argv[2], transport="process") as cluster:
            load_points(cluster, n=300)
            assert run_aggregation(cluster) == expected_sums(n=300)
            assert any(w.backend.child_pid for w in cluster.workers)
        print("ok")
""")


@pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)
def test_process_transport_exits_without_tracebacks(tmp_path):
    """Children attach to shared-memory pages, yet interpreter exit
    (resource tracker included) prints nothing to stderr."""
    script = tmp_path / "one_job.py"
    script.write_text(_ONE_PROCESS_JOB)
    spill = tmp_path / "spill"
    spill.mkdir()
    src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(script), os.path.dirname(__file__), str(spill)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
    assert "Traceback" not in done.stderr, done.stderr
