"""Fault-injection and recovery tests for the simulated cluster.

PC's dual-process worker (Section 2) exists so that user-code crashes
never take down a node's storage.  These tests inject faults — back-end
crashes mid-stage, dropped/delayed shuffle transfers, failed buffer-pool
reloads — and check the scheduler's RetryPolicy recovers: re-fork the
back-end, re-dispatch only the failed worker's portion against the
surviving front-end storage, back off exponentially, and (when allowed)
blacklist a hopeless worker and degrade onto its peers.
"""

import json
import os

import numpy as np
import pytest

from repro.cluster import FakeClock, FaultInjector, PCCluster, RetryPolicy
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_member
from repro.errors import (
    ExecutionError,
    PageCorruptionError,
    TransferDroppedError,
    WorkerCrashError,
)
from repro.lillinalg import DistributedMatrix
from repro.memory import Float64, Int32, Int64, PCObject


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


def make_cluster(tmp_path, subdir, injector=None, policy=None, n_workers=3,
                 worker_memory=64 << 20):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    return PCCluster(
        n_workers=n_workers, page_size=1 << 12, spill_root=str(root),
        worker_memory=worker_memory,
        fault_injector=injector, retry_policy=policy,
    )


def load_points(cluster, n=200, replication=1):
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=replication)
    with cluster.loader("db", "points") as load:
        for i in range(n):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))


def run_aggregation(cluster):
    agg = SumX().set_input(ObjectReader("db", "points"))
    Writer("db", "sums").set_input(agg).execute(cluster)
    return cluster.read("db", "sums", as_pairs=True, comp=agg)


def expected_sums(n=200):
    sums = {}
    for i in range(n):
        sums[i % 4] = sums.get(i % 4, 0.0) + float(i)
    return sums


def fast_policy(clock, **overrides):
    overrides.setdefault("sleep", clock.sleep)
    overrides.setdefault("clock", clock.clock)
    return RetryPolicy(**overrides)


# -- back-end crash recovery ----------------------------------------------------------


def test_injected_crash_recovers_and_matches_no_fault_run(tmp_path):
    clean = make_cluster(tmp_path, "clean")
    load_points(clean)
    baseline = run_aggregation(clean)

    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-1", times=1)
    faulted = make_cluster(
        tmp_path, "faulted", injector=injector, policy=fast_policy(clock)
    )
    load_points(faulted)
    result = run_aggregation(faulted)

    assert result == baseline == expected_sums()
    # The crash really fired, re-forked the back-end, and was retried.
    assert injector.counts["backend_crashes"] == 1
    assert sum(w.refork_count for w in faulted.workers) == 1
    assert clock.slept  # the backoff went through the injectable sleep
    retry_spans = faulted.last_trace.spans(kind="retry")
    assert len(retry_spans) == 1
    assert retry_spans[0].counters["retry.backoff_ms"] >= 1
    totals = faulted.last_trace.totals()
    assert totals["faults.backend_crashes"] == 1
    assert totals["faults.tasks_recovered"] == 1


def test_exhausted_retries_raise_execution_error_naming_stage_and_worker(
    tmp_path,
):
    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-0", times=99)
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=fast_policy(clock)
    )
    load_points(cluster, n=20)
    with pytest.raises(ExecutionError) as excinfo:
        run_aggregation(cluster)
    message = str(excinfo.value)
    assert "worker-0" in message
    assert "JobStage" in message  # the failing stage kind is named
    assert "retries exhausted" in message
    assert isinstance(excinfo.value.__cause__, WorkerCrashError)
    # Every allowed attempt crashed and re-forked; backoff ran between them.
    attempts = cluster.retry_policy.max_attempts
    assert sum(w.refork_count for w in cluster.workers) == attempts
    assert len(clock.slept) == attempts - 1
    assert clock.slept == sorted(clock.slept)  # exponential: non-decreasing


def test_retries_disabled_same_injection_fails_immediately(tmp_path):
    injector = FaultInjector().crash_backend("worker-1", times=1)
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=RetryPolicy.disabled()
    )
    load_points(cluster, n=20)
    with pytest.raises(ExecutionError, match="worker-1"):
        run_aggregation(cluster)
    assert not cluster.last_trace.spans(kind="retry")


def test_backoff_schedule_is_exponential_and_capped():
    policy = RetryPolicy(
        max_attempts=6, backoff_base_s=0.01, backoff_multiplier=2.0,
        backoff_max_s=0.05,
    )
    schedule = [policy.backoff_s(n) for n in range(1, 6)]
    assert schedule == [0.01, 0.02, 0.04, 0.05, 0.05]
    assert not policy.should_retry(6)


def test_task_timeout_stops_retries(tmp_path):
    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-0", times=99)
    policy = fast_policy(
        clock, max_attempts=50, backoff_base_s=1.0, backoff_max_s=10.0,
        timeout_s=2.5,
    )
    cluster = make_cluster(tmp_path, "c", injector=injector, policy=policy)
    load_points(cluster, n=20)
    with pytest.raises(ExecutionError, match="task timeout"):
        run_aggregation(cluster)
    # The fake clock advanced past the deadline long before 50 attempts.
    assert sum(w.refork_count for w in cluster.workers) < 10


# -- network faults -------------------------------------------------------------------


def test_dropped_shuffle_transfer_is_retried_exactly_once(tmp_path):
    injector = FaultInjector()
    cluster = make_cluster(tmp_path, "c", injector=injector)
    load_points(cluster)  # scripted below, so loading sees no faults
    injector.drop_transfer(times=1)
    result = run_aggregation(cluster)
    assert result == expected_sums()
    assert cluster.metrics().value("pc_net_transfers_dropped_total") == 1
    assert cluster.metrics().value("pc_net_transfer_retries_total") == 1
    totals = cluster.last_trace.totals()
    assert totals["net.transfers_dropped"] == 1
    assert totals["net.transfer_retries"] == 1


def test_dropped_transfer_with_retries_disabled_raises(tmp_path):
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=RetryPolicy.disabled()
    )
    load_points(cluster)
    injector.drop_transfer(times=1)
    with pytest.raises(TransferDroppedError):
        run_aggregation(cluster)


def _gram(cluster, injector=None):
    """A lilLinAlg Gram job, X'X, whose shuffle ships combiner pages."""
    x = np.random.default_rng(3).normal(size=(24, 8))
    matrix = DistributedMatrix.from_numpy(cluster, "lla", x, 4, 4)
    if injector is not None:
        # Scripted after the load, so the first page transfer to flip is
        # a combiner page of the Gram job's aggregation shuffle.
        injector.corrupt_transfer(times=1)
    return matrix.transpose_multiply(matrix).to_numpy()


def test_corrupt_combiner_page_is_resent_byte_identical(tmp_path):
    clean = _gram(make_cluster(tmp_path, "clean"))
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, "c", injector=injector,
        policy=fast_policy(FakeClock(), transfer_retries=2),
    )
    result = _gram(cluster, injector)
    assert injector.counts["transfer_corruptions"] == 1
    assert cluster.metrics().value("pc_net_transfers_corrupted_total") == 1
    assert cluster.metrics().value("pc_net_transfer_retries_total") == 1
    assert result.tobytes() == clean.tobytes()


def test_corrupt_combiner_page_with_retries_disabled_raises(tmp_path):
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=RetryPolicy.disabled()
    )
    with pytest.raises(PageCorruptionError):
        _gram(cluster, injector)
    assert injector.counts["transfer_corruptions"] == 1


def test_delayed_transfers_are_accounted_not_slept(tmp_path):
    injector = FaultInjector().delay_transfer(5.0, times=3)
    cluster = make_cluster(tmp_path, "c", injector=injector)
    load_points(cluster)
    result = run_aggregation(cluster)
    assert result == expected_sums()
    # 15 simulated seconds of link delay, recorded but never slept.
    assert cluster.metrics().value("pc_net_delay_seconds_total") == \
        pytest.approx(15.0)
    assert injector.counts["transfer_delays"] == 3
    if cluster.network.name == "sim":
        # Wall-clock proof of "never slept"; only deterministic without
        # real back-end processes (and their spawn time) in the loop.
        assert cluster.last_trace.root.duration_s < 5.0


# -- buffer-pool reload faults --------------------------------------------------------


def test_failed_page_reload_recovers_via_stage_retry(tmp_path):
    clock = FakeClock()
    injector = FaultInjector()
    # A tiny pool forces spills during loading, so the scan inside the
    # job must reload spilled pages — where the injected I/O fault fires.
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=fast_policy(clock),
        n_workers=2, worker_memory=3 << 12,
    )
    # Enough rows that loading overflows the tiny pool in either page
    # layout (columnar pages pack ~4x more rows than object pages here).
    load_points(cluster, n=2400)
    spilled = cluster.metrics().value("pc_pool_spills_total")
    assert spilled > 0, "test premise: loading must spill pages"
    injector.fail_page_reload(times=1)
    result = run_aggregation(cluster)
    assert result == expected_sums(n=2400)
    assert injector.counts["reload_failures"] == 1
    reload_failures = cluster.metrics().value("pc_pool_reload_failures_total")
    assert reload_failures == 1
    # The reload fault surfaced as a back-end crash and was retried.
    assert sum(w.refork_count for w in cluster.workers) == 1
    assert cluster.last_trace.spans(kind="retry")


# -- blacklisting and graceful degradation --------------------------------------------


def test_hopeless_worker_is_blacklisted_and_absorbed_without_restart(
    tmp_path,
):
    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-2", times=99)
    policy = fast_policy(
        clock, max_attempts=2, blacklist_on_exhaustion=True
    )
    cluster = make_cluster(tmp_path, "c", injector=injector, policy=policy)
    # Several pages in either layout, so the doomed worker holds some.
    load_points(cluster, n=600)
    result = run_aggregation(cluster)
    assert result == expected_sums(n=600)  # the job still finished, correctly
    assert cluster.blacklist == {"worker-2"}
    assert len(cluster.active_workers) == 2
    assert sorted(cluster.blacklist) == ["worker-2"]
    # The dead worker's durable partitions moved to the survivors.
    assert cluster.storage_manager.total_objects("db", "points") == 600
    totals = cluster.last_trace.totals()
    assert totals["faults.workers_blacklisted"] == 1
    assert totals["faults.pages_redistributed"] > 0
    kinds = [stage.kind for stage in cluster.last_job_log]
    # The scan source is replica-map governed, so the survivors absorbed
    # the dead worker's orphaned pages instead of restarting the job.
    assert "WorkerAbsorbedEvent" in kinds
    assert "WorkerBlacklistedEvent" not in kinds
    assert totals["faults.workers_absorbed"] == 1
    # The absorbed pages really were re-read (served off a survivor).
    assert cluster.metrics().value("pc_repl_failover_reads_total") > 0


def test_blacklisting_stops_at_min_surviving_workers(tmp_path):
    clock = FakeClock()
    injector = FaultInjector().crash_backend(times=10 ** 6)  # every worker
    policy = fast_policy(
        clock, max_attempts=2, blacklist_on_exhaustion=True,
        min_surviving_workers=2,
    )
    cluster = make_cluster(tmp_path, "c", injector=injector, policy=policy)
    load_points(cluster, n=20)
    with pytest.raises(ExecutionError):
        run_aggregation(cluster)
    # Degradation stopped before dipping under the floor.
    assert len(cluster.active_workers) >= 2


# -- engine lifecycle -----------------------------------------------------------------


def test_backend_engines_released_after_jobs(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster)
    run_aggregation(cluster)
    run_aggregation(cluster)
    assert all(not w.backend.engines for w in cluster.workers)


def test_backend_engines_released_after_failed_job(tmp_path):
    injector = FaultInjector().crash_backend("worker-0", times=99)
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=RetryPolicy.disabled()
    )
    load_points(cluster, n=20)
    with pytest.raises(ExecutionError):
        run_aggregation(cluster)
    assert all(not w.backend.engines for w in cluster.workers)


# -- determinism and storms -----------------------------------------------------------


def test_seeded_injector_is_deterministic():
    decisions = []
    for _run in range(2):
        injector = FaultInjector(seed=7, crash_rate=0.3, drop_rate=0.3)
        run = []
        for i in range(50):
            run.append(injector.should_crash_backend("worker-0", "stage"))
            run.append(injector.on_transfer("a", "b", 100))
        decisions.append((run, dict(injector.counts)))
    assert decisions[0] == decisions[1]


def test_seeded_fault_storm_still_computes_the_right_answer(tmp_path):
    seed = int(os.environ.get("PC_FAULT_SEED", "0"))
    clock = FakeClock()
    injector = FaultInjector(seed=seed)
    policy = fast_policy(clock, max_attempts=6, transfer_retries=3)
    cluster = make_cluster(tmp_path, "c", injector=injector, policy=policy)
    load_points(cluster)
    # Arm the random rates only after loading, then storm the job.
    injector.crash_rate = 0.05
    injector.drop_rate = 0.02
    injector.delay_rate = 0.2
    injector.delay_s = 0.01
    result = run_aggregation(cluster)
    assert result == expected_sums()
    # Whatever fired was recovered and fully accounted in the trace.
    totals = cluster.last_trace.totals()
    assert totals.get("faults.backend_crashes", 0) == \
        injector.counts["backend_crashes"]
    assert totals.get("net.transfers_dropped", 0) == \
        injector.counts["transfer_drops"]


def test_seeded_storm_with_corruption_over_replicated_load(tmp_path):
    """Crashes, drops, *and* corruption (in-flight and at-rest) rain on a
    job over a replicated set; the answer is still byte-exact, corrupted
    copies were quarantined/healed (never served), and the set ends at
    full replication factor on whatever workers survived."""
    seed = int(os.environ.get("PC_FAULT_SEED", "0"))
    clock = FakeClock()
    injector = FaultInjector(seed=seed)
    policy = fast_policy(
        clock, max_attempts=6, transfer_retries=4,
        blacklist_on_exhaustion=True,
    )
    # A small pool forces spills, so at-rest corruption has reloads to
    # strike; replication=2 gives the heal path somewhere to heal from.
    cluster = make_cluster(
        tmp_path, "storm", injector=injector, policy=policy,
        worker_memory=6 << 12,
    )
    load_points(cluster, n=400, replication=2)
    # Arm the combined storm only after the replicated load.
    injector.crash_rate = 0.03
    injector.drop_rate = 0.02
    injector.corrupt_rate = 0.02
    injector.page_corrupt_rate = 0.02

    agg = SumX().set_input(ObjectReader("db", "points"))
    Writer("db", "sums").set_input(agg).execute(cluster)

    # Calm the storm, then verify what it left behind.
    injector.crash_rate = injector.drop_rate = 0.0
    injector.corrupt_rate = injector.page_corrupt_rate = 0.0
    assert cluster.read("db", "sums", as_pairs=True, comp=agg) == \
        expected_sums(n=400)
    assert sorted(h.pid for h in cluster.read("db", "points")) == \
        list(range(400))
    # Every page is back at full factor over the surviving workers.
    cluster.replication.restore_replication()
    want = min(2, len(cluster.active_workers))
    factors = cluster.replication.replication_factors("db", "points")
    assert factors and all(count >= want for count in factors.values())
    # Any at-rest corruption that struck a reload was detected and
    # healed — never silently served.
    snapshot = cluster.metrics()
    assert injector.counts["page_corruptions"] == 0 or \
        snapshot.value("pc_repl_checksum_failures_total") \
        + snapshot.value("pc_pool_checksum_failures_total") > 0


# -- TPC-H acceptance -----------------------------------------------------------------


def test_tpch_aggregation_survives_single_worker_crash_byte_identical(
    tmp_path,
):
    from repro.tpch import (
        TpchSpec,
        customers_per_supplier_pc,
        load_pc_customers,
    )

    spec = TpchSpec(n_customers=30, n_parts=40, n_suppliers=6, seed=5)

    def serialized(cluster):
        result, total = customers_per_supplier_pc(cluster)
        normalized = {
            supplier: {c: sorted(parts) for c, parts in customers.items()}
            for supplier, customers in result.items()
        }
        return json.dumps(normalized, sort_keys=True), total

    clean = PCCluster(n_workers=3, page_size=1 << 16,
                      spill_root=str(tmp_path / "clean"))
    load_pc_customers(clean, spec)
    clean_bytes, clean_total = serialized(clean)

    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-1", times=1)
    faulted = PCCluster(
        n_workers=3, page_size=1 << 16,
        spill_root=str(tmp_path / "faulted"),
        fault_injector=injector, retry_policy=fast_policy(clock),
    )
    load_pc_customers(faulted, spec)
    faulted_bytes, faulted_total = serialized(faulted)

    assert faulted_bytes == clean_bytes  # byte-identical result
    assert faulted_total == clean_total
    retry_spans = faulted.last_trace.spans(kind="retry")
    assert retry_spans
    assert retry_spans[0].counters["retry.backoff_ms"] >= 1
    assert faulted.last_trace.totals()["faults.tasks_recovered"] >= 1

    # The same injection with retries disabled kills the job.
    injector2 = FaultInjector().crash_backend("worker-1", times=1)
    fragile = PCCluster(
        n_workers=3, page_size=1 << 16,
        spill_root=str(tmp_path / "fragile"),
        fault_injector=injector2, retry_policy=RetryPolicy.disabled(),
    )
    load_pc_customers(fragile, spec)
    with pytest.raises(ExecutionError, match="worker-1"):
        customers_per_supplier_pc(fragile)
