"""Replicated, checksummed storage: placement, failover, healing, recovery.

``create_set(..., replication=k)`` keeps ``k`` synchronous copies of
every sealed page on ring-chosen workers, stamped once with a CRC32 the
storage layer verifies where bytes can change: on spill reload and, when
the network can corrupt them, on network receipt.  These tests exercise
the full durability story: the deterministic placement ring, failover
reads after a total node loss, re-replication back to full factor,
quarantine-and-heal of corrupted copies, checksummed transfer re-sends,
atomic ``create_set``, and crash-consistent catalog recovery from the
write-ahead journal.
"""

import pytest

from repro.cluster import FakeClock, FaultInjector, PCCluster, RetryPolicy
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_member
from repro.errors import (
    PageCorruptionError,
    ReplicationError,
    StorageError,
)
from repro.memory import Float64, Int32, Int64, PCObject
from repro.storage import PlacementRing, corrupt_bytes, page_checksum


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


def load_points(cluster, n=600, replication=1):
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=replication)
    with cluster.loader("db", "points") as load:
        for i in range(n):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))


def read_pids(cluster):
    return sorted(h.pid for h in cluster.read("db", "points"))


def run_aggregation(cluster):
    agg = SumX().set_input(ObjectReader("db", "points"))
    Writer("db", "sums").set_input(agg).execute(cluster)
    return cluster.read("db", "sums", as_pairs=True, comp=agg)


def expected_sums(n=600):
    sums = {}
    for i in range(n):
        sums[i % 4] = sums.get(i % 4, 0.0) + float(i)
    return sums


def fast_policy(clock, **overrides):
    overrides.setdefault("sleep", clock.sleep)
    overrides.setdefault("clock", clock.clock)
    return RetryPolicy(**overrides)


# -- placement ------------------------------------------------------------------------


def test_placement_ring_is_deterministic_and_distinct():
    ring = PlacementRing(["worker-2", "worker-0", "worker-1"])
    assert ring.replicas_for("worker-1", 2) == ["worker-1", "worker-2"]
    assert ring.replicas_for("worker-2", 2) == ["worker-2", "worker-0"]
    # k capped at the ring size; every worker distinct.
    assert ring.replicas_for("worker-0", 5) == \
        ["worker-0", "worker-1", "worker-2"]
    with pytest.raises(ReplicationError):
        ring.replicas_for("worker-9", 2)
    # Re-replication targets never land on a current holder.
    target = ring.rereplication_target("p000001", {"worker-0"})
    assert target in ("worker-1", "worker-2")
    assert ring.rereplication_target("p000001", set(ring.worker_ids)) is None


def test_replicated_load_places_two_copies_on_distinct_workers(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=2)
    meta = cluster.catalog.set_metadata("db", "points")
    assert meta.replication == 2
    assert meta.pages, "loading must populate the replica map"
    for record in meta.pages.values():
        workers = record.workers()
        assert len(workers) == 2
        assert len(set(workers)) == 2
        assert record.checksum is not None
    assert cluster.metrics().value("pc_repl_replica_writes_total") == \
        len(meta.pages)
    # Each object still counted exactly once despite two stored copies.
    assert cluster.storage_manager.total_objects("db", "points") == 600
    assert read_pids(cluster) == list(range(600))


def test_replication_factor_validation(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    cluster.create_database("db")
    with pytest.raises(ReplicationError, match=">= 1"):
        cluster.create_set("db", "bad", Point, replication=0)
    with pytest.raises(ReplicationError, match="exceeds"):
        cluster.create_set("db", "bad", Point, replication=4)
    # Neither failure left a half-created set behind.
    assert ("db", "bad") not in cluster.storage_manager


def test_create_set_rolls_back_on_worker_failure(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    cluster.create_database("db")
    victim = cluster.workers[-1].storage

    def exploding_create_set(*args, **kwargs):
        raise StorageError("disk full")

    victim.create_set = exploding_create_set
    with pytest.raises(StorageError, match="disk full"):
        cluster.create_set("db", "points", Point)
    # Catalog record and the partitions created before the failure are gone.
    assert ("db", "points") not in cluster.storage_manager
    for worker in cluster.workers[:-1]:
        assert not worker.storage.has_set("db", "points")


# -- strict partitions() --------------------------------------------------------------


def test_partitions_raise_naming_missing_workers_without_replicas(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=1)
    # Yank a worker's storage out from under the set (no decommission
    # bookkeeping): its pages have no other replica.
    cluster.storage_manager.detach_server("worker-1")
    with pytest.raises(StorageError, match="worker-1"):
        cluster.storage_manager.partitions("db", "points")


def test_partitions_serve_survivors_when_replicas_cover_the_set(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=2)
    cluster.storage_manager.detach_server("worker-1")
    # Every page still has a live replica, so reads proceed.
    partitions = cluster.storage_manager.partitions("db", "points")
    assert len(partitions) == 2
    assert read_pids(cluster) == list(range(600))


# -- failover reads and re-replication ------------------------------------------------


def test_kill_worker_fails_over_and_restores_replication(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=2)
    baseline = read_pids(cluster)
    before = cluster.replication.scan_assignments("db", "points")
    assert "worker-1" in set(before.values()), \
        "test premise: worker-1 reads some pages"

    created = cluster.kill_worker("worker-1", reason="pulled the plug")

    assert cluster.blacklist == {"worker-1"}
    assert read_pids(cluster) == baseline == list(range(600))
    assert cluster.metrics().value("pc_repl_failover_reads_total") > 0
    # The factor was restored on the survivors, spread over both.
    assert created > 0
    assert cluster.metrics().value("pc_repl_re_replications_total") == created
    factors = cluster.replication.replication_factors("db", "points")
    assert factors and all(count == 2 for count in factors.values())
    for record in cluster.catalog.set_metadata("db", "points").pages.values():
        assert "worker-1" not in record.workers()
    totals = cluster.last_trace.totals()
    assert totals["faults.workers_killed"] == 1
    # A query over the survivors still computes the right answer.
    assert run_aggregation(cluster) == expected_sums()


def test_kill_worker_without_replication_is_data_loss(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=1)
    with pytest.raises(ReplicationError, match="last replica"):
        cluster.kill_worker("worker-0")


def test_decommission_evacuates_sole_copies_from_durable_frontend(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=1)
    # A decommission (back-end dead, front-end readable) evacuates the
    # unreplicated pages instead of losing them.
    moved = cluster.decommission_worker("worker-0", reason="drained")
    assert moved > 0
    assert read_pids(cluster) == list(range(600))
    assert cluster.storage_manager.total_objects("db", "points") == 600


# -- corruption: quarantine and heal --------------------------------------------------


def test_corrupt_spilled_page_is_quarantined_and_healed(tmp_path):
    injector = FaultInjector()
    # A tiny pool forces spills during loading, so reads reload spilled
    # pages — where the sticky corruption fires.
    cluster = make_cluster(
        tmp_path, "c", injector=injector, worker_memory=3 << 12,
    )
    # Enough rows that loading overflows the tiny pool in either page
    # layout (columnar pages pack ~4x more rows than object pages here).
    load_points(cluster, n=2400, replication=2)
    spilled = cluster.metrics().value("pc_pool_spills_total")
    assert spilled > 0, "test premise: loading must spill pages"
    injector.corrupt_page(times=1)

    assert read_pids(cluster) == list(range(2400))

    assert injector.counts["page_corruptions"] == 1
    repl = cluster.replication
    assert repl.metrics.get("pc_repl_checksum_failures_total").value >= 1
    assert repl.metrics.get("pc_repl_pages_healed_total").value >= 1
    pool_failures = cluster.metrics().value("pc_pool_checksum_failures_total")
    assert pool_failures >= 1
    # The healed copy serves cleanly now: a second read sees no new faults.
    healed = repl.metrics.get("pc_repl_pages_healed_total").value
    assert read_pids(cluster) == list(range(2400))
    assert repl.metrics.get("pc_repl_pages_healed_total").value == healed


def test_corrupt_transfer_is_detected_and_resent(tmp_path):
    injector = FaultInjector()
    clock = FakeClock()
    cluster = make_cluster(
        tmp_path, "c", injector=injector,
        policy=fast_policy(clock, transfer_retries=3),
    )
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=2)
    injector.corrupt_transfer(times=1)
    with cluster.loader("db", "points") as load:
        for i in range(50):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))

    # The flipped payload failed its CRC on receipt and was re-sent; the
    # corrupted bytes never reached a partition.
    assert injector.counts["transfer_corruptions"] == 1
    snapshot = cluster.metrics()
    assert snapshot.value("pc_net_transfers_corrupted_total") == 1
    assert snapshot.value("pc_net_transfer_retries_total") >= 1
    assert read_pids(cluster) == list(range(50))
    for record in cluster.catalog.set_metadata("db", "points").pages.values():
        assert record.checksum is not None


def test_corrupt_transfer_with_retries_disabled_raises(tmp_path):
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, "c", injector=injector, policy=RetryPolicy.disabled(),
    )
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=2)
    injector.corrupt_transfer(times=1)
    with pytest.raises(PageCorruptionError):
        with cluster.loader("db", "points") as load:
            for i in range(50):
                load.append(Point, pid=i, cluster_id=i % 4, x=float(i))


def test_decommission_of_unmapped_pages_verifies_receipt(tmp_path):
    # Pages written in place on a worker, outside the catalog's replica
    # map, carry no recorded stamp; their evacuation is still verified on
    # receipt, so a flipped arrival is re-sent and never adopted.
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, "c", injector=injector,
        policy=fast_policy(FakeClock(), transfer_retries=2),
    )
    cluster.create_database("db")
    cluster.create_set("db", "raw", Point)
    page_set = cluster.workers[0].storage.get_set("db", "raw")
    with page_set.writer() as writer:
        for i in range(300):
            writer.append(Point, pid=i, cluster_id=i % 4, x=float(i))
    assert not cluster.catalog.set_metadata("db", "raw").pages
    sealed = []
    for page_id in page_set.page_ids:
        with page_set.pinned_page(page_id) as page:
            sealed.append(page.block.to_bytes())
    assert len(sealed) > 1

    injector.corrupt_transfer(times=1)
    assert cluster.decommission_worker("worker-0") == len(sealed)

    assert injector.counts["transfer_corruptions"] == 1
    assert cluster.metrics().value("pc_net_transfers_corrupted_total") == 1
    assert cluster.metrics().value("pc_net_transfer_retries_total") == 1
    adopted = []
    for worker in cluster.active_workers:
        survivor = worker.storage.get_set("db", "raw")
        for page_id in survivor.page_ids:
            with survivor.pinned_page(page_id) as page:
                adopted.append(page.block.to_bytes())
    assert sorted(adopted) == sorted(sealed)
    assert sorted(h.pid for h in cluster.read("db", "raw")) == \
        list(range(300))


def test_corrupt_bytes_always_changes_the_checksum():
    data = bytes(range(256)) * 16
    assert page_checksum(corrupt_bytes(data)) != page_checksum(data)
    assert corrupt_bytes(b"") == b""


# -- materialized outputs are replicated too ------------------------------------------


def test_materialized_output_pages_are_replicated_and_survive_a_kill(
    tmp_path,
):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=2)
    # Pre-create the output set with a replication factor: the sink's
    # materialized pages are then registered and replicated too.
    cluster.create_set("db", "sums", replication=2)
    baseline = run_aggregation(cluster)
    meta = cluster.catalog.set_metadata("db", "sums")
    assert meta.pages, "output materialization must register its pages"
    for record in meta.pages.values():
        assert len(set(record.workers())) == 2
        assert record.checksum is not None
    # Outputs share the input's redundancy: kill a worker and the
    # aggregation output is still fully readable.
    cluster.kill_worker("worker-2")
    agg = SumX().set_input(ObjectReader("db", "points"))
    assert cluster.read("db", "sums", as_pairs=True, comp=agg) == \
        baseline == expected_sums()


# -- crash-consistent catalog recovery ------------------------------------------------


def test_recover_replays_the_journal_and_serves_identical_reads(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=2)
    baseline_pids = read_pids(cluster)
    baseline_sums = run_aggregation(cluster)
    pages_before = dict(cluster.catalog.set_metadata("db", "points").pages)

    applied = cluster.recover()  # simulated master restart

    assert applied > 0
    meta = cluster.catalog.set_metadata("db", "points")
    assert set(meta.pages) == set(pages_before)
    for uid, record in meta.pages.items():
        assert record.replicas == pages_before[uid].replicas
        assert record.checksum == pages_before[uid].checksum
        assert record.count == pages_before[uid].count
    assert read_pids(cluster) == baseline_pids
    agg = SumX().set_input(ObjectReader("db", "points"))
    assert cluster.read("db", "sums", as_pairs=True, comp=agg) == \
        baseline_sums
    # The recovered catalog keeps journaling: loading more data works and
    # survives a second recovery.
    with cluster.loader("db", "points") as load:
        for i in range(600, 650):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))
    cluster.recover()
    assert read_pids(cluster) == list(range(650))


def test_recovery_after_kill_reflects_the_post_kill_replica_map(tmp_path):
    cluster = make_cluster(tmp_path, "c")
    load_points(cluster, replication=2)
    cluster.kill_worker("worker-0")
    after_kill = {
        uid: [list(r) for r in record.replicas]
        for uid, record in
        cluster.catalog.set_metadata("db", "points").pages.items()
    }
    cluster.recover()
    meta = cluster.catalog.set_metadata("db", "points")
    assert {
        uid: [list(r) for r in record.replicas]
        for uid, record in meta.pages.items()
    } == after_kill
    assert "worker-0" not in meta.partitions
    assert read_pids(cluster) == list(range(600))


# -- mid-job failover ------------------------------------------------------------------


def test_tpch_query_survives_worker_kill_byte_identical(tmp_path):
    """The acceptance scenario: kill a node after a replicated TPC-H
    load; the query completes byte-identical off the surviving replicas
    without a job restart, and the replication factor is restored."""
    import json

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

    survivor = PCCluster(n_workers=3, page_size=1 << 16,
                         spill_root=str(tmp_path / "survivor"))
    load_pc_customers(survivor, spec, replication=2)
    survivor.kill_worker("worker-1", reason="node loss")
    survivor_bytes, survivor_total = serialized(survivor)

    assert survivor_bytes == clean_bytes  # byte-identical result
    assert survivor_total == clean_total
    assert survivor.metrics().value("pc_repl_failover_reads_total") > 0
    factors = survivor.replication.replication_factors("tpch", "customers")
    assert factors and all(count == 2 for count in factors.values())
    # No restart machinery fired: the job simply ran on the survivors.
    kinds = [stage.kind for stage in survivor.last_job_log]
    assert "WorkerBlacklistedEvent" not in kinds
    assert "WorkerAbsorbedEvent" not in kinds


def test_mid_job_blacklist_absorbs_orphans_without_restart(tmp_path):
    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-1", times=99)
    policy = fast_policy(
        clock, max_attempts=2, blacklist_on_exhaustion=True
    )
    cluster = make_cluster(tmp_path, "c", injector=injector, policy=policy)
    load_points(cluster, replication=2)

    assert run_aggregation(cluster) == expected_sums()

    kinds = [stage.kind for stage in cluster.last_job_log]
    assert "WorkerAbsorbedEvent" in kinds
    assert "WorkerBlacklistedEvent" not in kinds  # no job restart
    totals = cluster.last_trace.totals()
    assert totals["faults.workers_absorbed"] == 1
    assert cluster.metrics().value("pc_repl_failover_reads_total") > 0
    # The set ended back at full replication factor on the survivors.
    factors = cluster.replication.replication_factors("db", "points")
    assert factors and all(count == 2 for count in factors.values())
