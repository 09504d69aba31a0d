"""End-to-end tests of the simulated distributed runtime."""

import pytest

from repro.cluster import PCCluster, RetryPolicy
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.errors import ExecutionError
from repro.memory import Float64, Int32, Int64, PCObject, String


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]

    def get_cluster(self):
        return self.cluster_id


class Label(PCObject):
    fields = [("cluster_id", Int32), ("label", String)]


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


@pytest.fixture
def cluster(tmp_path):
    return PCCluster(
        n_workers=3, page_size=1 << 12, spill_root=str(tmp_path)
    )


def _load_points(cluster, n=200):
    cluster.create_database("db")
    cluster.create_set("db", "points", Point)
    with cluster.loader("db", "points") as load:
        for i in range(n):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))
    return n


def test_loader_round_robins_pages(cluster):
    # Enough rows to span several pages in either page layout (the
    # columnar struct-of-arrays packing fits ~16 bytes/row here, so 200
    # rows would seal just one page).
    n = _load_points(cluster, n=900)
    total = cluster.storage_manager.total_objects("db", "points")
    assert total == n
    per_worker = [
        len(w.storage.get_set("db", "points")) for w in cluster.workers
    ]
    assert sum(per_worker) == n
    assert all(count > 0 for count in per_worker)
    # Pages moved as zero-copy bytes.
    assert cluster.metrics().value("pc_net_bytes_zero_copy_total") > 0


def test_distributed_aggregation_with_map_shuffle(cluster):
    _load_points(cluster)
    reader = ObjectReader("db", "points")
    agg = SumX().set_input(reader)
    writer = Writer("db", "sums").set_input(agg)
    cluster.execute_computations(writer)

    result = cluster.read("db", "sums", as_pairs=True, comp=agg)
    expected = {}
    for i in range(200):
        expected[i % 4] = expected.get(i % 4, 0.0) + float(i)
    assert result == expected
    # The shuffle carried PC Map pages (zero-copy), per Figure 5.
    kinds = [stage.kind for stage in cluster.last_job_log]
    assert "AggregationJobStage" in kinds


def test_distributed_selection_writes_pc_objects(cluster):
    _load_points(cluster)

    class HighX(SelectionComp):
        def get_selection(self, arg):
            return lambda_from_member(arg, "x") > 150.0

        def get_projection(self, arg):
            from repro.memory import make_object

            return lambda_from_native([arg], lambda p: make_object(
                Point, pid=p.pid, cluster_id=p.cluster_id, x=p.x
            ))

    reader = ObjectReader("db", "points")
    sel = HighX().set_input(reader)
    Writer("db", "high").set_input(sel).execute(cluster)
    values = sorted(h.pid for h in cluster.read("db", "high"))
    assert values == list(range(151, 200))


def test_distributed_join_broadcast_and_partition(cluster):
    _load_points(cluster, n=60)
    cluster.create_set("db", "labels", Label)
    with cluster.loader("db", "labels") as load:
        for c in range(4):
            load.append(Label, cluster_id=c, label="L%d" % c)

    class LabelJoin(JoinComp):
        def get_selection(self, label, point):
            return lambda_from_member(label, "cluster_id") == \
                lambda_from_member(point, "cluster_id")

        def get_projection(self, label, point):
            return lambda_from_native(
                [label, point], lambda lab, p: (p.pid, lab.label)
            )

    def run(threshold):
        cluster.broadcast_threshold = threshold
        cluster.clear_set("db", "joined") if (
            ("db", "joined") in cluster.storage_manager
        ) else None
        reader_l = ObjectReader("db", "labels")
        reader_p = ObjectReader("db", "points")
        join = LabelJoin().set_input(0, reader_l).set_input(1, reader_p)
        writer = Writer("db", "joined").set_input(join)
        cluster.execute_computations(writer)
        return sorted(cluster.read("db", "joined"))

    broadcast_result = run(threshold=1 << 30)
    partition_result = run(threshold=0)
    expected = sorted((i, "L%d" % (i % 4)) for i in range(60))
    assert broadcast_result[:60] == expected or broadcast_result == expected
    # Partition mode appends to the same python output store; compare tails.
    assert partition_result[-60:] == expected


def test_worker_backend_refork_on_crash(tmp_path):
    # Retries disabled: one crash means one re-fork and a permanent
    # ExecutionError naming the stage and worker.
    cluster = PCCluster(
        n_workers=3, page_size=1 << 12, spill_root=str(tmp_path),
        retry_policy=RetryPolicy.disabled(),
    )
    _load_points(cluster, n=10)

    class Exploding(SelectionComp):
        def get_projection(self, arg):
            def boom(p):
                raise RuntimeError("user code bug")

            return lambda_from_native([arg], boom)

    reader = ObjectReader("db", "points")
    writer = Writer("db", "out").set_input(Exploding().set_input(reader))
    before = [w.refork_count for w in cluster.workers]
    with pytest.raises(ExecutionError, match="worker-0"):
        cluster.execute_computations(writer)
    after = [w.refork_count for w in cluster.workers]
    assert sum(after) == sum(before) + 1
    # The front-end survived: storage is still readable.
    assert cluster.storage_manager.total_objects("db", "points") == 10


def test_deterministic_bug_exhausts_default_retries(cluster):
    # The default policy retries; a deterministic user-code bug crashes
    # every attempt, so the job fails with the chained crash as cause.
    _load_points(cluster, n=10)

    class Exploding(SelectionComp):
        def get_projection(self, arg):
            def boom(p):
                raise RuntimeError("user code bug")

            return lambda_from_native([arg], boom)

    reader = ObjectReader("db", "points")
    writer = Writer("db", "out").set_input(Exploding().set_input(reader))
    with pytest.raises(ExecutionError, match="retries exhausted"):
        cluster.execute_computations(writer)
    attempts = cluster.retry_policy.max_attempts
    assert sum(w.refork_count for w in cluster.workers) == attempts
