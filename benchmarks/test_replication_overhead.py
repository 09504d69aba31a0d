"""What replication costs: load and query time at factor 1, 2, 3.

Replica writes are synchronous — every sealed page ships to ``k``
ring-chosen workers before the load returns — so the factor buys
durability with load-time bytes and time.  Queries read each page once
(from its first live replica), so query time should stay roughly flat.
This bench quantifies both and persists ``BENCH_replication.json`` in
the repository root so future PRs can diff the overhead curve.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster import PCCluster
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_member
from repro.memory import Float64, Int32, Int64, PCObject

from bench_utils import fmt_seconds, render_table, report, timed

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_replication.json"
)

N_POINTS = 3000
N_CLUSTERS = 8
FACTORS = (1, 2, 3)


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class SumByCluster(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


def _run_factor(tmp_path, replication):
    cluster = PCCluster(
        n_workers=3, page_size=1 << 13,
        spill_root=str(tmp_path / ("r%d" % replication)),
    )
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=replication)

    def load():
        with cluster.loader("db", "points") as loader:
            for i in range(N_POINTS):
                loader.append(Point, pid=i, cluster_id=i % N_CLUSTERS,
                              x=float(i))

    load_s, _ = timed(load)

    agg = SumByCluster().set_input(ObjectReader("db", "points"))

    def query():
        cluster.execute_computations(
            Writer("db", "sums").set_input(agg), job_name="agg"
        )
        return cluster.read("db", "sums", as_pairs=True, comp=agg)

    query_s, sums = timed(query)
    assert len(sums) == N_CLUSTERS
    assert sums[0] == sum(
        float(i) for i in range(N_POINTS) if i % N_CLUSTERS == 0
    )

    meta = cluster.catalog.set_metadata("db", "points")
    snapshot = cluster.metrics()
    return {
        "replication": replication,
        "load_s": round(load_s, 6),
        "query_s": round(query_s, 6),
        "pages": len(meta.pages),
        "replica_writes": snapshot.value("pc_repl_replica_writes_total"),
        "net_bytes_zero_copy": snapshot.value("pc_net_bytes_zero_copy_total"),
        "net_messages": snapshot.value("pc_net_messages_total"),
    }


@pytest.mark.benchmark(group="replication")
def test_replication_overhead_writes_bench_json(tmp_path, benchmark):
    rows = [_run_factor(tmp_path, k) for k in FACTORS]
    base = rows[0]

    payload = {
        "benchmark": "replication_overhead",
        "workload": {
            "n_workers": 3,
            "n_points": N_POINTS,
            "n_clusters": N_CLUSTERS,
            "factors": list(FACTORS),
        },
        "results": rows,
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

    with open(BENCH_PATH) as f:
        parsed = json.load(f)
    results = {r["replication"]: r for r in parsed["results"]}
    # Factor 1 ships no replicas; factor k ships (k-1) copies per page.
    assert results[1]["replica_writes"] == 0
    for k in FACTORS[1:]:
        assert results[k]["replica_writes"] == \
            (k - 1) * results[k]["pages"]
        assert results[k]["net_bytes_zero_copy"] > \
            results[1]["net_bytes_zero_copy"]

    report("replication_overhead", render_table(
        "Replication overhead (%d points, 3 workers)" % N_POINTS,
        ["replication", "load", "query", "pages", "replica writes",
         "zero-copy bytes"],
        [
            [str(r["replication"]), fmt_seconds(r["load_s"]),
             fmt_seconds(r["query_s"]), str(r["pages"]),
             str(r["replica_writes"]), "{:,}".format(
                 r["net_bytes_zero_copy"])]
            for r in rows
        ],
    ) + "\n\nbaseline: factor 1 load %s / query %s\n" % (
        fmt_seconds(base["load_s"]), fmt_seconds(base["query_s"])
    ))

    # One representative operation for pytest-benchmark stats.
    benchmark(lambda: _run_factor(tmp_path, 2))
