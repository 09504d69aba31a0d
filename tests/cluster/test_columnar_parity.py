"""Columnar/object parity: every lowered operator, byte-identical.

The optimizer may lower a selection, projection, or sum aggregation onto
the whole-page array kernels only if doing so is invisible: running the
same program with ``execute_computations(..., columnar=False)`` must
produce byte-identical results.  Inputs are dyadic rationals (whole
numbers, quarters, 64ths, eighths), so float accumulation is exact on
both paths and equality really means equality — no tolerances.

Each parity check runs on the simulated transport and, where the
environment allows, on real spawned processes over shared memory.
"""

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.core import (
    AggregateComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.memory import Float64, Int64
from repro.ml.kmeans_columnar import ColumnarKMeans
from repro.schema import Schema, f64, i64
from repro.tpch.lineitem import (
    load_lineitems,
    q1_sums,
    q6_revenue,
    reference_q1,
    reference_q6,
)

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]

POINT_SCHEMA = Schema([("pid", i64), ("cid", i64), ("x", f64)])


class HighX(SelectionComp):
    """Filter + kernelized native projection (both columnar-lowered)."""

    def get_selection(self, arg):
        return lambda_from_member(arg, "x") > 100.0

    def get_projection(self, arg):
        return lambda_from_native(
            [arg], lambda p: p.x * 2.0,
            kernel=lambda rows: rows.column("x") * 2.0,
        )


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64
    reduce = "sum"

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cid")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


def make_cluster(tmp_path, subdir, transport, **kwargs):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    # Explicit transport: the "sim" leg must stay simulated even when the
    # suite as a whole runs under PC_TRANSPORT=process.
    return PCCluster(n_workers=3, page_size=1 << 12, spill_root=str(root),
                     transport=transport, **kwargs)


def _load_points(cluster, n=500, min_pages=1):
    cluster.create_database("db")
    cluster.create_set("db", "points", schema=POINT_SCHEMA)
    with cluster.loader("db", "points") as load:
        for i in range(n):
            load.append(pid=i, cid=i % 4, x=float(i))
    assert load.pages_shipped >= min_pages


def _run_selection_and_sum(cluster, columnar):
    sel = HighX().set_input(ObjectReader("db", "points"))
    cluster.execute_computations(
        Writer("db", "high").set_input(sel), columnar=columnar
    )
    high = sorted(cluster.read("db", "high"))
    agg = SumX().set_input(ObjectReader("db", "points"))
    cluster.execute_computations(
        Writer("db", "sums").set_input(agg), columnar=columnar
    )
    sums = cluster.read("db", "sums", as_pairs=True, comp=agg)
    return high, sums


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_selection_projection_aggregation_parity(tmp_path, transport):
    n = 500
    expected_high = sorted(float(i) * 2.0 for i in range(101, n))
    expected_sums = {}
    for i in range(n):
        expected_sums[i % 4] = expected_sums.get(i % 4, 0.0) + float(i)

    results = {}
    for columnar, profiling in ((True, True), (True, False), (False, True)):
        cluster = make_cluster(
            tmp_path, "%s-%s" % (columnar, profiling), transport,
            profiling=profiling,
        )
        try:
            # Parity must span page boundaries.
            _load_points(cluster, n, min_pages=2)
            results[columnar, profiling] = _run_selection_and_sum(
                cluster, columnar
            )
            snapshot = cluster.metrics()
            # One counter, booked where the kernel ran and shipped home
            # from back-end processes: the per-operator split holds on
            # every transport, profiled or not.
            for operator in ("filter", "apply", "aggregate"):
                rows = snapshot.value(
                    "pc_engine_columnar_rows_total", operator=operator
                )
                assert (rows > 0) == columnar, (operator, rows)
        finally:
            cluster.close()

    for result in results.values():
        assert result == (expected_high, expected_sums)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_pc_columnar_env_kill_switch(tmp_path, transport, monkeypatch):
    # PC_COLUMNAR=0 forces the object path even with columnar=None.
    cluster = make_cluster(tmp_path, "env", transport, profiling=True)
    try:
        _load_points(cluster, 200)
        monkeypatch.setenv("PC_COLUMNAR", "0")
        agg = SumX().set_input(ObjectReader("db", "points"))
        cluster.execute_computations(Writer("db", "sums").set_input(agg))
        assert cluster.metrics().value("pc_engine_columnar_rows_total") == 0
        monkeypatch.delenv("PC_COLUMNAR")
        cluster.clear_set("db", "sums")
        cluster.execute_computations(Writer("db", "sums").set_input(agg))
        assert cluster.metrics().value("pc_engine_columnar_rows_total") > 0
    finally:
        cluster.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_tpch_q6_and_q1_parity(tmp_path, transport):
    cluster = make_cluster(tmp_path, "tpch", transport)
    try:
        columns = load_lineitems(cluster, 600, seed=3)
        on = q6_revenue(cluster, columnar=True)
        off = q6_revenue(cluster, columnar=False)
        assert on == off == reference_q6(columns)
        for measure in ("quantity", "extendedprice"):
            q1_on = q1_sums(cluster, measure, columnar=True)
            q1_off = q1_sums(cluster, measure, columnar=False)
            assert q1_on == q1_off == reference_q1(columns, measure)
    finally:
        cluster.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_kmeans_iteration_parity(tmp_path, transport):
    rng = np.random.default_rng(7)
    # Coordinates on the eighths grid: exactly representable, and so are
    # the squared distances and sums both paths accumulate.
    points = rng.integers(-40, 40, size=(120, 3)) / 8.0
    cluster = make_cluster(tmp_path, "ml", transport)
    try:
        km = ColumnarKMeans(cluster).load(points)
        centers = km.initialize(4, seed=1)
        for _step in range(2):
            on = km.iterate(centers, columnar=True)
            off = km.iterate(centers, columnar=False)
            assert np.array_equal(on, off)
            centers = on
    finally:
        cluster.close()


def test_columnar_scan_read_returns_row_tuples(tmp_path):
    # cluster.read over a columnar set yields schema-ordered row views
    # that compare as plain tuples (the object-path bridge).
    cluster = make_cluster(tmp_path, "read", "sim")
    try:
        _load_points(cluster, 20)
        rows = cluster.read("db", "points")
        assert sorted(r.as_tuple() for r in rows) == [
            (i, i % 4, float(i)) for i in range(20)
        ]
        assert rows[0].field_names() == ["pid", "cid", "x"]
    finally:
        cluster.close()
