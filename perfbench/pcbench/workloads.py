"""The benchmark's four workloads.

Each workload builds its inputs from the seed, stands up a cluster,
loads the inputs through the public client API and computes every
reference answer once (:meth:`Workload.setup`).  A *round* is the
workload's fixed sequence of operations; each operation issues one or
more jobs (``PCCluster.execute_computations`` calls) and carries a check
of its output against the reference.  A run repeats rounds.

The job mix of every workload is chosen so that its slowest job type
makes up more than 10% of the jobs (p90 falls inside that type) and no
type boundary sits at 50% (p50 falls inside one type or a band of types
with overlapping latencies).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster import PCCluster
from repro.lillinalg import DistributedMatrix
from repro.ml.kmeans_columnar import ColumnarKMeans
from repro.tpch import (
    TpchSpec,
    customers_per_supplier_pc,
    load_pc_customers,
    python_customers,
    reference_customers_per_supplier,
    reference_top_k,
    top_k_jaccard_pc,
)
from repro.tpch.lineitem import (
    LINEITEM_SCHEMA,
    generate_lineitems,
    q1_sums,
    q6_revenue,
    reference_q1,
    reference_q6,
)

_KIB = 1 << 10
_MIB = 1 << 20

#: A second Q6 predicate, so the two Q6 jobs of a round differ.
_Q6_WIDE = {"date_lo": 0, "date_hi": 1460, "disc_lo": 2 / 64.0,
            "disc_hi": 6 / 64.0, "max_qty": 30.0}


class Operation:
    """One step of a round: ``run()`` returns the output ``check`` judges."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-9)


def _same_sums(got, want):
    return set(got) == set(want) and all(
        _close(got[key], want[key]) for key in want
    )


class Workload:
    name = None
    transport = "sim"
    n_workers = 4

    def __init__(self, seed):
        self.seed = seed
        self.cluster = None

    def setup(self):
        """Build inputs, cluster, load, references; returns input sizes."""
        raise NotImplementedError

    def warm_up(self):
        """One untimed job, so lazy set-up is paid before measuring."""
        raise NotImplementedError

    def round(self, index):
        """The operations of round ``index``."""
        raise NotImplementedError

    def close(self):
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None


class TpchNested(Workload):
    """Nested Customer trees: object layout, allocator, deep copies."""

    name = "tpch-nested"
    n_customers = 300
    n_queries = 4

    def setup(self):
        spec = TpchSpec(n_customers=self.n_customers, n_parts=150,
                        n_suppliers=12, seed=self.seed)
        customers = python_customers(spec)
        self.cluster = PCCluster(n_workers=self.n_workers,
                                 page_size=256 * _KIB)
        load_pc_customers(self.cluster, spec)
        self.cps_ref = _normalize_cps(
            reference_customers_per_supplier(customers)
        )
        rng = np.random.default_rng(self.seed)
        self.queries = []
        for index in rng.choice(len(customers), size=self.n_queries,
                                replace=False):
            parts = sorted(customers[int(index)].part_ids())[:8]
            k = 5
            self.queries.append(
                (k, parts, reference_top_k(customers, k, parts))
            )
        return {"customers": self.n_customers, "parts": spec.n_parts,
                "suppliers": spec.n_suppliers, "page_bytes": 256 * _KIB}

    def warm_up(self):
        customers_per_supplier_pc(self.cluster)

    def round(self, index):
        # 1 customers-per-supplier : 2 top-k jobs, so p50 lands among
        # the (fast) top-k jobs and p90 among the (slow) aggregations.
        first = self.queries[(2 * index) % self.n_queries]
        second = self.queries[(2 * index + 1) % self.n_queries]
        return [
            Operation("customers_per_supplier",
                      lambda: customers_per_supplier_pc(self.cluster)[0],
                      lambda got: _normalize_cps(got) == self.cps_ref),
            self._top_k(first),
            self._top_k(second),
        ]

    def _top_k(self, query):
        k, parts, want = query
        return Operation(
            "top_k_jaccard",
            lambda: top_k_jaccard_pc(self.cluster, k, parts),
            lambda got: [tuple(c[:2]) + (list(c[2]),) for c in got]
            == [tuple(c[:2]) + (list(c[2]),) for c in want],
        )


def _normalize_cps(result):
    return {
        supplier: sorted((name, sorted(parts))
                         for name, parts in customers.items())
        for supplier, customers in result.items()
    }


class LineitemColumnar(Workload):
    """Columnar scans and k-means on real worker processes."""

    name = "lineitem-columnar"
    transport = "process"
    n_workers = 2
    n_rows = 20000
    n_points = 4000
    dims = 3
    k = 4

    def setup(self):
        self.columns = generate_lineitems(self.n_rows, seed=self.seed)
        rng = np.random.default_rng(self.seed + 1)
        self.points = rng.normal(size=(self.n_points, self.dims))
        self.cluster = PCCluster(n_workers=self.n_workers,
                                 transport=self.transport,
                                 page_size=256 * _KIB)
        _load_lineitem(self.cluster, "tpch", "lineitem", self.columns, 1)
        self.kmeans = ColumnarKMeans(self.cluster).load(self.points)
        self.centers = self.kmeans.initialize(self.k, seed=self.seed)
        self.q6_refs = [reference_q6(self.columns),
                        reference_q6(self.columns, **_Q6_WIDE)]
        self.q1_refs = {measure: reference_q1(self.columns, measure)
                        for measure in ("quantity", "extendedprice")}
        return {"lineitem_rows": self.n_rows, "kmeans_points": self.n_points,
                "kmeans_dims": self.dims, "kmeans_k": self.k,
                "page_bytes": 256 * _KIB}

    def warm_up(self):
        # Also waits for the spawned back-end processes to come up.
        q6_revenue(self.cluster)

    def round(self, index):
        # 2 Q6 (filter + apply + sum, the slowest) : 2 Q1 : 4 k-means
        # jobs — p90 inside the Q6 quarter, p50 inside the fast band.
        return [
            Operation("q6", lambda: q6_revenue(self.cluster),
                      lambda got: _close(got, self.q6_refs[0])),
            Operation("q1", lambda: q1_sums(self.cluster, "quantity"),
                      lambda got: _same_sums(got, self.q1_refs["quantity"])),
            Operation("kmeans_iteration", self._kmeans_step,
                      self._kmeans_check),
            Operation("q6", lambda: q6_revenue(self.cluster, **_Q6_WIDE),
                      lambda got: _close(got, self.q6_refs[1])),
            Operation("q1", lambda: q1_sums(self.cluster, "extendedprice"),
                      lambda got: _same_sums(
                          got, self.q1_refs["extendedprice"])),
        ]

    def _kmeans_step(self):
        before = self.centers
        after = self.kmeans.iterate(before)
        self.centers = after
        return before, after

    def _kmeans_check(self, got):
        before, after = got
        return np.allclose(after, _lloyd_step(self.points, before),
                           rtol=1e-9, atol=1e-12)


def _lloyd_step(points, centers):
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    out = centers.copy()
    for j in range(len(centers)):
        members = points[assign == j]
        if len(members):
            out[j] = members.mean(axis=0)
    return out


def _load_lineitem(cluster, database, name, columns, replication):
    cluster.create_database(database)
    cluster.create_set(database, name, schema=LINEITEM_SCHEMA,
                       replication=replication)
    with cluster.loader(database, name) as load:
        load.append_columns(**columns)


class LinalgBlocks(Workload):
    """lilLinAlg on 4 MiB pages: few large pages, many temporary sets."""

    name = "linalg-blocks"
    n_rows = 1200
    gram_dim = 1000
    nn_dim = 500
    n_queries = 4

    def setup(self):
        rng = np.random.default_rng(self.seed)
        x = rng.normal(size=(self.n_rows, self.gram_dim))
        y = x @ rng.normal(size=self.gram_dim) \
            + 0.01 * rng.normal(size=self.n_rows)
        points = rng.normal(size=(self.n_rows, self.nn_dim))
        weights = rng.uniform(0.5, 2.0, size=self.nn_dim)
        queries = rng.normal(size=(self.n_queries, self.nn_dim))
        # Pools hold every live set, so no page is ever spilled here.
        self.cluster = PCCluster(n_workers=self.n_workers,
                                 page_size=4 * _MIB,
                                 worker_memory=192 * _MIB)
        block_rows = self.n_rows // 8
        self.x = DistributedMatrix.from_numpy(
            self.cluster, "lla", x, block_rows, 256)
        self.y = DistributedMatrix.from_numpy(
            self.cluster, "lla", y.reshape(-1, 1), block_rows, 1)
        self.points = DistributedMatrix.from_numpy(
            self.cluster, "lla", points, block_rows, 256)
        self.metric = DistributedMatrix.from_numpy(
            self.cluster, "lla", np.diag(weights), 256, 256)
        self.gram_ref = x.T @ x
        self.beta_ref = np.linalg.solve(self.gram_ref, x.T @ y)
        self.queries = [
            (q, int(np.argmin((((points - q) ** 2) * weights).sum(axis=1))))
            for q in queries
        ]
        self.gram = None
        return {"rows": self.n_rows, "gram_dim": self.gram_dim,
                "nn_dim": self.nn_dim, "page_bytes": 4 * _MIB,
                "worker_memory_bytes": 192 * _MIB}

    def warm_up(self):
        self._drop(self.x.transpose_multiply(self.y))

    def _drop(self, *matrices):
        for matrix in matrices:
            self.cluster.drop_set(matrix.database, matrix.set_name)

    def round(self, index):
        # Jobs: Gram (1, the slowest), regression (2), nearest (4):
        # p90 inside the Gram seventh, p50 inside the 15-25 ms band.
        query = self.queries[index % self.n_queries]
        return [
            Operation("gram", self._gram, self._gram_check),
            Operation("regression", self._regression,
                      lambda got: np.allclose(got, self.beta_ref,
                                              rtol=1e-6, atol=1e-6)),
            Operation("nearest", lambda: self._nearest(query[0]),
                      lambda got: got == query[1]),
        ]

    def _gram(self):
        if self.gram is not None:
            self._drop(self.gram)
        self.gram = self.x.transpose_multiply(self.x)
        return self.gram.to_numpy()

    def _gram_check(self, got):
        return np.allclose(got, self.gram_ref, rtol=1e-9,
                           atol=1e-9 * self.n_rows)

    def _regression(self):
        xty = self.x.transpose_multiply(self.y)
        inverse = self.gram.inverse()
        beta = inverse.multiply(xty)
        try:
            return beta.to_numpy().ravel()
        finally:
            self._drop(xty, inverse, beta)

    def _nearest(self, query):
        delta = self.points.subtract_row_vector(query)
        weighted = delta.multiply(self.metric)
        product = weighted.elementwise_multiply(delta)
        distances = product.row_sum()
        try:
            return int(np.argmin(distances.to_numpy().ravel()))
        finally:
            self._drop(delta, weighted, product, distances)


class IngestSpill(Workload):
    """Durable replicated loads and scans through an undersized pool."""

    name = "ingest-spill"
    n_rows = 40000
    n_datasets = 4
    page_size = 64 * _KIB
    worker_memory = 4 * 64 * _KIB
    replication = 2

    def setup(self):
        self.datasets = []
        for offset in range(self.n_datasets):
            columns = generate_lineitems(self.n_rows,
                                         seed=self.seed * 101 + offset)
            self.datasets.append((columns, {
                "q6": reference_q6(columns),
                "quantity": reference_q1(columns, "quantity"),
                "extendedprice": reference_q1(columns, "extendedprice"),
                "discount": reference_q1(columns, "discount"),
            }))
        self.cluster = PCCluster(n_workers=self.n_workers,
                                 page_size=self.page_size,
                                 worker_memory=self.worker_memory)
        self.cluster.create_database("ingest")
        return {"rows_per_round": self.n_rows, "page_bytes": self.page_size,
                "replication": self.replication,
                "pool_bytes_per_worker": self.worker_memory}

    def warm_up(self):
        """Load, scan and drop one set; returns its stored size."""
        columns, _refs = self.datasets[0]
        _load_lineitem(self.cluster, "ingest", "warm_up", columns,
                       self.replication)
        pages = len(self.cluster.catalog.set_metadata(
            "ingest", "warm_up").pages)
        q6_revenue(self.cluster, database="ingest", set_name="warm_up")
        self.cluster.drop_set("ingest", "warm_up")
        stored = pages * self.replication * self.page_size
        return {"stored_bytes_per_worker": stored // self.n_workers}

    def round(self, index):
        columns, refs = self.datasets[index % self.n_datasets]
        name = "batch_%d" % index
        cluster = self.cluster

        def scan_q1(measure):
            return Operation(
                "q1", lambda: q1_sums(cluster, measure, database="ingest",
                                      set_name=name),
                lambda got: _same_sums(got, refs[measure]))

        # 1 Q6 : 3 Q1 jobs — p90 inside the Q6 quarter, p50 among Q1s.
        return [
            Operation("load", lambda: _load_lineitem(
                cluster, "ingest", name, columns, self.replication),
                lambda got: True),
            Operation("q6", lambda: q6_revenue(cluster, database="ingest",
                                               set_name=name),
                      lambda got: _close(got, refs["q6"])),
            scan_q1("quantity"),
            scan_q1("extendedprice"),
            scan_q1("discount"),
            Operation("drop", lambda: cluster.drop_set("ingest", name),
                      lambda got: True),
        ]


WORKLOADS = {cls.name: cls for cls in
             (TpchNested, LineitemColumnar, LinalgBlocks, IngestSpill)}
