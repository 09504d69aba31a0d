"""Parallel speedup of the process transport via aggregate memory.

PC's scale-out argument (paper §2, §6) is not only about CPUs: adding
workers multiplies *aggregate buffer-pool memory*.  This bench fixes the
per-worker pool small enough that one worker spill-thrashes the working
set through disk on every scan, while four workers hold their quarters
resident — the same job then runs entirely out of RAM.  Workloads are
the paper's pair: k-means Lloyd iterations (Table 6) and the TPC-H
customer/supplier aggregation (Table 3), both on
``PCCluster(transport="process")`` with real spawned back-ends.

Timing starts after one warm-up iteration, so child-process spawning
and the initial load/spill are excluded from every configuration alike.
The measured numbers land in ``BENCH_parallel.json`` at the repo root;
the acceptance bar is a >= 2x wall-clock speedup at 4 workers on
k-means.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.ml import PCKMeans
from repro.tpch import TpchSpec, customers_per_supplier_pc, load_pc_customers

from bench_utils import render_table, report, timed

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_parallel.json"
)

#: Fixed per-worker pool: the k-means point set (~10 MiB of sealed
#: pages) thrashes through one 5 MiB pool but sits resident across 4.
WORKER_MEMORY = 5 << 20
PAGE_SIZE = 1 << 13
WORKER_COUNTS = (1, 2, 4)

KM_DIM = 16
KM_POINTS = 70000
KM_K = 2
KM_ITERATIONS = 4
#: 56 points x 16 dims x 8 bytes ~= 7 KiB: one chunk fills one 8 KiB
#: page, so the stored footprint tracks the raw data size.
KM_CHUNK = 56

TPCH_SPEC = TpchSpec(n_customers=120, n_parts=160, n_suppliers=12, seed=5)


def _points():
    rng = np.random.default_rng(KM_DIM)
    centers = rng.normal(scale=5.0, size=(KM_K, KM_DIM))
    return np.vstack([
        rng.normal(loc=centers[i % KM_K], scale=0.5,
                   size=(KM_POINTS // KM_K, KM_DIM))
        for i in range(KM_K)
    ])


def _cluster(tmp_path, name, n_workers, page_size=PAGE_SIZE):
    root = tmp_path / name
    root.mkdir()
    return PCCluster(
        n_workers=n_workers, page_size=page_size,
        worker_memory=WORKER_MEMORY, spill_root=str(root),
        transport="process",
    )


def _kmeans_run(tmp_path, n_workers, points):
    cluster = _cluster(tmp_path, "km%d" % n_workers, n_workers)
    km = PCKMeans(cluster, set_name="points")
    km.load(points, chunk_size=KM_CHUNK)
    centers = km.initialize(KM_K, seed=7)
    centers = km.iterate(centers)  # warm-up: spawn children, first scan
    start = time.perf_counter()
    for _ in range(KM_ITERATIONS):
        centers = km.iterate(centers)
    elapsed = time.perf_counter() - start
    snapshot = cluster.metrics()
    spills = snapshot.value("pc_pool_spills_total")
    reloads = snapshot.value("pc_pool_reloads_total")
    cluster.close()
    return elapsed, centers, spills, reloads


def _tpch_run(tmp_path, n_workers):
    # TPC-H customers are nested maps that outgrow the k-means pages.
    cluster = _cluster(
        tmp_path, "tpch%d" % n_workers, n_workers, page_size=1 << 16
    )
    load_pc_customers(cluster, TPCH_SPEC)
    customers_per_supplier_pc(cluster)  # warm-up
    elapsed, (result, total) = timed(customers_per_supplier_pc, cluster)
    cluster.close()
    return elapsed, total


@pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)
@pytest.mark.benchmark(group="parallel")
def test_parallel_speedup(tmp_path, benchmark):
    points = _points()
    kmeans, tpch = {}, {}
    baseline_centers = None
    for n_workers in WORKER_COUNTS:
        elapsed, centers, spills, reloads = _kmeans_run(
            tmp_path, n_workers, points
        )
        kmeans[n_workers] = {
            "seconds": elapsed, "spills": spills, "reloads": reloads,
        }
        if baseline_centers is None:
            baseline_centers = centers
        else:
            # More workers changes the partitioning, not the math.
            np.testing.assert_allclose(centers, baseline_centers)
        t_elapsed, total = _tpch_run(tmp_path, n_workers)
        assert total > 0
        tpch[n_workers] = {"seconds": t_elapsed}

    km_speedup = kmeans[1]["seconds"] / kmeans[4]["seconds"]
    tpch_speedup = tpch[1]["seconds"] / tpch[4]["seconds"]
    doc = {
        "transport": "process",
        "cpus": os.cpu_count(),
        "worker_memory_bytes": WORKER_MEMORY,
        "page_size_bytes": PAGE_SIZE,
        "kmeans": {
            "dim": KM_DIM, "points": KM_POINTS, "k": KM_K,
            "iterations": KM_ITERATIONS,
            "by_workers": {str(n): kmeans[n] for n in WORKER_COUNTS},
            "speedup_4_over_1": round(km_speedup, 3),
        },
        "tpch": {
            "customers": TPCH_SPEC.n_customers,
            "by_workers": {str(n): tpch[n] for n in WORKER_COUNTS},
            "speedup_4_over_1": round(tpch_speedup, 3),
        },
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    rows = [
        (
            n,
            "%.2fs" % kmeans[n]["seconds"],
            kmeans[n]["reloads"],
            "%.2fs" % tpch[n]["seconds"],
        )
        for n in WORKER_COUNTS
    ]
    report("parallel_speedup", render_table(
        "Process-transport speedup (fixed %d MiB pool per worker)"
        % (WORKER_MEMORY >> 20),
        ["workers", "kmeans", "reloads", "tpch"], rows,
    ))

    # The scale-out story the bench exists to demonstrate: one worker
    # thrashes its pool on every scan, four hold the set resident.
    assert kmeans[1]["reloads"] > 0
    assert kmeans[4]["reloads"] == 0
    assert km_speedup >= 2.0, (
        "expected >=2x kmeans speedup at 4 workers, got %.2fx" % km_speedup
    )

    benchmark(lambda: None)
