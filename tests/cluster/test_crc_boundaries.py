"""Where page CRCs run: once per stored page, then only at trust boundaries.

A stored page is stamped once, at seal.  After that its bytes are hashed
only where they can change: a spill reload, and a network receipt when a
fault injector can alter the bytes.  A resident sealed page is immutable,
so replicated scans do not re-hash it, and with no injector a page
transfer hands the receiver the sender's own bytes, so it is not hashed
either.  These tests count every ``page_checksum`` call, at every module
alias it is imported under, to pin those rules.
"""

import os
import sys

import pytest

from repro.cluster import FaultInjector, PCCluster, RetryPolicy
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_member
from repro.memory import Float64, Int32, Int64, PCObject
from repro.storage import replication


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


N = 600


@pytest.fixture
def crc_calls(monkeypatch):
    """A list that grows by one entry per ``page_checksum`` call."""
    calls = []
    original = replication.page_checksum

    def counting(data):
        calls.append(len(data))
        return original(data)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
    return calls


def make_cluster(tmp_path, injector=None, policy=None):
    # A pool far larger than the data: no page spills, so no spill CRCs.
    return PCCluster(
        n_workers=3, page_size=1 << 12, spill_root=str(tmp_path),
        worker_memory=64 << 20, fault_injector=injector,
        retry_policy=policy,
    )


def load_points(cluster, replication=2):
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=replication)
    with cluster.loader("db", "points") as load:
        for i in range(N):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))
    return len(cluster.catalog.set_metadata("db", "points").pages)


def count_page_ships(monkeypatch, network):
    """A list that grows by one entry per ``ship_page`` call."""
    ships = []
    original = network.ship_page

    def counting(src, dst, data, checksum=None):
        ships.append(checksum)
        return original(src, dst, data, checksum=checksum)

    monkeypatch.setattr(network, "ship_page", counting)
    return ships


def expected_sums():
    sums = {}
    for i in range(N):
        sums[i % 4] = sums.get(i % 4, 0.0) + float(i)
    return sums


def test_one_stamp_per_stored_page_and_none_on_reads_or_combiners(
    tmp_path, monkeypatch, crc_calls,
):
    cluster = make_cluster(tmp_path)
    ships = count_page_ships(monkeypatch, cluster.network)
    pages = load_points(cluster)
    assert pages > 1
    # Exactly one stamp per stored page, though each is shipped twice.
    assert len(crc_calls) == pages
    assert len(ships) == 2 * pages

    del crc_calls[:]
    for _ in range(2):
        assert sorted(h.pid for h in cluster.read("db", "points")) == \
            list(range(N))
    assert crc_calls == []  # replicated scans do not re-hash

    del ships[:]
    agg = SumX().set_input(ObjectReader("db", "points"))
    Writer("db", "sums").set_input(agg).execute(cluster)
    assert ships and all(checksum is None for checksum in ships)
    # Combiner pages are shipped unhashed; only the stored output pages
    # are stamped.
    outputs = len(cluster.catalog.set_metadata("db", "sums").pages)
    assert len(crc_calls) == outputs
    assert cluster.read("db", "sums", as_pairs=True, comp=agg) == \
        expected_sums()
    assert cluster.replication.checksum_failures == 0


def test_corrupt_transfer_costs_one_receipt_check_per_attempt(
    tmp_path, crc_calls,
):
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, injector=injector,
        policy=RetryPolicy(transfer_retries=2),
    )
    injector.corrupt_transfer(times=1)
    pages = load_points(cluster)
    network = cluster.network
    assert network.transfers_corrupted == 1
    attempts = 2 * pages + network.transfer_retries
    # One stamp per stored page plus one receipt check per attempt.
    assert len(crc_calls) == pages + attempts
    assert sorted(h.pid for h in cluster.read("db", "points")) == \
        list(range(N))
    assert len(crc_calls) == pages + attempts  # the scan hashed nothing


def test_seeded_corruption_is_caught_only_at_receipt(
    tmp_path, monkeypatch, crc_calls,
):
    seed = int(os.environ.get("PC_FAULT_SEED", "0"))
    injector = FaultInjector(seed=seed)
    injector.corrupt_rate = 0.5
    cluster = make_cluster(
        tmp_path, injector=injector,
        policy=RetryPolicy(transfer_retries=32),
    )
    ships = count_page_ships(monkeypatch, cluster.network)
    pages = load_points(cluster)
    network = cluster.network
    # Corruption is the only fault armed: every re-send answers a flip.
    assert network.transfer_retries == network.transfers_corrupted
    assert len(crc_calls) == pages + len(ships) + network.transfer_retries

    del crc_calls[:], ships[:]
    retries = network.transfer_retries
    agg = SumX().set_input(ObjectReader("db", "points"))
    Writer("db", "sums").set_input(agg).execute(cluster)
    assert ships and all(checksum is None for checksum in ships)
    attempts = len(ships) + network.transfer_retries - retries
    outputs = len(cluster.catalog.set_metadata("db", "sums").pages)
    # Output pages: one stamp each.  Combiner ships: one stamp from the
    # sent bytes, then one receipt check per attempt.
    assert len(crc_calls) == outputs + len(ships) + attempts
    assert network.transfers_corrupted > 0
    assert cluster.read("db", "sums", as_pairs=True, comp=agg) == \
        expected_sums()
    assert sorted(h.pid for h in cluster.read("db", "points")) == \
        list(range(N))
    assert cluster.replication.checksum_failures == 0
