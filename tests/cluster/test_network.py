"""Tests for the simulated network's byte accounting in its registry."""

import json

from repro.cluster.network import SimulatedNetwork, estimate_value_bytes
from repro.obs import Tracer


def _links(net):
    """``{"src->dst": bytes}`` read off the per-link counter."""
    return {
        "%s->%s" % key: nbytes
        for key, nbytes in net.metrics.get("pc_net_link_bytes_total")
        .series().items()
    }


def test_stats_split_zero_copy_and_row_traffic():
    net = SimulatedNetwork()
    net.ship_page("client", "worker-0", b"x" * 1000)
    net.ship_rows("worker-0", "worker-1", [(1, "a"), (2, "b")])
    snapshot = net.metrics.snapshot()
    assert snapshot.value("pc_net_messages_total") == 2
    assert snapshot.value("pc_net_bytes_zero_copy_total") == 1000
    assert snapshot.value("pc_net_bytes_rows_total") == \
        estimate_value_bytes((1, "a")) + estimate_value_bytes((2, "b"))
    assert snapshot.value("pc_net_bytes_total") == \
        snapshot.value("pc_net_bytes_zero_copy_total") + \
        snapshot.value("pc_net_bytes_rows_total")


def test_stats_surface_per_link_breakdown():
    """Per-link bytes expose skewed shuffle partners."""
    net = SimulatedNetwork()
    net.ship_page("client", "worker-0", b"x" * 100)
    net.ship_page("client", "worker-0", b"y" * 50)
    net.ship_rows("worker-0", "worker-1", [(1,)])
    snapshot = net.metrics.snapshot()
    assert snapshot.value("pc_net_link_bytes_total", src="client",
                          dst="worker-0") == 150
    assert snapshot.value("pc_net_link_bytes_total", src="worker-0",
                          dst="worker-1") == estimate_value_bytes((1,))
    assert snapshot.value("pc_net_link_bytes_total") == \
        snapshot.value("pc_net_bytes_total")
    # The breakdown is JSON-serializable (string keys, int values).
    links = _links(net)
    assert json.loads(json.dumps(links)) == links


def test_reset_clears_links_too():
    net = SimulatedNetwork()
    net.ship_page("a", "b", b"pq")
    net.reset()
    assert net.metrics.get("pc_net_bytes_total").value == 0
    assert _links(net) == {}


def test_transfers_report_into_the_active_span():
    tracer = Tracer()
    net = SimulatedNetwork(tracer=tracer)
    net.ship_page("a", "b", b"x" * 7)  # outside any span: global only
    with tracer.span("job", kind="job"):
        net.ship_page("worker-0", "worker-1", b"x" * 10)
        net.ship_rows("worker-1", "worker-0", [(1, 2)])
    totals = tracer.last_trace.totals()
    assert totals["net.bytes_zero_copy"] == 10
    assert totals["net.bytes_rows"] == estimate_value_bytes((1, 2))
    assert totals["net.link.worker-0->worker-1"] == 10
    assert "net.link.a->b" not in totals
    # The registry still covers everything.
    assert net.metrics.get("pc_net_bytes_zero_copy_total").value == 17


def test_mutating_returned_by_link_does_not_corrupt_accounting():
    """What a registry read returns is a copy, not internal state."""
    net = SimulatedNetwork()
    net.ship_page("client", "worker-0", b"x" * 100)

    series = net.metrics.get("pc_net_link_bytes_total").series()
    series[("client", "worker-0")] += 500
    series[("made", "up")] = 7
    snapshot = net.metrics.snapshot()
    snapshot.families["pc_net_bytes_total"]["series"][()] = 999999
    assert _links(net) == {"client->worker-0": 100}
    assert net.metrics.get("pc_net_bytes_total").value == 100
