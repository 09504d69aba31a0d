"""Property tests: page bytes survive every hop byte-identically.

A sealed page's bytes are the unit of durability — they spill to disk,
ship over the network, and are adopted into replica partitions verbatim.
These hypothesis properties pin the byte-level contract: for arbitrary
object populations, every hop returns the exact sealed bytes (equal
CRC32, equal values), and the corruption hooks are *detectable* — a
flipped payload never checksums clean, and a checksummed transfer either
re-sends its way to the pristine bytes or raises, never delivers damage
(an unstamped transfer is stamped from the sent bytes).
The no-copy sealed view is held to the same bytes as the owned copy, on
object (combiner Map) and columnar pages alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.catalog import CatalogManager, LocalCatalog
from repro.cluster import FaultInjector, RetryPolicy
from repro.cluster.network import SimulatedNetwork
from repro.errors import PageCorruptionError
from repro.memory import (
    AllocationBlock,
    ColumnarPage,
    Float64,
    Int32,
    Int64,
    MapType,
    PCObject,
    String,
    VectorType,
)
from repro.memory.objects import make_object_on
from repro.schema import Schema, f64, i64
from repro.storage import (
    LocalStorageServer,
    corrupt_bytes,
    page_checksum,
)


class Rec(PCObject):
    fields = [("pid", Int32), ("name", String), ("xs", VectorType(Float64))]


ascii_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)
payloads = st.lists(
    st.tuples(
        st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
        ascii_names,
        st.lists(st.integers(-1000, 1000).map(float), max_size=8),
    ),
    min_size=1,
    max_size=60,
)


def _write(server, records):
    page_set = server.create_set("db", "s", "Rec")
    with page_set.writer() as writer:
        for pid, name, xs in records:
            writer.append(Rec, pid=pid, name=name, xs=xs)
    return page_set


def _values(page_set):
    return [(h.pid, h.name, list(h.xs)) for h in page_set.scan_objects()]


@settings(max_examples=30, deadline=None)
@given(payloads)
def test_ship_and_adopt_roundtrip_is_byte_identical(tmp_path_factory, records):
    """sealed page -> network ship -> replica adopt: same bytes, values."""
    tmp = tmp_path_factory.mktemp("roundtrip")
    catalog = CatalogManager()
    catalog.register_type(Rec)
    src_server = LocalStorageServer(
        "a", 1 << 22, page_size=1 << 12,
        registry=LocalCatalog(catalog).registry, spill_dir=str(tmp / "a"),
    )
    dst_server = LocalStorageServer(
        "b", 1 << 22, page_size=1 << 12,
        registry=LocalCatalog(catalog).registry, spill_dir=str(tmp / "b"),
    )
    network = SimulatedNetwork()
    src = _write(src_server, records)
    dst = dst_server.create_set("db", "s", "Rec")
    checksums = []
    for page_id in src.page_ids:
        with src.pinned_page(page_id) as page:
            data = page.block.to_bytes()
        checksum = page_checksum(data)
        delivered = network.ship_page("a", "b", data, checksum=checksum)
        assert delivered == data  # byte-identical arrival
        pid = dst.adopt_page_bytes(delivered, count_objects=False)
        checksums.append((pid, checksum))
    for pid, checksum in checksums:
        with dst.pinned_page(pid) as page:
            assert page_checksum(page.block.to_bytes()) == checksum
    assert _values(dst) == _values(src) == [
        (pid, name, xs) for pid, name, xs in records
    ]


@settings(max_examples=20, deadline=None)
@given(payloads)
def test_spill_reload_roundtrip_is_checksum_identical(
    tmp_path_factory, records,
):
    """sealed page -> spill -> reload: the CRC32 stamped at seal holds."""
    tmp = tmp_path_factory.mktemp("spill")
    server = LocalStorageServer(
        "w", capacity_bytes=3 << 12, page_size=1 << 12,
        spill_dir=str(tmp),
    )
    page_set = _write(server, records)
    sealed = {}
    for page_id in page_set.page_ids:
        with page_set.pinned_page(page_id) as page:
            sealed[page_id] = page_checksum(page.block.to_bytes())
    # Walking every page through a 3-page pool evicts and reloads; each
    # reload must hand back exactly the sealed bytes.
    for page_id in page_set.page_ids:
        with page_set.pinned_page(page_id) as page:
            assert page_checksum(page.block.to_bytes()) == sealed[page_id]
    assert _values(page_set) == [(p, n, xs) for p, n, xs in records]


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=4096))
def test_corruption_always_changes_the_checksum(data):
    flipped = corrupt_bytes(data)
    assert flipped != data
    assert page_checksum(flipped) != page_checksum(data)
    # Corruption is an involution: flipping twice restores the bytes.
    assert corrupt_bytes(flipped) == data


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=1, max_size=4096), st.integers(0, 2))
def test_corrupted_transfer_never_delivers_damage(data, corruptions):
    """With a checksum, a flipped arrival is re-sent or raises — the
    caller either gets the pristine bytes or an error, never damage."""
    injector = FaultInjector().corrupt_transfer(times=corruptions)
    network = SimulatedNetwork(
        fault_injector=injector,
        retry_policy=RetryPolicy(transfer_retries=2),
    )
    delivered = network.ship_page(
        "a", "b", data, checksum=page_checksum(data)
    )
    assert delivered == data
    assert network.metrics.get("pc_net_transfers_corrupted_total").value == \
        corruptions


def test_corrupted_transfer_without_budget_raises():
    injector = FaultInjector().corrupt_transfer(times=5)
    network = SimulatedNetwork(
        fault_injector=injector, retry_policy=RetryPolicy.disabled()
    )
    data = b"sealed page bytes"
    with pytest.raises(PageCorruptionError):
        network.ship_page("a", "b", data, checksum=page_checksum(data))


def test_unstamped_transfer_is_verified_on_receipt():
    """A transfer the caller did not stamp is stamped from the sent
    bytes: a flip is detected and re-sent, or raises without a budget —
    never delivered."""
    data = b"sealed page bytes"
    injector = FaultInjector().corrupt_transfer(times=1)
    network = SimulatedNetwork(
        fault_injector=injector,
        retry_policy=RetryPolicy(transfer_retries=1),
    )
    assert network.ship_page("a", "b", data) == data
    assert network.metrics.get("pc_net_transfers_corrupted_total").value == 1
    assert network.metrics.get("pc_net_transfer_retries_total").value == 1

    injector = FaultInjector().corrupt_transfer(times=1)
    network = SimulatedNetwork(
        fault_injector=injector, retry_policy=RetryPolicy.disabled()
    )
    with pytest.raises(PageCorruptionError):
        network.ship_page("a", "b", data)
    assert network.metrics.get("pc_net_transfers_corrupted_total").value == 1


# -- the no-copy sealed view --------------------------------------------------

COMBINER = MapType(Int64, VectorType(Float64))
COLUMNS = Schema([("key", i64), ("x", f64)])

combiner_items = st.dictionaries(
    st.integers(-(2 ** 40), 2 ** 40),
    st.lists(st.integers(-1000, 1000).map(float), max_size=6),
    min_size=1, max_size=40,
)
column_rows = st.lists(
    st.tuples(st.integers(-(2 ** 40), 2 ** 40),
              st.integers(-1000, 1000).map(lambda v: v / 4.0)),
    min_size=1, max_size=80,
)


def _combiner_block(items):
    """A sealed combiner page: a PC Map at the root, as the shuffle ships."""
    block = AllocationBlock(1 << 16)
    handle = make_object_on(block, COMBINER, None)
    combiner = handle.deref()
    for key, values in items.items():
        combiner.put(key, values)
    block.set_root(handle.offset, handle.type_code)
    return block


def _columnar_block(rows):
    columns = {"key": [k for k, _x in rows], "x": [x for _k, x in rows]}
    return ColumnarPage.build(COLUMNS, columns, 1 << 16).block


def _combiner_contents(block):
    offset, _code = block.root()
    return sorted(
        (key, list(values))
        for key, values in COMBINER.facade(block, offset).items()
    )


def _columnar_contents(block):
    page = ColumnarPage.attach(block)
    return [page.column(name).tolist() for name in page.names()]


PAGE_KINDS = {
    "object": (combiner_items, _combiner_block, _combiner_contents),
    "columnar": (column_rows, _columnar_block, _columnar_contents),
}


def _property(kind, max_examples=25):
    """Run the decorated check on hypothesis-built pages of ``kind``."""
    strategy, build, _read = PAGE_KINDS[kind]

    def decorate(check):
        return settings(max_examples=max_examples, deadline=None)(
            given(strategy.map(build))(check)
        )
    return decorate


@pytest.mark.parametrize("kind", sorted(PAGE_KINDS))
def test_sealed_view_is_the_used_prefix_uncopied(kind):
    @_property(kind)
    def check(block):
        view = block.sealed_view()
        assert view.format == "B" and view.readonly
        assert len(view) == block.used
        assert page_checksum(view) == page_checksum(block.to_bytes())
        assert view.obj is block.buf  # a view over the page, not a copy
    check()


@pytest.mark.parametrize("kind", sorted(PAGE_KINDS))
def test_writing_into_a_sealed_view_raises(kind):
    @_property(kind, max_examples=10)
    def check(block):
        view = block.sealed_view()
        before = block.to_bytes()
        with pytest.raises(TypeError):
            view[0] = 0
        with pytest.raises(TypeError):
            view[len(view) // 2:] = bytes(len(view) - len(view) // 2)
        assert block.to_bytes() == before
    check()


@pytest.mark.parametrize("kind", sorted(PAGE_KINDS))
def test_arrived_bytes_read_in_place_match_from_bytes(kind):
    """attach_sealed reads what from_bytes rebuilds, without the rebuild."""
    _strategy, _build, read = PAGE_KINDS[kind]

    @_property(kind)
    def check(block):
        arrived = SimulatedNetwork().ship_page(
            "a", "b", block.sealed_view(), checksum=page_checksum(
                block.to_bytes()
            ),
        )
        in_place = AllocationBlock.attach_sealed(arrived)
        assert not in_place.managed
        assert read(in_place) == read(AllocationBlock.from_bytes(arrived))
        with pytest.raises(TypeError):
            in_place.set_root(0, 0)
    check()
