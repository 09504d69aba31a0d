"""PCSan runtime sanitizer: poisoning, generations, pin leaks, reports.

The central claims under test: a sanitized run catches an injected
use-after-free and a buffer-pool pin leak that plain mode silently
misses, and a healthy sanitized workload behaves identically to a plain
one (tier-1 itself runs under ``PC_SANITIZE=1`` in CI to prove the
latter at scale).
"""

import pytest

from repro.analysis import sanitizer as pcsan
from repro.analysis.sanitizer import POISON_BYTE, POISON_SKIP, sanitize_scope
from repro.cluster import PCCluster
from repro.core import ObjectReader, Writer, lambda_from_member
from repro.core.computation import SelectionComp
from repro.errors import DanglingHandleError
from repro.memory import (
    AllocationBlock,
    Float64,
    Int32,
    LIGHTWEIGHT_REUSE,
    PCObject,
    String,
    make_object_on,
)
from repro.memory import layout
from repro.obs import MetricsRegistry
from repro.storage.buffer_pool import BufferPool


@pytest.fixture(autouse=True)
def _restore_global_sanitizer_state():
    """Every test leaves the process-wide switch exactly as it found it."""
    saved = (pcsan._state["san"], pcsan._state["initialized"])
    yield
    pcsan._state["san"], pcsan._state["initialized"] = saved


def plain_mode():
    """Force the sanitizer off regardless of PC_SANITIZE (tier-1 runs
    this whole suite under the env flag in CI; 'plain mode misses it'
    tests must stay plain there too)."""
    pcsan.disable()


BLOCK_SIZE = 1 << 16
PAYLOAD = "x" * 64  # big enough for a comfortable poison range


# -- poisoned frees ----------------------------------------------------------


def test_free_object_poisons_payload():
    with sanitize_scope() as san:
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        handle = make_object_on(block, String, PAYLOAD)
        offset = handle.offset
        _refcount, _code, size = handle.header()
        block.free_object(offset)
        start = offset + POISON_SKIP
        end = offset + layout.OBJECT_HEADER_SIZE + size
        assert end > start
        assert all(b == POISON_BYTE for b in block.buf[start:end])
        assert san.c_poisoned_frees.value == 1


def test_plain_mode_does_not_poison():
    plain_mode()
    block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
    assert block._san is None
    handle = make_object_on(block, String, PAYLOAD)
    offset = handle.offset
    block.free_object(offset)
    start = offset + POISON_SKIP
    assert any(b != POISON_BYTE for b in block.buf[start:start + 32])


def test_scribble_on_freed_chunk_is_reported_at_reuse():
    with sanitize_scope() as san:
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        handle = make_object_on(block, String, PAYLOAD)
        offset = handle.offset
        block.free_object(offset)
        block.buf[offset + POISON_SKIP + 4] = 0x00  # the wild write
        reused = make_object_on(block, String, PAYLOAD)
        assert reused.offset == offset  # freelist really reused the chunk
        violations = san.report.by_kind("poison_violation")
        assert len(violations) == 1
        assert san.c_poison_violations.value == 1


# -- use-after-free via generations ------------------------------------------


def _use_after_free(block):
    """Free a string's chunk, then reallocate it with different bytes.

    Returns the stale handle and the fresh one; after this the on-page
    header at the shared offset looks perfectly healthy again, so the
    tombstone check in ``Handle.deref`` cannot see the bug.
    """
    stale = make_object_on(block, String, "old-old-old-old!")
    offset = stale.offset
    block.free_object(offset)
    fresh = make_object_on(block, String, "new-new-new-new!")
    assert fresh.offset == offset
    return stale, fresh


def test_plain_mode_misses_realloc_use_after_free():
    plain_mode()
    block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
    stale, _fresh = _use_after_free(block)
    # No error — the stale handle silently reads the *wrong object*.
    assert stale.deref() == "new-new-new-new!"


def test_sanitizer_catches_realloc_use_after_free():
    with sanitize_scope() as san:
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        stale, fresh = _use_after_free(block)
        with pytest.raises(DanglingHandleError):
            stale.deref()
        assert san.c_dangling_derefs.value == 1
        # The fresh handle, stamped with the current generation, is fine.
        assert fresh.deref() == "new-new-new-new!"


def test_handle_into_freed_page_raises_when_sanitized():
    with sanitize_scope() as san:
        pool = BufferPool(1 << 20, page_size=BLOCK_SIZE)
        page = pool.new_page()
        handle = make_object_on(page.block, String, PAYLOAD)
        pool.unpin(page.page_id)
        pool.free_page(page.page_id)
        with pytest.raises(DanglingHandleError):
            handle.deref()
        assert san.c_dangling_derefs.value == 1


def test_handle_into_freed_page_reads_stale_bytes_in_plain_mode():
    plain_mode()
    pool = BufferPool(1 << 20, page_size=BLOCK_SIZE)
    page = pool.new_page()
    handle = make_object_on(page.block, String, PAYLOAD)
    pool.unpin(page.page_id)
    pool.free_page(page.page_id)
    assert handle.deref() == PAYLOAD  # silently reads the dead page


# -- shadow refcounts --------------------------------------------------------


def test_raw_refcount_poke_is_reported():
    with sanitize_scope() as san:
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        handle = make_object_on(block, String, PAYLOAD)
        layout.write_refcount(block.buf, handle.offset, 5)  # the poke
        block.retain(handle.offset)
        mismatches = san.report.by_kind("refcount_mismatch")
        assert len(mismatches) == 1
        assert "raw header write" in mismatches[0].message
        assert san.c_refcount_mismatches.value == 1


def test_counted_lifecycle_has_no_findings():
    with sanitize_scope() as san:
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        handle = make_object_on(block, String, PAYLOAD)
        copy = handle.copy()
        assert copy.deref() == PAYLOAD
        copy.release()
        handle.release()
        assert san.report.by_kind("refcount_mismatch") == []
        assert san.report.by_kind("poison_violation") == []


# -- seal-time leak check ----------------------------------------------------


def test_seal_with_rootless_live_objects_is_reported_once():
    with sanitize_scope() as san:
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        make_object_on(block, String, PAYLOAD)  # live, refcounted, no root
        block.to_bytes()
        block.to_bytes()  # a respill must not double-report
        leaks = san.report.by_kind("leaked_objects")
        assert len(leaks) == 1
        assert san.c_leaked_objects.value == 1


def test_seal_with_root_is_clean():
    with sanitize_scope() as san:
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        handle = make_object_on(block, String, PAYLOAD)
        block.set_root(handle.offset, handle.type_code)
        block.to_bytes()
        assert san.report.by_kind("leaked_objects") == []


# -- pin-leak detection ------------------------------------------------------


def test_pin_leak_found_by_snapshot_diff():
    with sanitize_scope() as san:
        pool = BufferPool(1 << 20, page_size=BLOCK_SIZE)
        held = pool.new_page()  # pinned before the "job": in the baseline
        baseline = san.snapshot_pins([pool])
        leaked = pool.new_page()  # pinned during the "job", never unpinned
        balanced = pool.new_page()
        pool.unpin(balanced.page_id)
        found = san.check_pins([pool], baseline)
        assert [f.page_id for f in found] == [leaked.page_id]
        assert held.page_id not in [f.page_id for f in found]
        assert san.c_pin_leaks.value == 1


# -- cluster integration -----------------------------------------------------


class _Point(PCObject):
    fields = [("pid", Int32), ("x", Float64)]


class _HighX(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_member(arg, "x") > 10.0

    def get_projection(self, arg):
        from repro.core.lambdas import lambda_from_self

        return lambda_from_self(arg)


def _load_points(cluster):
    cluster.create_database("db")
    cluster.create_set("db", "points", _Point)
    with cluster.loader("db", "points") as load:
        for i in range(40):
            load.append(_Point, pid=i, x=float(i))


def _run_job(cluster):
    reader = ObjectReader("db", "points")
    writer = Writer("db", "high").set_input(_HighX().set_input(reader))
    cluster.execute_computations(writer)
    return sorted(h.pid for h in cluster.read("db", "high"))


def _run_selection_job(cluster):
    _load_points(cluster)
    return _run_job(cluster)


def test_sanitized_cluster_job_runs_clean(tmp_path):
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path), sanitize=True)
    assert cluster.sanitizer is pcsan.current_sanitizer()
    assert _run_selection_job(cluster) == list(range(11, 40))
    report = cluster.sanitizer.report
    assert report.by_kind("pin_leak") == []
    assert report.by_kind("refcount_mismatch") == []
    assert report.by_kind("poison_violation") == []
    # Blocks really were watched, through the cluster's own registry.
    snapshot = cluster.metrics_registry.snapshot()
    assert snapshot.value("pc_san_blocks_watched_total") > 0


def _leak_one_unpin(pool):
    """Wrap ``pool.unpin`` to silently drop its first call — the
    injected bug: some stage forgets to unpin a page it pinned."""
    original = pool.unpin
    dropped = []

    def leaky_unpin(page_id, dirty=False):
        if not dropped:
            dropped.append(page_id)
            return None
        return original(page_id, dirty=dirty)

    pool.unpin = leaky_unpin
    return dropped


def test_sanitized_cluster_catches_injected_pin_leak(tmp_path):
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path), sanitize=True)
    _load_points(cluster)
    # Inject the bug after loading so the leak happens *inside* the job.
    dropped = _leak_one_unpin(cluster.workers[0].storage.pool)
    _run_job(cluster)
    assert dropped  # the bug really triggered
    leaks = cluster.sanitizer.report.by_kind("pin_leak")
    assert len(leaks) >= 1
    snapshot = cluster.metrics_registry.snapshot()
    assert snapshot.value("pc_san_pin_leaks_total") >= 1


def test_plain_cluster_misses_injected_pin_leak(tmp_path):
    plain_mode()
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path))
    assert cluster.sanitizer is None
    _load_points(cluster)
    dropped = _leak_one_unpin(cluster.workers[0].storage.pool)
    assert _run_job(cluster) == list(range(11, 40))
    assert dropped  # same bug, same workload — and nothing noticed it


# -- switches, metrics, report shape ----------------------------------------


def test_env_variable_enables_on_first_touch(monkeypatch):
    monkeypatch.setenv("PC_SANITIZE", "1")
    pcsan._state["san"] = None
    pcsan._state["initialized"] = False
    san = pcsan.current_sanitizer()
    assert san is not None
    block = AllocationBlock(BLOCK_SIZE)
    assert block._san is not None
    assert san.c_blocks_watched.value == 1


def test_disabled_by_default_installs_nothing(monkeypatch):
    monkeypatch.delenv("PC_SANITIZE", raising=False)
    pcsan._state["san"] = None
    pcsan._state["initialized"] = False
    assert pcsan.current_sanitizer() is None
    assert AllocationBlock(BLOCK_SIZE)._san is None


def test_counters_surface_through_obs_with_trace_mirrors():
    registry = MetricsRegistry()
    with sanitize_scope(metrics=registry):
        block = AllocationBlock(BLOCK_SIZE, policy=LIGHTWEIGHT_REUSE)
        handle = make_object_on(block, String, PAYLOAD)
        block.free_object(handle.offset)
    snapshot = registry.snapshot()
    assert snapshot.value("pc_san_blocks_watched_total") == 1
    assert snapshot.value("pc_san_poisoned_frees_total") == 1
    assert registry.get("pc_san_blocks_watched_total").value == 1
    assert registry.get("pc_san_poisoned_frees_total").value == 1
    assert "pc_san_poisoned_frees_total 1" in \
        registry.snapshot().to_prometheus()


def test_report_structure():
    with sanitize_scope() as san:
        san.record("poison_violation", "msg-a", block_id=7, offset=40)
        san.record("pin_leak", "msg-b", page_id=3)
        report = san.report
        assert len(report) == 2
        assert report.counts() == {"poison_violation": 1, "pin_leak": 1}
        payload = report.to_dict()
        assert payload["counts"] == report.counts()
        assert payload["findings"][0] == {
            "kind": "poison_violation", "message": "msg-a",
            "block_id": 7, "offset": 40,
        }
