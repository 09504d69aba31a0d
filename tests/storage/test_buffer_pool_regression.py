"""Regression tests for buffer-pool spill/reload accounting.

The seed code's ``_reload`` made room for the spill file's byte count
(an allocation block's *used prefix*) but then charged the budget for
the full reconstituted page — so a pool under pressure could silently
hold more resident bytes than its capacity.  These tests pin the fixed
invariants under a tight budget.
"""

import pytest

from repro.errors import BufferPoolExhaustedError
from repro.memory import Float64, Int32, PCObject, VectorType
from repro.memory.objects import make_object_on
from repro.storage import BufferPool, LocalStorageServer


class Tiny(PCObject):
    fields = [("pid", Int32), ("xs", VectorType(Float64))]


PAGE = 1 << 12


def _fill_lightly(page):
    """Put one small object on a page so its used-prefix is tiny but real."""
    handle = make_object_on(page.block, Tiny, pid=1, xs=[1.0, 2.0])
    page.block.set_root(handle.offset, handle.type_code)


def _resident_bytes(pool):
    return sum(p.size for p in pool._pages.values() if p.in_memory)


def test_reload_respects_the_memory_budget(tmp_path):
    # Capacity of 2.5 pages: A spilled, B pinned, C unpinned-resident.
    pool = BufferPool(PAGE * 2 + PAGE // 2, page_size=PAGE,
                      spill_dir=str(tmp_path))
    page_a = pool.new_page()
    _fill_lightly(page_a)
    pool.unpin(page_a.page_id, dirty=True)
    page_b = pool.new_page()          # stays pinned
    _fill_lightly(page_b)
    page_c = pool.new_page()          # evicts A to make room
    _fill_lightly(page_c)
    pool.unpin(page_c.page_id, dirty=True)
    assert not page_a.in_memory
    assert pool.metrics.get("pc_pool_spills_total").value >= 1

    # Reloading A must evict C: its spill file is ~100 bytes, but the
    # page it reconstitutes into occupies a full PAGE of budget.
    pool.pin(page_a.page_id)
    assert page_a.in_memory
    assert pool.in_memory_bytes <= pool.capacity_bytes
    assert pool.in_memory_bytes == _resident_bytes(pool)
    assert not page_c.in_memory


def test_reload_raises_rather_than_overcommit_when_all_pinned(tmp_path):
    pool = BufferPool(PAGE * 2 + PAGE // 2, page_size=PAGE,
                      spill_dir=str(tmp_path))
    page_a = pool.new_page()
    _fill_lightly(page_a)
    pool.unpin(page_a.page_id, dirty=True)
    page_b = pool.new_page()
    _fill_lightly(page_b)
    page_c = pool.new_page()  # evicts A; both B and C stay pinned
    _fill_lightly(page_c)

    with pytest.raises(BufferPoolExhaustedError):
        pool.pin(page_a.page_id)
    # The failed reload must not corrupt the books.
    assert pool.in_memory_bytes == _resident_bytes(pool)
    assert pool.in_memory_bytes <= pool.capacity_bytes


def test_spill_reload_churn_keeps_accounting_exact(tmp_path):
    """Scan a set much larger than the pool; the budget never drifts."""
    server = LocalStorageServer(
        "w0", capacity_bytes=PAGE * 3, page_size=PAGE,
        spill_dir=str(tmp_path),
    )
    page_set = server.create_set("db", "pts", "Tiny")
    with page_set.writer() as writer:
        for i in range(300):
            writer.append(Tiny, pid=i, xs=[float(i)] * 24)
    pool = server.pool
    assert pool.metrics.get("pc_pool_spills_total").value > 0

    for _ in range(3):  # repeated scans force reload churn
        assert sum(1 for _ in page_set.scan_objects()) == 300
        assert pool.in_memory_bytes == _resident_bytes(pool)
        assert pool.in_memory_bytes <= pool.capacity_bytes
    assert pool.metrics.get("pc_pool_reloads_total").value > 0

    # A reloaded-then-evicted-again page costs the budget exactly once.
    before = pool.in_memory_bytes
    spilled_id = next(
        pid for pid, p in pool._pages.items() if not p.in_memory
    )
    pool.pin(spilled_id)
    pool.unpin(spilled_id)
    assert pool.in_memory_bytes == _resident_bytes(pool)
    assert abs(pool.in_memory_bytes - before) <= PAGE
