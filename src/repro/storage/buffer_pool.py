"""The buffer pool: pinned in-memory pages with LRU spill.

Each worker's local storage server manages a buffer pool (Appendix D.1)
used for buffering and caching datasets.  Pages are pinned while a
computation reads or writes them; unpinned pages are eligible for LRU
eviction.  Evicted dirty pages are written to the *user-level file system*
(a spill directory), evicted clean pages are simply dropped and re-read
on demand.  Because a page's bytes are its authoritative representation,
spilling and re-loading is a straight byte copy either way — the storage
half of the paper's zero-cost data movement.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import weakref
from collections import OrderedDict

from repro.errors import (
    BufferPoolExhaustedError,
    PageCorruptionError,
    PageReloadError,
    StorageError,
)
from repro.memory.block import AllocationBlock
from repro.obs import MetricsRegistry, Tracer
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.replication import corrupt_bytes, page_checksum


def _release_segments(pages, segments, graveyard, shm_registry=None):
    """Close and unlink every shared-memory segment a pool left behind.

    Module-level so ``weakref.finalize`` can run it after the pool itself
    is gone.  Blocks are detached first so their memoryviews over the
    mappings die and the segments can actually unmap; a segment whose
    buffer is still exported (a facade somewhere keeps a view alive) is
    unlinked anyway so the kernel reclaims it once the last mapping drops.
    """
    for page in pages.values():
        if page.shm is not None:
            page.block = None
            page.shm = None
    for shm in list(segments.values()) + list(graveyard):
        try:
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass
        if shm_registry is not None:
            shm_registry.note_unlink(shm.name)
    segments.clear()
    del graveyard[:]


#: Pools with shared-memory residency still open in this process; the
#: interpreter-exit hook drops their segments so a *clean* exit (including
#: an uncaught exception unwinding the stack) never strands /dev/shm
#: entries.  Hard kills are covered by the ShmRegistry startup sweep.
_LIVE_SHM_POOLS = weakref.WeakSet()


@atexit.register
def _atexit_release_pools():
    for pool in list(_LIVE_SHM_POOLS):
        try:
            pool.close()
        except Exception:  # noqa: BLE001 - interpreter is going down
            pass


class BufferPool:
    """Fixed-budget page cache with pinning and LRU spill."""

    def __init__(self, capacity_bytes, page_size=DEFAULT_PAGE_SIZE,
                 registry=None, spill_dir=None, tracer=None,
                 fault_injector=None, metrics=None, residency="mem",
                 shm_registry=None):
        if capacity_bytes < page_size:
            raise StorageError("buffer pool smaller than one page")
        if residency not in ("mem", "shm"):
            raise StorageError("unknown page residency %r" % (residency,))
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self.registry = registry
        self.tracer = tracer or Tracer()
        self.fault_injector = fault_injector
        #: "mem" backs pages with private bytearrays; "shm" backs them
        #: with named POSIX shared-memory segments so a back-end *process*
        #: can attach to a sealed page by name (zero-copy hand-off).
        self.residency = residency
        #: crash-safety journal (repro.storage.shm_registry.ShmRegistry):
        #: every named segment's create/unlink is recorded so a later run
        #: can reap what a hard-killed process stranded.
        self.shm_registry = shm_registry
        self._shm_segments = {}  # page_id -> SharedMemory
        self._shm_graveyard = []  # segments kept alive by exported views
        self._shm_prefix = "pc%d-%s" % (os.getpid(), os.urandom(3).hex())
        self._pages = {}  # page_id -> Page
        self._finalizer = weakref.finalize(
            self, _release_segments,
            self._pages, self._shm_segments, self._shm_graveyard,
            shm_registry,
        )
        if residency == "shm":
            _LIVE_SHM_POOLS.add(self)
        self._lru = OrderedDict()  # page_id -> None, oldest first
        self._next_page_id = 1
        self._in_memory_bytes = 0
        #: high-water mark of in-memory bytes; the profiler resets and
        #: reads it per stage/operator scope (plain attribute by design).
        self.peak_in_memory_bytes = 0
        if spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="pc-spill-")
        else:
            os.makedirs(spill_dir, exist_ok=True)
            self._spill_dir = spill_dir
        self._spilled = {}  # page_id -> file path
        self._spill_checksums = {}  # page_id -> CRC32 of the spill file
        # Statistics live in the metrics registry, each booked once into
        # its counter; the trace mirror is declared with it.
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry(tracer=self.tracer)
        self._c_pages_created = self.metrics.counter(
            "pc_pool_pages_created_total",
            help="Pages allocated or adopted into the buffer pool",
            trace="pool.pages_created",
        )
        self._c_pins = self.metrics.counter(
            "pc_pool_pages_pinned_total",
            help="Pin operations (page touches)",
            trace="pool.pages_pinned",
        )
        self._c_evictions = self.metrics.counter(
            "pc_pool_evictions_total",
            help="LRU evictions under memory pressure",
            trace="pool.evictions",
        )
        self._c_spills = self.metrics.counter(
            "pc_pool_spills_total",
            help="Dirty/unspilled pages written to the spill directory",
            trace="pool.spills",
        )
        self._c_reloads = self.metrics.counter(
            "pc_pool_reloads_total",
            help="Spilled pages read back on demand",
            trace="pool.reloads",
        )
        self._c_reload_failures = self.metrics.counter(
            "pc_pool_reload_failures_total",
            help="Injected/real I/O faults reloading spilled pages",
            trace="pool.reload_failures",
        )
        self._c_checksum_failures = self.metrics.counter(
            "pc_pool_checksum_failures_total",
            help="Spilled pages failing their CRC32 on reload",
            trace="pool.checksum_failures",
        )
        self._g_in_memory = self.metrics.gauge(
            "pc_pool_in_memory_bytes",
            help="Bytes currently resident in the pool",
        )
        self._g_capacity = self.metrics.gauge(
            "pc_pool_capacity_bytes", help="Pool byte budget",
        )
        self._g_pages = self.metrics.gauge(
            "pc_pool_pages", help="Pages known to the pool (any state)",
        )
        self._g_peak = self.metrics.gauge(
            "pc_pool_peak_bytes",
            help="High-water mark of resident bytes since last profiler "
                 "scope reset",
        )
        self._g_shm = self.metrics.gauge(
            "pc_pool_shm_segments",
            help="Shared-memory segments currently backing resident pages",
        )
        self.metrics.on_collect(self._collect_gauges)

    def _collect_gauges(self):
        self._g_in_memory.set(self._in_memory_bytes)
        self._g_capacity.set(self.capacity_bytes)
        self._g_pages.set(len(self._pages))
        self._g_peak.set(self.peak_in_memory_bytes)
        self._g_shm.set(len(self._shm_segments))

    def _grow_resident(self, nbytes):
        self._in_memory_bytes += nbytes
        if self._in_memory_bytes > self.peak_in_memory_bytes:
            self.peak_in_memory_bytes = self._in_memory_bytes

    # -- shared-memory backing ----------------------------------------------------

    def _shm_create(self, page_id, block_size):
        """A named shared-memory segment sized for one block.

        The kernel may round the mapping up to a whole number of VM pages;
        the returned memoryview is sliced back to exactly ``block_size`` so
        block-header bookkeeping never sees the slack.
        """
        from multiprocessing import shared_memory

        name = "%s-%d" % (self._shm_prefix, page_id)
        if self.shm_registry is not None:
            # Journaled *before* the segment exists (WAL discipline): the
            # registry must always be a superset of what is in /dev/shm,
            # so a kill between the two lines over-reports, never leaks.
            self.shm_registry.note_create(name)
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=block_size,
        )
        self._shm_segments[page_id] = shm
        # shm.buf is the raw mapping the AllocationBlock is built over,
        # not an existing block's backing store.
        return shm, memoryview(shm.buf)[:block_size]  # pcsan: disable=PC002

    def _fresh_page(self, page_id, size, set_key, policy):
        kwargs = {"registry": self.registry, "metrics": self.metrics}
        if policy is not None:
            kwargs["policy"] = policy
        if self.residency != "shm":
            return Page.fresh(page_id, size, set_key=set_key, **kwargs)
        shm, buf = self._shm_create(page_id, size)
        block = AllocationBlock(size, buf=buf, init_header=True, **kwargs)
        page = Page(page_id, block, set_key=set_key)
        page.shm = shm
        return page

    def _reconstitute_page(self, page_id, data, set_key):
        """Page from shipped/spilled bytes, honoring the residency mode."""
        if self.residency != "shm":
            return Page.from_bytes(
                page_id, data, registry=self.registry, set_key=set_key,
                metrics=self.metrics,
            )
        from repro.memory import layout

        block_size = layout.unpack_block_header(data)[0]
        shm, buf = self._shm_create(page_id, block_size)
        try:
            buf[: len(data)] = data
            block = AllocationBlock.from_buffer(
                buf, registry=self.registry, metrics=self.metrics,
            )
        except BaseException:
            # Don't leak the named segment: the next reload of this page
            # would collide on the name with FileExistsError.
            self._shm_segments.pop(page_id, None)
            del buf
            try:
                shm.unlink()
            except FileNotFoundError:  # pcsan: disable=PC005
                pass  # never materialised
            if self.shm_registry is not None:
                self.shm_registry.note_unlink(shm.name)
            shm.close()
            raise
        page = Page(page_id, block, set_key=set_key)
        page.shm = shm
        return page

    def _discard_fresh(self, page):
        """Undo a just-reconstituted page whose install step failed.

        Without this, a ``_make_room`` raise between segment creation
        and installation would leak the named segment — and the *next*
        reload of the same page would die on FileExistsError.
        """
        if page is not None and page.shm is not None:
            self._drop_block(page)

    def _sweep_graveyard(self):
        """Retire graveyard segments whose exported views have died.

        Each unclosed segment holds an open file descriptor and a
        mapping; under eviction churn the graveyard would otherwise
        grow by hundreds of handles per scan and exhaust the fd limit.
        """
        for shm in self._shm_graveyard[:]:
            try:
                shm.close()
            except BufferError:  # pcsan: disable=PC005
                continue  # still exported somewhere
            self._shm_graveyard.remove(shm)

    def _drop_block(self, page):
        """Detach a page's block, releasing its shared-memory segment."""
        page.block = None
        shm = page.shm
        if shm is None:
            return
        page.shm = None
        self._shm_segments.pop(page.page_id, None)
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        if self.shm_registry is not None:
            self.shm_registry.note_unlink(shm.name)
        try:
            shm.close()
        except BufferError:
            # A facade somewhere still exports a view over the mapping;
            # keep the handle and retire it once the view dies.
            self._shm_graveyard.append(shm)
        self._sweep_graveyard()

    def shm_export(self, page_id):
        """``(segment_name, block_size)`` of a shared-memory-resident page.

        Reloads the page first if it was spilled.  Returns None when the
        pool runs bytearray residency — callers fall back to shipping the
        page's bytes.  The name stays valid until the page is evicted or
        freed; sealed pages are never mutated, and POSIX keeps an attached
        segment's memory alive for readers even across an unlink.
        """
        page = self.pin(page_id)
        try:
            if page.shm is None:
                return None
            return (page.shm.name, page.block.size)
        finally:
            self.unpin(page_id)

    def close(self):
        """Release every shared-memory segment this pool still owns."""
        for page in self._pages.values():
            if page.shm is not None:
                size = page.size
                self._drop_block(page)
                self._in_memory_bytes -= size
        self._sweep_graveyard()

    # -- page lifecycle -----------------------------------------------------------

    def new_page(self, size=None, set_key=None, policy=None):
        """Allocate a fresh pinned page."""
        size = size or self.page_size
        self._make_room(size)
        page_id = self._next_page_id
        self._next_page_id += 1
        page = self._fresh_page(page_id, size, set_key, policy)
        page.pin_count = 1
        self._pages[page_id] = page
        self._grow_resident(size)
        self._c_pages_created.inc()
        return page

    def adopt_page(self, data, set_key=None):
        """Install bytes that arrived from the network as a pinned page."""
        page_id = self._next_page_id
        self._next_page_id += 1
        # The shipped bytes are a used-prefix; the reconstituted block
        # occupies its full declared size, so budget for that, not for
        # len(data).
        page = self._reconstitute_page(page_id, data, set_key)
        try:
            self._make_room(page.size)
        except BaseException:
            self._discard_fresh(page)
            raise
        page.pin_count = 1
        self._pages[page_id] = page
        self._grow_resident(page.size)
        self._c_pages_created.inc()
        return page

    def pin(self, page_id):
        """Pin a page, reloading it from spill if necessary."""
        page = self._pages.get(page_id)
        if page is None:
            raise StorageError("unknown page id %d" % page_id)
        if not page.in_memory:
            self._reload(page)
        page.pin_count += 1
        self._lru.pop(page_id, None)
        self._c_pins.inc()
        return page

    def unpin(self, page_id, dirty=False):
        """Release one pin; the page becomes evictable at zero pins."""
        page = self._pages.get(page_id)
        if page is None:
            raise StorageError("unknown page id %d" % page_id)
        if page.pin_count <= 0:
            raise StorageError("unpin of unpinned page %d" % page_id)
        if dirty:
            page.dirty = True
        page.pin_count -= 1
        if page.pin_count == 0:
            self._lru[page_id] = None

    def pinned_pages(self):
        """``{page_id: pin_count}`` for every currently pinned page.

        PCSan snapshots this before a job and diffs it afterwards to
        detect pin leaks (pages pinned during the job and never unpinned).
        """
        return {
            page_id: page.pin_count
            for page_id, page in self._pages.items()
            if page.pin_count > 0
        }

    def free_page(self, page_id):
        """Drop a page entirely (its set was cleared or it was temporary)."""
        page = self._pages.pop(page_id, None)
        if page is None:
            return
        block = getattr(page, "block", None)
        shadow = getattr(block, "_san", None) if block is not None else None
        if shadow is not None:
            shadow.retire("page %d freed" % page_id)
        self._lru.pop(page_id, None)
        if page.in_memory:
            self._in_memory_bytes -= page.size
            self._drop_block(page)
        self._spill_checksums.pop(page_id, None)
        path = self._spilled.pop(page_id, None)
        if path is not None and os.path.exists(path):
            os.unlink(path)

    # -- eviction / spill ------------------------------------------------------------

    def _make_room(self, needed):
        while self._in_memory_bytes + needed > self.capacity_bytes:
            if not self._lru:
                raise BufferPoolExhaustedError(
                    "need %d bytes but all %d bytes are pinned"
                    % (needed, self._in_memory_bytes)
                )
            victim_id, _none = self._lru.popitem(last=False)
            self._evict(self._pages[victim_id])

    def _evict(self, page):
        self._c_evictions.inc()
        if page.dirty or page.page_id not in self._spilled:
            path = os.path.join(self._spill_dir, "page-%d" % page.page_id)
            # The view is released before _drop_block below unmaps the
            # page's shared-memory segment.
            with page.block.sealed_view() as data:
                with open(path, "wb") as f:
                    f.write(data)
                self._spill_checksums[page.page_id] = page_checksum(data)
            self._spilled[page.page_id] = path
            self._c_spills.inc()
            page.dirty = False
        self._in_memory_bytes -= page.size
        self._drop_block(page)

    def _reload(self, page):
        path = self._spilled.get(page.page_id)
        if path is None:
            raise StorageError(
                "page %d is neither in memory nor spilled" % page.page_id
            )
        if (
            self.fault_injector is not None
            and self.fault_injector.should_fail_reload(page.page_id)
        ):
            # The spill file is untouched, so a later pin can retry the
            # reload — inside a job the scheduler's stage retry does.
            self._c_reload_failures.inc()
            raise PageReloadError(
                "injected I/O fault reloading spilled page %d" % page.page_id
            )
        # Guard against re-entrancy: if the page still sits in the LRU
        # (pin_count 0, bytes dropped), _make_room below could pick it as
        # its own eviction victim — double-decrementing the budget and
        # crashing on sealed_view() of a block-less page.
        self._lru.pop(page.page_id, None)
        with open(path, "rb") as f:
            data = f.read()
        if (
            self.fault_injector is not None
            and self.fault_injector.should_corrupt_page(page.page_id)
        ):
            # A corrupted spill file is *sticky*: write the damage back so
            # a plain retry keeps failing until the replication layer
            # heals the copy from a healthy replica.
            data = corrupt_bytes(data)
            with open(path, "wb") as f:
                f.write(data)
        expected = self._spill_checksums.get(page.page_id)
        if expected is not None and page_checksum(data) != expected:
            self._c_checksum_failures.inc()
            raise PageCorruptionError(
                "spilled page %d failed its CRC32 check on reload"
                % page.page_id
            )
        # Spill files hold a block's used-prefix, which can be far
        # smaller than the block it reconstitutes into; budget the real
        # in-memory footprint, not the file size.
        reloaded = self._reconstitute_page(page.page_id, data, page.set_key)
        try:
            self._make_room(reloaded.size)
        except BaseException:
            self._discard_fresh(reloaded)
            raise
        page.block = reloaded.block
        page.shm = reloaded.shm
        self._grow_resident(reloaded.size)
        self._c_reloads.inc()

    # -- introspection ------------------------------------------------------------------

    @property
    def in_memory_bytes(self):
        return self._in_memory_bytes
