"""Allocation blocks: the page-as-a-heap allocator.

An :class:`AllocationBlock` wraps a ``bytearray`` and hands out object
allocations from it (Section 6.1 / 6.4 of the paper).  Blocks come in three
flavours, mirroring the paper exactly:

* the single **active** block of a thread, receiving all ``make_object``
  calls;
* **inactive, managed** blocks: previously-active blocks still holding
  reachable objects; they are reference counted and are reclaimed as a
  whole once their active-object counter drops to zero;
* **inactive, un-managed** blocks: pages loaded from storage or the
  network; no reference counting happens on them, the execution engine
  (buffer pool) owns their lifetime.

Three *allocator policies* (Appendix B) control what "deallocate" means
inside a block:

* ``LIGHTWEIGHT_REUSE`` (default): freed space goes into power-of-two
  freelist buckets and is handed out again;
* ``NO_REUSE``: classic region allocation — freed space is abandoned, the
  bump pointer only moves forward;
* ``RECYCLING``: layered on lightweight reuse; freed *fixed-length* objects
  are kept on per-type-code recycle lists and handed back verbatim to the
  next ``make_object`` of the same type.

The bytes of the block are the only authoritative object representation:
:meth:`AllocationBlock.sealed_view` hands out a sealed block's used prefix
with no copy at all (for hashing, spilling and shipping), and
:meth:`AllocationBlock.from_bytes` / :meth:`AllocationBlock.attach_sealed`
rebuild or read it where it arrives — the paper's zero-cost data movement,
with no per-object work.  :meth:`AllocationBlock.to_bytes` is the owned
copy, for bytes that must outlive the block.
"""

from __future__ import annotations

import itertools
import struct

from repro.analysis.sanitizer import current_sanitizer
from repro.errors import BlockFullError, DanglingHandleError
from repro.memory import layout
from repro.memory.layout import (
    BLOCK_HEADER_SIZE,
    OBJECT_HEADER_SIZE,
    REFCOUNT_FREED,
    REFCOUNT_UNIQUE,
    align8,
)

#: Allocator policies (block level, Appendix B).
LIGHTWEIGHT_REUSE = 0
NO_REUSE = 1
RECYCLING = 2

_POLICY_NAMES = {
    LIGHTWEIGHT_REUSE: "lightweight-reuse",
    NO_REUSE: "no-reuse",
    RECYCLING: "recycling",
}

#: Per-object policies (Appendix B).
FULL_REF_COUNT = "full_ref_count"
NO_REF_COUNT = "no_ref_count"
UNIQUE_OWNERSHIP = "unique_ownership"

_FREE_CHUNK = struct.Struct("<qQ")  # next free chunk offset (-1 = end), size

_block_ids = itertools.count(1)


class AllocationBlock:
    """A contiguous region of bytes that PC objects are allocated into."""

    __slots__ = (
        "buf",
        "block_id",
        "size",
        "policy",
        "managed",
        "on_empty",
        "_free_buckets",
        "_recycle_lists",
        "registry",
        "freed_bytes",
        "alloc_count",
        "free_count",
        "metrics",
        "_m_allocs",
        "_m_frees",
        "_san",
        "__weakref__",  # the sanitizer's shadow points back weakly
    )

    def __init__(self, size, policy=LIGHTWEIGHT_REUSE, registry=None,
                 managed=True, buf=None, on_empty=None, metrics=None,
                 init_header=False):
        if buf is None:
            if size < BLOCK_HEADER_SIZE + OBJECT_HEADER_SIZE:
                raise ValueError("block size %d too small" % size)
            buf = bytearray(size)
            init_header = True
        if init_header:
            layout.pack_block_header(buf, size, BLOCK_HEADER_SIZE, 0, policy)
            layout.write_handle_slot(buf, layout.ROOT_HANDLE_OFFSET, None, 0)
        self.buf = buf
        self.block_id = next(_block_ids)
        self.size = size
        self.policy = policy
        #: managed blocks maintain refcounts / active-object counters; pages
        #: arriving from storage or network are un-managed (Section 6.4).
        self.managed = managed
        #: callback fired when the active-object count of a managed block
        #: falls to zero (the whole-block reclamation of Section 6.4).
        self.on_empty = on_empty
        self._free_buckets = [-1] * 64  # head offsets of per-size freelists
        self._recycle_lists = {}  # type code -> [offsets]
        self.registry = registry
        self.freed_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        # Optional *aggregate* allocator metrics (a MetricsRegistry).  The
        # per-block counters above stay exact plain ints — stats() is the
        # per-block view, the registry sums allocator work pool-wide.
        self.metrics = metrics
        if metrics is not None:
            self._m_allocs = metrics.counter(
                "pc_alloc_allocations_total",
                help="Objects allocated across all blocks")
            self._m_frees = metrics.counter(
                "pc_alloc_frees_total",
                help="Objects freed across all blocks")
            metrics.counter(
                "pc_alloc_blocks_total",
                help="Allocation blocks created").inc()
        else:
            self._m_allocs = None
            self._m_frees = None
        # PCSan: blocks created while the sanitizer is active carry a
        # shadow (generations, poison map, shadow refcounts); otherwise
        # every hook site below is one `is not None` test.
        san = current_sanitizer()
        self._san = san.watch_block(self) if san is not None else None

    # -- introspection ------------------------------------------------------

    @property
    def used(self):
        """Current bump-pointer position."""
        return layout.read_used(self.buf)

    @property
    def bytes_free(self):
        """Bytes remaining past the bump pointer."""
        return self.size - self.used

    @property
    def active_objects(self):
        """Number of live reference-counted objects on this block."""
        return layout.read_active_objects(self.buf)

    @property
    def policy_name(self):
        """Human-readable allocator policy name."""
        return _POLICY_NAMES[self.policy]

    def __repr__(self):
        return "<AllocationBlock #%d %s used=%d/%d objects=%d>" % (
            self.block_id,
            self.policy_name,
            self.used,
            self.size,
            self.active_objects,
        )

    # -- root handle --------------------------------------------------------

    def set_root(self, offset, type_code):
        """Record the block's root object so shipped pages are self-describing."""
        layout.write_handle_slot(
            self.buf, layout.ROOT_HANDLE_OFFSET, offset, type_code
        )

    def root(self):
        """Return ``(offset, type_code)`` of the root object, or (None, 0)."""
        return layout.read_handle_slot(self.buf, layout.ROOT_HANDLE_OFFSET)

    # -- allocation ---------------------------------------------------------

    def allocate(self, payload_size, type_code, refcount=0):
        """Allocate an object with ``payload_size`` bytes of payload.

        Returns the absolute offset of the object header.  Raises
        :class:`BlockFullError` when the request does not fit — the caller
        (typically the execution engine) reacts by retiring the page.
        """
        # Minimum 24 bytes so a freed object can hold both its tombstone
        # (refcount/typecode) and the freelist record that follows them.
        total = max(align8(OBJECT_HEADER_SIZE + payload_size), 24)
        offset = None
        if self.policy == RECYCLING:
            recycled = self._recycle_lists.get(type_code)
            if recycled:
                offset = recycled.pop()
                # Recycled slots are exact-fit by construction (fixed-length
                # objects only join a recycle list).
        if offset is None and self.policy in (LIGHTWEIGHT_REUSE, RECYCLING):
            offset = self._take_from_freelist(total)
        if offset is None:
            used = self.used
            if used + total > self.size:
                raise BlockFullError(total, self.size - used)
            offset = used
            layout.write_used(self.buf, used + total)
        if self._san is not None:
            # Verify the reused chunk's poison survived (wild-write check)
            # before the header/zeroing below overwrites it.
            self._san.on_alloc(offset, type_code, refcount)
        layout.write_object_header(
            self.buf, offset, refcount, type_code, payload_size
        )
        # Zero the payload: recycled/reused space may hold stale bytes and
        # handle slots must start out null.
        start = offset + OBJECT_HEADER_SIZE
        self.buf[start:start + payload_size] = bytes(payload_size)
        if self.managed and refcount >= 0:
            layout.write_active_objects(self.buf, self.active_objects + 1)
        self.alloc_count += 1
        if self._m_allocs is not None:
            self._m_allocs.inc()
        return offset

    def _bucket_for(self, total):
        return max(total.bit_length() - 1, 4)

    def _take_from_freelist(self, total):
        """Pop a free chunk large enough for ``total`` bytes, or None.

        Free-chunk records live 8 bytes into the chunk so the freed
        object's tombstone (refcount + type code) stays intact for
        dangling-handle detection.
        """
        for bucket in range(self._bucket_for(total), 64):
            head = self._free_buckets[bucket]
            prev = None
            while head != -1:
                nxt, chunk_size = _FREE_CHUNK.unpack_from(self.buf, head + 8)
                if chunk_size >= total:
                    if prev is None:
                        self._free_buckets[bucket] = nxt
                    else:
                        prev_nxt, prev_size = _FREE_CHUNK.unpack_from(
                            self.buf, prev + 8
                        )
                        _FREE_CHUNK.pack_into(
                            self.buf, prev + 8, nxt, prev_size
                        )
                    self.freed_bytes -= chunk_size
                    return head
                prev, head = head, nxt
        return None

    # -- deallocation -------------------------------------------------------

    def free_object(self, offset, recycle_type_code=None):
        """Release the storage of the object at ``offset``.

        The caller is responsible for having already released embedded
        handles (see :func:`repro.memory.objects.destroy_object`).  What
        happens to the bytes depends on the block policy.
        """
        refcount, type_code, payload_size = layout.read_object_header(
            self.buf, offset
        )
        if refcount == REFCOUNT_FREED:
            raise DanglingHandleError(
                "object at offset %d was already freed" % offset
            )
        total = max(align8(OBJECT_HEADER_SIZE + payload_size), 24)
        layout.write_refcount(self.buf, offset, REFCOUNT_FREED)
        self.free_count += 1
        if self._m_frees is not None:
            self._m_frees.inc()
        if self.managed and refcount >= 0:
            remaining = self.active_objects - 1
            layout.write_active_objects(self.buf, remaining)
            if remaining == 0 and self.on_empty is not None:
                self.on_empty(self)
        if self._san is not None:
            # Poison past the tombstone + freelist record; bumps the
            # offset's generation so stale handles fail deref.
            self._san.on_free(offset, total)
        if self.policy == NO_REUSE:
            self.freed_bytes += total
            return
        if self.policy == RECYCLING and recycle_type_code is not None:
            self._recycle_lists.setdefault(recycle_type_code, []).append(offset)
            return
        self._add_to_freelist(offset, total)

    def _add_to_freelist(self, offset, total):
        bucket = self._bucket_for(total)
        # The record sits past the 8-byte tombstone; every chunk is at
        # least 24 bytes (see allocate), so the record always fits.
        _FREE_CHUNK.pack_into(
            self.buf, offset + 8, self._free_buckets[bucket], total
        )
        self._free_buckets[bucket] = offset
        self.freed_bytes += total

    # -- refcount plumbing ---------------------------------------------------

    def refcount_of(self, offset):
        """Raw refcount field of the object at ``offset``."""
        return layout.read_refcount(self.buf, offset)

    def retain(self, offset):
        """Increment the refcount of the object at ``offset``.

        Un-managed blocks, uncounted objects, and uniquely-owned objects
        are left untouched, mirroring Section 6.5: a block is only managed
        by its home thread, so cross-thread copies never touch counters.
        """
        if not self.managed:
            return
        refcount = layout.read_refcount(self.buf, offset)
        if refcount == REFCOUNT_FREED:
            raise DanglingHandleError(
                "retain of freed object at offset %d" % offset
            )
        if refcount < 0:
            return
        if self._san is not None:
            self._san.on_refcount(offset, refcount, refcount + 1)
        layout.write_refcount(self.buf, offset, refcount + 1)

    def release(self, offset):
        """Decrement the refcount; returns True when it hit zero.

        The caller is expected to destroy the object (releasing embedded
        handles first) when this returns True.
        """
        if not self.managed:
            return False
        refcount = layout.read_refcount(self.buf, offset)
        if refcount == REFCOUNT_FREED:
            raise DanglingHandleError(
                "release of freed object at offset %d" % offset
            )
        if refcount == REFCOUNT_UNIQUE:
            return True
        if refcount < 0:
            return False
        if refcount == 0:
            raise DanglingHandleError(
                "refcount underflow at offset %d" % offset
            )
        if self._san is not None:
            self._san.on_refcount(offset, refcount, refcount - 1)
        refcount -= 1
        layout.write_refcount(self.buf, offset, refcount)
        return refcount == 0

    # -- zero-cost movement ---------------------------------------------------

    def sealed_view(self):
        """A read-only, no-copy view of the sealed block's used prefix.

        The same bytes :meth:`to_bytes` copies, as a byte-format
        ``memoryview`` over the live buffer — for hashing, spilling or
        shipping a page without copying it.  The view is valid only while
        the block's page stays pinned; release it (``with`` works) before
        unpinning, and take :meth:`to_bytes` where bytes must escape.
        """
        if self._san is not None:
            self._san.on_seal()
        return memoryview(self.buf)[: self.used].toreadonly()

    def to_bytes(self):
        """The block's entire representation as immutable, owned bytes.

        One memory copy of the occupied prefix (plus header), no
        per-object work; :meth:`sealed_view` is the same bytes uncopied.
        """
        if self._san is not None:
            self._san.on_seal()
        return bytes(self.buf[: self.used])

    @classmethod
    def from_bytes(cls, data, registry=None, managed=False, metrics=None):
        """Reconstitute a block shipped from another process.

        The returned block is *un-managed* by default — exactly the
        "inactive, un-managed" category of Section 6.4: pages arriving
        from disk or network are owned by the buffer pool, not the object
        model.
        """
        block_size, used, active, policy = layout.unpack_block_header(data)
        buf = bytearray(block_size)
        buf[: len(data)] = data
        block = cls(
            block_size,
            policy=policy,
            registry=registry,
            managed=managed,
            buf=buf,
            metrics=metrics,
        )
        return block

    @classmethod
    def attach_sealed(cls, data, registry=None):
        """Read a shipped used prefix in place: no copy, no rebuild.

        ``data`` is what :meth:`sealed_view` or :meth:`to_bytes` produced
        on the sender.  The block wraps a read-only view of it, so it is
        *un-managed* and any write raises ``TypeError``; the view is only
        as long as the used prefix, which is all a reader touches.  This
        is how a receiver reads a combiner page's Map where it arrives
        (Figure 5) instead of rebuilding a full block with
        :meth:`from_bytes`.
        """
        view = memoryview(data).toreadonly()
        block_size, used, _active, policy = layout.unpack_block_header(view)
        if len(view) != used:
            raise ValueError(
                "sealed prefix of %d bytes does not match its used size %d"
                % (len(view), used)
            )
        return cls(
            block_size,
            policy=policy,
            registry=registry,
            managed=False,
            buf=view,
        )

    @classmethod
    def from_buffer(cls, buf, registry=None, managed=False, metrics=None):
        """Wrap an existing writable buffer *without copying it*.

        This is how a back-end process attaches to a sealed page that
        lives in shared memory: the buffer (a ``memoryview`` over the
        mapped segment) becomes the block's storage verbatim, so the page
        is readable with zero (de)serialization.  The caller must hand in
        a buffer whose length equals the block size in its header.
        """
        block_size, _used, _active, policy = layout.unpack_block_header(buf)
        if len(buf) != block_size:
            raise ValueError(
                "buffer length %d does not match block size %d"
                % (len(buf), block_size)
            )
        return cls(
            block_size,
            policy=policy,
            registry=registry,
            managed=managed,
            buf=buf,
            metrics=metrics,
        )

    def stats(self):
        """Allocator statistics, used by the ablation benchmarks."""
        return {
            "block_id": self.block_id,
            "policy": self.policy_name,
            "size": self.size,
            "used": self.used,
            "freed_bytes": self.freed_bytes,
            "active_objects": self.active_objects,
            "alloc_count": self.alloc_count,
            "free_count": self.free_count,
        }
