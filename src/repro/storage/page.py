"""Pages: fixed-size units of buffered, movable object storage.

A :class:`Page` owns one allocation block.  Pages are handed out by the
buffer pool, pinned while in use, and either recycled (overwritten by a
new set of objects — the paper's cheapest "deallocation"), spilled to the
user-level file system, or shipped across the simulated network.
"""

from __future__ import annotations

from repro.memory.block import LIGHTWEIGHT_REUSE, AllocationBlock

#: PC's default page size is 256 MB (Section 8.3.1); the reproduction
#: default is scaled down to keep laptop runs snappy, and every workload
#: that tunes page size (Table 2) passes its own.
DEFAULT_PAGE_SIZE = 1 << 20


class Page:
    """One buffer-pool page wrapping an allocation block."""

    __slots__ = ("page_id", "block", "pin_count", "dirty", "set_key",
                 "checksum", "shm")

    def __init__(self, page_id, block, set_key=None):
        self.page_id = page_id
        self.block = block
        self.pin_count = 0
        self.dirty = False
        #: the (database, set) this page belongs to, when any.
        self.set_key = set_key
        #: CRC32 stamped when the page was sealed (None while writable).
        self.checksum = None
        #: the SharedMemory segment backing ``block.buf`` when the owning
        #: pool runs in ``shm`` residency (None for bytearray residency).
        self.shm = None

    @property
    def size(self):
        return self.block.size if self.block is not None else 0

    @property
    def in_memory(self):
        """False once the page's bytes have been spilled and dropped."""
        return self.block is not None

    @classmethod
    def from_bytes(cls, page_id, data, registry=None, set_key=None,
                   metrics=None):
        """Reconstitute a page that arrived from disk or the network."""
        block = AllocationBlock.from_bytes(data, registry=registry,
                                           metrics=metrics)
        return cls(page_id, block, set_key=set_key)

    @classmethod
    def fresh(cls, page_id, size, registry=None, policy=LIGHTWEIGHT_REUSE,
              set_key=None, metrics=None):
        """A brand-new, empty page."""
        block = AllocationBlock(size, policy=policy, registry=registry,
                                metrics=metrics)
        return cls(page_id, block, set_key=set_key)

    def __repr__(self):
        state = "mem" if self.in_memory else "spilled"
        return "<Page %d %s pins=%d>" % (self.page_id, state, self.pin_count)
