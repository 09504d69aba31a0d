"""PCSan runtime sanitizer: poisoning, generations, shadow refcounts.

The object model's invariants (no dangling handles, refcounts only
through :meth:`AllocationBlock.retain`/``release``, pages unpinned when a
job ends) are cheap to *state* and easy to violate silently.  This module
is the opt-in enforcement layer:

* **Poisoned frees.**  ``free_object`` fills the freed payload with
  ``0xDD``; when the allocator later reuses the chunk it verifies the
  poison survived, so any wild write into freed space becomes a recorded
  ``poison_violation`` instead of silent heap corruption.
* **Generation counters.**  Every free bumps a per-offset generation;
  handles stamp the generation they were created under and ``deref``
  raises :class:`~repro.errors.DanglingHandleError` when they disagree —
  catching the classic use-after-free where the slot was *reallocated*
  and the on-page header looks perfectly healthy again.
* **Retired blocks.**  When the buffer pool frees a page outright, the
  page's block shadow is retired; handles that outlived the page raise
  on deref instead of reading a stale snapshot.
* **Shadow refcounts.**  Counted retains/releases are mirrored into a
  Python-side table and cross-checked against the on-page header, so a
  raw ``write_refcount`` poke surfaces as a ``refcount_mismatch``.
* **Pin-leak detection.**  The cluster snapshots buffer-pool pins when a
  job starts and diffs them when it ends; pins still held are reported.
* **Seal-time leak check.**  Sealing (``sealed_view``/``to_bytes``) a
  managed block that holds live refcounted objects but never had a root
  recorded reports the orphaned objects — they would be unreachable on
  the shipped page.

Everything is surfaced twice: as ``pc_san_*`` counters (with ``san.*``
trace mirrors) through the :mod:`repro.obs` metrics layer, and as a
structured :class:`SanitizerReport` of findings.  Only genuine
use-after-free derefs raise; every other diagnostic is recorded, so a
sanitized run of a healthy workload behaves identically to a plain one.

The sanitizer is **off by default and installs zero wrappers when off**:
blocks created while no sanitizer is active carry ``_san = None`` and
every hook site is a single ``is not None`` test.  Enable it with the
``PC_SANITIZE=1`` environment variable, ``PCCluster(..., sanitize=True)``,
or :func:`enable` / :func:`sanitize_scope`.
"""

from __future__ import annotations

import os
import weakref

from repro.errors import DanglingHandleError

#: Byte written over freed payloads (0xDD, the classic "dead" fill).
POISON_BYTE = 0xDD

#: Freed chunks keep their first 24 bytes intact: the 8-byte tombstone
#: (refcount + type code, needed for dangling-handle detection) plus the
#: 16-byte freelist record that may follow it.
POISON_SKIP = 24


class SanitizerFinding:
    """One recorded diagnostic (not necessarily fatal)."""

    __slots__ = ("kind", "message", "block_id", "offset", "page_id")

    def __init__(self, kind, message, block_id=None, offset=None,
                 page_id=None):
        self.kind = kind
        self.message = message
        self.block_id = block_id
        self.offset = offset
        self.page_id = page_id

    def to_dict(self):
        entry = {"kind": self.kind, "message": self.message}
        if self.block_id is not None:
            entry["block_id"] = self.block_id
        if self.offset is not None:
            entry["offset"] = self.offset
        if self.page_id is not None:
            entry["page_id"] = self.page_id
        return entry

    def __repr__(self):
        return "<SanitizerFinding %s: %s>" % (self.kind, self.message)


class SanitizerReport:
    """Structured result of a sanitized run: findings plus tallies."""

    def __init__(self):
        self.findings = []

    def add(self, finding):
        self.findings.append(finding)

    def by_kind(self, kind):
        return [f for f in self.findings if f.kind == kind]

    def counts(self):
        tally = {}
        for finding in self.findings:
            tally[finding.kind] = tally.get(finding.kind, 0) + 1
        return tally

    def to_dict(self):
        return {
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def __len__(self):
        return len(self.findings)

    def __bool__(self):
        # A report is always truthy (it exists); emptiness is len() == 0.
        return True

    def __repr__(self):
        return "<SanitizerReport %d finding(s) %r>" % (
            len(self.findings), self.counts(),
        )


class _BlockShadow:
    """Per-block sanitizer state: generations, poison map, shadow counts.

    One instance hangs off ``AllocationBlock._san`` for every block
    created while the sanitizer is active.  The hooks are written to be
    branch-cheap: the block calls them only after testing ``_san is not
    None``, and each hook does dict work proportional to the operation.
    """

    __slots__ = ("san", "_block", "generations", "refcounts", "live",
                 "poisoned", "retired", "seal_reported")

    def __init__(self, san, block):
        self.san = san
        # Weak: a strong back-reference would make every watched block
        # a reference cycle, keeping its buffer (for shm-resident pages,
        # a view over the mapped segment) alive until a GC pass — the
        # segment's close() then fails, at interpreter exit included.
        # The shadow is only reached through its block, so it is alive.
        self._block = weakref.ref(block)
        self.seal_reported = False
        #: offset -> times the object at this offset has been freed
        self.generations = {}
        #: offset -> expected on-page refcount (counted objects only)
        self.refcounts = {}
        #: offset -> type code of the live object allocated there
        self.live = {}
        #: offset -> (start, end) byte range expected to hold poison
        self.poisoned = {}
        #: set to a reason string when the owning page was freed
        self.retired = None

    @property
    def block(self):
        return self._block()

    # -- allocator hooks ---------------------------------------------------

    def generation_of(self, offset):
        return self.generations.get(offset, 0)

    def on_alloc(self, offset, type_code, refcount):
        poisoned = self.poisoned.pop(offset, None)
        if poisoned is not None:
            start, end = poisoned
            buf = self.block.buf  # pcsan: disable=PC002
            if any(buf[i] != POISON_BYTE  # pcsan: disable=PC002
                   for i in range(start, end)):
                self.san.record(
                    "poison_violation",
                    "freed chunk at offset %d of block %d was written "
                    "before reallocation (poison damaged)"
                    % (offset, self.block.block_id),
                    block_id=self.block.block_id, offset=offset,
                )
        self.live[offset] = type_code
        if refcount >= 0:
            self.refcounts[offset] = refcount
        else:
            self.refcounts.pop(offset, None)

    def on_free(self, offset, total):
        buf = self.block.buf  # pcsan: disable=PC002
        start = offset + POISON_SKIP
        end = offset + total
        if end > start:
            # the poison write *is* the sanitizer's raw byte poke
            buf[start:end] = (  # pcsan: disable=PC002
                bytes([POISON_BYTE]) * (end - start)
            )
            self.poisoned[offset] = (start, end)
        self.generations[offset] = self.generations.get(offset, 0) + 1
        self.refcounts.pop(offset, None)
        self.live.pop(offset, None)
        self.san.c_poisoned_frees.inc()

    # -- refcount cross-checking -------------------------------------------

    def on_refcount(self, offset, observed, new):
        """Called around every *counted* retain/release."""
        expected = self.refcounts.get(offset)
        if expected is not None and expected != observed:
            self.san.record(
                "refcount_mismatch",
                "on-page refcount %d at offset %d of block %d does not "
                "match the shadow count %d (raw header write?)"
                % (observed, offset, self.block.block_id, expected),
                block_id=self.block.block_id, offset=offset,
            )
        self.refcounts[offset] = new

    # -- handle validation --------------------------------------------------

    def on_deref(self, offset, generation, refcount):
        if self.retired is not None:
            self.san.c_dangling_derefs.inc()
            raise DanglingHandleError(
                "handle into retired block %d (%s)"
                % (self.block.block_id, self.retired)
            )
        if generation is not None and \
                self.generations.get(offset, 0) != generation:
            self.san.c_dangling_derefs.inc()
            raise DanglingHandleError(
                "stale handle: offset %d of block %d was freed (and "
                "possibly reallocated) after the handle was created"
                % (offset, self.block.block_id)
            )
        if refcount >= 0:
            expected = self.refcounts.get(offset)
            if expected is not None and expected != refcount:
                self.san.record(
                    "refcount_mismatch",
                    "deref observed on-page refcount %d at offset %d of "
                    "block %d, shadow expected %d"
                    % (refcount, offset, self.block.block_id, expected),
                    block_id=self.block.block_id, offset=offset,
                )

    # -- lifecycle ----------------------------------------------------------

    def retire(self, reason):
        self.retired = reason

    def on_seal(self):
        """Seal-time leak check: live counted objects but no root."""
        block = self.block
        if self.seal_reported or not block.managed or not self.refcounts:
            return
        root_offset, _code = block.root()
        if root_offset is not None:
            return
        leaked = sorted(
            offset for offset, count in self.refcounts.items() if count > 0
        )
        if not leaked:
            return
        self.seal_reported = True
        self.san.c_leaked_objects.inc(len(leaked))
        self.san.record(
            "leaked_objects",
            "block %d sealed with %d live object(s) at offset(s) %s but "
            "no root handle — they are unreachable on the shipped page"
            % (block.block_id, len(leaked),
               ", ".join(map(str, leaked[:8]))),
            block_id=block.block_id,
        )


class Sanitizer:
    """The process-wide sanitizer: counters, report, and block watching."""

    def __init__(self, metrics=None):
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self.report = SanitizerReport()
        self.c_blocks_watched = metrics.counter(
            "pc_san_blocks_watched_total",
            help="Allocation blocks created under the sanitizer",
            trace="san.blocks_watched",
        )
        self.c_poisoned_frees = metrics.counter(
            "pc_san_poisoned_frees_total",
            help="Freed objects whose payload was poisoned with 0xDD",
            trace="san.poisoned_frees",
        )
        self.c_poison_violations = metrics.counter(
            "pc_san_poison_violations_total",
            help="Freed chunks found scribbled on before reallocation",
            trace="san.poison_violations",
        )
        self.c_dangling_derefs = metrics.counter(
            "pc_san_dangling_derefs_total",
            help="Use-after-free derefs caught via generations/retirement",
            trace="san.dangling_derefs",
        )
        self.c_refcount_mismatches = metrics.counter(
            "pc_san_refcount_mismatches_total",
            help="Shadow refcount disagreements with on-page headers",
            trace="san.refcount_mismatches",
        )
        self.c_pin_leaks = metrics.counter(
            "pc_san_pin_leaks_total",
            help="Buffer-pool pins still held when their job ended",
            trace="san.pin_leaks",
        )
        self.c_leaked_objects = metrics.counter(
            "pc_san_leaked_objects_total",
            help="Live objects sealed into a block with no root handle",
            trace="san.leaked_objects",
        )

    # -- recording ----------------------------------------------------------

    _FINDING_COUNTERS = {
        "poison_violation": "c_poison_violations",
        "refcount_mismatch": "c_refcount_mismatches",
        "pin_leak": "c_pin_leaks",
    }

    def record(self, kind, message, **where):
        counter_name = self._FINDING_COUNTERS.get(kind)
        if counter_name is not None:
            getattr(self, counter_name).inc()
        self.report.add(SanitizerFinding(kind, message, **where))

    # -- block watching -------------------------------------------------------

    def watch_block(self, block):
        """Attach (and return) a shadow for a freshly created block."""
        self.c_blocks_watched.inc()
        return _BlockShadow(self, block)

    # -- buffer-pool pin accounting ------------------------------------------

    def snapshot_pins(self, pools):
        """``{(pool_index, page_id): pin_count}`` across ``pools``."""
        held = {}
        for index, pool in enumerate(pools):
            for page_id, pins in pool.pinned_pages().items():
                held[(index, page_id)] = pins
        return held

    def check_pins(self, pools, baseline):
        """Diff current pins against ``baseline``; report what leaked.

        Returns the pin-leak findings recorded by this call.
        """
        found = []
        for index, pool in enumerate(pools):
            for page_id, pins in pool.pinned_pages().items():
                before = baseline.get((index, page_id), 0)
                if pins > before:
                    finding = SanitizerFinding(
                        "pin_leak",
                        "page %d of pool %d ended the job with %d pin(s) "
                        "acquired during it still held"
                        % (page_id, index, pins - before),
                        page_id=page_id,
                    )
                    self.c_pin_leaks.inc(pins - before)
                    self.report.add(finding)
                    found.append(finding)
        return found


# ---------------------------------------------------------------------------
# Global on/off switch
# ---------------------------------------------------------------------------

_TRUTHY = ("1", "true", "yes", "on")

#: ``san`` is the active sanitizer (or None); ``initialized`` blocks the
#: one-time PC_SANITIZE environment check from re-running after an
#: explicit enable()/disable().
_state = {"san": None, "initialized": False}


def env_enabled():
    """Whether ``PC_SANITIZE`` asks for sanitizing."""
    return os.environ.get("PC_SANITIZE", "").strip().lower() in _TRUTHY


def current_sanitizer():
    """The active :class:`Sanitizer`, or None when sanitizing is off.

    The first call consults ``PC_SANITIZE``; afterwards only
    :func:`enable` / :func:`disable` change the answer.
    """
    if not _state["initialized"]:
        _state["initialized"] = True
        if env_enabled():
            _state["san"] = Sanitizer()
    return _state["san"]


def enable(metrics=None):
    """Install (and return) a new global sanitizer.

    ``metrics`` may be a :class:`~repro.obs.MetricsRegistry` so the
    ``pc_san_*`` counters land next to the caller's other metrics (this
    is what ``PCCluster(sanitize=True)`` does); by default the sanitizer
    keeps a private registry.
    """
    san = Sanitizer(metrics=metrics)
    _state["san"] = san
    _state["initialized"] = True
    return san


def disable():
    """Turn the sanitizer off (blocks created later are unwatched)."""
    _state["san"] = None
    _state["initialized"] = True


class sanitize_scope:
    """Context manager enabling the sanitizer for a ``with`` block.

    Mostly for tests: restores the previous global state on exit and
    exposes the scoped sanitizer as the ``as`` target.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        self.sanitizer = None
        self._previous = None

    def __enter__(self):
        self._previous = (_state["san"], _state["initialized"])
        self.sanitizer = enable(metrics=self.metrics)
        return self.sanitizer

    def __exit__(self, exc_type, exc, tb):
        _state["san"], _state["initialized"] = self._previous
        return False
