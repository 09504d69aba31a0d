"""Replicated, checksummed page storage.

PC's storage subsystem keeps a set's pages on the workers' durable
front-ends; this module adds the redundancy layer on top:

* every stored page is stamped once, at seal
  (:meth:`ReplicationManager.store_page` and
  :meth:`~ReplicationManager.register_local_pages`), with a CRC32 over
  its bytes, journaled in the catalog's
  :class:`~repro.catalog.PageRecord`.  Bytes are verified against it
  only where they can change — the trust boundaries: a spill reload
  (the buffer pool checks the spill file's CRC), a network receipt when
  the network can alter bytes (a fault injector is attached), and heal
  and re-replication, which go through receipt.  A resident sealed
  page is immutable (the sanitizer and lint rule PC009 guard writes
  after seal), so a replicated read trusts any copy that pins cleanly
  instead of re-hashing it.  Checksums and shipments read a pinned
  page's no-copy
  :meth:`~repro.memory.block.AllocationBlock.sealed_view`, so the only
  copy a transfer makes is the receiver's adopt;
* ``create_set(..., replication=k)`` places each page on ``k`` workers
  chosen by a deterministic :class:`PlacementRing`, written synchronously
  at load/materialization time;
* the catalog's per-set replica map (``SetMetadata.pages``) is the
  authoritative record of where each page's copies live, so reads can
  fail over to any live replica, a copy whose spill reload fails its
  CRC is quarantined and healed from a healthy one, and a node loss
  triggers re-replication on the survivors instead of data loss.

All activity is counted (``repl.replica_writes``, ``repl.failover_reads``,
``repl.checksum_failures``, ``repl.re_replications``, ``repl.pages_healed``)
both on the manager and into the active trace span.
"""

from __future__ import annotations

import contextlib
import zlib

from repro.errors import (
    CatalogError,
    PageCorruptionError,
    ReplicationError,
)
from repro.memory.builtins import AnyObject, VectorType
from repro.memory.columnar import ColumnarPage
from repro.obs import MetricsRegistry, Tracer

_ROOT_VECTOR = VectorType(AnyObject)


def page_checksum(data):
    """CRC32 of a page's bytes (the integrity stamp).

    ``data`` is any contiguous byte buffer — owned bytes or a page's
    no-copy sealed view.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


def corrupt_bytes(data):
    """Flip one byte mid-buffer — the canonical injected corruption."""
    if not data:
        return data
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


class PlacementRing:
    """Deterministic replica placement over the sorted live workers.

    The primary's ``k - 1`` ring successors hold the extra copies, so
    placement is a pure function of (primary, live workers, k) and every
    node computes the same answer.  Re-replication targets are picked by
    hashing the page uid over the eligible workers, spreading a dead
    node's pages across all survivors instead of one.
    """

    def __init__(self, worker_ids):
        self.worker_ids = sorted(worker_ids)

    def replicas_for(self, primary, k):
        """The ``k`` workers holding a page whose primary is ``primary``."""
        ring = self.worker_ids
        if primary not in ring:
            raise ReplicationError(
                "primary %r is not an attached worker" % (primary,)
            )
        start = ring.index(primary)
        count = min(k, len(ring))
        return [ring[(start + i) % len(ring)] for i in range(count)]

    def rereplication_target(self, uid, holders):
        """A worker to receive a fresh copy of page ``uid``, or None."""
        eligible = [w for w in self.worker_ids if w not in holders]
        if not eligible:
            return None
        index = zlib.crc32(uid.encode("utf-8")) % len(eligible)
        return eligible[index]


class ReplicationManager:
    """Places, verifies, heals, and re-replicates stored pages."""

    def __init__(self, catalog, storage_manager, network, tracer=None,
                 metrics=None):
        self.catalog = catalog
        self.storage_manager = storage_manager
        self.network = network
        self.tracer = tracer or Tracer()
        # Counters live in the metrics registry; each declares its trace
        # mirror.
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry(tracer=self.tracer)
        self._c_replica_writes = self.metrics.counter(
            "pc_repl_replica_writes_total",
            help="Page copies placed on replica workers",
            trace="repl.replica_writes",
        )
        self._c_failover_reads = self.metrics.counter(
            "pc_repl_failover_reads_total",
            help="Reads served from a replica after a primary failure",
            trace="repl.failover_reads",
        )
        self._c_checksum_failures = self.metrics.counter(
            "pc_repl_checksum_failures_total",
            help="Replica copies failing their recorded checksum",
            trace="repl.checksum_failures",
        )
        self._c_re_replications = self.metrics.counter(
            "pc_repl_re_replications_total",
            help="Copies re-created to restore the replication factor",
            trace="repl.re_replications",
        )
        self._c_pages_healed = self.metrics.counter(
            "pc_repl_pages_healed_total",
            help="Corrupt copies overwritten from a healthy replica",
            trace="repl.pages_healed",
        )

    def store_page(self, database, name, data, count, source="client"):
        """Place one loaded page on its primary plus ring replicas.

        Used by the bulk loader: the page's bytes (its sealed view; each
        receiver's adopt is the one copy) are shipped verbatim to
        ``replication`` workers chosen by the placement ring, adopted into
        each worker's partition, and recorded in the catalog's replica map
        (checksummed, journaled).  Returns the :class:`PageRecord`.
        """
        meta = self.catalog.set_metadata(database, name)
        checksum = page_checksum(data)
        primary = self.storage_manager.next_target(database, name)
        ring = PlacementRing(self.storage_manager.worker_ids)
        targets = ring.replicas_for(primary, meta.replication)
        replicas = []
        for index, worker_id in enumerate(targets):
            delivered = self.network.ship_page(
                source, worker_id, data, checksum=checksum
            )
            server = self.storage_manager.server(worker_id)
            page_id = server.get_set(database, name).adopt_page_bytes(
                delivered, count_objects=(index == 0)
            )
            replicas.append([worker_id, page_id])
            if index > 0:
                self._c_replica_writes.inc()
        return self.catalog.record_page(
            database, name, replicas, checksum, count, primary=primary
        )

    def register_local_pages(self, database, name, worker_id, page_ids):
        """Record (and replicate) pages a sink wrote in place on a worker.

        Materialization writes pages directly into the owning worker's
        partition; this stamps their checksums, records them in the
        replica map, and ships the extra copies the set's replication
        factor asks for — synchronously, before the stage is declared
        complete.
        """
        meta = self.catalog.set_metadata(database, name)
        server = self.storage_manager.server(worker_id)
        page_set = server.get_set(database, name)
        ring = PlacementRing(self.storage_manager.worker_ids)
        targets = ring.replicas_for(worker_id, meta.replication)
        records = []
        for page_id in page_ids:
            page = server.pool.pin(page_id)
            try:
                with page.block.sealed_view() as data:
                    checksum = page_checksum(data)
                    page.checksum = checksum
                    replicas = [[worker_id, page_id]]
                    for peer_id in targets[1:]:
                        replicas.append([peer_id, self._ship_copy(
                            database, name, worker_id, peer_id, data,
                            checksum,
                        )])
                        self._c_replica_writes.inc()
            finally:
                server.pool.unpin(page_id)
            count = page_set.page_object_count(page_id)
            records.append(self.catalog.record_page(
                database, name, replicas, checksum, count, primary=worker_id
            ))
        return records

    # -- reads (failover + healing) --------------------------------------------

    def has_page_map(self, database, name):
        """Whether a set is governed by the catalog replica map."""
        try:
            meta = self.catalog.set_metadata(database, name)
        except CatalogError:
            return False
        return bool(meta.pages)

    def _live_replicas(self, record):
        return [
            (worker_id, page_id)
            for worker_id, page_id in record.replicas
            if self.storage_manager.has_server(worker_id)
        ]

    def scan_assignments(self, database, name):
        """``uid -> worker_id`` reading each page (its first live replica)."""
        meta = self.catalog.set_metadata(database, name)
        assignments = {}
        for uid, record in meta.pages.items():
            live = self._live_replicas(record)
            if not live:
                raise ReplicationError(
                    "page %s of %s.%s has no surviving replica"
                    % (uid, database, name)
                )
            assignments[uid] = live[0][0]
        return assignments

    def scan_page_copies(self, database, name, worker_id=None,
                         only_uids=None):
        """Yield ``(page_set, page_id)`` of every page copy a scan reads.

        The page-granular face of :meth:`scan_objects`: identical page
        selection and ordering (catalog uid order), identical failover
        accounting, identical corruption healing.  Used by transports
        that hand whole pages to a back-end process instead of iterating
        objects in the front-end.
        """
        meta = self.catalog.set_metadata(database, name)
        for uid in list(meta.pages):
            record = meta.pages.get(uid)
            if record is None or (only_uids is not None
                                  and uid not in only_uids):
                continue
            live = self._live_replicas(record)
            if not live:
                raise ReplicationError(
                    "page %s of %s.%s has no surviving replica"
                    % (uid, database, name)
                )
            reader = live[0][0]
            if worker_id is not None and reader != worker_id:
                continue
            if reader != record.primary:
                self._c_failover_reads.inc()
            yield self._healthy_copy(database, name, record, reader)

    def scan_objects(self, database, name, worker_id=None, only_uids=None,
                     columnar_pages=False):
        """Yield every object of a set, page by page, via live replicas.

        ``worker_id`` restricts the scan to the pages *assigned* to that
        worker (each page is read exactly once cluster-wide by the worker
        holding its first live replica); ``only_uids`` restricts it to a
        subset of pages (the orphan re-run path).  Corrupted copies are
        quarantined and transparently healed from a healthy replica —
        corrupted bytes are never yielded.  Columnar pages yield per-row
        views by default; with ``columnar_pages`` set, each yields one
        whole :class:`~repro.memory.columnar.ColumnarRows` batch instead.
        """
        for page_set, page_id in self.scan_page_copies(
            database, name, worker_id=worker_id, only_uids=only_uids
        ):
            with page_set.pinned_page(page_id) as page:
                colpage = ColumnarPage.attach(page.block)
                if colpage is not None:
                    if columnar_pages:
                        yield colpage.rows()
                    else:
                        yield from colpage.rows()
                    continue
                root_offset, _code = page.block.root()
                if root_offset is None:
                    continue
                root = _ROOT_VECTOR.facade(page.block, root_offset)
                for handle in root:
                    yield handle

    def _ship_copy(self, database, name, src, dst, data, checksum):
        """Ship page bytes ``src -> dst`` and adopt them as a replica.

        The adopt on ``dst`` is the transfer's one copy; returns the new
        copy's page id there.
        """
        delivered = self.network.ship_page(src, dst, data, checksum=checksum)
        peer = self.storage_manager.server(dst)
        return peer.get_set(database, name).adopt_page_bytes(
            delivered, count_objects=False
        )

    def _copy_page(self, database, name, server, page_id, dst, checksum):
        """Ship ``server``'s copy of a page to ``dst`` as a new replica.

        The bytes are read through the pinned page's sealed view; returns
        the new copy's page id on ``dst``.
        """
        page = server.pool.pin(page_id)
        try:
            with page.block.sealed_view() as data:
                return self._ship_copy(
                    database, name, server.worker_id, dst, data, checksum
                )
        finally:
            server.pool.unpin(page_id)

    @contextlib.contextmanager
    def _pinned_view(self, record, worker_id, page_id):
        """A replica's sealed view, or None when its copy is corrupt.

        A resident sealed page is immutable, so a copy that pins cleanly
        is trusted without re-hashing; a spilled copy was CRC-checked by
        the reload inside ``pin``, which raises
        :class:`~repro.errors.PageCorruptionError` on a mismatch — that
        copy is quarantined (None).  The copy stays pinned for the
        with-block, so the view is only used while it is valid.
        """
        server = self.storage_manager.server(worker_id)
        try:
            page = server.pool.pin(page_id)
        except PageCorruptionError:
            self._note_checksum_failure(record, worker_id)
            yield None
            return
        try:
            with page.block.sealed_view() as data:
                yield data
        finally:
            server.pool.unpin(page_id)

    def _note_checksum_failure(self, record, worker_id):
        self._c_checksum_failures.inc()
        self.tracer.event(
            "quarantine", kind="fault",
            detail="page %s copy on %s failed its CRC32 check"
            % (record.uid, worker_id),
        )

    def _healthy_copy(self, database, name, record, reader):
        """(page_set, local page id) of a healthy copy on ``reader``.

        The reader's local copy is used when it pins cleanly; when its
        spill reload fails the CRC check, a healthy replica is fetched
        over the network (verified on receipt), the local copy is
        replaced in place (same scan slot, object counts untouched), and
        the catalog replica map updated.  Only when *every* replica is
        corrupt does the read fail.
        """
        server = self.storage_manager.server(reader)
        page_set = server.get_set(database, name)
        local = dict((w, p) for w, p in record.replicas)[reader]
        with self._pinned_view(record, reader, local) as data:
            if data is not None:
                return page_set, local
        for peer_id, peer_pid in self._live_replicas(record):
            if peer_id == reader:
                continue
            with self._pinned_view(record, peer_id, peer_pid) as data:
                if data is None:
                    continue
                delivered = self.network.ship_page(
                    peer_id, reader, data, checksum=record.checksum
                )
                healed_pid = page_set.replace_page_bytes(local, delivered)
            replicas = [
                [w, healed_pid if w == reader else p]
                for w, p in record.replicas
            ]
            self.catalog.update_page_replicas(
                database, name, record.uid, replicas
            )
            self._c_pages_healed.inc()
            return page_set, healed_pid
        raise ReplicationError(
            "page %s of %s.%s is corrupt on every replica"
            % (record.uid, database, name)
        )

    def estimated_bytes(self, database, name):
        """Replica-aware source-size estimate (each page counted once)."""
        meta = self.catalog.set_metadata(database, name)
        total = 0
        for record in meta.pages.values():
            for worker_id, page_id in self._live_replicas(record):
                server = self.storage_manager.server(worker_id)
                try:
                    page = server.pool.pin(page_id)
                except Exception:
                    continue
                total += page.block.used if page.block else 0
                server.pool.unpin(page_id)
                break
        return total

    # -- membership changes ------------------------------------------------------

    def forget_worker(self, database, name, worker_id, evacuate_from=None):
        """Drop ``worker_id`` from a set's replica map and partition list.

        With ``evacuate_from`` (the departing worker's still-readable
        storage server — a decommission, not a crash), pages whose *only*
        copy lived there are shipped to a survivor first.  Without it (a
        node kill), a page with no other live replica is data loss and
        raises :class:`ReplicationError`.  Returns pages evacuated.
        """
        meta = self.catalog.set_metadata(database, name)
        ring = PlacementRing(self.storage_manager.worker_ids)
        moved = 0
        for uid, record in list(meta.pages.items()):
            if worker_id not in record.workers():
                continue
            survivors = [
                [w, p] for w, p in record.replicas
                if w != worker_id and self.storage_manager.has_server(w)
            ]
            if not survivors:
                if evacuate_from is None:
                    raise ReplicationError(
                        "page %s of %s.%s lost its last replica with "
                        "worker %r" % (uid, database, name, worker_id)
                    )
                local = dict(
                    (w, p) for w, p in record.replicas
                )[worker_id]
                target = ring.rereplication_target(uid, {worker_id})
                if target is None:
                    raise ReplicationError(
                        "no surviving worker can take page %s of %s.%s"
                        % (uid, database, name)
                    )
                peer_pid = self._copy_page(
                    database, name, evacuate_from, local, target,
                    record.checksum,
                )
                survivors = [[target, peer_pid]]
                moved += 1
            self.catalog.update_page_replicas(database, name, uid, survivors)
        if worker_id in meta.partitions:
            self.catalog.set_partitions(
                database, name,
                [w for w in meta.partitions if w != worker_id],
            )
        return moved

    def restore_replication(self, database=None):
        """Bring every page back to its set's replication factor.

        Pages short of ``replication`` live copies (after a kill or
        decommission) get fresh copies on ring-chosen survivors, sourced
        from a verified healthy replica.  Returns copies created.
        """
        created = 0
        ring = PlacementRing(self.storage_manager.worker_ids)
        for meta in self.catalog.list_sets(database):
            if not meta.pages:
                continue
            want = min(meta.replication, len(ring.worker_ids))
            for uid, record in list(meta.pages.items()):
                live = self._live_replicas(record)
                if not live:
                    raise ReplicationError(
                        "page %s of %s has no surviving replica"
                        % (uid, meta.qualified_name)
                    )
                if len(live) != len(record.replicas):
                    record = self.catalog.update_page_replicas(
                        meta.database, meta.name, uid,
                        [list(r) for r in live],
                    )
                holders = set(record.workers())
                while len(record.replicas) < want:
                    target = ring.rereplication_target(uid, holders)
                    if target is None:
                        break
                    # A corrupt source copy is healed through the read
                    # path first; the copy then reads the healed page.
                    src_id = record.replicas[0][0]
                    _page_set, src_pid = self._healthy_copy(
                        meta.database, meta.name, record, src_id
                    )
                    record = meta.pages[uid]
                    peer_pid = self._copy_page(
                        meta.database, meta.name,
                        self.storage_manager.server(src_id), src_pid,
                        target, record.checksum,
                    )
                    record = self.catalog.update_page_replicas(
                        meta.database, meta.name, uid,
                        record.replicas + [[target, peer_pid]],
                    )
                    holders.add(target)
                    created += 1
                    self._c_re_replications.inc()
        return created

    def replication_factors(self, database, name):
        """``uid -> live copy count`` (tests assert full factor restored)."""
        meta = self.catalog.set_metadata(database, name)
        return {
            uid: len(self._live_replicas(record))
            for uid, record in meta.pages.items()
        }
