"""Storage managers: the distributed coordinator and per-worker servers.

The master's *distributed storage manager* decides how a stored set is
partitioned over workers and routes loaded data; each worker's *local
storage server* owns a shared buffer pool plus the user-level file system
holding its partitions (Appendix D.1).
"""

from __future__ import annotations

import itertools

from repro.errors import (
    CatalogError,
    ReplicationError,
    SetNotFoundError,
    StorageError,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.dataset import PageSet
from repro.storage.page import DEFAULT_PAGE_SIZE


class LocalStorageServer:
    """One worker's storage: a buffer pool and its set partitions."""

    def __init__(self, worker_id, capacity_bytes, page_size=DEFAULT_PAGE_SIZE,
                 registry=None, spill_dir=None, tracer=None,
                 fault_injector=None, metrics=None, residency="mem",
                 shm_registry=None):
        self.worker_id = worker_id
        self.pool = BufferPool(
            capacity_bytes, page_size=page_size, registry=registry,
            spill_dir=spill_dir, tracer=tracer,
            fault_injector=fault_injector, metrics=metrics,
            residency=residency, shm_registry=shm_registry,
        )
        self.metrics = self.pool.metrics
        self._sets = {}  # (db, set) -> PageSet

    def sets(self):
        """All local partitions, as ``((db, name), PageSet)`` pairs."""
        return list(self._sets.items())

    def create_set(self, database, name, type_name=None, page_size=None,
                   layout="row", schema=None):
        """Create the local partition of a set; idempotent."""
        key = (database, name)
        if key not in self._sets:
            self._sets[key] = PageSet(
                database, name, self.pool, type_name=type_name,
                page_size=page_size, layout=layout, schema=schema,
            )
        return self._sets[key]

    def get_set(self, database, name):
        """The local partition of a set, or raise."""
        try:
            return self._sets[(database, name)]
        except KeyError:
            raise SetNotFoundError(
                "worker %r has no partition of %s.%s"
                % (self.worker_id, database, name)
            ) from None

    def has_set(self, database, name):
        return (database, name) in self._sets

    def drop_set(self, database, name):
        """Clear and remove the local partition."""
        page_set = self._sets.pop((database, name), None)
        if page_set is not None:
            page_set.clear()


class DistributedStorageManager:
    """The master-side coordinator for stored sets."""

    def __init__(self, catalog):
        self.catalog = catalog
        self._servers = {}  # worker_id -> LocalStorageServer
        self._round_robin = {}

    def attach_server(self, server):
        """Register a worker's local storage server."""
        self._servers[server.worker_id] = server

    def detach_server(self, worker_id):
        """Remove a (decommissioned) worker's storage server.

        The caller is responsible for having redistributed the worker's
        partitions first; after detaching, ``partitions`` and the loader's
        round-robin routing see only the surviving workers.
        """
        self._servers.pop(worker_id, None)
        # Rebuild the routing cycles so new pages land on survivors only.
        for key in self._round_robin:
            self._round_robin[key] = itertools.cycle(self.worker_ids)

    @property
    def worker_ids(self):
        return sorted(self._servers)

    def server(self, worker_id):
        try:
            return self._servers[worker_id]
        except KeyError:
            raise StorageError("unknown worker %r" % (worker_id,)) from None

    def has_server(self, worker_id):
        """Whether ``worker_id``'s storage server is (still) attached."""
        return worker_id in self._servers

    def create_database(self, name):
        """Create a database namespace cluster-wide."""
        self.catalog.create_database(name)

    def create_set(self, database, name, type_name=None, page_size=None,
                   replication=1, layout="row", schema=None):
        """Create a set partitioned over every attached worker.

        The creation is atomic: if any worker-side create fails, the
        catalog record and the partitions created so far are rolled back,
        so a failed ``create_set`` leaves no half-created set behind.
        """
        if not self._servers:
            raise StorageError("no storage servers attached")
        if replication < 1:
            raise ReplicationError(
                "replication factor must be >= 1, got %r" % (replication,)
            )
        if replication > len(self._servers):
            raise ReplicationError(
                "replication factor %d exceeds the %d attached workers"
                % (replication, len(self._servers))
            )
        meta = self.catalog.create_set(
            database, name, type_name, self.worker_ids,
            replication=replication, page_size=page_size,
            layout=layout, schema=schema,
        )
        created = []
        try:
            for server in self._servers.values():
                server.create_set(
                    database, name, type_name, page_size=page_size,
                    layout=layout, schema=schema,
                )
                created.append(server)
        except Exception:
            for server in created:
                server.drop_set(database, name)
            self.catalog.drop_set(database, name)
            raise
        self._round_robin[(database, name)] = itertools.cycle(self.worker_ids)
        return meta

    def drop_set(self, database, name):
        """Remove a set everywhere."""
        self.catalog.drop_set(database, name)
        self._round_robin.pop((database, name), None)
        for server in self._servers.values():
            server.drop_set(database, name)

    def partitions(self, database, name):
        """The per-worker :class:`PageSet` partitions of a set.

        Raises :class:`SetNotFoundError` for an unknown database or set,
        so storage callers see one error family regardless of whether the
        miss happened in the catalog or on a worker.  A partition whose
        worker is gone is a hard :class:`StorageError` naming the missing
        workers — unless every page of the set is still covered by a live
        replica, in which case reads can proceed on the survivors.
        """
        try:
            meta = self.catalog.set_metadata(database, name)
        except CatalogError:
            raise SetNotFoundError(
                "unknown set %s.%s" % (database, name)
            ) from None
        missing = [w for w in meta.partitions if w not in self._servers]
        if missing:
            uncovered = self._uncovered_pages(meta)
            if uncovered or not meta.pages:
                raise StorageError(
                    "set %s.%s is missing partitions on worker(s) %s "
                    "with no live replica covering them"
                    % (database, name, ", ".join(map(repr, sorted(missing))))
                )
        return [
            self._servers[worker_id].get_set(database, name)
            for worker_id in meta.partitions
            if worker_id in self._servers
        ]

    def _uncovered_pages(self, meta):
        """Page uids of ``meta`` with no replica on an attached worker."""
        return [
            record.uid
            for record in meta.pages.values()
            if not any(w in self._servers for w in record.workers())
        ]

    def next_target(self, database, name):
        """Round-robin choice of the worker receiving the next loaded page."""
        cycle = self._round_robin.get((database, name))
        if cycle is None:
            raise SetNotFoundError("unknown set %s.%s" % (database, name))
        return next(cycle)

    def total_objects(self, database, name):
        """Total object count of a set across all partitions.

        A set with a catalog replica map is counted from its page records
        (the authoritative count even while a partition's worker is dead);
        sets without one fall back to summing the live partitions.
        """
        try:
            meta = self.catalog.set_metadata(database, name)
        except CatalogError:
            raise SetNotFoundError(
                "unknown set %s.%s" % (database, name)
            ) from None
        if meta.pages:
            return sum(record.count for record in meta.pages.values())
        return sum(len(p) for p in self.partitions(database, name))

    def __contains__(self, key):
        database, name = key
        try:
            self.catalog.set_metadata(database, name)
            return True
        except CatalogError:
            return False
