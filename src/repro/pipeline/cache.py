"""Content-addressed artifact caching for the staged pipeline: two tiers.

Artifacts are keyed by ``stage name + reach key + the analysis options that
stage depends on`` (see ``stage_key`` in :mod:`repro.pipeline.stages`).  The
reach key stands for the units the analysed entity reaches: every unit's
outline and the text of the reached units, so the same entity analysed with
the same options hits the same entries no matter which path produced them,
and any change to what it reaches or to the options changes the key.  The
file's own digest keys only its ``reach:`` record.

Three stores implement that contract:

:class:`ArtifactCache`
    The in-memory, per-process tier, with hit/miss counters.  It is bounded
    by its entry count, and what a run made on the way to its goals waits on
    probation: an intermediate no later run reads leaves after a tenth of
    the bound, and only what is read, or was asked for, stays longer.  A
    server keeps one per process, and every pool worker (serve's and
    batch's) builds its own.
:class:`DiskArtifactCache`
    The persistent tier, which is nothing but its files: entries live under
    ``<cache-dir>/<stage>/<key-sha256>.pkl``; writes go to a temporary file
    in the same directory and are published with an atomic ``os.replace``,
    so concurrent writers (two CLI invocations, many batch workers) never
    expose a torn entry.  Every entry and universe snapshot embeds a format
    tag and :data:`FORMAT_VERSION`; a file with a stale tag, a truncated
    pickle or any other decoding problem is *evicted* when it is read, never
    raised, and a write the file system refuses (a full or read-only disk)
    is skipped, so the value stays compute-on-demand.  Total entry size is
    bounded by ``max_bytes`` with least-recently-used eviction (recency =
    file mtime, refreshed on every hit).
:class:`TieredArtifactCache`
    The composition the CLI, the batch workers and ``vhdl-ifa serve`` run
    on: an in-memory front tier over an optional on-disk back tier.  Gets
    fall through to disk and promote the loaded artifact into memory; puts
    write through to both tiers.

Universe snapshots on disk
--------------------------

A bitset artifact (a matrix, a flow graph) holds the
:class:`~repro.dataflow.universe.FactUniverse` that interned its bit
positions, which its front made final (see :mod:`repro.pipeline.stages`).
Instead of pickling one copy per entry, the disk tier refers to a universe
by the content hash of its fact list and writes the facts once to
``<cache-dir>/universes/<hash>.pkl``: an immutable snapshot, one per front.
The reference is a ``dispatch_table`` entry of the entry's own pickler that
reduces a universe to ``_universe_ref(<hash>)``, so the C pickler runs no
Python callback for any other object, and memoises the reduction: a
universe referenced from many places is hashed once per entry.  On load,
the first entry to reference a snapshot reads it into a per-process
registry, and every later entry referencing it gets that universe.  A
snapshot that cannot be read back is evicted like an entry, so the next
``put`` that references it writes it again.

What each operation touches
---------------------------

Opening a store creates its directory and reads nothing; a ``get`` reads
one entry file (plus, once per process, the snapshot it references).
Neither lists the store, so a process that only reads never scans it.  A
``put`` writes one entry file (and any snapshot it references that is not on
disk yet), creating its directory only when that is missing.  A budget scan
(one ``stat`` per entry) evicts down to a low-water mark below
``max_bytes`` when the store is past it, and leaves the process a running
byte estimate; a later ``put`` that pushes the estimate past the budget
scans again, so a process at the budget scans once per tenth of it written.
Before its first scan, a ``put`` scans only when it wins a lottery drawn
from its key's digest, with odds proportional to its size, which keeps the
same rate across all the processes writing the store: a cold process's
cost does not grow with the number of entries the store holds.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.dataflow.universe import FactUniverse

#: Bumped whenever the on-disk entry layout changes; entries and universe
#: snapshots recorded under another version are evicted when read, not decoded.
#: Version 3 drops the universe lengths from the entry envelope.
FORMAT_VERSION = 3

_ENTRY_TAG = "vhdl-ifa-artifact"
_UNIVERSE_TAG = "vhdl-ifa-universe"
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def source_digest(source: str) -> str:
    """The content address of one design source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A bounded in-memory store of pipeline artifacts with hit/miss counters.

    ``max_entries`` bounds the entries under sustained traffic.  Each entry
    waits in one of two FIFO queues, the admission scheme of 2Q (Johnson &
    Shasha, VLDB 1994) and S3-FIFO (Yang et al., SOSP 2023):

    * *probation* holds at most ``max_entries // PROBATION_DIVISOR`` entries
      (at least one): the puts marked ``probation=True``, which the pipeline
      passes for what a run makes on the way to its goals.  An entry that
      reaches probation's end unread is dropped, and its key goes to a
      *ghost* FIFO of keys only, bounded by ``max_entries``; an entry that
      was read moves to main.
    * *main* takes every other put, and a probation put whose key is in the
      ghost.  When the store is full, main's oldest entry is evicted, unless
      it was read since main last passed over it: then it gets one more
      round (CLOCK).

    A ``get`` only marks its entry as read, so a store that is never read
    evicts in put order.  ``_entries`` is the one key → artifact dict, in
    put order; the queues hold keys beside it, and a key no longer in
    ``_entries`` is skipped when it reaches a queue's end.
    """

    #: Probation's share of ``max_entries`` is one in this many: S3-FIFO's 10%.
    PROBATION_DIVISOR = 10

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._entries: Dict[str, Any] = {}
        self._max_entries = max_entries
        self._probation_size = max(1, max_entries // self.PROBATION_DIVISOR)
        # Insertion-ordered key sets, oldest first.
        self._probation: Dict[str, None] = {}
        self._main: Dict[str, None] = {}
        self._ghost: Dict[str, None] = {}
        #: Keys read since they joined their queue or main last passed them.
        self._read: Set[str] = set()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Any]:
        """The cached artifact for ``key``, counting a hit or a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self.hits += 1
        self._read.add(key)
        return value

    def put(self, key: str, value: Any, probation: bool = False) -> None:
        """Store one artifact, evicting when full (a stored key keeps its
        place).

        ``probation=True`` admits it to the probation queue, unless its key
        is in the ghost; any other put goes to main.
        """
        if key in self._entries:
            self._entries[key] = value
            return
        if len(self._entries) >= self._max_entries:
            self._evict()
        self._entries[key] = value
        if probation and key not in self._ghost:
            self._probation[key] = None
            if len(self._probation) > self._probation_size:
                self._leave_probation()
        else:
            self._ghost.pop(key, None)
            self._main[key] = None

    def _leave_probation(self) -> None:
        """Move probation's oldest entry to main if it was read; else drop it
        and remember its key in the ghost."""
        key = _pop_oldest(self._probation)
        if key not in self._entries:
            return
        if key in self._read:
            self._read.discard(key)
            self._main[key] = None
            return
        del self._entries[key]
        self._ghost[key] = None
        if len(self._ghost) > self._max_entries:
            _pop_oldest(self._ghost)

    def _evict(self) -> None:
        """Drop main's oldest entry not read since main last passed over it.

        With main empty, the oldest entry in put order goes instead.
        """
        while self._main:
            key = _pop_oldest(self._main)
            if key not in self._entries:
                continue
            if key in self._read:
                self._read.discard(key)
                self._main[key] = None
                continue
            del self._entries[key]
            return
        oldest = next(iter(self._entries))
        del self._entries[oldest]
        self._read.discard(oldest)

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        for keys in (self._entries, self._probation, self._main, self._ghost):
            keys.clear()
        self._read.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for reports and tests."""
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


def _pop_oldest(keys: Dict[str, None]) -> str:
    """Remove and return the first key of an insertion-ordered key set."""
    key = next(iter(keys))
    del keys[key]
    return key


class _CacheMiss(Exception):
    """Internal: an on-disk entry exists but cannot be served."""


def _universe_ref(uid: str) -> FactUniverse:
    """What an externalised universe pickles as: ``_universe_ref(uid)``.

    Only :class:`_ArtifactUnpickler` can resolve the reference (against its
    store's registry); a plain ``pickle.loads`` of a payload ends up here.
    """
    raise pickle.UnpicklingError(f"unresolved universe reference {uid!r}")


def _universe_reducer(
    uid_for: Callable[[FactUniverse], str], refs: Dict[str, FactUniverse]
) -> Callable[[FactUniverse], Tuple[Any, Tuple[str]]]:
    """The ``dispatch_table`` entry that externalises a :class:`FactUniverse`.

    It closes over ``uid_for`` and ``refs`` and never over the pickler: a
    pickler whose own table led back to it would be a reference cycle keeping
    its memo (every object of the entry) alive until a full collection.
    """

    def reduce_universe(universe: FactUniverse) -> Tuple[Any, Tuple[str]]:
        uid = uid_for(universe)
        refs[uid] = universe
        return _universe_ref, (uid,)

    return reduce_universe


class _ArtifactUnpickler(pickle.Unpickler):
    """Resolves externalised universe references through the store."""

    def __init__(self, buffer, resolve: Callable[[str], FactUniverse]):
        super().__init__(buffer)
        # The store's lookup, not a method of this unpickler: the memo keeps
        # the resolver, so a bound method of the unpickler would be a
        # reference cycle.
        self._resolve = resolve

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == _universe_ref.__name__:
            return self._resolve
        return super().find_class(module, name)


class DiskArtifactCache:
    """A persistent, content-addressed artifact store under one directory.

    See the module docstring for the layout, the universe-snapshot scheme and
    what each operation touches.  The store is safe to share between
    processes: every file is published with an atomic rename and is
    self-describing (tag, version, full key or snapshot id), so the files
    are the whole store and no side file can disagree with them.  All
    decoding failures (truncation, foreign pickles, stale
    :data:`FORMAT_VERSION`, missing universe snapshots) evict the offending
    file and count a miss.
    """

    #: Default size budget for entry files (universe snapshots are tiny and
    #: kept outside the budget; ``clear`` removes them too).
    DEFAULT_MAX_BYTES = 256 * 1024 * 1024

    #: A put that crosses ``max_bytes`` evicts down to this share of it, so
    #: the next budget scan is a tenth of the budget of writes away.
    BUDGET_LOW_WATER = 0.9

    #: How many universes one store keeps registered (oldest first out), so
    #: a long session's registry stays bounded.
    UNIVERSE_REGISTRY_SIZE = 256

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        #: snapshot id -> universe object.
        self._universes: Dict[str, FactUniverse] = {}
        #: id(universe) -> (snapshot id, universe length when hashed).
        self._universe_uids: Dict[int, Tuple[str, int]] = {}
        self.root.mkdir(parents=True, exist_ok=True)
        #: The root as a string, which every file path is joined onto.
        self._root = str(self.root)
        self._universe_dir = os.path.join(self._root, "universes")
        #: Running estimate of total entry bytes, taken by this process's
        #: first budget scan (``None`` before it; see :meth:`put`).  Writes
        #: by other processes are only seen at the next budget scan, so the
        #: budget is a target, not a hard ceiling, for concurrently-written
        #: stores.
        self._approx_bytes: Optional[int] = None

    # ------------------------------------------------------------ store API

    def get(self, key: str) -> Optional[Any]:
        """The artifact stored for ``key``, or ``None`` (counting hit/miss).

        A hit refreshes the entry file's mtime, which is the recency the LRU
        eviction in :meth:`put` orders by.
        """
        path = self._locate(key)[1]
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            value = self._decode_entry(key, blob)
        except Exception:
            # Truncated/corrupted/stale entries are evicted, never raised.
            _unlink(path)
            self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return value

    def put(self, key: str, value: Any, probation: bool = False) -> None:
        """Persist one artifact atomically, then keep the store to its budget.

        Values it cannot pickle, and writes the file system refuses (a full
        or read-only disk), are skipped silently: the disk tier is an
        accelerator, not a system of record, so such a value simply stays
        compute-on-demand.  ``probation`` is the memory tier's admission
        hint, and writes the same file.
        """
        try:
            blob = self._encode_entry(key, value)
        except Exception:
            return
        digest, path = self._locate(key)
        try:
            self._atomic_write(path, blob)
        except OSError:
            return
        if self._approx_bytes is None:
            # Not scanned yet: scan with odds len(blob) over a tenth of the
            # budget, drawn from the key's digest.  Across all writers that
            # is the estimate's rate below, one scan per tenth of the budget
            # written, and no process's first put walks the store.  The draw
            # follows from the key alone, never from the hash seed.
            draw = int(digest[:8], 16) / 2**32
            if draw * self.max_bytes * (1 - self.BUDGET_LOW_WATER) < len(blob):
                self._enforce_budget(keep=path)
            return
        # Overwrites of an existing key are counted as growth here; the next
        # budget scan resynchronises the estimate, so errors only make the
        # (O(entries)) scan happen a little early, never late.
        self._approx_bytes += len(blob)
        if self._approx_bytes > self.max_bytes:
            self._enforce_budget(keep=path)

    def clear(self) -> None:
        """Remove every entry, universe snapshot and temp file (counters are
        kept).

        A ``*.tmp`` file is a write in flight, or one whose writer was killed
        between ``mkstemp`` and ``os.replace``: no scan counts it, so nothing
        else would ever remove it.  A writer whose temp file goes loses that
        one put, which :meth:`put` tolerates.
        """
        for directory in [*self._stage_dirs(), self._universe_dir]:
            for entry in _files(directory, (".pkl", ".tmp")):
                _unlink(entry.path)
        self._universes.clear()
        self._universe_uids.clear()
        self._approx_bytes = 0

    def __len__(self) -> int:
        return len(self._scan_entries())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._locate(key)[1])

    def stats(self) -> Dict[str, Any]:
        """Directory-scan statistics plus this process's hit/miss counters."""
        stages: Dict[str, int] = {}
        total = 0
        for _, size, path in self._scan_entries():
            stage = os.path.basename(os.path.dirname(path))
            stages[stage] = stages.get(stage, 0) + 1
            total += size
        return {
            "path": self._root,
            "version": FORMAT_VERSION,
            "entries": sum(stages.values()),
            "bytes": total,
            "max_bytes": self.max_bytes,
            "universes": len(self._universe_files()),
            "hits": self.hits,
            "misses": self.misses,
            "stages": dict(sorted(stages.items())),
        }

    # -------------------------------------------------------------- encoding

    def _encode_entry(self, key: str, value: Any) -> bytes:
        buffer = io.BytesIO()
        refs: Dict[str, FactUniverse] = {}
        table = copyreg.dispatch_table.copy()
        table[FactUniverse] = _universe_reducer(self._uid_for, refs)
        pickler = pickle.Pickler(buffer, protocol=_PICKLE_PROTOCOL)
        pickler.dispatch_table = table
        pickler.dump(value)
        for uid, universe in refs.items():
            self._save_universe(uid, universe)
        return pickle.dumps(
            (_ENTRY_TAG, FORMAT_VERSION, key, buffer.getvalue()),
            protocol=_PICKLE_PROTOCOL,
        )

    def _decode_entry(self, key: str, blob: bytes) -> Any:
        tag, version, stored_key, payload = pickle.loads(blob)
        if tag != _ENTRY_TAG or version != FORMAT_VERSION or stored_key != key:
            raise _CacheMiss(f"stale or foreign entry for {key!r}")
        return _ArtifactUnpickler(io.BytesIO(payload), self._resolve_universe).load()

    # -------------------------------------------------- universe snapshots

    def _uid_for(self, universe: FactUniverse) -> str:
        """The content hash of ``universe``'s fact list (its snapshot id)."""
        cached = self._universe_uids.get(id(universe))
        if cached is not None:
            uid, length = cached
            if self._universes.get(uid) is universe and length == len(universe):
                return uid
        facts = list(universe)
        uid = hashlib.sha256(
            pickle.dumps(facts, protocol=_PICKLE_PROTOCOL)
        ).hexdigest()[:32]
        self._register_universe(uid, universe)
        return uid

    def _register_universe(self, uid: str, universe: FactUniverse) -> None:
        self._universes[uid] = universe
        self._universe_uids[id(universe)] = (uid, len(universe))
        while len(self._universes) > self.UNIVERSE_REGISTRY_SIZE:
            oldest_uid = next(iter(self._universes))
            oldest = self._universes.pop(oldest_uid)
            self._universe_uids.pop(id(oldest), None)

    def _save_universe(self, uid: str, universe: FactUniverse) -> None:
        path = os.path.join(self._universe_dir, uid + ".pkl")
        if os.path.exists(path):
            return  # snapshots are content-addressed, hence immutable
        blob = pickle.dumps(
            (_UNIVERSE_TAG, FORMAT_VERSION, uid, list(universe)),
            protocol=_PICKLE_PROTOCOL,
        )
        self._atomic_write(path, blob)

    def _resolve_universe(self, uid: str) -> FactUniverse:
        """The universe of snapshot ``uid``, read the first time an entry
        references it; an unusable snapshot is evicted."""
        universe = self._universes.get(uid)
        if universe is not None:
            return universe
        path = os.path.join(self._universe_dir, uid + ".pkl")
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as error:
            raise _CacheMiss(f"missing universe snapshot {uid}") from error
        try:
            tag, version, stored_uid, facts = pickle.loads(blob)
            usable = (tag, version, stored_uid) == (
                _UNIVERSE_TAG, FORMAT_VERSION, uid
            )
        except Exception:
            usable = False
        if not usable:
            # Evicted like an entry, so the next put that needs it rewrites it.
            _unlink(path)
            raise _CacheMiss(f"unreadable or stale universe snapshot {uid}")
        universe = FactUniverse(facts)
        self._register_universe(uid, universe)
        return universe

    # ----------------------------------------------------------- filesystem

    def _locate(self, key: str) -> Tuple[str, str]:
        """``key``'s sha256 hex digest and the path of its entry file,
        ``<root>/<stage>/<digest>.pkl``.

        The stage is the part of the key before its first ``:`` (``misc``
        when that is not an identifier).
        """
        stage = key.partition(":")[0]
        if not stage.isidentifier():
            stage = "misc"
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return digest, os.path.join(self._root, stage, digest + ".pkl")

    def _entry_path(self, key: str) -> Path:
        """The entry file of ``key``, for callers that inspect the store."""
        return Path(self._locate(key)[1])

    def _stage_dirs(self) -> List[str]:
        """The path of every stage directory (``universes`` is none)."""
        try:
            with os.scandir(self._root) as children:
                return [
                    child.path
                    for child in children
                    if child.name != "universes" and child.is_dir()
                ]
        except OSError:
            return []  # the root vanished or is unreadable: nothing to count

    def _scan_entries(self) -> List[Tuple[float, int, str]]:
        """``(mtime, size, path)`` of every entry file.

        The one walk over the store: one ``stat`` per entry file, in
        directory order.
        """
        found: List[Tuple[float, int, str]] = []
        for directory in self._stage_dirs():
            for entry in _files(directory, ".pkl"):
                try:
                    stat = entry.stat()
                except OSError:
                    continue  # evicted by a concurrent process mid-scan
                found.append((stat.st_mtime, stat.st_size, entry.path))
        return found

    def _universe_files(self) -> List[str]:
        return [entry.path for entry in _files(self._universe_dir, ".pkl")]

    def _atomic_write(self, path: str, blob: bytes) -> None:
        directory, name = os.path.split(path)
        prefix = os.path.splitext(name)[0] + "."
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
        except FileNotFoundError:
            # The directory's first file, or the directory was removed under
            # the store: a put creates it only when it is missing.
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            _unlink(tmp)
            raise

    def _enforce_budget(self, keep: str) -> None:
        """Rescan the entry files; past the budget, evict the least recent.

        Eviction runs down to :attr:`BUDGET_LOW_WATER` of ``max_bytes`` and
        never removes ``keep`` (the entry just written).
        """
        files = self._scan_entries()
        total = sum(size for _, size, _ in files)
        if total > self.max_bytes:
            low_water = self.max_bytes * self.BUDGET_LOW_WATER
            files.sort()
            for _, size, path in files:
                if total <= low_water:
                    break
                if path != keep and _unlink(path):
                    total -= size
        self._approx_bytes = total


def _files(directory: str, suffixes: "str | Tuple[str, ...]") -> List["os.DirEntry[str]"]:
    """The files of ``directory`` whose names end with one of ``suffixes``
    (none when it is missing: no snapshot written yet, or a stage directory
    removed mid-scan)."""
    try:
        with os.scandir(directory) as entries:
            return [entry for entry in entries if entry.name.endswith(suffixes)]
    except OSError:
        return []


def _unlink(path: "str | os.PathLike[str]") -> bool:
    """Remove one file of the store; False when it was already gone."""
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


class TieredArtifactCache:
    """An in-memory front tier over an optional persistent back tier.

    Gets hit the memory tier first, fall through to disk and promote the
    loaded artifact into the memory tier's main queue (so one process pays
    the unpickling cost once per entry); puts write through to both tiers.  ``hits``/``misses``
    count at the composed level: a disk hit is a hit.
    """

    def __init__(
        self,
        memory: Optional[ArtifactCache] = None,
        disk: Optional[DiskArtifactCache] = None,
    ):
        self.memory = memory if memory is not None else ArtifactCache()
        self.disk = disk
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[Any]:
        """The artifact from the nearest tier holding it, promoting disk hits."""
        value = self.memory.get(key)
        if value is None and self.disk is not None:
            value = self.disk.get(key)
            if value is not None:
                self.memory.put(key, value)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: str, value: Any, probation: bool = False) -> None:
        """Write through to both tiers (``probation`` is the memory tier's)."""
        self.memory.put(key, value, probation=probation)
        if self.disk is not None:
            self.disk.put(key, value)

    def clear(self) -> None:
        """Clear both tiers (counters are kept, as in the single tiers)."""
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    def __len__(self) -> int:
        return len(self.memory)

    def __contains__(self, key: str) -> bool:
        if key in self.memory:
            return True
        return self.disk is not None and key in self.disk

    def stats(self) -> Dict[str, Any]:
        """Composed counters plus each tier's own statistics."""
        stats: Dict[str, Any] = {
            "hits": self.hits,
            "misses": self.misses,
            "memory": self.memory.stats(),
        }
        if self.disk is not None:
            stats["disk"] = self.disk.stats()
        return stats


def open_cache(cache_dir: Optional[str] = None) -> Any:
    """The cache a :class:`~repro.workspace.Workspace` opens by default.

    With ``cache_dir`` this is a :class:`TieredArtifactCache` over a
    :class:`DiskArtifactCache` rooted there; without it, a plain in-memory
    :class:`ArtifactCache`.  The CLI, batch pool workers and serve workers
    all open their caches here.
    """
    if cache_dir is None:
        return ArtifactCache()
    return TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
