"""Content-addressed artifact caching for the staged pipeline: two tiers.

Artifacts are keyed by ``stage name + source hash + entity + the analysis
options that stage depends on`` (see ``stage_key`` in
:mod:`repro.pipeline.stages`): the same source text analysed with the same
options hits the same entries no matter which path produced them, and any
change to the source or the options changes the key.

Three stores implement that contract:

:class:`ArtifactCache`
    The in-memory, per-process tier — bounded, FIFO-evicted, with hit/miss
    counters.  A server keeps one per process; the batch driver's pool
    initialiser installs one per pool worker.
:class:`DiskArtifactCache`
    The persistent tier.  Entries live under
    ``<cache-dir>/<stage>/<key-sha256>.pkl`` next to an ``index.json``
    metadata file; writes go to a temporary file in the same directory and
    are published with an atomic ``os.replace``, so concurrent writers (two
    CLI invocations, many batch workers) never expose a torn entry.  Every
    entry embeds a format tag and :data:`FORMAT_VERSION`; entries with a
    stale tag, a truncated pickle or any other decoding problem are *evicted*
    on read, never raised, and a write the file system refuses (a full or
    read-only disk) is skipped, so the value stays compute-on-demand.  Total
    entry size is bounded by ``max_bytes`` with least-recently-used eviction
    (recency = file mtime, refreshed on every hit).
:class:`TieredArtifactCache`
    The composition the CLI, the batch workers and ``vhdl-ifa serve`` run
    on: an in-memory front tier over an optional on-disk back tier.  Gets
    fall through to disk and promote the loaded artifact into memory; puts
    write through to both tiers.

Universe pinning on disk
------------------------

Universe-bound artifacts (the bitset-encoded matrices and graphs from the
``local`` stage onward) are only meaningful together with the
:class:`~repro.dataflow.universe.FactUniverse` that interned their bit
positions, and the pipeline requires every universe-bound artifact of one
run to share one universe *object* (see :mod:`repro.pipeline.stages`).  The
disk tier therefore externalises universes instead of pickling one copy per
entry: a pickled artifact refers to its universe by the content hash of the
universe's fact list, and the facts themselves are written once to
``<cache-dir>/universes/<hash>.pkl`` — an immutable snapshot, because any
growth of the append-only universe changes the hash.  The reference is a
``dispatch_table`` entry of the entry's own pickler that reduces a universe
to ``_universe_ref(<hash>)``, so the C pickler runs no Python callback for
any other object, and memoises the reduction: a universe referenced from
many places is hashed once per entry.  On load, snapshots resolve through a
per-process registry: the first entry to reference a snapshot materialises
the universe, and every later entry whose snapshot is a prefix-compatible
extension (or restriction) of an already-registered universe re-adopts *the
same object*, extending it in place when the snapshot is longer.  That is
what lets a fresh process load ``local``, ``specialize``, ``closure`` and
``flow_graph`` from disk and still hand the pipeline one consistent universe.

What each operation touches
---------------------------

Opening a store reads ``index.json`` and nothing else; a ``get`` reads one
entry file (plus, once per process, the snapshots it references).  Neither
lists the store, so a process that only reads never scans it.  A ``put``
writes one entry file; the first ``put`` of a process also scans the store
once (one ``stat`` per entry) for the running byte estimate.  A ``put`` that
pushes the estimate past ``max_bytes`` rescans and evicts down to a
low-water mark below the budget, so a store at its budget rescans once per
tenth of its budget written, not on every put.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import json
import operator
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dataflow.universe import FactUniverse

#: Bumped whenever the on-disk entry layout changes; entries (and whole cache
#: directories) recorded under another version are evicted, not decoded.
#: Version 2 pickles universe references as ``_universe_ref`` reductions
#: instead of persistent ids.
FORMAT_VERSION = 2

_ENTRY_TAG = "vhdl-ifa-artifact"
_UNIVERSE_TAG = "vhdl-ifa-universe"
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def source_digest(source: str) -> str:
    """The content address of one design source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A bounded in-memory store of pipeline artifacts with hit/miss counters.

    ``max_entries`` bounds memory use under sustained traffic: when the cache
    is full, the least recently *stored* entries are evicted first (plain FIFO
    — artifact recomputation is cheap enough that LRU bookkeeping on every
    get is not worth it).
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._entries: Dict[str, Any] = {}
        self._max_entries = max_entries
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
        return value

    def put(self, key: str, value: Any) -> None:
        """Store one artifact, evicting the oldest entries when full."""
        if key not in self._entries and len(self._entries) >= self._max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for reports and tests."""
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


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
    """Resolves externalised universe references against the registry."""

    def __init__(self, buffer, universes: Dict[str, FactUniverse]):
        super().__init__(buffer)
        # The registry's own lookup, not a method of this unpickler: the memo
        # keeps the resolver, so a bound method would be a reference cycle.
        self._resolve = universes.__getitem__

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == _universe_ref.__name__:
            return self._resolve
        return super().find_class(module, name)


class DiskArtifactCache:
    """A persistent, content-addressed artifact store under one directory.

    See the module docstring for the layout, the universe-snapshot scheme and
    what each operation touches.  The store is safe to share between
    processes: entries are published with atomic renames and are
    self-describing (tag, version, full key), so the ``index.json`` metadata
    is only a convenience for ``stats`` and humans — a lost race on the index
    never loses or corrupts an entry.  All decoding failures (truncation,
    foreign pickles, stale :data:`FORMAT_VERSION`, missing universe
    snapshots) evict the offending entry and count a miss.
    """

    #: Default size budget for entry files (universe snapshots are tiny and
    #: kept outside the budget; ``clear`` removes them too).
    DEFAULT_MAX_BYTES = 256 * 1024 * 1024

    #: Rewrite ``index.json`` at most every this many changes — the index is
    #: non-authoritative metadata, so flushing lazily just means it may lag
    #: the entry files until the next flush (or the next open rebuilds it).
    INDEX_FLUSH_INTERVAL = 64

    #: A put that crosses ``max_bytes`` evicts down to this share of it, so
    #: the next budget scan is a tenth of the budget of writes away.
    BUDGET_LOW_WATER = 0.9

    #: How many adopted universes one store keeps registered (oldest first
    #: out), so a long session's registry stays bounded.
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
        #: snapshot id -> universe object (several ids may alias one object).
        self._universes: Dict[str, FactUniverse] = {}
        #: id(universe) -> (snapshot id, universe length when hashed).
        self._universe_uids: Dict[int, Tuple[str, int]] = {}
        self.root.mkdir(parents=True, exist_ok=True)
        self._universe_dir = self.root / "universes"
        self._index_path = self.root / "index.json"
        self._unflushed = 0
        self._index = self._load_index()
        #: Running estimate of total entry bytes, taken by the first put's
        #: scan (``None`` before it).  Writes by other processes are only
        #: seen at the next budget scan, so the budget is a target, not a
        #: hard ceiling, for concurrently-written stores.
        self._approx_bytes: Optional[int] = None

    # ------------------------------------------------------------ store API

    def get(self, key: str) -> Optional[Any]:
        """The artifact stored for ``key``, or ``None`` (counting hit/miss).

        A hit refreshes the entry file's mtime, which is the recency the LRU
        eviction in :meth:`put` orders by.
        """
        path = self._entry_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = self._decode_entry(key, blob)
        except Exception:
            # Truncated/corrupted/stale entries are evicted, never raised.
            self._remove_entry(str(path.relative_to(self.root)))
            self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Persist one artifact atomically, then enforce the size budget.

        Values it cannot pickle, and writes the file system refuses (a full
        or read-only disk), are skipped silently: the disk tier is an
        accelerator, not a system of record, so such a value simply stays
        compute-on-demand.
        """
        try:
            blob = self._encode_entry(key, value)
        except Exception:
            return
        path = self._entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(path, blob)
        except OSError:
            return
        relpath = str(path.relative_to(self.root))
        self._index["entries"][relpath] = {
            "key": key,
            "stage": path.parent.name,
            "bytes": len(blob),
        }
        self._unflushed += 1
        # The first put of a process scans for the byte estimate; later puts
        # rescan only once the estimate crosses the budget.  Overwrites of an
        # existing key are counted as growth here; the next budget scan
        # resynchronises the estimate, so errors only make the (O(entries))
        # scan happen a little early, never late.
        if self._approx_bytes is not None:
            self._approx_bytes += len(blob)
        if self._approx_bytes is None or self._approx_bytes > self.max_bytes:
            self._enforce_budget(keep=relpath)
        if self._unflushed >= self.INDEX_FLUSH_INTERVAL:
            self._write_index()

    def clear(self) -> None:
        """Remove every entry and universe snapshot (counters are kept)."""
        self._clear_files()
        self._universes.clear()
        self._universe_uids.clear()
        self._index = {"version": FORMAT_VERSION, "entries": {}}
        self._approx_bytes = 0
        self._write_index()

    def __len__(self) -> int:
        return len(self._scan_entries())

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).exists()

    def stats(self) -> Dict[str, Any]:
        """Directory-scan statistics plus this process's hit/miss counters."""
        stages: Dict[str, int] = {}
        total = 0
        for _, size, relpath in self._scan_entries():
            stage = os.path.dirname(relpath)
            stages[stage] = stages.get(stage, 0) + 1
            total += size
        return {
            "path": str(self.root),
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
        universe_lengths = {uid: len(universe) for uid, universe in refs.items()}
        for uid, universe in refs.items():
            self._save_universe(uid, universe)
        return pickle.dumps(
            (_ENTRY_TAG, FORMAT_VERSION, key, universe_lengths, buffer.getvalue()),
            protocol=_PICKLE_PROTOCOL,
        )

    def _decode_entry(self, key: str, blob: bytes) -> Any:
        envelope = pickle.loads(blob)
        tag, version, stored_key, universe_lengths, payload = envelope
        if tag != _ENTRY_TAG or version != FORMAT_VERSION or stored_key != key:
            raise _CacheMiss(f"stale or foreign entry for {key!r}")
        for uid, needed in universe_lengths.items():
            self._require_universe(uid, needed)
        return _ArtifactUnpickler(io.BytesIO(payload), self._universes).load()

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
        path = self._universe_dir / f"{uid}.pkl"
        if path.exists():
            return  # snapshots are content-addressed, hence immutable
        blob = pickle.dumps(
            (_UNIVERSE_TAG, FORMAT_VERSION, uid, list(universe)),
            protocol=_PICKLE_PROTOCOL,
        )
        self._universe_dir.mkdir(exist_ok=True)
        self._atomic_write(path, blob)

    def _require_universe(self, uid: str, needed: int) -> None:
        """Make the snapshot ``uid`` resolvable with at least ``needed`` facts."""
        universe = self._universes.get(uid)
        if universe is None:
            universe = self._adopt_universe(uid, self._read_universe_facts(uid))
        if len(universe) < needed:
            raise _CacheMiss(
                f"universe snapshot {uid} holds {len(universe)} < {needed} facts"
            )

    def _read_universe_facts(self, uid: str) -> List[Any]:
        path = self._universe_dir / f"{uid}.pkl"
        try:
            envelope = pickle.loads(path.read_bytes())
            tag, version, stored_uid, facts = envelope
        except Exception as error:
            raise _CacheMiss(f"unreadable universe snapshot {uid}") from error
        if tag != _UNIVERSE_TAG or version != FORMAT_VERSION or stored_uid != uid:
            raise _CacheMiss(f"stale universe snapshot {uid}")
        return list(facts)

    def _adopt_universe(self, uid: str, facts: List[Any]) -> FactUniverse:
        """Register ``uid``, re-using a prefix-compatible live universe.

        Snapshots taken at different growth points of one append-only
        universe are prefixes of each other, so aliasing them all to one
        object keeps the pipeline's identity discipline across entries: an
        artifact referencing the shorter snapshot decodes identically against
        the longer universe.
        """
        if facts:
            first = facts[0]
            for existing in {id(u): u for u in self._universes.values()}.values():
                if not len(existing) or existing.fact_of(0) != first:
                    continue
                # Compares the common prefix only: map stops at the shorter.
                if all(map(operator.eq, existing, facts)):
                    if len(facts) > len(existing):
                        existing.intern_all(facts[len(existing):])
                    self._universes[uid] = existing
                    return existing
        universe: FactUniverse = FactUniverse(facts)
        self._register_universe(uid, universe)
        return universe

    # ----------------------------------------------------------- filesystem

    def _entry_path(self, key: str) -> Path:
        stage = key.split(":", 1)[0]
        if not stage.isidentifier():
            stage = "misc"
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / stage / f"{digest}.pkl"

    def _scan_entries(self) -> List[Tuple[float, int, str]]:
        """``(mtime, size, path relative to the root)`` of every entry file.

        The one walk over the store: one ``stat`` per entry file, in
        directory order.
        """
        found: List[Tuple[float, int, str]] = []
        try:
            with os.scandir(self.root) as children:
                stages = [
                    child.name
                    for child in children
                    if child.name != "universes" and child.is_dir()
                ]
        except OSError:
            return found  # the root vanished or is unreadable: nothing to count
        for stage in stages:
            prefix = os.path.join(stage, "")
            try:
                with os.scandir(os.path.join(self.root, stage)) as entries:
                    for entry in entries:
                        if not entry.name.endswith(".pkl"):
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue  # evicted by a concurrent process mid-scan
                        found.append((stat.st_mtime, stat.st_size, prefix + entry.name))
            except OSError:
                continue  # a stage directory removed mid-scan
        return found

    def _universe_files(self) -> List[str]:
        try:
            with os.scandir(self._universe_dir) as entries:
                return [entry.path for entry in entries if entry.name.endswith(".pkl")]
        except OSError:
            return []  # no snapshot written yet

    def _atomic_write(self, path: Path, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.stem + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _remove_entry(self, relpath: str) -> bool:
        """Unlink one entry file; the index records it at the next flush."""
        self._index["entries"].pop(relpath, None)
        self._unflushed += 1
        try:
            os.unlink(os.path.join(self.root, relpath))
        except OSError:
            return False
        return True

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
            for _, size, relpath in files:
                if total <= low_water:
                    break
                if relpath != keep and self._remove_entry(relpath):
                    total -= size
            self._write_index()
        self._approx_bytes = total

    def _clear_files(self) -> None:
        for _, _, relpath in self._scan_entries():
            try:
                os.unlink(os.path.join(self.root, relpath))
            except OSError:
                pass
        for path in self._universe_files():
            try:
                os.unlink(path)
            except OSError:
                pass

    # ---------------------------------------------------------------- index

    def _load_index(self) -> Dict[str, Any]:
        try:
            index = json.loads(self._index_path.read_text(encoding="utf-8"))
            if not isinstance(index, dict):
                raise ValueError("index is not an object")
            entries = index.get("entries", {})
            # A torn or concurrently-rewritten index can be valid JSON of
            # the wrong shape; treat it exactly like unparsable bytes.
            if not isinstance(entries, dict) or any(
                not isinstance(entry, dict) for entry in entries.values()
            ):
                raise ValueError("index entries are malformed")
        except (OSError, ValueError, TypeError):
            # Missing or corrupt index: rebuild it from the entry files — the
            # entries themselves are self-describing and stay servable.
            index = self._rebuild_index()
            self._index = index
            self._write_index()
            return index
        if index.get("version") != FORMAT_VERSION:
            # A different format version wrote this cache: evict wholesale.
            self._clear_files()
            index = {"version": FORMAT_VERSION, "entries": {}}
            self._index = index
            self._write_index()
            return index
        index.setdefault("entries", {})
        return index

    def _rebuild_index(self) -> Dict[str, Any]:
        entries: Dict[str, Any] = {}
        for _, size, relpath in self._scan_entries():
            entries[relpath] = {"stage": os.path.dirname(relpath), "bytes": size}
        return {"version": FORMAT_VERSION, "entries": entries}

    def _write_index(self) -> None:
        self._unflushed = 0
        blob = json.dumps(self._index, indent=2, sort_keys=True).encode("utf-8")
        try:
            self._atomic_write(self._index_path, blob)
        except OSError:
            pass  # metadata only; entries remain self-describing


class TieredArtifactCache:
    """An in-memory front tier over an optional persistent back tier.

    Gets hit the memory tier first, fall through to disk and promote the
    loaded artifact into memory (so one process pays the unpickling cost
    once per entry); puts write through to both tiers.  ``hits``/``misses``
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

    def put(self, key: str, value: Any) -> None:
        """Write through to both tiers."""
        self.memory.put(key, value)
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
