"""Tests for the persistent artifact store and the two-tier composition."""

import errno
import gc
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro import Workspace, workloads
from repro.cli import main
from repro.contract.matchers import normalize
from repro.dataflow.universe import FactUniverse
from repro.pipeline import (
    STAGE_NAMES,
    AnalysisOptions,
    ArtifactCache,
    DiskArtifactCache,
    Pipeline,
    TieredArtifactCache,
    expand_jobs,
    open_cache,
    run_batch,
)
from repro.pipeline import stages as stages_module
from repro.pipeline.cache import FORMAT_VERSION
from repro.pipeline.render import volatile_pointers

ANALYSIS_STAGE_NAMES = [name for name in STAGE_NAMES if name != "report"]
# A fully cached run never reads the parse: no stage that misses needs it.
WARM_STAGE_NAMES = ANALYSIS_STAGE_NAMES[1:]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _populate(cache_dir, source):
    """One cold run over a fresh tiered cache; returns the cold result."""
    cache = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
    return Pipeline(cache).run(source)


def _fresh_run(cache_dir, source, **kwargs):
    """A run over brand-new tiers (the in-test proxy for a fresh process)."""
    cache = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
    return Pipeline(cache).run(source, **kwargs)


class TestDiskRoundTrip:
    def test_fresh_process_serves_every_stage_from_disk(self, cache_dir):
        source = workloads.challenge_f_program()
        cold = _populate(cache_dir, source)
        warm = _fresh_run(cache_dir, source)
        assert not cold.cached_stages
        assert warm.cached_stages == WARM_STAGE_NAMES
        assert warm.result.graph.to_adjacency() == cold.result.graph.to_adjacency()
        assert warm.result.summary() == cold.result.summary()

    def test_reloaded_artifacts_share_one_universe(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        warm = _fresh_run(cache_dir, source)
        result = warm.result
        assert result.rm_local.universe is result.universe
        assert result.rm_global.universe is result.universe
        assert result.graph._universe is result.universe

    def test_differing_options_key_differently_on_disk(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        basic = _fresh_run(cache_dir, source, options=AnalysisOptions(improved=False))
        assert basic.computed_stages == ["closure", "flow_graph"]
        assert basic.cached_stages == WARM_STAGE_NAMES[:-2]

    def test_subprocess_is_served_from_the_populated_dir(self, cache_dir, tmp_path):
        # The real acceptance shape: an actually-fresh interpreter with a
        # populated --cache-dir serves every stage but the parse from disk.
        design = tmp_path / "design.vhd"
        design.write_text(workloads.challenge_f_program(), encoding="utf-8")
        argv = [
            sys.executable, "-m", "repro.cli", "analyze", str(design),
            "--json", "--cache-dir", cache_dir,
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        cold = subprocess.run(
            argv, capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}
        )
        assert cold.returncode == 0, cold.stderr
        assert json.loads(cold.stdout)["cached_stages"] == []
        warm = subprocess.run(
            argv, capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}
        )
        assert warm.returncode == 0, warm.stderr
        warm_doc = json.loads(warm.stdout)
        assert warm_doc["cached_stages"] == WARM_STAGE_NAMES
        cold_doc = json.loads(cold.stdout)
        for document in (cold_doc, warm_doc):
            document.pop("timings")
            document.pop("cached_stages")
        assert warm_doc == cold_doc


class TestCorruptionIsEvictedNotRaised:
    def _entry_files(self, cache_dir):
        return [
            path
            for path in sorted(Path(cache_dir).glob("*/*.pkl"))
            if path.parent.name != "universes"
        ]

    def test_truncated_entries_are_evicted(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        for path in self._entry_files(cache_dir):
            path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        disk = DiskArtifactCache(cache_dir)
        warm = Pipeline(TieredArtifactCache(ArtifactCache(), disk)).run(source)
        assert not warm.cached_stages  # everything recomputed...
        assert warm.result is not None  # ...and the run still succeeds
        assert disk.misses > 0 and disk.hits == 0

    def test_garbage_entries_are_evicted(self, cache_dir):
        disk = DiskArtifactCache(cache_dir)
        disk.put("parse:key", {"payload": 1})
        path = disk._entry_path("parse:key")
        path.write_bytes(b"this is not a pickle")
        assert disk.get("parse:key") is None  # miss, not a crash...
        assert not path.exists()  # ...and the poisoned file is evicted
        assert disk.get("parse:unknown") is None  # absent key: plain miss
        assert disk.misses == 2 and disk.hits == 0

    def test_wrong_version_tag_is_evicted(self, cache_dir):
        source = workloads.challenge_f_program()
        cold = _populate(cache_dir, source)
        for path in self._entry_files(cache_dir):
            tag, _version, key, lengths, payload = pickle.loads(path.read_bytes())
            path.write_bytes(
                pickle.dumps((tag, FORMAT_VERSION + 1, key, lengths, payload))
            )
        warm = _fresh_run(cache_dir, source)
        assert not warm.cached_stages
        assert warm.result.summary() == cold.result.summary()

    def test_stale_index_version_evicts_the_whole_cache(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        index_path = Path(cache_dir) / "index.json"
        index = json.loads(index_path.read_text(encoding="utf-8"))
        index["version"] = FORMAT_VERSION + 1
        index_path.write_text(json.dumps(index), encoding="utf-8")
        disk = DiskArtifactCache(cache_dir)
        assert len(disk) == 0
        assert json.loads(index_path.read_text())["version"] == FORMAT_VERSION

    def test_corrupt_index_is_rebuilt_and_entries_stay_servable(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        (Path(cache_dir) / "index.json").write_text("{not json", encoding="utf-8")
        warm = _fresh_run(cache_dir, source)
        assert warm.cached_stages == WARM_STAGE_NAMES
        index = json.loads((Path(cache_dir) / "index.json").read_text())
        assert index["version"] == FORMAT_VERSION

    @pytest.mark.parametrize(
        "torn_entries",
        [42, ["a", "b"], "entries-as-text", {"some/entry.pkl": "not-a-dict"}],
        ids=["int", "list", "string", "non-dict-values"],
    )
    def test_torn_index_shapes_are_rebuilt_not_raised(self, cache_dir, torn_entries):
        # A concurrently-rewritten index can be valid JSON of the wrong
        # shape; that must behave exactly like unparsable bytes: rebuild
        # from the entry files, keep every entry servable.
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        index_path = Path(cache_dir) / "index.json"
        index_path.write_text(
            json.dumps({"version": FORMAT_VERSION, "entries": torn_entries}),
            encoding="utf-8",
        )
        warm = _fresh_run(cache_dir, source)
        assert warm.cached_stages == WARM_STAGE_NAMES
        rebuilt = json.loads(index_path.read_text(encoding="utf-8"))
        assert isinstance(rebuilt["entries"], dict)
        assert all(isinstance(entry, dict) for entry in rebuilt["entries"].values())

    def test_torn_index_still_accepts_new_puts(self, cache_dir):
        _populate(cache_dir, workloads.challenge_f_program())
        index_path = Path(cache_dir) / "index.json"
        index_path.write_text(
            json.dumps({"version": FORMAT_VERSION, "entries": 7}), encoding="utf-8"
        )
        # The store must come up writable, not just readable.
        run = _fresh_run(cache_dir, workloads.producer_consumer_program())
        assert run.result.summary()

    def test_missing_universe_snapshot_is_a_miss(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        for path in (Path(cache_dir) / "universes").glob("*.pkl"):
            path.unlink()
        warm = _fresh_run(cache_dir, source)
        # Frontend stages still hit.  A universe-bound entry misses until a
        # recompute's put registers its deleted snapshot again: local's put
        # serves specialize, closure's put serves flow_graph.
        assert warm.cached_stages == [
            "elaborate", "cfg", "active", "reaching", "specialize", "flow_graph",
        ]
        assert warm.computed_stages == ["local", "closure"]
        assert warm.result.rm_local.universe is warm.result.universe


class TestEvictionAndStats:
    def test_size_budget_evicts_least_recently_used(self, tmp_path):
        disk = DiskArtifactCache(tmp_path / "small", max_bytes=2048)
        for index in range(64):
            disk.put(f"parse:{index}", "x" * 128)
        stats = disk.stats()
        assert 0 < stats["entries"] < 64
        assert stats["bytes"] <= 2048
        # the most recent key survived
        assert "parse:63" in disk

    def test_stats_shape(self, cache_dir):
        _populate(cache_dir, workloads.challenge_f_program())
        disk = DiskArtifactCache(cache_dir)
        stats = disk.stats()
        assert stats["entries"] == len(ANALYSIS_STAGE_NAMES)
        assert stats["version"] == FORMAT_VERSION
        assert set(stats["stages"]) == set(ANALYSIS_STAGE_NAMES)
        assert stats["bytes"] > 0 and stats["universes"] >= 1

    def test_clear_empties_the_store(self, cache_dir):
        _populate(cache_dir, workloads.challenge_f_program())
        disk = DiskArtifactCache(cache_dir)
        disk.clear()
        assert len(disk) == 0
        assert disk.stats()["universes"] == 0
        warm = _fresh_run(cache_dir, workloads.challenge_f_program())
        assert not warm.cached_stages

    def test_unpicklable_values_are_skipped_silently(self, tmp_path):
        disk = DiskArtifactCache(tmp_path / "c")
        disk.put("parse:k", lambda: None)  # lambdas don't pickle
        assert disk.get("parse:k") is None
        assert len(disk) == 0


def _entry_bytes(root):
    return sum(
        path.stat().st_size
        for path in Path(root).glob("*/*.pkl")
        if path.parent.name != "universes"
    )


class TestOperationCosts:
    """What each operation touches, pinned as counts rather than timings."""

    def test_open_and_get_neither_list_nor_stat_the_store(self, cache_dir, monkeypatch):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        listed, statted = [], []

        def counting(record, function):
            def wrapper(*args, **kwargs):
                record.append(args[0] if args else None)
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(os, "scandir", counting(listed, os.scandir))
        monkeypatch.setattr(Path, "iterdir", counting(listed, Path.iterdir))
        monkeypatch.setattr(Path, "glob", counting(listed, Path.glob))
        monkeypatch.setattr(os, "stat", counting(statted, os.stat))
        warm = _fresh_run(cache_dir, source)
        assert warm.cached_stages == WARM_STAGE_NAMES
        assert listed == []
        assert [path for path in statted if str(path).endswith(".pkl")] == []

    def test_puts_past_the_budget_rescan_once_per_tenth_of_it(self, tmp_path, monkeypatch):
        budget = 1 << 20
        disk = DiskArtifactCache(tmp_path / "c", max_bytes=budget)
        value = "x" * 900  # ~1 KiB entry files
        for index in range(1100):  # fill the store past its budget
            disk.put(f"parse:fill{index}", value)
        scans = []
        walk = disk._scan_entries
        monkeypatch.setattr(disk, "_scan_entries", lambda: scans.append(1) or walk())
        for index in range(1000):
            disk.put(f"parse:{index}", value)
            if index % 100 == 99:
                assert _entry_bytes(tmp_path / "c") <= budget
        assert 1 <= len(scans) <= 11
        assert "parse:999" in disk


class _Artefact:
    """A weak-referenceable artefact that references a universe."""

    def __init__(self, universe, rows):
        self.universe = universe
        self.rows = rows


class TestUniverseReferences:
    def test_a_universe_referenced_many_times_is_hashed_once(self, tmp_path, monkeypatch):
        disk = DiskArtifactCache(tmp_path / "c")
        universe = FactUniverse(["a", "b", "c"])
        hashed = []
        uid_for = disk._uid_for
        monkeypatch.setattr(
            disk, "_uid_for", lambda u: hashed.append(u) or uid_for(u)
        )
        rows = [_Artefact(universe, [index]) for index in range(20)]
        disk.put("local:k", {"owner": universe, "rows": rows})
        assert hashed == [universe]
        uid = uid_for(universe)
        loaded = disk.get("local:k")
        assert loaded["owner"] is universe is disk._universes[uid]
        assert all(row.universe is universe for row in loaded["rows"])
        fresh = DiskArtifactCache(tmp_path / "c")
        reloaded = fresh.get("local:k")
        assert reloaded["owner"] is fresh._universes[uid]
        assert all(row.universe is reloaded["owner"] for row in reloaded["rows"])
        assert list(reloaded["owner"]) == ["a", "b", "c"]

    def test_put_and_get_hold_no_reference_to_the_artefact(self, tmp_path):
        # A pickler or unpickler whose own tables lead back to it is a cycle
        # that keeps its memo, i.e. every object of the entry, alive until a
        # full collection.
        disk = DiskArtifactCache(tmp_path / "c")
        artefact = _Artefact(FactUniverse(["a", "b"]), list(range(100)))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            stored = weakref.ref(artefact)
            disk.put("local:k", artefact)
            del artefact
            assert stored() is None
            loaded = disk.get("local:k")
            assert loaded is not None and loaded.rows == list(range(100))
            decoded = weakref.ref(loaded)
            del loaded
            assert decoded() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_adoption_aliases_prefixes_and_keeps_divergent_universes_apart(self, tmp_path):
        disk = DiskArtifactCache(tmp_path / "c")
        first = disk._adopt_universe("u1", ["a", "b", "c"])
        other = disk._adopt_universe("u2", ["x", "y"])
        assert disk._adopt_universe("u3", ["a", "b", "c", "d"]) is first
        assert list(first) == ["a", "b", "c", "d"]  # extended in place
        assert disk._adopt_universe("u4", ["x"]) is other  # a restriction
        divergent = disk._adopt_universe("u5", ["a", "z"])
        assert divergent is not first and list(divergent) == ["a", "z"]


class TestWriteFailures:
    def test_a_full_disk_degrades_to_compute_only(
        self, tmp_path, cache_dir, monkeypatch, capsys
    ):
        design = tmp_path / "design.vhd"
        design.write_text(workloads.challenge_f_program(), encoding="utf-8")
        assert main(["analyze", str(design), "--json", "--no-cache"]) == 0
        uncached = json.loads(capsys.readouterr().out)

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", no_space)
        assert main(["analyze", str(design), "--json", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        masks = volatile_pointers("analyze")
        assert normalize(json.loads(captured.out), masks) == normalize(uncached, masks)
        assert list(Path(cache_dir).rglob("*.tmp")) == []
        assert list(Path(cache_dir).rglob("*.pkl")) == []


class TestTieredCache:
    def test_disk_hits_promote_into_memory(self, cache_dir):
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        tier = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
        Pipeline(tier).run(source)
        assert tier.disk.hits == len(WARM_STAGE_NAMES)
        again = Pipeline(tier).run(source)
        assert again.cached_stages == WARM_STAGE_NAMES
        # second run is served by the memory tier alone
        assert tier.disk.hits == len(WARM_STAGE_NAMES)
        assert tier.memory.hits == len(WARM_STAGE_NAMES)

    def test_open_cache_factory(self, cache_dir):
        assert isinstance(open_cache(None), ArtifactCache)
        tiered = open_cache(cache_dir)
        assert isinstance(tiered, TieredArtifactCache)
        assert tiered.disk is not None and Path(cache_dir).is_dir()

    def test_tier_stats_compose(self, cache_dir):
        tier = open_cache(cache_dir)
        tier.put("parse:k", 1)
        assert tier.get("parse:k") == 1
        assert tier.get("parse:missing") is None
        stats = tier.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["memory"]["entries"] == 1
        assert stats["disk"]["entries"] == 1


def _writer_process(cache_dir, worker, results):
    """Hammer one shared cache dir with interleaved puts and gets."""
    try:
        disk = DiskArtifactCache(cache_dir)
        for index in range(40):
            disk.put(f"parse:w{worker}:{index}", {"worker": worker, "index": index})
            read_back = disk.get(f"parse:w{worker}:{index}")
            assert read_back == {"worker": worker, "index": index}
        results.put(None)
    except BaseException as error:  # pragma: no cover - failure reporting
        results.put(repr(error))


class TestConcurrentWriters:
    def test_two_processes_share_one_dir_without_corruption(self, cache_dir):
        context = multiprocessing.get_context("spawn")
        results = context.Queue()
        workers = [
            context.Process(target=_writer_process, args=(cache_dir, n, results))
            for n in range(2)
        ]
        for process in workers:
            process.start()
        outcomes = [results.get(timeout=120) for _ in workers]
        for process in workers:
            process.join(timeout=120)
        assert outcomes == [None, None]
        # the index is intact JSON with the current version...
        index = json.loads((Path(cache_dir) / "index.json").read_text())
        assert index["version"] == FORMAT_VERSION
        # ...and every surviving entry from both writers is servable
        disk = DiskArtifactCache(cache_dir)
        served = 0
        for worker in range(2):
            for index_number in range(40):
                value = disk.get(f"parse:w{worker}:{index_number}")
                if value is not None:
                    assert value == {"worker": worker, "index": index_number}
                    served += 1
        assert served == 80


class TestBatchDiskTier:
    def test_parallel_workers_share_the_disk_tier(self, tmp_path):
        path = tmp_path / "multi.vhd"
        path.write_text(workloads.multi_entity_program(3, 2, 6), encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        workspace = Workspace(cache_dir=cache_dir)
        jobs = expand_jobs([str(path)], workspace, all_entities=True)
        cold = run_batch(jobs, workspace, AnalysisOptions(), parallel=False)
        assert cold.ok
        warm = run_batch(
            jobs, Workspace(cache_dir=cache_dir), AnalysisOptions(),
            parallel=True, max_workers=2,
        )
        assert warm.ok
        for item in warm.items:
            assert item.data["cached_stages"] == WARM_STAGE_NAMES
        assert [item.text for item in warm.items] == [
            item.text for item in cold.items
        ]

    def test_warm_all_entities_batch_parses_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "multi.vhd"
        path.write_text(workloads.multi_entity_program(3, 2, 6), encoding="utf-8")
        cache_dir = str(tmp_path / "cache")

        def batch():
            return Workspace(cache_dir=cache_dir).batch(
                [str(path)], all_entities=True, parallel=False
            )

        cold = batch()
        parses, puts = [], []

        def counting(record, function):
            def wrapper(*args, **kwargs):
                record.append(args)
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            stages_module,
            "parse_program",
            counting(parses, stages_module.parse_program),
        )
        monkeypatch.setattr(
            DiskArtifactCache, "put", counting(puts, DiskArtifactCache.put)
        )
        warm = batch()
        assert parses == [] and puts == []
        masks = volatile_pointers("batch")
        assert normalize(warm.to_json_dict(), masks) == normalize(
            cold.to_json_dict(), masks
        )
