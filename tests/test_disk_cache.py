"""Tests for the persistent artifact store and the two-tier composition."""

import errno
import gc
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import random
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
from repro.vhdl.ast import iter_statements

# A fully cached run reads its goals and nothing else: the analysis, or for
# an analyze document the rendered graph member and the inventory.
WARM_STAGE_NAMES = ["flow_graph", "inventory"]
ANALYZE_WARM_STAGE_NAMES = ["graph_json", "inventory"]
#: The stages with an entry of their own (the parse has one per design unit).
CACHED_STAGE_NAMES = [
    "elaborate",
    "reaching",
    "specialize",
    "closure",
    "flow_graph",
    "inventory",
]


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


def _labels(design):
    """Every statement label of ``design``, process by process."""
    return [
        statement.label
        for process in design.processes
        for statement in iter_statements(process.body)
    ]


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

    def test_a_disk_warm_design_carries_the_cold_labels(self, cache_dir):
        # Building the CFG labels the design's statements in place; the
        # front stores the design only after that, so a design read back
        # from disk carries the labels a cold run's design has.
        source = workloads.producer_consumer_program()
        cold = _populate(cache_dir, source)
        warm = _fresh_run(cache_dir, source)
        assert warm.cached_stages == WARM_STAGE_NAMES
        assert _labels(warm.result.design) == _labels(cold.result.design)
        assert _labels(cold.result.design) == [1, 2, 3, 6, 7]

    def test_differing_options_key_differently_on_disk(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        basic = _fresh_run(cache_dir, source, options=AnalysisOptions(improved=False))
        assert basic.computed_stages == ["closure", "flow_graph", "inventory"]
        assert basic.cached_stages == ["elaborate", "specialize"]

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
        assert warm_doc["cached_stages"] == ANALYZE_WARM_STAGE_NAMES
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

    def _universe_files(self, cache_dir):
        return sorted((Path(cache_dir) / "universes").glob("*.pkl"))

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
            tag, _version, key, payload = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps((tag, FORMAT_VERSION + 1, key, payload)))
        warm = _fresh_run(cache_dir, source)
        assert not warm.cached_stages
        assert warm.result.summary() == cold.result.summary()

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps(42),
            json.dumps({"version": FORMAT_VERSION, "entries": ["a", "b"]}),
            json.dumps({"version": FORMAT_VERSION, "entries": {"x/y.pkl": "z"}}),
            json.dumps({"version": FORMAT_VERSION + 1, "entries": {}}),
        ],
        ids=["unparsable", "int", "list-entries", "non-dict-values", "stale-version"],
    )
    def test_a_stray_index_json_is_ignored(self, cache_dir, text):
        # Older builds kept an index.json next to the entries; whatever it
        # holds, the store is its files: entries stay servable and writable.
        source = workloads.challenge_f_program()
        _populate(cache_dir, source)
        index_path = Path(cache_dir) / "index.json"
        index_path.write_text(text, encoding="utf-8")
        assert _fresh_run(cache_dir, source).cached_stages == WARM_STAGE_NAMES
        other = workloads.producer_consumer_program()
        assert _fresh_run(cache_dir, other).cached_stages == []
        assert _fresh_run(cache_dir, other).cached_stages == WARM_STAGE_NAMES
        # Per source: one entry per cached stage, one parse entry and one
        # outline per design unit (an entity and its architecture), and the
        # reach record.
        assert DiskArtifactCache(cache_dir).stats()["entries"] == 2 * (
            len(CACHED_STAGE_NAMES) + 2 + 2 + 1
        )
        assert index_path.read_text(encoding="utf-8") == text

    def test_missing_universe_snapshot_is_a_miss(self, cache_dir):
        source = workloads.producer_consumer_program()
        _populate(cache_dir, source)
        for path in (Path(cache_dir) / "universes").glob("*.pkl"):
            path.unlink()
        warm = _fresh_run(cache_dir, source)
        # Entries that reference no universe still hit.  The goal and then
        # the front miss and are evicted, so the run parses and recomputes
        # its front, whose put writes the deleted snapshot again: the entries
        # looked up after that put (RD†) hit in the recomputed universe.
        assert warm.cached_stages == ["specialize", "inventory"]
        assert warm.computed_stages == ["parse", "elaborate", "closure", "flow_graph"]
        assert warm.result.rm_local.universe is warm.result.universe

    def test_torn_universe_snapshots_are_evicted_and_rewritten(self, cache_dir):
        source = workloads.producer_consumer_program()
        cold = _populate(cache_dir, source)
        for path in self._universe_files(cache_dir):
            path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 3])
        torn = _fresh_run(cache_dir, source)
        # Only the stages whose entries are looked up before the front's
        # recompute writes the snapshot again recompute (and the parse the
        # front needs)...
        assert torn.computed_stages == ["parse", "elaborate", "closure", "flow_graph"]
        assert torn.result.summary() == cold.result.summary()
        # ...and their puts write the evicted snapshots again.
        assert _fresh_run(cache_dir, source).cached_stages == WARM_STAGE_NAMES

    def test_a_format_bump_never_serves_a_stale_file(self, cache_dir):
        source = workloads.producer_consumer_program()
        cold = _populate(cache_dir, source)
        for path in self._entry_files(cache_dir):
            tag, _version, key, payload = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps((tag, FORMAT_VERSION + 1, key, payload)))
        for path in self._universe_files(cache_dir):
            tag, _version, uid, facts = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps((tag, FORMAT_VERSION + 1, uid, facts)))
        runs = [_fresh_run(cache_dir, source) for _ in range(3)]
        for run in runs:
            assert run.result.summary() == cold.result.summary()
            assert run.result.graph.to_adjacency() == cold.result.graph.to_adjacency()
        # Stale entries are evicted when read; a fresh entry that references
        # a stale snapshot evicts the snapshot, and the recompute re-saves it.
        assert runs[0].cached_stages == []
        assert runs[1].computed_stages == ["parse", "elaborate", "closure", "flow_graph"]
        assert runs[2].cached_stages == WARM_STAGE_NAMES
        for path in self._entry_files(cache_dir) + self._universe_files(cache_dir):
            assert pickle.loads(path.read_bytes())[1] == FORMAT_VERSION


#: Recomputes the closure on a ``specialize`` artefact read back from disk,
#: then checks that the recompute rebuilt the cold run's universe: same
#: facts in the same order, so its puts reference the cold snapshot.
_RECOMPUTE_ON_READ_BACK = """
import shutil, sys
from pathlib import Path
from repro import workloads
from repro.pipeline import Pipeline, open_cache

cache_dir = Path(sys.argv[1])
source = workloads.producer_consumer_program()
cold = Pipeline(open_cache(str(cache_dir))).run(source)
for stage in ("closure", "flow_graph"):
    shutil.rmtree(cache_dir / stage)
snapshots = sorted((cache_dir / "universes").iterdir())
warm = Pipeline(open_cache(str(cache_dir))).run(source)
assert warm.computed_stages == ["closure", "flow_graph"], warm.computed_stages
assert warm.cached_stages == ["elaborate", "specialize", "inventory"]
assert list(warm.result.universe) == list(cold.result.universe)
assert sorted((cache_dir / "universes").iterdir()) == snapshots
"""


class TestRecomputeOnReadBackArtefacts:
    @pytest.mark.parametrize("seed", ["3", "14"])
    def test_a_recompute_rebuilds_the_cold_universe(self, tmp_path, seed):
        # A frozenset of RD† can iterate in another order after a pickle
        # round trip under some hash seeds; the closure's n◦ seeds must not
        # intern in that order.
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", _RECOMPUTE_ON_READ_BACK, str(tmp_path / "c")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert done.returncode == 0, done.stderr


#: A flat and a linked workload, each analysed with and without Table 9.
FINAL_UNIVERSE_CASES = [
    (workload, improved)
    for workload in ("producer_consumer_program", "hierarchical_mux_program")
    for improved in (True, False)
]

#: A warm run in a fresh process: prints the fact list each bitset artefact
#: decodes through.
_WARM_FACTS = """
import json, sys
from repro import workloads
from repro.pipeline import AnalysisOptions, Pipeline, open_cache

source = getattr(workloads, sys.argv[2])()
options = AnalysisOptions(improved=sys.argv[3] == "True")
warm = Pipeline(open_cache(sys.argv[1])).run(source, options)
assert warm.computed_stages == [], warm.computed_stages
fields = ("rm_local", "rm_global", "graph")
print(json.dumps({name: list(getattr(warm.result, name).universe) for name in fields}))
"""


@pytest.mark.parametrize("workload,improved", FINAL_UNIVERSE_CASES)
class TestFinalUniverse:
    """Each front makes its universe final: no later stage interns."""

    def test_the_front_universe_holds_every_fact_of_the_run(self, workload, improved):
        source = getattr(workloads, workload)()
        front = "place" if workload.startswith("hierarchical") else "elaborate"
        options = AnalysisOptions(improved=improved)
        context = Pipeline().run(source, options, goals=(front,)).artifacts
        universe = context.rm_local.universe
        facts = list(universe)
        assert context.artifact("graph").universe is universe
        assert list(universe) == facts
        assert context.artifact("kemmerer").graph.universe is universe
        assert list(universe) == facts

    def test_a_cold_analysis_writes_one_snapshot(self, tmp_path, workload, improved):
        cache_dir = tmp_path / "cache"
        source = getattr(workloads, workload)()
        options = AnalysisOptions(improved=improved)
        Pipeline(open_cache(str(cache_dir))).run(source, options)
        assert len(list((cache_dir / "universes").glob("*.pkl"))) == 1

    def test_a_fresh_process_decodes_the_cold_facts(self, tmp_path, workload, improved):
        cache_dir = str(tmp_path / "cache")
        source = getattr(workloads, workload)()
        options = AnalysisOptions(improved=improved)
        cold = Pipeline(open_cache(cache_dir)).run(source, options).result
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", _WARM_FACTS, cache_dir, workload, str(improved)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        assert done.returncode == 0, done.stderr
        facts = list(cold.rm_local.universe)
        assert json.loads(done.stdout) == {
            "rm_local": facts, "rm_global": facts, "graph": facts
        }


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
        assert stats["entries"] == len(CACHED_STAGE_NAMES) + 2 + 2 + 1
        assert stats["version"] == FORMAT_VERSION
        assert set(stats["stages"]) == {"parse", "unit", "reach", *CACHED_STAGE_NAMES}
        # One parse entry and one outline per design unit (the entity and
        # its architecture), and one reach record.
        assert stats["stages"]["parse"] == stats["stages"]["unit"] == 2
        assert stats["stages"]["reach"] == 1
        assert stats["bytes"] > 0 and stats["universes"] >= 1

    def test_clear_empties_the_store(self, cache_dir):
        _populate(cache_dir, workloads.challenge_f_program())
        disk = DiskArtifactCache(cache_dir)
        disk.clear()
        assert len(disk) == 0
        assert disk.stats()["universes"] == 0
        warm = _fresh_run(cache_dir, workloads.challenge_f_program())
        assert not warm.cached_stages

    def test_clear_removes_orphaned_temp_files(self, cache_dir):
        # A writer killed between mkstemp and os.replace leaves a temp file
        # that no scan counts; clear is the one operation that reclaims it.
        _populate(cache_dir, workloads.challenge_f_program())
        disk = DiskArtifactCache(cache_dir)
        orphans = [
            Path(cache_dir) / "parse" / f"{'0' * 64}.k2j4x9_q.tmp",
            Path(cache_dir) / "universes" / f"{'1' * 32}.a8w3e1zz.tmp",
        ]
        for orphan in orphans:
            orphan.write_bytes(b"x" * 5000)
        disk.clear()
        assert [orphan for orphan in orphans if orphan.exists()] == []
        assert list(Path(cache_dir).rglob("*.*")) == []
        assert len(disk) == 0

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

    def test_open_reads_no_file(self, cache_dir, monkeypatch):
        _populate(cache_dir, workloads.challenge_f_program())
        reads = []

        def counting(function):
            def wrapper(*args, **kwargs):
                reads.append(args[0] if args else None)
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Path, "read_bytes", counting(Path.read_bytes))
        monkeypatch.setattr(Path, "read_text", counting(Path.read_text))
        monkeypatch.setattr(io, "open", counting(io.open))
        DiskArtifactCache(cache_dir)
        open_cache(cache_dir)
        assert reads == []

    def test_puts_leave_only_stage_directories_and_snapshots(self, tmp_path):
        root = tmp_path / "c"
        disk = DiskArtifactCache(root)
        universe = FactUniverse(["a"])
        for index in range(200):
            if index % 2:
                universe.intern(f"fact{index}")  # a new snapshot per put
                disk.put(f"local:{index}", _Artefact(universe, [index]))
            else:
                disk.put(f"parse:{index}", {"index": index})
        children = sorted(root.iterdir())
        assert [child.name for child in children] == ["local", "parse", "universes"]
        assert all(child.is_dir() for child in children)

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


def _draw(key):
    """The lottery draw of ``key``: the first 32 bits of the sha256 digest that
    names its entry file, over 2**32."""
    return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:8], 16) / 2**32


class TestBudgetLottery:
    """Before its first scan, a put scans with odds of its size over a tenth
    of the budget, drawn from its key: no walk of the store per process."""

    def _count_scans(self, monkeypatch, check=None):
        scans = []
        enforce = DiskArtifactCache._enforce_budget

        def counting(store, keep):
            enforce(store, keep)
            scans.append(keep)
            if check is not None:
                check(store)

        monkeypatch.setattr(DiskArtifactCache, "_enforce_budget", counting)
        return scans

    def test_a_cold_put_that_loses_the_draw_neither_lists_nor_stats_the_store(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "c"
        filler = DiskArtifactCache(root)
        for index in range(2000):
            filler.put(f"parse:fill{index}", f"entry {index}")
        assert len(filler) == 2000
        key = "parse:cold"
        disk = DiskArtifactCache(root)
        # The key's draw puts its threshold above a megabyte, so a put of
        # ~100 bytes loses it.
        assert _draw(key) * disk.max_bytes * (1 - disk.BUDGET_LOW_WATER) > 1 << 20
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
        disk.put(key, {"payload": 1})
        assert listed == []
        assert [path for path in statted if str(path).endswith(".pkl")] == []
        monkeypatch.undo()
        assert disk.get(key) == {"payload": 1}
        assert len(disk) == 2001

    def test_a_put_of_a_tenth_of_the_budget_always_scans(self, tmp_path, monkeypatch):
        budget = 64 * 1024
        scans = self._count_scans(monkeypatch)
        keys = [f"parse:large{index}" for index in range(20)]
        # Every draw, the largest included, loses to a tenth of the budget.
        assert max(_draw(key) for key in keys) > 0.9
        for index, key in enumerate(keys):
            disk = DiskArtifactCache(tmp_path / f"c{index}", max_bytes=budget)
            disk.put(key, b"x" * (budget // 10))
        assert len(scans) == len(keys)

    def test_short_lived_writers_scan_once_per_tenth_of_the_budget(
        self, tmp_path, monkeypatch
    ):
        budget = 512 * 1024
        root = tmp_path / "c"

        def within_budget(store):
            assert _entry_bytes(root) <= budget

        scans = self._count_scans(monkeypatch, within_budget)
        sizes = random.Random(1978)
        written = index = 0
        disk = None
        while written < 24 * budget:
            if index % 4 == 0:
                disk = DiskArtifactCache(root, max_bytes=budget)  # a new process
            key = f"parse:writer{index}"
            disk.put(key, b"x" * sizes.randrange(200, 6000))
            written += disk._entry_path(key).stat().st_size
            index += 1
        expected = written / (budget / 10)
        assert expected >= 200
        assert 0.75 * expected <= len(scans) <= 1.25 * expected
        assert _entry_bytes(root) < 1.5 * budget


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

    def test_distinct_snapshots_resolve_to_distinct_universes(self, tmp_path):
        # A snapshot whose facts extend another's is still its own universe:
        # nothing aliases or extends a registered universe.
        written = DiskArtifactCache(tmp_path / "c")
        facts = (["a", "b", "c"], ["a", "b", "c", "d"], ["x", "y"], ["a", "z"])
        for index, universe in enumerate(map(FactUniverse, facts)):
            written.put(f"local:{index}", _Artefact(universe, [index]))
        disk = DiskArtifactCache(tmp_path / "c")
        loaded = [disk.get(f"local:{index}").universe for index in range(4)]
        assert [list(universe) for universe in loaded] == list(facts)
        assert len({id(universe) for universe in loaded}) == 4
        assert disk.get("local:0").universe is loaded[0]


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
        # The goals' entries and the reach record.
        assert tier.disk.hits == len(WARM_STAGE_NAMES) + 1
        again = Pipeline(tier).run(source)
        assert again.cached_stages == WARM_STAGE_NAMES
        # second run is served by the memory tier alone
        assert tier.disk.hits == len(WARM_STAGE_NAMES) + 1
        assert tier.memory.hits == len(WARM_STAGE_NAMES) + 1

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
        # every entry from both writers is servable
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
            assert item.data["cached_stages"] == ANALYZE_WARM_STAGE_NAMES
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
