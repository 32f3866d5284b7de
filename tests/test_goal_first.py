"""Demand-driven runs: a run reads or runs only what its result needs.

A run resolves the goals it is asked for (``flow_graph`` and ``inventory``,
or ``graph_json`` and ``inventory`` for an analyze document, plus ``lint``,
``report`` or ``kemmerer``, or one stage of a partial run),
and reads or runs any other stage only when a stage that misses the cache
needs its artefact (``Stage.needs``) or a caller reads it from the
``AnalysisResult``, a view over the run.  The front is picked only when a
stage needs one of its artefacts: by a hit on its key (a flat source's
``elaborate``, a linked source's ``place``), and by the parse only when both
miss.  These tests pin what a warm run touches, that the fields loaded on
first access equal the cold artefacts and decode through the cold run's
facts (after every partial eviction too), that dropping a result frees its
run, and that each stage's declared inputs are all it reads.
"""

import gc
import pickle
import time
import weakref

import pytest

from repro import Workspace, workloads
from repro.contract.matchers import normalize
from repro.errors import AnalysisError
from repro.pipeline import (
    STAGES,
    AnalysisOptions,
    ArtifactCache,
    Pipeline,
    analyze_document,
    json_text,
    open_cache,
    source_digest,
    stage_key,
)
from repro.pipeline import stages as stages_module
from repro.pipeline.render import volatile_pointers
from repro.security.policy import TwoLevelPolicy
from repro.vhdl.parser import split_units

#: The stages a cold analysis computes, in order, with either front.
TAIL = ["reaching", "specialize", "closure", "flow_graph", "inventory"]
FLAT_STAGE_NAMES = ["parse", "elaborate", *TAIL]
LINKED_STAGE_NAMES = ["parse", "place", *TAIL]
#: What a fully cached run of either plan reads: its goals, nothing else.
WARM_GOALS = ["flow_graph", "inventory"]
#: What it reads with its analyze document: the goals, then the rendered
#: graph member the document splices in.
FLAT_WARM = [*WARM_GOALS, "graph_json"]
#: Every artefact field of an ``AnalysisResult``.
FIELDS = (
    "design",
    "program_cfg",
    "active",
    "reaching",
    "rm_local",
    "specialized",
    "rm_global",
    "outgoing_labels",
    "graph",
    "inventory",
)


def _fails(*args, **kwargs):
    raise AssertionError("a warm run must not call this")


def _masked(run):
    return normalize(analyze_document(run), volatile_pointers("analyze"))


def _universe_bound(result):
    """The universe of every bitset artefact of one analysis."""
    return [
        result.rm_local.universe,
        result.rm_global.universe,
        result.graph._universe,
    ]


def _fields(result):
    """Each artefact field's pickle, one pickle per field (the pickle memo
    would tell shared string objects from equal ones across fields)."""
    return {name: pickle.dumps(getattr(result, name)) for name in FIELDS}


def _read_back(result):
    """:func:`_fields` of ``result`` as a disk read gives them back: after
    one pickle round trip, which shares CPython's cached one-character
    strings and rebuilds each set from its pickled order."""
    return {
        name: pickle.dumps(pickle.loads(value))
        for name, value in _fields(result).items()
    }


SOURCES = {
    "flat": workloads.producer_consumer_program,
    "linked": workloads.hierarchical_mux_program,
}


class TestWarmRunsSkipTheOnDemandStages:
    def test_disk_warm_flat_run_never_reads_the_parse(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        source = workloads.producer_consumer_program()
        cold = Pipeline(open_cache(str(cache_dir))).run(source)
        # One parse entry per design unit: the entity and its architecture.
        parse_entries = list((cache_dir / "parse").glob("*.pkl"))
        assert len(parse_entries) == 2
        for entry in parse_entries:
            entry.unlink()
        monkeypatch.setattr(stages_module, "parse_program", _fails)

        cache = open_cache(str(cache_dir))
        warm = Pipeline(cache).run(source)
        assert warm.cached_stages == WARM_GOALS
        assert warm.computed_stages == []
        assert cache.misses == 0 and cache.disk.misses == 0
        # The reach record and the goals' entries.
        assert cache.disk.hits == 3
        assert _masked(warm) == _masked(cold)

    def test_disk_warm_linked_run_computes_nothing(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        source = workloads.hierarchical_mux_program()
        cold = Pipeline(open_cache(cache_dir)).run(source)
        for name in ("parse_program", "build_hierarchy", "summarize_hierarchy"):
            monkeypatch.setattr(stages_module, name, _fails)

        cache = open_cache(cache_dir)
        warm = Pipeline(cache).run(source)
        assert warm.computed_stages == []
        assert warm.cached_stages == WARM_GOALS
        # The reach record names the plan: no probe, and no miss.
        assert cache.misses == 0
        assert cache.disk.hits == 3
        assert _masked(warm) == _masked(cold)

    @pytest.mark.parametrize("kind", ["flat", "linked"])
    def test_a_cold_run_adds_one_miss_for_the_plan(self, kind):
        cache = _RecordingMisses()
        run = Pipeline(cache).run(SOURCES[kind]())
        # The reach record misses first, then each design unit's outline
        # (the reach parses the unit and caches its AST), then each
        # cacheable stage once.  Each stage is looked up before the stages
        # it needs, and the closure is the first to need the front, which
        # the reach named: its one front misses, and the AST it reads is
        # the units just parsed.  (Entity summaries have keys of their own.)
        units = {"flat": 2, "linked": 4}
        front = {"flat": "elaborate", "linked": "place"}[kind]
        assert [name for name in cache.missed if name != "summary"] == [
            "reach",
            *["unit"] * units[kind],
            "flow_graph",
            "closure",
            front,
            "specialize",
            "reaching",
            "inventory",
        ]
        assert cache.hits == 0
        # A cold run still computes the chain in order.
        assert run.computed_stages == {
            "flat": FLAT_STAGE_NAMES,
            "linked": LINKED_STAGE_NAMES,
        }[kind]


class _RecordingMisses(ArtifactCache):
    """An in-memory cache that records the stage name of every missed key."""

    def __init__(self):
        super().__init__()
        self.missed = []

    def get(self, key):
        value = super().get(key)
        if value is None:
            self.missed.append(key.split(":", 1)[0])
        return value


class TestUntilOnAWarmCache:
    def test_parse_still_yields_the_ast(self, monkeypatch):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.challenge_f_program()
        cold = pipeline.run(source)
        monkeypatch.setattr(stages_module, "parse_program", _fails)
        run = pipeline.run(source, goals=("parse",))
        # The AST is assembled from the cached units, parsing none of them.
        assert run.computed_stages == ["parse"] and run.cached_stages == []
        program, cold_program = run.artifacts.program, cold.artifacts.program
        assert program == cold_program
        units = [*program.entities, *program.architectures]
        cold_units = [*cold_program.entities, *cold_program.architectures]
        assert len(units) == len(cold_units) == 2
        assert all(unit is cold_unit for unit, cold_unit in zip(units, cold_units))
        assert run.result is None

    def test_the_front_yields_the_cfg_without_the_parse(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.challenge_f_program()
        cold = pipeline.run(source)
        run = pipeline.run(source, goals=("elaborate",))
        assert run.cached_stages == ["elaborate"]
        assert run.computed_stages == []
        assert run.artifacts.program_cfg is cold.result.program_cfg
        assert run.artifacts.program is None
        assert run.result is None

    def test_a_linked_stage_of_a_warm_flat_source_is_still_an_error(self):
        pipeline = Pipeline(ArtifactCache())
        source = workloads.challenge_f_program()
        pipeline.run(source)
        with pytest.raises(AnalysisError, match="'place' is not part"):
            pipeline.run(source, goals=("place",))


#: Each stage a cold analysis computes, and the graph member its document
#: renders.
EVICTIONS = [
    (kind, name)
    for kind, names in (("flat", FLAT_STAGE_NAMES), ("linked", LINKED_STAGE_NAMES))
    for name in (*names, "graph_json")
]


def _rerun_stages(kind, name):
    """The cached and computed stages of a rerun, before any field is read,
    with stage ``name``'s entries evicted: a miss reads only what it needs."""
    front = {"flat": "elaborate", "linked": "place"}[kind]
    return {
        "flow_graph": (["closure", "inventory"], ["flow_graph"]),
        "inventory": (["flow_graph", front, "closure"], ["inventory"]),
    }.get(name, (["flow_graph", "inventory"], []))


class TestPartialEviction:
    @pytest.mark.parametrize(
        "kind,name", EVICTIONS, ids=[f"{k}-{n}" for k, n in EVICTIONS]
    )
    def test_evicting_one_entry_reproduces_the_cold_document(self, kind, name):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = SOURCES[kind]()
        cold = pipeline.run(source)
        cold_document = _masked(cold)
        cold_fields = _fields(cold.result)
        if name == "parse":
            # The parse is cached per design unit: evict every unit.
            evicted = [key for key in cache._entries if key.startswith("parse:")]
            assert len(evicted) == len(split_units(source))
        else:
            stage = getattr(stages_module, name.upper())
            evicted = [stage_key(stage, cold.artifacts.reach.key, AnalysisOptions())]
        for key in evicted:
            del cache._entries[key]

        rerun = pipeline.run(source)
        assert (rerun.cached_stages, rerun.computed_stages) == _rerun_stages(
            kind, name
        )
        assert _masked(rerun) == cold_document
        # Every field read after the run equals the cold artefact...
        assert _fields(rerun.result) == cold_fields
        # ...and decodes through the cold run's facts: a recomputed front
        # interns a universe of its own, equal to the one the goals hold.
        facts = list(cold.result.universe)
        assert rerun.result.universe is cold.result.universe
        assert all(list(bound) == facts for bound in _universe_bound(rerun.result))
        if name == "parse":
            # Nothing that misses needs the AST: the parse stays evicted.
            assert rerun.computed_stages == []
            assert not any(key in cache for key in evicted)
        else:
            assert name in rerun.computed_stages


#: The secret each source's ``check`` declares: one of its input ports.
SECRETS = {"flat": "right", "linked": "sel"}


def _document(workspace, command, source, secret):
    """One ``command`` run of ``source`` on ``workspace``: its pipeline run
    and its document, masked by the volatile-field rules of its kind."""
    if command == "analyze":
        run = workspace.analyze_run(source)
        document = analyze_document(run)
    elif command == "check":
        checked = workspace.check(source, TwoLevelPolicy(secret_resources=[secret]))
        run, document = checked.run, checked.document()
    else:
        linted = workspace.lint(source)
        run, document = linted.run, linted.document()
    return run, json_text(normalize(document, volatile_pointers(command)))


class TestWarmDocumentsReadOnlyTheirGoals:
    @pytest.mark.parametrize("kind", ["flat", "linked"])
    def test_the_goal_entries_alone_serve_every_document(self, tmp_path, kind):
        cache_dir = tmp_path / "cache"
        source = SOURCES[kind]()
        populating = Workspace(cache_dir=str(cache_dir))
        cold = {
            command: _document(populating, command, source, SECRETS[kind])[1]
            for command in ("analyze", "check", "lint")
        }
        kept = {"reach", "graph_json", "inventory", "lint", "report_json", "universes"}
        for directory in cache_dir.iterdir():
            if directory.name not in kept:
                for entry in directory.iterdir():
                    entry.unlink()
                directory.rmdir()
        assert {directory.name for directory in cache_dir.iterdir()} == kept

        # Each document reads the reach record and its goals' entries and
        # nothing else, so the deleted entries are never looked up and
        # nothing is recomputed.
        disk_hits = {"analyze": 3, "check": 2, "lint": 3}
        for command in ("analyze", "check", "lint"):
            workspace = Workspace(cache_dir=str(cache_dir))
            run, warm = _document(workspace, command, source, SECRETS[kind])
            assert warm == cold[command]
            assert run.computed_stages == []
            assert workspace.cache.disk.hits == disk_hits[command]
            assert workspace.cache.misses == 0


class TestLazyFields:
    @pytest.mark.parametrize("kind", ["flat", "linked"])
    def test_disk_warm_fields_equal_the_cold_artefacts(self, tmp_path, kind):
        cache_dir = str(tmp_path / "cache")
        source = SOURCES[kind]()
        cold = Pipeline(open_cache(cache_dir)).run(source)
        cold_document = _masked(cold)
        warm = Pipeline(open_cache(cache_dir)).run(source)
        assert _masked(warm) == cold_document
        assert warm.cached_stages == FLAT_WARM
        # Each field loads on first access and equals the cold artefact as
        # a cache read gives it back...
        assert _fields(warm.result) == _read_back(cold.result)
        # ...and every bitset one decodes through the one snapshot read.
        universe = warm.result.universe
        assert all(bound is universe for bound in _universe_bound(warm.result))
        # Each load is a stage of the run, served from the cache.
        front = {"flat": "elaborate", "linked": "place"}[kind]
        loaded = [front, "reaching", "specialize", "closure"]
        assert warm.cached_stages == [*FLAT_WARM, *loaded]
        assert warm.computed_stages == []

    @pytest.mark.parametrize("command", ["analyze", "lint"])
    def test_dropping_the_result_frees_the_run(self, command):
        # The view refers to the run's context and the context never to the
        # view, so reference counting alone frees a run, cold or warm, once
        # its result is dropped.
        workspace = Workspace()
        source = SOURCES["flat"]()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in ("cold", "warm"):
                if command == "analyze":
                    run = workspace.analyze_run(source)
                else:
                    run = workspace.lint(source).run
                result = run.result
                assert result.design is not None  # resolved through the context
                context = weakref.ref(run.artifacts)
                del run
                assert context() is not None  # the view keeps the run alive
                del result
                assert context() is None
        finally:
            if was_enabled:
                gc.enable()


class _SlowGets(ArtifactCache):
    """An in-memory cache whose every lookup takes at least 5 ms."""

    def get(self, key):
        time.sleep(0.005)
        return super().get(key)


class TestServedStageTimings:
    def test_a_served_stage_reports_its_lookup(self):
        cache = _SlowGets()
        pipeline = Pipeline(cache)
        source = workloads.challenge_f_program()
        pipeline.run(source)
        warm = pipeline.run(source)
        assert warm.cached_stages == WARM_GOALS
        assert all(stage.seconds >= 0.005 for stage in warm.stages)


#: Every stage but ``place`` on a flat source, and the analysis on a
#: hierarchical one: every stage but ``elaborate``, and but ``lint`` and
#: ``kemmerer``, which read only what the flat cases already cover.
DECLARED = [
    *(("flat", stage) for stage in STAGES if stage.name != "place"),
    *(
        ("linked", stage)
        for stage in STAGES
        if stage.name not in ("elaborate", "lint", "kemmerer")
    ),
]


class TestDeclaredInputs:
    @pytest.mark.parametrize(
        "kind,stage", DECLARED, ids=[f"{k}-{s.name}" for k, s in DECLARED]
    )
    def test_a_stage_reads_only_what_it_declares(self, kind, stage):
        source = SOURCES[kind]()
        policy = TwoLevelPolicy(secret_resources=["right"])
        cold = Pipeline().run(source, goals=(stage.name,), policy=policy).artifacts
        # Only the declared inputs, taken from the cold run; every other
        # artefact attribute is left empty.
        bare = stages_module.PipelineContext(options=cold.options)
        for name in stage.needs:
            setattr(bare, name, getattr(cold, name))
        artifact = stage.run(bare)
        produced = tuple(artifact) if isinstance(stage.attr, tuple) else (artifact,)
        expected = tuple(getattr(cold, name) for name in stages_module._attrs(stage))
        # One pickle per artefact: across artefacts, the pickle memo would
        # tell shared string objects from equal ones.
        assert [pickle.dumps(value) for value in produced] == [
            pickle.dumps(value) for value in expected
        ]
