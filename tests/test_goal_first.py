"""Goal-first plans: a run reads or runs only what its result needs.

A run resolves the stages whose artefacts its result holds, in plan order,
and reads or runs ``parse``, ``hierarchy`` and ``summary`` only when a stage
that misses the cache needs their artefact (``Stage.needs``).  The plan is
picked by a hit on the flat plan's ``elaborate`` key or the linked plan's
``place`` key, and by the parse only when both miss.  These tests pin what a
warm run touches, that every partial eviction still reproduces the cold
document in one universe, and that each stage's declared inputs are all it
reads.
"""

import pickle
import time

import pytest

from repro import workloads
from repro.contract.matchers import normalize
from repro.dataflow.universe import FactUniverse
from repro.errors import AnalysisError
from repro.pipeline import (
    ANALYSIS_STAGES,
    KEMMERER_STAGES,
    LINKED_STAGES,
    LINT_STAGES,
    AnalysisOptions,
    ArtifactCache,
    Pipeline,
    analyze_document,
    open_cache,
    source_digest,
    stage_key,
)
from repro.pipeline import stages as stages_module
from repro.pipeline.render import volatile_pointers
from repro.security.policy import TwoLevelPolicy
from repro.vhdl.parser import split_units

FLAT_STAGE_NAMES = [stage.name for stage in ANALYSIS_STAGES[:-1]]
LINKED_STAGE_NAMES = [stage.name for stage in LINKED_STAGES[:-1]]
#: What a fully cached run of each plan reads: everything but the on-demand
#: stages (``parse``; ``parse``, ``hierarchy`` and ``summary``).
FLAT_WARM = FLAT_STAGE_NAMES[1:]
LINKED_WARM = LINKED_STAGE_NAMES[3:]


def _fails(*args, **kwargs):
    raise AssertionError("a warm run must not call this")


def _masked(run):
    return normalize(analyze_document(run), volatile_pointers("analyze"))


def _universe_bound(result):
    """The universe of every universe-bound artefact of one analysis."""
    return [
        result.rm_local.universe,
        result.rm_global.universe,
        result.graph._universe,
    ]


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
        assert warm.cached_stages == FLAT_WARM
        assert warm.computed_stages == []
        assert cache.misses == 0 and cache.disk.misses == 0
        assert cache.disk.hits == len(FLAT_WARM)
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
        assert warm.cached_stages == LINKED_WARM
        # The flat plan's elaborate key is the one miss: it picks the plan.
        assert cache.misses == 1
        assert _masked(warm) == _masked(cold)

    @pytest.mark.parametrize("kind", ["flat", "linked"])
    def test_a_cold_run_adds_one_miss_for_the_plan(self, kind):
        cache = _RecordingMisses()
        Pipeline(cache).run(SOURCES[kind]())
        # Each cacheable stage misses once and each design unit's parse
        # once; the other plan's probe is the one extra lookup.  (Entity
        # summaries have keys of their own.)
        units = {"flat": 2, "linked": 4}
        tail = {"flat": FLAT_STAGE_NAMES[2:], "linked": LINKED_STAGE_NAMES[4:]}
        assert [name for name in cache.missed if name != "summary"] == [
            "elaborate", "place", *["parse"] * units[kind], *tail[kind]
        ]
        assert cache.hits == 0


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
        run = pipeline.run(source, until="parse")
        # The AST is assembled from the cached units, parsing none of them.
        assert run.computed_stages == ["parse"] and run.cached_stages == []
        program, cold_program = run.artifacts.program, cold.artifacts.program
        assert program == cold_program
        units = [*program.entities, *program.architectures]
        cold_units = [*cold_program.entities, *cold_program.architectures]
        assert len(units) == len(cold_units) == 2
        assert all(unit is cold_unit for unit, cold_unit in zip(units, cold_units))
        assert run.result is None

    def test_cfg_yields_the_cfg_without_the_parse(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.challenge_f_program()
        cold = pipeline.run(source)
        run = pipeline.run(source, until="cfg")
        assert run.cached_stages == ["elaborate", "cfg"]
        assert run.artifacts.program_cfg is cold.result.program_cfg
        assert run.artifacts.program is None
        assert run.result is None

    def test_a_linked_stage_of_a_warm_flat_source_is_still_an_error(self):
        pipeline = Pipeline(ArtifactCache())
        source = workloads.challenge_f_program()
        pipeline.run(source)
        with pytest.raises(AnalysisError, match="'place' is not part"):
            pipeline.run(source, until="place")


EVICTIONS = [
    (kind, stage)
    for kind, plan in (("flat", ANALYSIS_STAGES), ("linked", LINKED_STAGES))
    for stage in plan
    if stage.cacheable or stage.name == "parse"
]


class TestPartialEviction:
    @pytest.mark.parametrize(
        "kind,stage", EVICTIONS, ids=[f"{k}-{s.name}" for k, s in EVICTIONS]
    )
    def test_evicting_one_entry_reproduces_the_cold_document(self, kind, stage):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = SOURCES[kind]()
        cold = pipeline.run(source)
        if stage.name == "parse":
            # The parse is cached per design unit: evict every unit.
            evicted = [key for key in cache._entries if key.startswith("parse:")]
            assert len(evicted) == len(split_units(source))
        else:
            evicted = [stage_key(stage, source_digest(source), AnalysisOptions())]
        for key in evicted:
            del cache._entries[key]

        rerun = pipeline.run(source)
        assert _masked(rerun) == _masked(cold)
        universe = rerun.result.universe
        assert all(bound is universe for bound in _universe_bound(rerun.result))
        if stage.name == "parse":
            # Nothing that misses needs the AST: the parse stays evicted.
            assert rerun.computed_stages == []
            assert not any(key in cache for key in evicted)
        else:
            assert stage.name in rerun.computed_stages


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
        assert warm.cached_stages == FLAT_WARM
        assert all(stage.seconds >= 0.005 for stage in warm.stages)


def _runs_to(source, stage, policy):
    """A cold run whose last resolved stage is ``stage``."""
    if stage.name == "lint":
        return Pipeline().run_lint(source)
    if stage.name == "kemmerer":
        return Pipeline().run_kemmerer(source)
    return Pipeline().run(source, until=stage.name, policy=policy)


#: Every stage of every plan once: the flat stages on a flat source, the
#: linked ones on a hierarchical source.
DECLARED = list(
    {
        (kind, stage.name): (kind, stage)
        for kind, plans in (
            ("flat", (LINT_STAGES, KEMMERER_STAGES)),
            ("linked", (LINKED_STAGES,)),
        )
        for plan in plans
        for stage in plan
    }.values()
)


class TestDeclaredInputs:
    @pytest.mark.parametrize(
        "kind,stage", DECLARED, ids=[f"{k}-{s.name}" for k, s in DECLARED]
    )
    def test_a_stage_reads_only_what_it_declares(self, kind, stage):
        source = SOURCES[kind]()
        policy = TwoLevelPolicy(secret_resources=["right"])
        cold = _runs_to(source, stage, policy).artifacts
        # Only the declared inputs, taken from the cold run; every other
        # artefact attribute is left empty, and an undeclared universe holds
        # a stray fact, so interning into it would shift every bit.
        bare = stages_module.PipelineContext(
            options=cold.options, universe=FactUniverse(["undeclared"])
        )
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
