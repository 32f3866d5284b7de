"""The staged analysis pipeline.

A full Information Flow analysis decomposes into named stages, listed here in
plan order:

========== =====================================================
stage      artefact
========== =====================================================
parse      the VHDL1 AST (:func:`repro.vhdl.parser.parse_program`), one
           design unit at a time
elaborate  the :class:`~repro.vhdl.elaborate.Design`
cfg        the :class:`~repro.cfg.builder.ProgramCFG`
active     the per-process active-signals results (Table 4)
reaching   the Reaching Definitions (Table 5), solved per process
local      the local Resource Matrix ``RM_lo`` (Table 6)
specialize the specialised RD results ``RD†``/``RD†ϕ`` (Table 7)
closure    the closed matrix ``RM_gl`` (Table 8, optionally Table 9)
flow_graph the information-flow graph
lint       the lint findings (``vhdl-ifa lint`` runs only; full catalog)
report     the covert-channel report (only when a policy is given)
========== =====================================================

A source with component instantiations runs the *linked* plan
(:data:`LINKED_STAGES`, :mod:`repro.hier`) instead: three stages stand in for
``elaborate``, ``cfg``, ``active`` and ``local``, and every later stage is
shared with the flat plan.

========== =====================================================
hierarchy  the checked :class:`~repro.hier.structure.DesignHierarchy`
summary    one :class:`~repro.hier.summary.EntitySummary` per entity
place      the flat design, its ``ProgramCFG``, the Table 4 results and
           ``RM_lo``, placed from the summaries
========== =====================================================

Runs are goal-first.  A run resolves its *goals*, the stages whose
artefacts its result holds (every stage of the plan but ``parse``,
``hierarchy`` and ``summary``, plus the ``until=`` stage), in plan order.
Each goal is served from the cache when it can be; a goal that misses first
resolves the stages producing the context attributes it reads
(``Stage.needs``), then runs.  So ``parse``, ``hierarchy`` and ``summary``
(the *on-demand* stages) are read or run only when a stage that misses
needs their artefact, and a fully cached run never touches the AST.  The
plan itself comes from the cache when it can: a cached ``elaborate``
artefact exists only for a flat source and a cached ``place`` artefact only
for a linked one, so a hit on either key picks the plan (and is kept as that
goal's artefact).  Only when both miss does the run parse the source and
look for instantiations.

Each stage is individually invokable (``Pipeline.run(..., until="cfg")``
stops after the CFG; ``PipelineResult.artifacts`` exposes every resolved
artefact), wall-clock timed (``PipelineResult.timings``), and backed by a
content-addressed artifact cache (any of the stores in
:mod:`repro.pipeline.cache` — in-memory, on-disk, or the two-tier
composition) keyed by source hash + the analysis options the stage depends
on — so repeated runs of the same design skip straight to the cached
artefacts (``PipelineResult.cached_stages`` says which), across process
restarts when the cache has a disk tier.  A stage the run neither read nor
ran appears in neither ``timings`` nor ``cached_stages``.

The :class:`AnalysisOptions` fields each stage's cache key includes
(``Stage.option_fields``; see also ``docs/architecture.md``):

========== ==========================================================
stage      cache-key option fields (plus the stage name + source hash)
========== ==========================================================
parse      no stage entry: each design unit is cached under
           ``parse:<sha256 of "<first line>:<unit text>">``
elaborate  entity
cfg        entity, loop_processes
active     entity, loop_processes
reaching   entity, loop_processes, use_under_approximation
local      entity, loop_processes
specialize entity, loop_processes, use_under_approximation
closure    entity, loop_processes, use_under_approximation, improved
flow_graph entity, loop_processes, use_under_approximation, improved
lint       entity, loop_processes, use_under_approximation, improved
kemmerer   entity, loop_processes
report     never cached (cheap, policy-dependent)
hierarchy  never cached (a cheap pass over the parse)
summary    no stage entry: each entity's summary is cached under
           ``summary:v<format>:<self-slice digest>:<entity>:loop_processes=…``
place      entity, loop_processes
========== ==========================================================

The ``lint`` stage caches the *complete* rule catalog's findings at default
severities (a plain tuple of diagnostics, not universe-bound); a policy
file's ``[lint]`` selection and severity overrides are applied after the
stage, so one cached artefact serves every lint configuration.

Universe discipline: every run starts with a fresh
:class:`~repro.dataflow.universe.FactUniverse`, and stages from ``local``
(``place`` on the linked plan) onward intern resource names into it.  Their
cached artefacts are stored *together with* the universe they were built in
and a cache hit adopts that universe, keeping bitset-encoded artefacts and
universe consistent.  Goals resolve in plan order and no on-demand stage is
universe-bound, so a run binds its universe at the same stage a run through
the whole plan would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import repro.analysis.lint
import repro.security.report
from repro.analysis.closure import global_resource_matrix
from repro.analysis.flowgraph import FlowGraph
from repro.analysis.improved import improved_global_resource_matrix
from repro.analysis.kemmerer import kemmerer_analysis
from repro.analysis.local_deps import local_resource_matrix
from repro.analysis.reaching_active import analyze_all_active_signals
from repro.analysis.reaching_defs import analyze_reaching_definitions
from repro.analysis.specialize import specialize
from repro.cfg.builder import build_cfg
from repro.dataflow.universe import FactUniverse
from repro.errors import AnalysisError, ReproError, nesting_limit
from repro.hier.link import link_hierarchy, summarize_hierarchy
from repro.hier.structure import build_hierarchy, has_instantiations
from repro.pipeline.artifacts import (
    AnalysisOptions,
    AnalysisResult,
    PipelineResult,
    StageTiming,
)
from repro.pipeline.cache import ArtifactCache, source_digest
from repro.vhdl.ast import Program
from repro.vhdl.elaborate import Design, elaborate
from repro.vhdl.parser import parse_program, split_units


@dataclass
class PipelineContext:
    """The mutable artefact store one pipeline run threads through its stages."""

    options: AnalysisOptions
    universe: FactUniverse
    universe_locked: bool = False
    """True once a universe-bound artefact exists: the run's universe is fixed."""
    source: Optional[str] = None
    source_key: Optional[str] = None
    cache: Optional[ArtifactCache] = None
    program: Optional[Any] = None
    hierarchy: Optional[Any] = None
    summaries: Optional[Any] = None
    design: Optional[Design] = None
    program_cfg: Optional[Any] = None
    active: Optional[Any] = None
    reaching: Optional[Any] = None
    rm_local: Optional[Any] = None
    specialized: Optional[Any] = None
    closure: Optional[Any] = None
    graph: Optional[FlowGraph] = None
    kemmerer: Optional[Any] = None
    analysis: Optional[AnalysisResult] = None
    lint: Optional[Any] = None
    policy: Optional[Any] = None
    report_options: Dict[str, Any] = field(default_factory=dict)
    report: Optional[Any] = None
    stages: List[StageTiming] = field(default_factory=list)


def _run_parse(ctx: PipelineContext) -> Program:
    """The file's AST, each design unit from the cache or parsed and cached.

    A unit is keyed on its first line and its text (see
    :func:`~repro.vhdl.parser.split_units`), so an edit re-parses only the
    units whose text or first line it changed.  A unit the parser rejects
    is not cached, and the whole file is parsed instead, for its error.
    """
    if ctx.cache is None:
        return parse_program(ctx.source)
    program = Program()
    for line, text in split_units(ctx.source):
        key = f"parse:{source_digest(f'{line}:{text}')}"
        unit = ctx.cache.get(key)
        if unit is None:
            try:
                unit = parse_program(text, line)
            except ReproError:
                return parse_program(ctx.source)
            ctx.cache.put(key, unit)
        program.entities.extend(unit.entities)
        program.architectures.extend(unit.architectures)
    return program


def _run_elaborate(ctx: PipelineContext) -> Design:
    return elaborate(ctx.program, ctx.options.entity)


def _run_cfg(ctx: PipelineContext) -> Any:
    return build_cfg(ctx.design, loop_processes=ctx.options.loop_processes)


def _run_hierarchy(ctx: PipelineContext) -> Any:
    return build_hierarchy(ctx.program, ctx.options.entity)


def _run_summary(ctx: PipelineContext) -> Any:
    return summarize_hierarchy(ctx.hierarchy, ctx.options.loop_processes, ctx.cache)


def _run_place(ctx: PipelineContext) -> Any:
    return link_hierarchy(ctx.hierarchy, ctx.summaries, universe=ctx.universe)


def _run_active(ctx: PipelineContext) -> Any:
    return analyze_all_active_signals(ctx.program_cfg.processes)


def _run_reaching(ctx: PipelineContext) -> Any:
    return analyze_reaching_definitions(
        ctx.program_cfg,
        ctx.active,
        use_under_approximation=ctx.options.use_under_approximation,
    )


def _run_local(ctx: PipelineContext) -> Any:
    return local_resource_matrix(ctx.program_cfg, universe=ctx.universe)


def _run_specialize(ctx: PipelineContext) -> Any:
    return specialize(ctx.program_cfg, ctx.rm_local, ctx.active, ctx.reaching)


def _run_closure(ctx: PipelineContext) -> Any:
    if ctx.options.improved:
        return improved_global_resource_matrix(
            ctx.program_cfg, ctx.rm_local, ctx.specialized, ctx.design
        )
    return global_resource_matrix(ctx.program_cfg, ctx.rm_local, ctx.specialized)


def _run_flow_graph(ctx: PipelineContext) -> FlowGraph:
    return FlowGraph.from_resource_matrix(ctx.closure.rm_global)


def _run_kemmerer(ctx: PipelineContext) -> Any:
    return kemmerer_analysis(ctx.rm_local)


# Looked up on their modules at call time: perfbench/spans.py wraps them there.
def _run_lint(ctx: PipelineContext) -> Any:
    return repro.analysis.lint.run_lint_rules(ctx.analysis)


def _run_report(ctx: PipelineContext) -> Any:
    return repro.security.report.build_report(
        ctx.analysis, ctx.policy, **ctx.report_options
    )


@dataclass(frozen=True)
class Stage:
    """One named pipeline step.

    ``attr`` names the context attribute the artefact lands in (a tuple of
    names for a stage producing several artefacts at once).
    ``option_fields`` lists the :class:`AnalysisOptions` fields the stage's
    artefact depends on — they (with the source hash and the stage name) form
    the cache key.  ``universe_bound`` marks artefacts encoded against the
    session universe; they are cached together with it.  ``needs`` names
    the context attributes ``run`` reads besides ``options``: a stage that
    misses the cache first resolves the stages producing them.  An
    ``on_demand`` stage's artefact only feeds other stages, so a run reads
    or runs it only when a stage that misses needs it.
    """

    name: str
    attr: Union[str, Tuple[str, ...]]
    run: Callable[[PipelineContext], Any]
    option_fields: Tuple[str, ...] = ()
    universe_bound: bool = False
    cacheable: bool = True
    needs: Tuple[str, ...] = ()
    on_demand: bool = False


_ENTITY = ("entity",)
_SHAPE = ("entity", "loop_processes")
_RD = ("entity", "loop_processes", "use_under_approximation")
_ALL = ("entity", "loop_processes", "use_under_approximation", "improved")

PARSE = Stage(
    "parse",
    "program",
    _run_parse,
    cacheable=False,
    needs=("source", "cache"),
    on_demand=True,
)
ELABORATE = Stage("elaborate", "design", _run_elaborate, _ENTITY, needs=("program",))
CFG = Stage("cfg", "program_cfg", _run_cfg, _SHAPE, needs=("design",))
ACTIVE = Stage("active", "active", _run_active, _SHAPE, needs=("program_cfg",))
REACHING = Stage(
    "reaching", "reaching", _run_reaching, _RD, needs=("program_cfg", "active")
)
LOCAL = Stage(
    "local",
    "rm_local",
    _run_local,
    _SHAPE,
    universe_bound=True,
    needs=("program_cfg", "universe"),
)
SPECIALIZE = Stage(
    "specialize",
    "specialized",
    _run_specialize,
    _RD,
    universe_bound=True,
    needs=("program_cfg", "rm_local", "active", "reaching"),
)
CLOSURE = Stage(
    "closure",
    "closure",
    _run_closure,
    _ALL,
    universe_bound=True,
    needs=("program_cfg", "rm_local", "specialized", "design"),
)
FLOW_GRAPH = Stage(
    "flow_graph",
    "graph",
    _run_flow_graph,
    _ALL,
    universe_bound=True,
    needs=("closure",),
)
# ``analysis`` is assembled once ``flow_graph`` is resolved (Pipeline._execute).
LINT = Stage("lint", "lint", _run_lint, _ALL, needs=("analysis",))
KEMMERER = Stage(
    "kemmerer",
    "kemmerer",
    _run_kemmerer,
    _SHAPE,
    universe_bound=True,
    needs=("rm_local",),
)
REPORT = Stage(
    "report",
    "report",
    _run_report,
    cacheable=False,
    needs=("analysis", "policy", "report_options"),
)
# The hierarchy is a cheap pass over the parse, and the summary stage caches
# each entity under its own key (repro.hier.summary), so neither has a
# pipeline cache entry of its own.
HIERARCHY = Stage(
    "hierarchy",
    "hierarchy",
    _run_hierarchy,
    _ENTITY,
    cacheable=False,
    needs=("program",),
    on_demand=True,
)
SUMMARY = Stage(
    "summary",
    "summaries",
    _run_summary,
    ("loop_processes",),
    cacheable=False,
    needs=("hierarchy", "cache"),
    on_demand=True,
)
PLACE = Stage(
    "place",
    ("design", "program_cfg", "active", "rm_local"),
    _run_place,
    _SHAPE,
    universe_bound=True,
    needs=("hierarchy", "summaries", "universe"),
)

#: The full analysis, source to flow graph (plus the optional report).
ANALYSIS_STAGES: Tuple[Stage, ...] = (
    PARSE,
    ELABORATE,
    CFG,
    ACTIVE,
    REACHING,
    LOCAL,
    SPECIALIZE,
    CLOSURE,
    FLOW_GRAPH,
    REPORT,
)

#: The same analysis of a source with component instantiations: per-entity
#: summaries placed into the flat namespace stand in for elaborate → cfg →
#: active → local, and every later stage is shared with the flat plan.
LINKED_STAGES: Tuple[Stage, ...] = (
    PARSE,
    HIERARCHY,
    SUMMARY,
    PLACE,
    REACHING,
    SPECIALIZE,
    CLOSURE,
    FLOW_GRAPH,
    REPORT,
)

#: The lint run: the full analysis plus the cached ``lint`` stage (and, when
#: a policy with level assignments is given, the trailing report).
LINT_STAGES: Tuple[Stage, ...] = ANALYSIS_STAGES[:-1] + (LINT, REPORT)
LINKED_LINT_STAGES: Tuple[Stage, ...] = LINKED_STAGES[:-1] + (LINT, REPORT)

#: Kemmerer's baseline closes the local matrix, so it shares every stage up
#: to ``local`` (``place`` on the linked plan).
KEMMERER_STAGES: Tuple[Stage, ...] = (PARSE, ELABORATE, CFG, LOCAL, KEMMERER)
LINKED_KEMMERER_STAGES: Tuple[Stage, ...] = (PARSE, HIERARCHY, SUMMARY, PLACE, KEMMERER)

STAGE_NAMES: Tuple[str, ...] = tuple(stage.name for stage in ANALYSIS_STAGES)


def _attrs(stage: Stage) -> Tuple[str, ...]:
    """The context attributes the stage's artefact lands in."""
    return stage.attr if isinstance(stage.attr, tuple) else (stage.attr,)


def _store(ctx: PipelineContext, stage: Stage, artifact: Any) -> None:
    """Set the stage's context attribute(s) from its artefact."""
    if isinstance(stage.attr, tuple):
        for name, value in zip(stage.attr, artifact):
            setattr(ctx, name, value)
    else:
        setattr(ctx, stage.attr, artifact)


def _cut(plan: Sequence[Stage], until: Optional[str]) -> Optional[List[Stage]]:
    """``plan`` up to and including ``until``; None when it has no such stage."""
    if until is None:
        return list(plan)
    names = [stage.name for stage in plan]
    return list(plan[: names.index(until) + 1]) if until in names else None


def stage_key(stage: Stage, source_key: str, options: AnalysisOptions) -> str:
    """The content address of one stage artefact.

    A stage with no ``option_fields`` keys on its name and the source hash
    alone.
    """
    parts = [stage.name, source_key]
    if stage.option_fields:
        parts.extend(
            f"{name}={getattr(options, name)!r}" for name in stage.option_fields
        )
    return ":".join(parts)


class Pipeline:
    """Runs the staged analysis, optionally over a shared artifact cache.

    The engine behind :class:`repro.workspace.Workspace`, with one entry
    per goal: :meth:`run` (the Information Flow analysis), :meth:`run_lint`
    and :meth:`run_kemmerer`.  One :class:`Pipeline` can serve many runs;
    pass an :class:`~repro.pipeline.cache.ArtifactCache` to reuse artefacts
    across them.  Without a cache every run computes everything.
    """

    #: How many hot spots a profiled stage keeps (by internal time).
    PROFILE_TOP_N = 15

    def __init__(self, cache: Optional[ArtifactCache] = None):
        self.cache = cache

    # ------------------------------------------------------------- entry points

    def run(
        self,
        source: str,
        options: Optional[AnalysisOptions] = None,
        *,
        until: Optional[str] = None,
        policy: Optional[Any] = None,
        report_options: Optional[Dict[str, Any]] = None,
        profile: bool = False,
    ) -> PipelineResult:
        """Analyse VHDL1 source text, stage by stage.

        A source with component instantiations runs :data:`LINKED_STAGES`
        instead of :data:`ANALYSIS_STAGES`.  ``until`` names the last stage
        to resolve (``"cfg"`` stops after the CFG; ``"place"`` after a
        hierarchical design is placed; ``"parse"`` yields the AST).  ``policy``
        enables the final ``report`` stage;
        ``report_options`` passes keyword arguments through to
        :func:`repro.security.report.build_report`.  ``profile=True`` runs
        every computed stage under cProfile and attaches the per-stage hot
        spots to the result (:attr:`PipelineResult.stage_profiles`); the
        reported wall-clock timings then include profiler overhead.
        """
        ctx = self._context(source, options)
        self._set_policy(ctx, policy, report_options)
        return self._execute(ctx, ANALYSIS_STAGES, LINKED_STAGES, until, profile)

    def run_lint(
        self,
        source: str,
        options: Optional[AnalysisOptions] = None,
        *,
        policy: Optional[Any] = None,
        report_options: Optional[Dict[str, Any]] = None,
        profile: bool = False,
    ) -> PipelineResult:
        """Run the full analysis plus the cached ``lint`` stage.

        The lint artefact (``run.artifacts.lint``) is the complete rule
        catalog's finding tuple at default severities; rule selection and
        severity overrides (a policy file's ``[lint]`` table) are applied by
        the caller, outside the content-addressed stage.  ``policy`` behaves
        as in :meth:`run` (it additionally enables the report stage);
        ``profile`` as in :meth:`run`.
        """
        ctx = self._context(source, options)
        self._set_policy(ctx, policy, report_options)
        return self._execute(ctx, LINT_STAGES, LINKED_LINT_STAGES, profile=profile)

    def run_kemmerer(
        self, source: str, options: Optional[AnalysisOptions] = None
    ) -> PipelineResult:
        """Run Kemmerer's baseline: the transitive closure of ``RM_lo``.

        A flat source runs :data:`KEMMERER_STAGES`; a source with component
        instantiations runs :data:`LINKED_KEMMERER_STAGES`.
        """
        return self._execute(
            self._context(source, options), KEMMERER_STAGES, LINKED_KEMMERER_STAGES
        )

    # ---------------------------------------------------------------- internals

    def _context(
        self, source: str, options: Optional[AnalysisOptions]
    ) -> PipelineContext:
        return PipelineContext(
            options=options if options is not None else AnalysisOptions(),
            universe=FactUniverse(),
            source=source,
            source_key=source_digest(source),
            cache=self.cache,
        )

    @staticmethod
    def _set_policy(
        ctx: PipelineContext,
        policy: Optional[Any],
        report_options: Optional[Dict[str, Any]],
    ) -> None:
        ctx.policy = policy
        ctx.report_options = dict(report_options or {})

    def _execute(
        self,
        ctx: PipelineContext,
        flat: Sequence[Stage],
        linked: Sequence[Stage],
        until: Optional[str] = None,
        profile: bool = False,
    ) -> PipelineResult:
        """Resolve the goals of the source's plan, up to ``until``.

        A program with component instantiations takes ``linked``, any other
        program ``flat`` (see :meth:`_choose_plan`).  The goals are the
        plan's stages but the on-demand ones, plus the ``until`` stage; each
        is resolved in plan order (:meth:`_resolve`).
        """
        known = list(dict.fromkeys(stage.name for stage in (*flat, *linked)))
        if until is not None and until not in known:
            raise AnalysisError(
                f"unknown pipeline stage {until!r}; expected one of "
                + ", ".join(known)
            )
        plan, missed = self._choose_plan(ctx, flat, linked, until, profile)
        goals = [stage for stage in plan if not stage.on_demand]
        if plan[-1].on_demand:
            goals.append(plan[-1])
        if ctx.policy is None and goals[-1] is REPORT:
            goals.pop()

        producers = {name: stage for stage in plan for name in _attrs(stage)}
        for stage in goals:
            self._resolve(ctx, stage, producers, missed, profile)
            if stage is FLOW_GRAPH:
                ctx.analysis = self._assemble(ctx)

        return PipelineResult(
            options=ctx.options,
            stages=ctx.stages,
            result=ctx.analysis,
            kemmerer=ctx.kemmerer,
            report=ctx.report,
            artifacts=ctx,
        )

    def _choose_plan(
        self,
        ctx: PipelineContext,
        flat: Sequence[Stage],
        linked: Sequence[Stage],
        until: Optional[str],
        profile: bool,
    ) -> Tuple[List[Stage], Set[str]]:
        """The source's plan, cut after ``until``, and the stages that missed.

        Only a flat source ever caches an ``elaborate`` artefact, and only a
        linked one a ``place`` artefact, so a hit on either key picks the
        plan, and the hit is kept as that stage's artefact.  When both miss
        (or the cut plans hold neither), the run parses the source and
        looks for instantiations.  A probe that missed is returned, so the
        run does not look it up a second time.
        """
        cut = [_cut(flat, until), _cut(linked, until)]
        missed: Set[str] = set()
        for plan, probe in zip(cut, (ELABORATE, PLACE)):
            if plan is not None and probe in plan:
                if self._serve(ctx, probe):
                    return plan, missed
                missed.add(probe.name)
        self._resolve(ctx, PARSE, {}, missed, profile)
        index = 1 if has_instantiations(ctx.program) else 0
        if cut[index] is None:
            names = [stage.name for stage in (flat, linked)[index]]
            raise AnalysisError(
                f"pipeline stage {until!r} is not part of this source's "
                "plan; expected one of " + ", ".join(names)
            )
        return cut[index], missed

    def _resolve(
        self,
        ctx: PipelineContext,
        stage: Stage,
        producers: Dict[str, Stage],
        missed: Set[str],
        profile: bool,
    ) -> None:
        """Put ``stage``'s artefact in ``ctx``, from the cache or by running it.

        Only a stage that misses resolves the producers of its ``needs``;
        a stage resolved earlier in the run is left as it is.
        """
        if any(timing.name == stage.name for timing in ctx.stages):
            return
        if stage.name not in missed and self._serve(ctx, stage):
            return
        for name in stage.needs:
            if name in producers:
                self._resolve(ctx, producers[name], producers, missed, profile)
        self._compute(ctx, stage, profile)

    def _serve(self, ctx: PipelineContext, stage: Stage) -> bool:
        """Store ``stage``'s cached artefact in ``ctx``; False on a miss.

        The served stage's seconds cover the lookup, the read and unpickle
        of a lower tier and the universe adoption.
        """
        if self.cache is None or not stage.cacheable:
            return False
        started = time.perf_counter()
        cached = self.cache.get(stage_key(stage, ctx.source_key, ctx.options))
        if cached is None:
            return False
        artifact = cached
        if stage.universe_bound:
            artifact, universe = cached
            # All universe-bound artefacts of one run must share one
            # universe.  Once the run's universe is fixed (an earlier
            # universe-bound stage computed fresh, or adopted a cached
            # universe), a surviving entry built against a *different*
            # universe — possible after partial eviction — is unusable
            # here: using it would assemble a mixed-universe result.
            if ctx.universe_locked and universe is not ctx.universe:
                self.cache.hits -= 1
                self.cache.misses += 1
                return False
            ctx.universe = universe
            ctx.universe_locked = True
        _store(ctx, stage, artifact)
        ctx.stages.append(
            StageTiming(stage.name, time.perf_counter() - started, cached=True)
        )
        return True

    def _compute(self, ctx: PipelineContext, stage: Stage, profile: bool) -> None:
        """Run ``stage`` on ``ctx`` and write its artefact to the cache.

        A design nested past the recursion limit fails the stage with a
        :class:`~repro.errors.ReproError` naming it.
        """
        stage_profile = None
        started = time.perf_counter()
        with nesting_limit(f"the {stage.name} stage"):
            if profile:
                artifact, stage_profile = self._run_profiled(ctx, stage)
            else:
                artifact = stage.run(ctx)
        elapsed = time.perf_counter() - started
        _store(ctx, stage, artifact)
        if stage.universe_bound:
            ctx.universe_locked = True
        if self.cache is not None and stage.cacheable:
            value = (artifact, ctx.universe) if stage.universe_bound else artifact
            self.cache.put(stage_key(stage, ctx.source_key, ctx.options), value)
        ctx.stages.append(
            StageTiming(stage.name, elapsed, cached=False, profile=stage_profile)
        )

    @classmethod
    def _run_profiled(
        cls, ctx: PipelineContext, stage: Stage
    ) -> Tuple[Any, Tuple[Dict[str, Any], ...]]:
        """Run one stage under cProfile; return (artifact, top-N hot spots)."""
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            artifact = stage.run(ctx)
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        entries = []
        for func, (_, ncalls, tottime, cumtime, _) in stats.stats.items():
            filename, lineno, name = func
            if name == "<built-in method builtins.exec>":
                continue
            entries.append(
                {
                    "function": f"{filename}:{lineno}({name})",
                    "calls": ncalls,
                    "tottime": round(tottime, 6),
                    "cumtime": round(cumtime, 6),
                }
            )
        entries.sort(key=lambda item: item["tottime"], reverse=True)
        return artifact, tuple(entries[: cls.PROFILE_TOP_N])

    @staticmethod
    def _assemble(ctx: PipelineContext) -> AnalysisResult:
        return AnalysisResult(
            design=ctx.design,
            program_cfg=ctx.program_cfg,
            active=ctx.active,
            reaching=ctx.reaching,
            rm_local=ctx.rm_local,
            specialized=ctx.specialized,
            rm_global=ctx.closure.rm_global,
            graph=ctx.graph,
            improved=ctx.options.improved,
            outgoing_labels=getattr(ctx.closure, "outgoing_labels", {}),
            universe=ctx.universe,
        )
