"""The staged analysis pipeline.

A full Information Flow analysis decomposes into named stages, run in order:

========== =====================================================
stage      artefact
========== =====================================================
parse      the VHDL1 AST (:func:`repro.vhdl.parser.parse_program`)
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

A source whose parse shows component instantiations runs the *linked*
plan (:data:`LINKED_STAGES`, :mod:`repro.hier`) instead: three stages stand
in for ``elaborate``, ``cfg``, ``active`` and ``local``, and every later
stage is shared with the flat plan.

========== =====================================================
hierarchy  the checked :class:`~repro.hier.structure.DesignHierarchy`
summary    one :class:`~repro.hier.summary.EntitySummary` per entity
place      the flat design, its ``ProgramCFG``, the Table 4 results and
           ``RM_lo``, placed from the summaries
========== =====================================================

Each stage is individually invokable (``Pipeline.run(..., until="cfg")``
stops after the CFG; ``PipelineResult.artifacts`` exposes every intermediate
artefact), wall-clock timed (``PipelineResult.timings``), and backed by a
content-addressed artifact cache (any of the stores in
:mod:`repro.pipeline.cache` — in-memory, on-disk, or the two-tier
composition) keyed by source hash + the analysis options the stage depends
on — so repeated runs of the same design skip straight to the cached
artefacts (``PipelineResult.cached_stages`` says which), across process
restarts when the cache has a disk tier.

The :class:`AnalysisOptions` fields each stage's cache key includes
(``Stage.option_fields``; see also ``docs/architecture.md``):

========== ==========================================================
stage      cache-key option fields (plus the stage name + source hash)
========== ==========================================================
parse      —
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
hierarchy  never cached (a cheap pass over the cached parse)
summary    no stage entry: each entity's summary is cached under
           ``summary:v<format>:<self-slice digest>:<entity>:loop_processes=…``
place      entity, loop_processes
========== ==========================================================

The ``lint`` stage caches the *complete* rule catalog's findings at default
severities (a plain tuple of diagnostics, not universe-bound); a policy
file's ``[lint]`` selection and severity overrides are applied after the
stage, so one cached artefact serves every lint configuration.

Universe discipline: stages from ``local`` (``place`` on the linked plan)
onward intern resource names into the run's :class:`~repro.dataflow.universe.FactUniverse`.  Their cached
artefacts are stored *together with* the universe they were built in and a
cache hit adopts that universe, keeping bitset-encoded artefacts and universe
consistent.  When a caller pins an explicit ``universe=`` (to pool several
runs), those stages bypass the cache — a cached matrix from another universe
would not be poolable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.closure import global_resource_matrix
from repro.analysis.flowgraph import FlowGraph
from repro.analysis.improved import improved_global_resource_matrix
from repro.analysis.kemmerer import kemmerer_analysis
from repro.analysis.local_deps import local_resource_matrix
from repro.analysis.reaching_active import analyze_all_active_signals
from repro.analysis.reaching_defs import analyze_reaching_definitions
from repro.analysis.specialize import specialize
from repro.cfg.builder import build_cfg
from repro.dataflow import bitset
from repro.dataflow.universe import FactUniverse
from repro.errors import AnalysisError
from repro.hier.link import link_hierarchy, summarize_hierarchy
from repro.hier.structure import build_hierarchy, has_instantiations
from repro.pipeline.artifacts import (
    AnalysisOptions,
    AnalysisResult,
    PipelineResult,
    StageTiming,
)
from repro.pipeline.cache import ArtifactCache, source_digest
from repro.vhdl.elaborate import Design, elaborate
from repro.vhdl.parser import parse_program


@dataclass
class PipelineContext:
    """The mutable artefact store one pipeline run threads through its stages."""

    options: AnalysisOptions
    universe: FactUniverse
    universe_pinned: bool = False
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


def _run_parse(ctx: PipelineContext) -> Any:
    return parse_program(ctx.source)


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
    return kemmerer_analysis(ctx.program_cfg, universe=ctx.universe)


def _run_lint(ctx: PipelineContext) -> Any:
    # Imported lazily: the lint package imports repro.security.report, which
    # imports repro.analysis.api, which itself imports this package.
    from repro.analysis.lint import run_lint_rules

    return run_lint_rules(ctx.analysis)


def _run_report(ctx: PipelineContext) -> Any:
    # Imported lazily: repro.security.report imports repro.analysis.api,
    # which itself imports this package.
    from repro.security.report import build_report

    return build_report(ctx.analysis, ctx.policy, **ctx.report_options)


@dataclass(frozen=True)
class Stage:
    """One named pipeline step.

    ``attr`` names the context attribute the artefact lands in (a tuple of
    names for a stage producing several artefacts at once).
    ``option_fields`` lists the :class:`AnalysisOptions` fields the stage's
    artefact depends on — they (with the source hash and the stage name) form
    the cache key.  ``universe_bound`` marks artefacts encoded against the
    session universe; they are cached together with it.
    """

    name: str
    attr: Union[str, Tuple[str, ...]]
    run: Callable[[PipelineContext], Any]
    option_fields: Tuple[str, ...] = ()
    universe_bound: bool = False
    cacheable: bool = True


_ENTITY = ("entity",)
_SHAPE = ("entity", "loop_processes")
_RD = ("entity", "loop_processes", "use_under_approximation")
_ALL = ("entity", "loop_processes", "use_under_approximation", "improved")

PARSE = Stage("parse", "program", _run_parse)
ELABORATE = Stage("elaborate", "design", _run_elaborate, _ENTITY)
CFG = Stage("cfg", "program_cfg", _run_cfg, _SHAPE)
ACTIVE = Stage("active", "active", _run_active, _SHAPE)
REACHING = Stage("reaching", "reaching", _run_reaching, _RD)
LOCAL = Stage("local", "rm_local", _run_local, _SHAPE, universe_bound=True)
SPECIALIZE = Stage("specialize", "specialized", _run_specialize, _RD, universe_bound=True)
CLOSURE = Stage("closure", "closure", _run_closure, _ALL, universe_bound=True)
FLOW_GRAPH = Stage("flow_graph", "graph", _run_flow_graph, _ALL, universe_bound=True)
LINT = Stage("lint", "lint", _run_lint, _ALL)
KEMMERER = Stage("kemmerer", "kemmerer", _run_kemmerer, _SHAPE, universe_bound=True)
REPORT = Stage("report", "report", _run_report, cacheable=False)
# The hierarchy is a cheap pass over the cached parse, and the summary stage
# caches each entity under its own key (repro.hier.summary), so neither has a
# pipeline cache entry of its own.
HIERARCHY = Stage("hierarchy", "hierarchy", _run_hierarchy, _ENTITY, cacheable=False)
SUMMARY = Stage(
    "summary", "summaries", _run_summary, ("loop_processes",), cacheable=False
)
PLACE = Stage(
    "place",
    ("design", "program_cfg", "active", "rm_local"),
    _run_place,
    _SHAPE,
    universe_bound=True,
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

#: Kemmerer's baseline shares the frontend stages.
KEMMERER_STAGES: Tuple[Stage, ...] = (PARSE, ELABORATE, CFG, KEMMERER)

STAGE_NAMES: Tuple[str, ...] = tuple(stage.name for stage in ANALYSIS_STAGES)


#: Stages whose artefacts are produced by a selectable bitset backend
#: (:mod:`repro.dataflow.bitset`); the active backend is part of their cache
#: key so artefacts can never be served across a backend switch.  The
#: backends are cross-checked byte-identical, so this is defence in depth
#: for the content-address contract, not a correctness requirement.
_BACKEND_KEYED = frozenset({"closure", "flow_graph"})


def _store(ctx: PipelineContext, stage: Stage, artifact: Any) -> None:
    """Set the stage's context attribute(s) from its artefact."""
    if isinstance(stage.attr, tuple):
        for name, value in zip(stage.attr, artifact):
            setattr(ctx, name, value)
    else:
        setattr(ctx, stage.attr, artifact)


def stage_key(stage: Stage, source_key: str, options: AnalysisOptions) -> str:
    """The content address of one stage artefact.

    A stage with no ``option_fields`` keys on its name and the source hash
    alone — the ``parse`` artefact is deliberately option- *and*
    entity-independent (``parse:<sha256>``), so one parse serves every
    entity/option configuration of a file; the batch driver and the serve
    pool rely on this to share parses across jobs on the same source.
    """
    parts = [stage.name, source_key]
    if stage.option_fields:
        parts.extend(
            f"{name}={getattr(options, name)!r}" for name in stage.option_fields
        )
    if stage.name in _BACKEND_KEYED:
        parts.append(f"backend={bitset.backend_for(stage.name)}")
    return ":".join(parts)


class Pipeline:
    """Runs the staged analysis, optionally over a shared artifact cache.

    One :class:`Pipeline` can serve many runs; pass an
    :class:`~repro.pipeline.cache.ArtifactCache` to reuse artefacts across
    them.  Without a cache every run computes everything (this is what the
    thin :func:`repro.analysis.api.analyze` wrappers do, preserving their
    one-universe-per-call semantics).
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
        universe: Optional[FactUniverse] = None,
        until: Optional[str] = None,
        policy: Optional[Any] = None,
        report_options: Optional[Dict[str, Any]] = None,
        profile: bool = False,
    ) -> PipelineResult:
        """Analyse VHDL1 source text, stage by stage.

        A source whose parse shows component instantiations runs
        :data:`LINKED_STAGES` instead of :data:`ANALYSIS_STAGES`.  ``until``
        names the last stage to run (``"cfg"`` stops after the CFG is built;
        ``"place"`` after a hierarchical design is placed).  ``policy``
        enables the final ``report`` stage;
        ``report_options`` passes keyword arguments through to
        :func:`repro.security.report.build_report`.  ``profile=True`` runs
        every computed stage under cProfile and attaches the per-stage hot
        spots to the result (:attr:`PipelineResult.stage_profiles`); the
        reported wall-clock timings then include profiler overhead.
        """
        ctx = self._context(options, universe)
        ctx.source = source
        ctx.source_key = source_digest(source)
        self._set_policy(ctx, policy, report_options)
        return self._execute(
            ctx, ANALYSIS_STAGES, until, profile=profile, linked=LINKED_STAGES
        )

    def run_design(
        self,
        design: Design,
        options: Optional[AnalysisOptions] = None,
        *,
        universe: Optional[FactUniverse] = None,
        until: Optional[str] = None,
        policy: Optional[Any] = None,
        report_options: Optional[Dict[str, Any]] = None,
    ) -> PipelineResult:
        """Analyse an already-elaborated design (frontend stages skipped).

        Without source text there is no content address, so these runs do not
        touch the artifact cache.
        """
        ctx = self._context(options, universe)
        ctx.design = design
        self._set_policy(ctx, policy, report_options)
        return self._execute(ctx, ANALYSIS_STAGES[2:], until)

    def run_lint(
        self,
        source: str,
        options: Optional[AnalysisOptions] = None,
        *,
        universe: Optional[FactUniverse] = None,
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
        ctx = self._context(options, universe)
        ctx.source = source
        ctx.source_key = source_digest(source)
        self._set_policy(ctx, policy, report_options)
        return self._execute(
            ctx, LINT_STAGES, None, profile=profile, linked=LINKED_LINT_STAGES
        )

    def run_kemmerer(
        self,
        source: str,
        options: Optional[AnalysisOptions] = None,
        *,
        universe: Optional[FactUniverse] = None,
    ) -> PipelineResult:
        """Run Kemmerer's baseline (parse → elaborate → cfg → kemmerer)."""
        ctx = self._context(options, universe)
        ctx.source = source
        ctx.source_key = source_digest(source)
        return self._execute(ctx, KEMMERER_STAGES, None)

    def run_kemmerer_design(
        self,
        design: Design,
        options: Optional[AnalysisOptions] = None,
        *,
        universe: Optional[FactUniverse] = None,
    ) -> PipelineResult:
        """Kemmerer's baseline on an already-elaborated design."""
        ctx = self._context(options, universe)
        ctx.design = design
        return self._execute(ctx, KEMMERER_STAGES[2:], None)

    # ---------------------------------------------------------------- internals

    def _context(
        self, options: Optional[AnalysisOptions], universe: Optional[FactUniverse]
    ) -> PipelineContext:
        return PipelineContext(
            options=options if options is not None else AnalysisOptions(),
            universe=universe if universe is not None else FactUniverse(),
            universe_pinned=universe is not None,
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
        stages: Sequence[Stage],
        until: Optional[str],
        profile: bool = False,
        linked: Optional[Sequence[Stage]] = None,
    ) -> PipelineResult:
        """Run ``stages`` up to ``until``.

        With a ``linked`` alternative the parse decides: a program with
        component instantiations runs ``linked`` instead (both plans start
        with ``parse``).
        """
        plans = [stages] if linked is None else [stages, linked]
        known = list(dict.fromkeys(stage.name for plan in plans for stage in plan))
        if until is not None and until not in known:
            raise AnalysisError(
                f"unknown pipeline stage {until!r}; expected one of "
                + ", ".join(known)
            )
        plan = list(stages)
        done = 0
        if linked is not None:
            self._run_stage(ctx, PARSE, profile=profile)
            done = 1
            if has_instantiations(ctx.program):
                plan = list(linked)
        if until is not None:
            names = [stage.name for stage in plan]
            if until not in names:
                raise AnalysisError(
                    f"pipeline stage {until!r} is not part of this source's "
                    "plan; expected one of " + ", ".join(names)
                )
            plan = plan[: names.index(until) + 1]
        if ctx.policy is None and plan[-1] is REPORT:
            plan = plan[:-1]

        for stage in plan[done:]:
            self._run_stage(ctx, stage, profile=profile)
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

    def _run_stage(
        self, ctx: PipelineContext, stage: Stage, profile: bool = False
    ) -> None:
        key = None
        if (
            self.cache is not None
            and stage.cacheable
            and ctx.source_key is not None
            and not (stage.universe_bound and ctx.universe_pinned)
        ):
            key = stage_key(stage, ctx.source_key, ctx.options)
            cached = self.cache.get(key)
            if cached is not None and stage.universe_bound:
                # All universe-bound artefacts of one run must share one
                # universe.  Once the run's universe is fixed (an earlier
                # universe-bound stage computed fresh, or adopted a cached
                # universe), a surviving entry built against a *different*
                # universe — possible after partial eviction — is unusable
                # here: using it would assemble a mixed-universe result.
                _, cached_universe = cached
                if ctx.universe_locked and cached_universe is not ctx.universe:
                    cached = None
                    self.cache.hits -= 1
                    self.cache.misses += 1
            if cached is not None:
                started = time.perf_counter()
                if stage.universe_bound:
                    artifact, universe = cached
                    ctx.universe = universe
                    ctx.universe_locked = True
                else:
                    artifact = cached
                _store(ctx, stage, artifact)
                ctx.stages.append(
                    StageTiming(stage.name, time.perf_counter() - started, cached=True)
                )
                return

        stage_profile = None
        started = time.perf_counter()
        if profile:
            artifact, stage_profile = self._run_profiled(ctx, stage)
        else:
            artifact = stage.run(ctx)
        elapsed = time.perf_counter() - started
        _store(ctx, stage, artifact)
        if stage.universe_bound:
            ctx.universe_locked = True
        if key is not None:
            value = (artifact, ctx.universe) if stage.universe_bound else artifact
            self.cache.put(key, value)
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
