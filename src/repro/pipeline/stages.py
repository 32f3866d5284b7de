"""The staged analysis pipeline.

A full Information Flow analysis decomposes into the named stages of
:data:`STAGES`.  Every analysis reads ``parse → front → reaching →
specialize → closure → flow_graph → inventory``, plus ``graph_json``,
``lint``, ``kemmerer`` or ``report`` and ``report_json``, and its front is
one of :data:`FRONTS`: a flat source's is ``elaborate``, and a source with
component instantiations is *linked* (:mod:`repro.hier`), its front
``place``.  Both fronts yield the same four artefacts, because Tables 4 and
6 are per-process and closed under renaming:

=========== =====================================================
stage       artefact
=========== =====================================================
parse       the VHDL1 AST of the units the run reads
            (:func:`repro.vhdl.parser.parse_program`), one design unit at
            a time
elaborate   the flat front: the :class:`~repro.vhdl.elaborate.Design`, its
            :class:`~repro.cfg.builder.ProgramCFG`, the per-process
            active-signals results (Table 4) and the local Resource Matrix
            ``RM_lo`` (Table 6)
place       the linked front: the same four artefacts, placed from one
            :class:`~repro.hier.summary.EntitySummary` per entity of the
            checked :class:`~repro.hier.structure.DesignHierarchy`
reaching    the Reaching Definitions (Table 5), solved once per process
            shape
specialize  the specialised RD results ``RD†``/``RD†ϕ`` (Table 7)
closure     the closed matrix ``RM_gl`` (Table 8, optionally Table 9)
flow_graph  the information-flow graph
graph_json  the :class:`~repro.pipeline.artifacts.GraphJSON`: an analyze
            document's ``graph`` member rendered for the run's shaping
            flags, and the shaped graph's node and edge counts
inventory   the :class:`~repro.pipeline.artifacts.Inventory`: design name,
            ports, CFG counts and matrix sizes, what documents read besides
            the graph
lint        the lint findings (``vhdl-ifa lint`` runs only; full catalog)
kemmerer    Kemmerer's baseline, the transitive closure of ``RM_lo``
            (``vhdl-ifa kemmerer`` runs only)
report      the covert-channel report (only when a policy is given)
report_json the :class:`~repro.pipeline.artifacts.ReportJSON`: what every
            output of a check prints, the report's ``violations`` member
            rendered, its text and its small members (only when a policy
            is given)
=========== =====================================================

A run is asked for its *goals*, a tuple of stage names:
:data:`ANALYSIS_GOALS` (``flow_graph``, ``inventory`` and, with a policy,
``report``: the full analysis and its report), :data:`ANALYZE_GOALS`
(``graph_json`` and ``inventory``: what an analyze document reads),
:data:`CHECK_GOALS` (``report_json``: what every output of a check reads),
:data:`LINT_GOALS` (``inventory``, ``lint`` and, with a policy, ``report``),
``("kemmerer",)``, or one stage of a partial run, such as ``("parse",)`` or
a front.  Every other stage is on demand.  A goal is served from the cache
when it can be; a stage that misses first resolves the producers of the
context attributes it reads (``Stage.needs``) and the context lacks, then
runs.  The :class:`~repro.pipeline.artifacts.AnalysisResult` a run returns
is a view over its context, and resolves any other artefact the first time
a caller reads it.

Only the front depends on the source, and it reads one entity/architecture
pair and the entities it instantiates.  So before its first keyed lookup a
run with a cache resolves its :class:`Reach`: the units its entity reaches,
the file's front, and the key every stage entry is stored under.  A file
text seen before has its reach recorded, so a fully cached run reads that
record and its goal entries and nothing else.  On first contact the run
reads every unit's outline, parsing the units that have none (this is its
``parse``), and an edit that changes no reached unit and no outline keeps
the key: nothing after the parse runs again.  The fronts read the
``Program`` of the reached units; a ``("parse",)`` run, which analyses no
entity, yields the whole file.  Without a cache the run parses the whole
file and looks for instantiations.

Each stage is individually invokable (``Pipeline.run(...,
goals=("elaborate",))`` stops after the flat front;
``PipelineResult.artifacts`` exposes every resolved artefact), wall-clock
timed (``PipelineResult.timings``), and backed by a content-addressed
artifact cache (any of the stores in :mod:`repro.pipeline.cache` —
in-memory, on-disk, or the two-tier composition) keyed by the reach key + the
analysis options the stage depends on — so repeated runs of the same design
skip straight to the cached artefacts (``PipelineResult.cached_stages`` says
which), across process restarts when the cache has a disk tier.  A stage the
run neither read nor ran appears in neither ``timings`` nor
``cached_stages``.

The :class:`AnalysisOptions` fields each stage's cache key includes
(``Stage.option_fields``; see also ``docs/architecture.md``):

=========== ==========================================================
stage       cache-key option fields (plus the stage name + reach key)
=========== ==========================================================
parse       no stage entry: each design unit is cached under
            ``parse:<sha256 of "<first line>:<unit text>">``, its outline
            under ``unit:<the same digest>``, and a file text's
            :class:`Reach` under ``reach:<sha256(file)>:entity=…``
elaborate   entity, loop_processes
place       entity, loop_processes; each entity's summary is also cached
            under ``summary:v<format>:<self-slice digest>:<entity>:loop_processes=…``
reaching    entity, loop_processes, use_under_approximation
specialize  entity, loop_processes, use_under_approximation
closure     entity, loop_processes, use_under_approximation, improved
flow_graph  entity, loop_processes, use_under_approximation, improved
graph_json  entity, loop_processes, use_under_approximation, improved,
            collapse, self_loops
inventory   entity, loop_processes, use_under_approximation, improved
lint        entity, loop_processes, use_under_approximation, improved
kemmerer    entity, loop_processes
report      never cached: ``report_json`` caches what a check prints of it
report_json entity, loop_processes, use_under_approximation, improved, then
            ``policy=<sha256>`` over the policy's content and the report
            options (:func:`~repro.security.report.report_key`); a policy
            of another class than the package's three is never cached
=========== ==========================================================

The ``lint`` stage caches the *complete* rule catalog's findings at default
severities (a plain tuple of diagnostics); a policy file's ``[lint]``
selection and severity overrides are applied after the stage, so one cached
artefact serves every lint configuration.

Universes: each front interns the design's names into a fresh
:class:`~repro.dataflow.universe.FactUniverse` and ends with Table 9's
``n◦``/``n•`` nodes (:func:`~repro.analysis.improved.intern_environment_nodes`),
so no later stage interns.  A cache entry is the artefact alone: each bitset
artefact holds the universe it decodes through, and no stage combines the
bitsets of two artefacts, so artefacts served from different entries may
hold different universe objects with the same facts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import repro.analysis.lint
import repro.security.report
from repro.analysis.closure import global_resource_matrix
from repro.analysis.flowgraph import FlowGraph
from repro.analysis.improved import (
    improved_global_resource_matrix,
    intern_environment_nodes,
)
from repro.analysis.kemmerer import kemmerer_analysis
from repro.analysis.local_deps import local_resource_matrix
from repro.analysis.reaching_active import analyze_all_active_signals
from repro.analysis.reaching_defs import analyze_reaching_definitions
from repro.analysis.specialize import specialize
from repro.cfg.builder import build_cfg
from repro.errors import AnalysisError, ReproError, nesting_limit
from repro.hier.link import Placed, link_hierarchy, summarize_hierarchy
from repro.hier.structure import build_hierarchy, has_instantiations, outline, reach
from repro.pipeline.artifacts import (
    AnalysisOptions,
    AnalysisResult,
    GraphJSON,
    Inventory,
    PipelineResult,
    ReportJSON,
    StageTiming,
)
from repro.pipeline.cache import ArtifactCache, source_digest
from repro.pipeline.render import render_graph_json, render_report_json
from repro.vhdl.ast import Program
from repro.vhdl.elaborate import Design, elaborate
from repro.vhdl.parser import parse_program, split_units


@dataclass(frozen=True)
class Reach:
    """The units one entity's analysis of a file reads, and the key they give.

    ``key`` stands for the file in every stage key: a sha256 over every
    unit's :class:`~repro.hier.structure.Outline`, in file order, and the
    first line and text of each reached unit.  ``front`` names the file's
    front, and ``units`` the reached units' indices in
    :func:`~repro.vhdl.parser.split_units` order.
    """

    key: str
    front: str
    units: Tuple[int, ...]


@dataclass
class PipelineContext:
    """The artefact store of one pipeline run, and what resolves the rest of it.

    Stages read and write artefacts here.  ``pipeline``, ``front`` and
    ``missed`` let :meth:`artifact` resolve an artefact the run has not
    resolved yet, during the run or after it returned.  Nothing here refers
    back to the :class:`~repro.pipeline.artifacts.AnalysisResult` views over
    it.
    """

    options: AnalysisOptions
    source: Optional[str] = None
    goals: Tuple[str, ...] = ()
    """The stages the run was asked for: the cache keeps their artefacts in
    its main queue, as it does any stage some verb asks for
    (:data:`_ASKED_FOR`), and puts every other one it computes on
    probation."""
    reach: Optional[Reach] = None
    """The run's :class:`Reach`, resolved before its first keyed lookup."""
    parsed: Dict[int, Program] = field(default_factory=dict)
    """The units the run parsed, by index: the parse reads them first."""
    cache: Optional[ArtifactCache] = None
    program: Optional[Any] = None
    design: Optional[Design] = None
    program_cfg: Optional[Any] = None
    active: Optional[Any] = None
    reaching: Optional[Any] = None
    rm_local: Optional[Any] = None
    specialized: Optional[Any] = None
    closure: Optional[Any] = None
    graph: Optional[FlowGraph] = None
    graph_json: Optional[GraphJSON] = None
    inventory: Optional[Inventory] = None
    kemmerer: Optional[Any] = None
    lint: Optional[Any] = None
    policy: Optional[Any] = None
    report_options: Dict[str, Any] = field(default_factory=dict)
    report: Optional[Any] = None
    report_json: Optional[ReportJSON] = None
    stages: List[StageTiming] = field(default_factory=list)
    pipeline: Optional["Pipeline"] = field(default=None, repr=False)
    """The engine that resolves missing artefacts; None resolves nothing."""
    front: Optional["Stage"] = field(default=None, repr=False)
    """The source's front (``elaborate`` or ``place``), once it is picked."""
    missed: Set[str] = field(default_factory=set)
    """The stages whose lookup missed in this run (never looked up again)."""
    profile: bool = False

    def artifact(self, name: str) -> Any:
        """The artefact in attribute ``name``, resolving its stage if missing."""
        value = getattr(self, name)
        if value is None and self.pipeline is not None:
            self.pipeline._provide(self, name)
            value = getattr(self, name)
        return value


def _run_parse(ctx: PipelineContext) -> Program:
    """The AST of the units the run reads, each from the cache or parsed.

    A run with a :class:`Reach` reads the units its entity reaches, and a
    run without one (no cache, or a ``("parse",)`` run, which analyses no
    entity) the whole file.  A unit is keyed on its first line and its text
    (see :func:`~repro.vhdl.parser.split_units`), so an edit re-parses only
    the units whose text or first line it changed.  A unit the parser
    rejects is not cached, and the whole file is parsed instead, for its
    error.
    """
    if ctx.cache is None:
        return parse_program(ctx.source)
    units = split_units(ctx.source)
    program = Program()
    for index in range(len(units)) if ctx.reach is None else ctx.reach.units:
        line, text = units[index]
        digest = source_digest(f"{line}:{text}")
        unit = ctx.parsed.get(index)
        if unit is None:
            unit = ctx.cache.get(f"parse:{digest}")
        if unit is None:
            unit = _parse_unit(ctx, line, text, digest)
            if unit is None:
                return parse_program(ctx.source)
        program.entities.extend(unit.entities)
        program.architectures.extend(unit.architectures)
    return program


def _parse_unit(
    ctx: PipelineContext, line: int, text: str, digest: str
) -> Optional[Program]:
    """Parse one unit and cache its AST and its outline (None if rejected)."""
    try:
        unit = parse_program(text, line)
    except ReproError:
        return None
    ctx.cache.put(f"parse:{digest}", unit, probation=PARSE.name not in ctx.goals)
    ctx.cache.put(f"unit:{digest}", outline(unit))
    return unit


def _find_reach(ctx: PipelineContext) -> Reach:
    """The :class:`Reach` of a file text the cache has no record of.

    Every unit's outline is read from its ``unit:`` entry, or the unit is
    parsed and both its entries written, so every unit is checked: a unit
    the parser rejects gives the whole-file parse's error, as in
    :func:`_run_parse`.  The front and the reached units are picked from
    the outlines (:func:`~repro.hier.structure.reach`).
    """
    units = split_units(ctx.source)
    outlines = []
    for index, (line, text) in enumerate(units):
        digest = source_digest(f"{line}:{text}")
        found = ctx.cache.get(f"unit:{digest}")
        if found is None:
            unit = _parse_unit(ctx, line, text, digest)
            if unit is None:
                # The file's error; should the file parse, it reaches all.
                program = parse_program(ctx.source)
                front = PLACE if has_instantiations(program) else ELABORATE
                everything = tuple(range(len(units)))
                return Reach(source_digest(ctx.source), front.name, everything)
            ctx.parsed[index] = unit
            found = outline(unit)
        outlines.append(found)
    linked, reached = reach(outlines, ctx.options.entity)
    key = source_digest(repr((outlines, [units[index] for index in reached])))
    return Reach(key, (PLACE if linked else ELABORATE).name, reached)


def _run_elaborate(ctx: PipelineContext) -> Placed:
    """The flat front: the design, its CFG, Table 4 and ``RM_lo``.

    Building the CFG labels the design's statements in place, so the design
    is stored only with its labels.  ``RM_lo``'s universe is final.
    """
    design = elaborate(ctx.program, ctx.options.entity)
    program_cfg = build_cfg(design, loop_processes=ctx.options.loop_processes)
    active = analyze_all_active_signals(program_cfg.processes)
    rm_local = local_resource_matrix(program_cfg)
    intern_environment_nodes(rm_local, design)
    return design, program_cfg, active, rm_local


def _run_place(ctx: PipelineContext) -> Placed:
    """The linked front: each entity summarised (and cached under a key of
    its own), then every instance placed into the flat namespace.
    ``RM_lo``'s universe is final."""
    hierarchy = build_hierarchy(ctx.program, ctx.options.entity)
    summaries = summarize_hierarchy(hierarchy, ctx.options.loop_processes, ctx.cache)
    design, program_cfg, active, rm_local = link_hierarchy(hierarchy, summaries)
    intern_environment_nodes(rm_local, design)
    return design, program_cfg, active, rm_local


def _run_reaching(ctx: PipelineContext) -> Any:
    return analyze_reaching_definitions(
        ctx.program_cfg,
        ctx.active,
        use_under_approximation=ctx.options.use_under_approximation,
    )


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


def _run_graph_json(ctx: PipelineContext) -> GraphJSON:
    return render_graph_json(ctx.graph, ctx.options.collapse, ctx.options.self_loops)


def _run_inventory(ctx: PipelineContext) -> Inventory:
    design = ctx.design
    return Inventory(
        design=design.name,
        input_ports=tuple(design.input_ports),
        output_ports=tuple(design.output_ports),
        cfg_stats=ctx.program_cfg.summary(),
        local_entries=len(ctx.rm_local),
        global_entries=len(ctx.closure.rm_global),
    )


def _run_kemmerer(ctx: PipelineContext) -> Any:
    return kemmerer_analysis(ctx.rm_local)


# Looked up on their modules at call time: perfbench/spans.py wraps them there.
def _run_lint(ctx: PipelineContext) -> Any:
    return repro.analysis.lint.run_lint_rules(AnalysisResult(ctx))


def _run_report(ctx: PipelineContext) -> Any:
    return repro.security.report.build_report(
        AnalysisResult(ctx), ctx.policy, **ctx.report_options
    )


def _run_report_json(ctx: PipelineContext) -> ReportJSON:
    return render_report_json(ctx.report)


def _report_key(ctx: PipelineContext) -> Optional[str]:
    """The policy part of a ``report_json`` key, None for a policy whose
    report cannot be told from its data
    (:func:`~repro.security.report.report_key`)."""
    digest = repro.security.report.report_key(ctx.policy, **ctx.report_options)
    return None if digest is None else f"policy={digest}"


@dataclass(frozen=True)
class Stage:
    """One named pipeline step.

    ``attr`` names the context attribute the artefact lands in (a tuple of
    names for a stage producing several artefacts at once).
    ``option_fields`` lists the :class:`AnalysisOptions` fields the stage's
    artefact depends on — they (with the reach key and the stage name) form
    the cache key.  ``needs`` names the context attributes ``run`` reads
    besides those key inputs, ``options`` and ``reach``: a stage that misses
    the cache first resolves, in that order, the producers of those the
    context lacks (the order makes a cold run compute the stages in chain
    order).  ``key_part`` adds one more part to the key, computed from the
    run's other inputs (the policy, for ``report_json``); when it gives
    None, the run neither serves the stage from the cache nor stores it.
    """

    name: str
    attr: Union[str, Tuple[str, ...]]
    run: Callable[[PipelineContext], Any]
    option_fields: Tuple[str, ...] = ()
    cacheable: bool = True
    needs: Tuple[str, ...] = ()
    key_part: Optional[Callable[[PipelineContext], Optional[str]]] = None


_SHAPE = ("entity", "loop_processes")
_RD = ("entity", "loop_processes", "use_under_approximation")
_ALL = ("entity", "loop_processes", "use_under_approximation", "improved")
#: The graph member is rendered for the CLI's shaping flags too.
_SHAPED = (
    "entity",
    "loop_processes",
    "use_under_approximation",
    "improved",
    "collapse",
    "self_loops",
)
#: What either front yields.
_FRONT = ("design", "program_cfg", "active", "rm_local")

PARSE = Stage(
    "parse",
    "program",
    _run_parse,
    cacheable=False,
    needs=("source", "cache"),
)
ELABORATE = Stage(
    "elaborate",
    _FRONT,
    _run_elaborate,
    _SHAPE,
    needs=("program",),
)
PLACE = Stage(
    "place",
    _FRONT,
    _run_place,
    _SHAPE,
    needs=("program", "cache"),
)
REACHING = Stage(
    "reaching", "reaching", _run_reaching, _RD, needs=("program_cfg", "active")
)
SPECIALIZE = Stage(
    "specialize",
    "specialized",
    _run_specialize,
    _RD,
    needs=("program_cfg", "active", "reaching", "rm_local"),
)
CLOSURE = Stage(
    "closure",
    "closure",
    _run_closure,
    _ALL,
    needs=("program_cfg", "specialized", "rm_local", "design"),
)
FLOW_GRAPH = Stage(
    "flow_graph",
    "graph",
    _run_flow_graph,
    _ALL,
    needs=("closure",),
)
GRAPH_JSON = Stage(
    "graph_json",
    "graph_json",
    _run_graph_json,
    _SHAPED,
    needs=("graph",),
)
INVENTORY = Stage(
    "inventory",
    "inventory",
    _run_inventory,
    _ALL,
    needs=("design", "program_cfg", "rm_local", "closure"),
)
LINT = Stage(
    "lint",
    "lint",
    _run_lint,
    _ALL,
    needs=("design", "program_cfg", "reaching", "graph"),
)
KEMMERER = Stage(
    "kemmerer",
    "kemmerer",
    _run_kemmerer,
    _SHAPE,
    needs=("rm_local",),
)
REPORT = Stage(
    "report",
    "report",
    _run_report,
    cacheable=False,
    needs=("graph", "inventory", "policy", "report_options"),
)
REPORT_JSON = Stage(
    "report_json",
    "report_json",
    _run_report_json,
    _ALL,
    needs=("report",),
    key_part=_report_key,
)

#: Every stage, in the order a cold analysis computes them.
STAGES: Tuple[Stage, ...] = (
    PARSE,
    ELABORATE,
    PLACE,
    REACHING,
    SPECIALIZE,
    CLOSURE,
    FLOW_GRAPH,
    GRAPH_JSON,
    INVENTORY,
    LINT,
    KEMMERER,
    REPORT,
    REPORT_JSON,
)

#: The two fronts: a flat source's and a linked source's.
FRONTS: Tuple[Stage, ...] = (ELABORATE, PLACE)

#: The full analysis: the flow graph and the inventory, and the report when
#: a policy is given (a check).
ANALYSIS_GOALS: Tuple[str, ...] = ("flow_graph", "inventory", "report")

#: An analyze run: what its document reads, the rendered graph member and
#: the inventory.
ANALYZE_GOALS: Tuple[str, ...] = ("graph_json", "inventory")

#: A check run: what every output of a check reads, the rendered report
#: (resolved only when a policy is given).
CHECK_GOALS: Tuple[str, ...] = ("report_json",)

#: The lint run: what its document reads, the inventory and the cached
#: ``lint`` stage, and the report when a policy is given.
LINT_GOALS: Tuple[str, ...] = ("inventory", "lint", "report")

#: Every stage some verb asks for.  A run that computes one on the way to
#: its own goals keeps it in the cache's main queue too, for the verb that
#: reads it next: an analyze's flow graph serves a later check.
_ASKED_FOR = frozenset(
    (*ANALYSIS_GOALS, *ANALYZE_GOALS, *CHECK_GOALS, *LINT_GOALS, "kemmerer")
)

_BY_NAME: Dict[str, Stage] = {stage.name: stage for stage in STAGES}


def _attrs(stage: Stage) -> Tuple[str, ...]:
    """The context attributes the stage's artefact lands in."""
    return stage.attr if isinstance(stage.attr, tuple) else (stage.attr,)


#: Each context attribute a stage other than a front produces → that stage.
#: The front's attributes come from :meth:`Pipeline._front`, and any other
#: need (the source, the cache, the policy) is a run input.
_PRODUCERS: Dict[str, Stage] = {
    name: stage for stage in STAGES if stage not in FRONTS for name in _attrs(stage)
}


def _resolved(ctx: PipelineContext, stage: Stage) -> bool:
    """True once ``stage``'s artefact is in the context."""
    return all(getattr(ctx, name) is not None for name in _attrs(stage))


def _record(ctx: PipelineContext, timing: StageTiming) -> None:
    """Add ``timing`` to the run's stages.

    ``parse`` can run twice in one run, for the reach and then for the
    reached units' AST; its one entry adds up both.
    """
    for index, earlier in enumerate(ctx.stages):
        if earlier.name == timing.name:
            seconds = earlier.seconds + timing.seconds
            ctx.stages[index] = replace(timing, seconds=seconds)
            return
    ctx.stages.append(timing)


def _store(ctx: PipelineContext, stage: Stage, artifact: Any) -> None:
    """Set the stage's context attribute(s) from its artefact."""
    if isinstance(stage.attr, tuple):
        for name, value in zip(stage.attr, artifact):
            setattr(ctx, name, value)
    else:
        setattr(ctx, stage.attr, artifact)


def stage_key(
    stage: Stage,
    reach_key: str,
    options: AnalysisOptions,
    key_part: Optional[str] = None,
) -> str:
    """The content address of one stage artefact.

    ``reach_key`` is the run's :attr:`Reach.key`.  A stage with no
    ``option_fields`` keys on its name and the reach key alone;
    ``key_part``, what the stage's own ``key_part`` gave for the run, comes
    last.
    """
    parts = [stage.name, reach_key]
    if stage.option_fields:
        parts.extend(
            f"{name}={getattr(options, name)!r}" for name in stage.option_fields
        )
    if key_part is not None:
        parts.append(key_part)
    return ":".join(parts)


class Pipeline:
    """Runs the staged analysis, optionally over a shared artifact cache.

    The engine behind :class:`repro.workspace.Workspace`: :meth:`run`
    resolves the goals it is asked for.  One :class:`Pipeline` can serve
    many runs; pass an :class:`~repro.pipeline.cache.ArtifactCache` to reuse
    artefacts across them.  Without a cache every run computes everything
    it needs.
    """

    #: How many hot spots a profiled stage keeps (by internal time).
    PROFILE_TOP_N = 15

    def __init__(self, cache: Optional[ArtifactCache] = None):
        self.cache = cache

    def run(
        self,
        source: str,
        options: Optional[AnalysisOptions] = None,
        *,
        goals: Sequence[str] = ANALYSIS_GOALS,
        policy: Optional[Any] = None,
        report_options: Optional[Dict[str, Any]] = None,
        profile: bool = False,
    ) -> PipelineResult:
        """Resolve the stages named in ``goals`` for VHDL1 source text.

        The default goals are the Information Flow analysis;
        :data:`ANALYZE_GOALS` asks for an analyze document's rendered graph
        member (shaped by the ``collapse``/``self_loops`` options) instead
        of the graph, :data:`LINT_GOALS` for the lint findings
        (``run.artifacts.lint``, the complete catalog at default severities)
        and the inventory, :data:`CHECK_GOALS` for a check's rendered
        report, ``("kemmerer",)`` runs
        Kemmerer's baseline alone, and one stage's name stops there
        (``("parse",)`` yields the AST, ``("elaborate",)`` or ``("place",)``
        the source's front; the other front is an error).  ``report`` and
        ``report_json`` resolve only when a ``policy`` is given;
        ``report_options`` passes keyword arguments through to
        :func:`repro.security.report.build_report`.  ``profile=True`` runs
        every computed stage under cProfile and attaches the per-stage hot
        spots to the result (:attr:`PipelineResult.stage_profiles`); the
        reported wall-clock timings then include profiler overhead.
        """
        if isinstance(goals, str):
            raise AnalysisError(
                f"goals must be a tuple of stage names, not the string {goals!r}; "
                f"write goals=({goals!r},)"
            )
        for name in goals:
            if name not in _BY_NAME:
                raise AnalysisError(
                    f"unknown pipeline stage {name!r}; expected one of "
                    + ", ".join(_BY_NAME)
                )
        ctx = PipelineContext(
            options=options if options is not None else AnalysisOptions(),
            source=source,
            goals=tuple(goals),
            cache=self.cache,
            policy=policy,
            report_options=dict(report_options or {}),
            pipeline=self,
            profile=profile,
        )
        for name in goals:
            stage = _BY_NAME[name]
            if policy is None and (stage is REPORT or stage is REPORT_JSON):
                continue
            if stage in FRONTS and self._front(ctx) is not stage:
                raise AnalysisError(
                    f"pipeline stage {name!r} is not part of this source's "
                    "plan; expected one of "
                    + ", ".join(other.name for other in STAGES if other is not stage)
                )
            self._resolve(ctx, stage)
        return PipelineResult(
            options=ctx.options,
            stages=ctx.stages,
            result=AnalysisResult(ctx) if ctx.inventory is not None else None,
            kemmerer=ctx.kemmerer,
            report=ctx.report,
            artifacts=ctx,
        )

    # ---------------------------------------------------------------- internals

    def _provide(self, ctx: PipelineContext, name: str) -> None:
        """Resolve the stage that produces context attribute ``name``."""
        if name in _FRONT:
            self._resolve(ctx, self._front(ctx))
        elif name in _PRODUCERS:
            self._resolve(ctx, _PRODUCERS[name])

    def _front(self, ctx: PipelineContext) -> Stage:
        """The source's front, picked the first time the run needs it.

        With a cache it is the run's :class:`Reach`'s; without one the run
        parses the source and looks for instantiations.
        """
        if ctx.front is None:
            if self.cache is None:
                self._resolve(ctx, PARSE)
                ctx.front = PLACE if has_instantiations(ctx.program) else ELABORATE
            else:
                ctx.front = _BY_NAME[self._reach(ctx).front]
        return ctx.front

    def _reach(self, ctx: PipelineContext) -> Reach:
        """The run's :class:`Reach`, from its record or found and recorded.

        The record is keyed on the file text and the entity,
        ``reach:<sha256 of the file>:entity=…``.  Finding it
        (:func:`_find_reach`) reads every unit's outline and parses the units
        that have none, so it is timed as the run's ``parse``.
        """
        if ctx.reach is None:
            record = f"reach:{source_digest(ctx.source)}:entity={ctx.options.entity!r}"
            ctx.reach = self.cache.get(record)
            if ctx.reach is None:
                started = time.perf_counter()
                with nesting_limit(f"the {PARSE.name} stage"):
                    ctx.reach = _find_reach(ctx)
                self.cache.put(record, ctx.reach)
                _record(ctx, StageTiming(PARSE.name, time.perf_counter() - started))
        return ctx.reach

    def _resolve(self, ctx: PipelineContext, stage: Stage) -> None:
        """Put ``stage``'s artefact in ``ctx``, from the cache or by running it.

        A stage resolved earlier in the run is left as it is.  Only a stage
        that misses resolves the producers of the needs the context lacks.
        """
        if _resolved(ctx, stage) or self._serve(ctx, stage):
            return
        for name in stage.needs:
            if getattr(ctx, name) is None:
                self._provide(ctx, name)
        self._compute(ctx, stage)

    def _key(self, ctx: PipelineContext, stage: Stage) -> Optional[str]:
        """``stage``'s cache key in this run; None when the run neither
        serves it from the cache nor stores it."""
        if self.cache is None or not stage.cacheable:
            return None
        key_part = None
        if stage.key_part is not None:
            key_part = stage.key_part(ctx)
            if key_part is None:
                return None
        return stage_key(stage, self._reach(ctx).key, ctx.options, key_part)

    def _serve(self, ctx: PipelineContext, stage: Stage) -> bool:
        """Store ``stage``'s cached artefact in ``ctx``; False on a miss.

        A miss is remembered, so the run does not look the stage up again.
        The served stage's seconds cover the lookup and the read and
        unpickle of a lower tier.
        """
        if stage.name in ctx.missed:
            return False
        key = self._key(ctx, stage)
        if key is None:
            return False
        started = time.perf_counter()
        artifact = self.cache.get(key)
        if artifact is None:
            ctx.missed.add(stage.name)
            return False
        _store(ctx, stage, artifact)
        ctx.stages.append(
            StageTiming(stage.name, time.perf_counter() - started, cached=True)
        )
        return True

    def _compute(self, ctx: PipelineContext, stage: Stage) -> None:
        """Run ``stage`` on ``ctx`` and write its artefact to the cache, on
        probation unless the run or another verb asks for it.

        A design nested past the recursion limit fails the stage with a
        :class:`~repro.errors.ReproError` naming it.
        """
        stage_profile = None
        started = time.perf_counter()
        with nesting_limit(f"the {stage.name} stage"):
            if ctx.profile:
                artifact, stage_profile = self._run_profiled(ctx, stage)
            else:
                artifact = stage.run(ctx)
        elapsed = time.perf_counter() - started
        _store(ctx, stage, artifact)
        key = self._key(ctx, stage)
        if key is not None:
            probation = stage.name not in ctx.goals and stage.name not in _ASKED_FOR
            self.cache.put(key, artifact, probation=probation)
        _record(ctx, StageTiming(stage.name, elapsed, profile=stage_profile))

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
