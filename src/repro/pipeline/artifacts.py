"""Result and option types of the staged pipeline.

:class:`AnalysisResult` is the bundle of artefacts one full Information Flow
analysis run produces (``repro.AnalysisResult``; what :func:`repro.analyze`
returns), a view over the run that loads each artefact the first time a
caller reads it.  :class:`Inventory` is the small artefact documents read
besides the flow graph, :class:`GraphJSON` the rendered ``graph`` member
of an analyze document, and :class:`ReportJSON` the rendered report of a
check.  :class:`AnalysisOptions` is the frozen set of
knobs that select *which* analysis runs, and how its graph is shaped — its
fields are the option inputs of every stage cache key (see
:func:`repro.pipeline.stages.stage_key` and ``docs/architecture.md`` for
which field keys which stage).
:class:`StageTiming` / :class:`PipelineResult` describe *how* a pipeline run
went, stage by stage; ``PipelineResult.cached_stages`` is the observable the
caching tests and the ``--json`` documents rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.flowgraph import FlowGraph
from repro.analysis.kemmerer import KemmererResult
from repro.analysis.reaching_active import ActiveSignalsResult
from repro.analysis.reaching_defs import ReachingDefinitionsResult
from repro.analysis.resource_matrix import ResourceMatrix
from repro.analysis.specialize import SpecializedRD
from repro.cfg.builder import ProgramCFG
from repro.dataflow.universe import FactUniverse
from repro.vhdl.elaborate import Design


@dataclass(frozen=True)
class AnalysisOptions:
    """The analysis configuration, as it participates in cache keys.

    ``entity`` selects the entity/architecture pair when the source contains
    several; ``improved``, ``loop_processes`` and
    ``use_under_approximation`` mirror the keyword arguments of
    :func:`repro.analyze` (Table 9 improvement, looping process bodies, the
    ``RD∩ϕ`` under-approximation).  ``collapse`` and ``self_loops`` are the
    CLI's graph-shaping flags: only the ``graph_json`` stage keys on them,
    so the graph member of an analyze document is rendered for the flags
    of the run that asked for it.
    """

    entity: Optional[str] = None
    improved: bool = True
    loop_processes: bool = True
    use_under_approximation: bool = True
    collapse: bool = False
    self_loops: bool = False


@dataclass(frozen=True)
class Inventory:
    """What documents and text renderings read of a run besides the graph.

    The ``inventory`` stage's artefact: the design's name and ports, the
    ``ProgramCFG.summary()`` counts and the sizes of ``RM_lo`` and
    ``RM_gl``.  A warm run reads it instead of the design, the CFG and the
    two matrices.
    """

    design: str
    input_ports: Tuple[str, ...]
    output_ports: Tuple[str, ...]
    cfg_stats: Dict[str, int]
    local_entries: int
    global_entries: int


@dataclass(frozen=True)
class GraphJSON:
    """The ``graph_json`` stage's artefact: an analyze document's ``graph``
    member, rendered.

    ``text`` is the member's UTF-8 JSON text, exactly as
    :func:`~repro.pipeline.render.json_text` renders it one level down in a
    document; ``nodes`` and ``edges`` are the shaped graph's counts, which
    the document's ``summary`` reads.  A warm analyze reads this instead of
    the flow graph, and decodes no bitset.
    """

    nodes: int
    edges: int
    text: bytes


@dataclass(frozen=True)
class ReportJSON:
    """The ``report_json`` stage's artefact: what every output of a check
    prints, rendered from its covert-channel report.

    ``violations`` is the UTF-8 JSON text of a check document's
    ``violations`` member, exactly as
    :func:`~repro.pipeline.render.json_text` renders it one level down;
    ``text`` is the report's ``to_text()``.  The rest are the document's
    small members: the design name, the verdict, the output dependencies
    and the flow graph's counts.  A warm check reads this instead of the
    flow graph and the inventory, and builds no report.
    """

    design: str
    clean: bool
    nodes: int
    edges: int
    violations: bytes
    output_dependencies: Dict[str, List[str]]
    text: str


class AnalysisResult:
    """All artefacts produced by one Information Flow analysis run.

    A view over the run's context
    (:class:`~repro.pipeline.stages.PipelineContext`).  ``inventory`` is
    resolved before the run returns, unless the run asked for a check's
    rendered report alone, and ``graph`` too unless the run asked for a
    rendered member (an analyze or a check run).  Every other artefact
    field resolves on first access, from the cache or by running its stage,
    and the stage then appears in the run's ``timings``.  ``design``,
    ``program_cfg``, ``active`` and ``rm_local`` are one stage's artefact,
    the source's front (``elaborate`` or ``place``), so the first read of
    any of them resolves all four.  The context holds no reference back to
    the view, so dropping the result frees the run.
    """

    __slots__ = ("_context",)

    def __init__(self, context: Any):
        self._context = context

    @property
    def design(self) -> Design:
        """The elaborated design."""
        return self._context.artifact("design")

    @property
    def program_cfg(self) -> ProgramCFG:
        """The whole-program CFG."""
        return self._context.artifact("program_cfg")

    @property
    def active(self) -> Dict[str, ActiveSignalsResult]:
        """The per-process active-signals results (Table 4)."""
        return self._context.artifact("active")

    @property
    def reaching(self) -> ReachingDefinitionsResult:
        """The Reaching Definitions (Table 5)."""
        return self._context.artifact("reaching")

    @property
    def rm_local(self) -> ResourceMatrix:
        """The local Resource Matrix ``RM_lo`` (Table 6)."""
        return self._context.artifact("rm_local")

    @property
    def specialized(self) -> SpecializedRD:
        """The specialised relations ``RD†``/``RD†ϕ`` (Table 7)."""
        return self._context.artifact("specialized")

    @property
    def rm_global(self) -> ResourceMatrix:
        """The closed matrix ``RM_gl`` (Table 8, with Table 9 when improved)."""
        return self._context.artifact("closure").rm_global

    @property
    def outgoing_labels(self) -> Dict[str, int]:
        """Each ``out`` port's synthetic label ``l_{n•}`` (improved runs)."""
        return getattr(self._context.artifact("closure"), "outgoing_labels", {})

    @property
    def graph(self) -> FlowGraph:
        """The information-flow graph (the paper's result artefact)."""
        return self._context.artifact("graph")

    @property
    def inventory(self) -> Inventory:
        """The design's name, ports and size counts (:class:`Inventory`)."""
        return self._context.artifact("inventory")

    @property
    def improved(self) -> bool:
        """True when the run added the Table 9 improvement."""
        return self._context.options.improved

    @property
    def universe(self) -> FactUniverse:
        """The resource-name universe the flow graph decodes through."""
        return self.graph.universe

    @property
    def flow_graph(self) -> FlowGraph:
        """Alias for :attr:`graph` (the paper's result artefact)."""
        return self.graph

    def graph_without_self_loops(self) -> FlowGraph:
        """The flow graph with trivial ``n → n`` edges removed."""
        return self.graph.without_self_loops()

    def collapsed_graph(self) -> FlowGraph:
        """The flow graph with ``n◦``/``n•`` merged back onto ``n``."""
        return self.graph.collapse_environment_nodes()

    def summary(self) -> str:
        """Short human-readable description of the run."""
        inventory = self.inventory
        return (
            f"design {inventory.design!r}: {inventory.cfg_stats['processes']} "
            f"processes, {inventory.cfg_stats['labels']} blocks, "
            f"{inventory.local_entries} local entries, "
            f"{inventory.global_entries} global entries, "
            f"graph: {self.graph.summary()}"
        )


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock record of one executed (or cache-served) pipeline stage.

    A cache-served stage's ``seconds`` cover its whole lookup: the cache
    read (and a lower tier's unpickle) and the store.

    ``profile`` is only populated by profiled runs (``Pipeline.run(...,
    profile=True)``): the stage's cProfile hot spots as a tuple of plain
    dicts (``function``, ``calls``, ``tottime``, ``cumtime``), ordered by
    internal time — already JSON-shaped for the ``--profile-json`` sidecar.
    Cache-served stages carry no profile (there is nothing to profile).
    """

    name: str
    seconds: float
    cached: bool = False
    profile: Optional[Tuple[Dict[str, Any], ...]] = None


@dataclass
class PipelineResult:
    """What one pipeline run produced, plus how long each stage took.

    ``result`` is populated once the run has resolved the ``inventory``
    stage (any run whose goals hold it or a stage that needs it);
    ``kemmerer`` for Kemmerer-baseline runs; ``report`` when a policy was
    supplied and the ``report`` stage ran.  ``artifacts`` is the raw stage
    context, for partial runs (one stage as the goal), exposing every
    resolved artefact by name; the artefact of a stage the run has neither
    read nor run (``parse`` on a warm run, say) is ``None`` there, while
    ``result`` resolves it on first access.
    """

    options: AnalysisOptions
    stages: List[StageTiming] = field(default_factory=list)
    result: Optional[AnalysisResult] = None
    kemmerer: Optional[KemmererResult] = None
    report: Optional[Any] = None
    artifacts: Optional[Any] = None

    @property
    def timings(self) -> Dict[str, float]:
        """Stage name → wall-clock seconds, in resolution order."""
        return {stage.name: stage.seconds for stage in self.stages}

    @property
    def cached_stages(self) -> List[str]:
        """Names of the stages served from the artifact cache, in order.

        Runs are demand-driven (:mod:`repro.pipeline.stages`): a stage the
        run neither read nor ran appears here and in :attr:`timings` not at
        all.  A fully cached run lists its goals only: ``graph_json`` and
        ``inventory`` for an analyze run, ``report_json`` alone for a check
        run, ``flow_graph`` and ``inventory`` for the full analysis,
        ``inventory`` and ``lint`` for a lint run, or ``kemmerer`` alone for
        a Kemmerer run.  A field of :attr:`result` (or of a check's
        :class:`~repro.workspace.CheckResult`) read after the run appends
        the stage it resolved, so both lists can grow after the run
        returns.
        """
        return [stage.name for stage in self.stages if stage.cached]

    @property
    def computed_stages(self) -> List[str]:
        """Names of the stages actually executed (cache misses), in order."""
        return [stage.name for stage in self.stages if not stage.cached]

    @property
    def stage_profiles(self) -> Dict[str, Tuple[Dict[str, Any], ...]]:
        """Stage name → cProfile hot spots (profiled runs only; see
        :attr:`StageTiming.profile`)."""
        return {
            stage.name: stage.profile
            for stage in self.stages
            if stage.profile is not None
        }
