"""Result and option types of the staged pipeline.

:class:`AnalysisResult` is the bundle of artefacts one full Information Flow
analysis run produces (``repro.AnalysisResult``; what :func:`repro.analyze`
returns).  :class:`AnalysisOptions` is the frozen set of knobs that select
*which* analysis runs — its fields are the option inputs of every stage
cache key (see :func:`repro.pipeline.stages.stage_key` and
``docs/architecture.md`` for which field keys which stage).
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
    several; the three booleans mirror the keyword arguments of
    :func:`repro.analyze` (Table 9 improvement, looping process bodies, the
    ``RD∩ϕ`` under-approximation).
    """

    entity: Optional[str] = None
    improved: bool = True
    loop_processes: bool = True
    use_under_approximation: bool = True


@dataclass
class AnalysisResult:
    """All artefacts produced by one Information Flow analysis run."""

    design: Design
    program_cfg: ProgramCFG
    active: Dict[str, ActiveSignalsResult]
    reaching: ReachingDefinitionsResult
    rm_local: ResourceMatrix
    specialized: SpecializedRD
    rm_global: ResourceMatrix
    graph: FlowGraph
    improved: bool
    outgoing_labels: Dict[str, int] = field(default_factory=dict)
    universe: Optional[FactUniverse] = None
    """The per-session resource-name universe this run interned into."""

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
        cfg_stats = self.program_cfg.summary()
        return (
            f"design {self.design.name!r}: {cfg_stats['processes']} processes, "
            f"{cfg_stats['labels']} blocks, {len(self.rm_local)} local entries, "
            f"{len(self.rm_global)} global entries, graph: {self.graph.summary()}"
        )


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock record of one executed (or cache-served) pipeline stage.

    A cache-served stage's ``seconds`` cover its whole lookup: the cache
    read (and a lower tier's unpickle), the universe adoption and the store.

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

    ``result`` is populated once the ``flow_graph`` stage has run (i.e. for
    any full analysis run); ``kemmerer`` for Kemmerer-baseline runs;
    ``report`` when a policy was supplied and the ``report`` stage ran.
    ``artifacts`` is the raw stage context for partial runs (``until=``),
    exposing every resolved artefact by name; the artefact of a stage the
    run neither read nor ran (``parse`` on a warm run, say) is ``None``.
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

        Runs are goal-first (:mod:`repro.pipeline.stages`): a stage the run
        neither read nor ran appears here and in :attr:`timings` not at
        all.  A fully cached flat run lists ``elaborate`` … ``flow_graph``
        and no ``parse``; a fully cached linked run lists ``place`` …
        ``flow_graph`` and no ``parse``, ``hierarchy`` or ``summary``.
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
