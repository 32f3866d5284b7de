"""The staged analysis pipeline, its artifact cache and the batch driver.

This package is the engine behind :class:`repro.workspace.Workspace`: the
analysis is decomposed into named, individually invokable and individually
timed stages (:mod:`repro.pipeline.stages`), backed by a content-addressed
artifact cache (:mod:`repro.pipeline.cache`), rendered for
humans and machines (:mod:`repro.pipeline.render`) and driven over many
designs at once, sequentially or in parallel (:mod:`repro.pipeline.batch`).
The serve mode (:mod:`repro.pipeline.serve`) and the parallel batch driver
run on one supervised worker pool (:mod:`repro.pipeline.pool`) whose fault
behaviour is deterministically testable via :mod:`repro.pipeline.faults`.
"""

from repro.pipeline.artifacts import (
    AnalysisOptions,
    AnalysisResult,
    GraphJSON,
    PipelineResult,
    ReportJSON,
    StageTiming,
)
from repro.pipeline.batch import (
    BatchItem,
    BatchJob,
    BatchReport,
    expand_jobs,
    run_batch,
    run_job,
)
from repro.pipeline.cache import (
    ArtifactCache,
    DiskArtifactCache,
    TieredArtifactCache,
    open_cache,
    source_digest,
)
from repro.pipeline.faults import FaultInjector, FaultPlan
from repro.pipeline.pool import PoolResult, WorkerPool
from repro.pipeline.render import (
    SCHEMA_VERSION,
    RenderedJSON,
    RenderedList,
    analyze_document,
    check_document,
    json_bytes,
    json_text,
    lint_document,
    lint_section,
    policy_summary,
    render_analysis_text,
    render_lint_text,
    select_graph,
    stamped,
    version_document,
    volatile_pointers,
)
from repro.pipeline.serve import AnalysisServer, ServerThread, interaction_id, serve
from repro.pipeline.stages import (
    ANALYSIS_GOALS,
    ANALYZE_GOALS,
    CHECK_GOALS,
    FRONTS,
    LINT_GOALS,
    STAGES,
    Pipeline,
    PipelineContext,
    Stage,
    stage_key,
)

__all__ = [
    "ANALYSIS_GOALS",
    "ANALYZE_GOALS",
    "CHECK_GOALS",
    "FRONTS",
    "LINT_GOALS",
    "SCHEMA_VERSION",
    "AnalysisOptions",
    "AnalysisResult",
    "AnalysisServer",
    "ArtifactCache",
    "BatchItem",
    "BatchJob",
    "BatchReport",
    "DiskArtifactCache",
    "FaultInjector",
    "FaultPlan",
    "GraphJSON",
    "Pipeline",
    "PipelineContext",
    "PipelineResult",
    "PoolResult",
    "RenderedJSON",
    "RenderedList",
    "ReportJSON",
    "STAGES",
    "ServerThread",
    "WorkerPool",
    "Stage",
    "StageTiming",
    "TieredArtifactCache",
    "analyze_document",
    "check_document",
    "expand_jobs",
    "interaction_id",
    "json_bytes",
    "json_text",
    "lint_document",
    "lint_section",
    "open_cache",
    "policy_summary",
    "render_analysis_text",
    "render_lint_text",
    "run_batch",
    "run_job",
    "select_graph",
    "serve",
    "source_digest",
    "stage_key",
    "stamped",
    "version_document",
    "volatile_pointers",
]
