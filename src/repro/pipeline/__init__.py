"""The staged analysis pipeline, its artifact cache and the batch driver.

This package is the engine behind :class:`repro.workspace.Workspace`: the
analysis is decomposed into named, individually invokable and individually
timed stages (:mod:`repro.pipeline.stages`), backed by a content-addressed
artifact cache (:mod:`repro.pipeline.cache`), rendered for
humans and machines (:mod:`repro.pipeline.render`) and driven over many
designs at once, sequentially or in parallel (:mod:`repro.pipeline.batch`).
The serve mode (:mod:`repro.pipeline.serve`) runs analyses on a supervised
worker pool (:mod:`repro.pipeline.pool`) whose fault behaviour is
deterministically testable via :mod:`repro.pipeline.faults`.
"""

from repro.pipeline.artifacts import (
    AnalysisOptions,
    AnalysisResult,
    PipelineResult,
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
    analysis_json,
    analyze_document,
    check_document,
    json_text,
    lint_document,
    lint_json,
    lint_section,
    policy_summary,
    render_analysis_text,
    render_lint_text,
    report_json,
    select_graph,
    stamped,
    version_document,
    volatile_pointers,
)
from repro.pipeline.serve import AnalysisServer, ServerThread, interaction_id, serve
from repro.pipeline.stages import (
    ANALYSIS_STAGES,
    KEMMERER_STAGES,
    LINKED_KEMMERER_STAGES,
    LINKED_LINT_STAGES,
    LINKED_STAGES,
    LINT_STAGES,
    STAGE_NAMES,
    Pipeline,
    PipelineContext,
    Stage,
    stage_key,
)

__all__ = [
    "ANALYSIS_STAGES",
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
    "KEMMERER_STAGES",
    "LINKED_KEMMERER_STAGES",
    "LINKED_LINT_STAGES",
    "LINKED_STAGES",
    "LINT_STAGES",
    "Pipeline",
    "PipelineContext",
    "PipelineResult",
    "PoolResult",
    "STAGE_NAMES",
    "ServerThread",
    "WorkerPool",
    "Stage",
    "StageTiming",
    "TieredArtifactCache",
    "analysis_json",
    "analyze_document",
    "check_document",
    "expand_jobs",
    "interaction_id",
    "json_text",
    "lint_document",
    "lint_json",
    "lint_section",
    "open_cache",
    "policy_summary",
    "render_analysis_text",
    "render_lint_text",
    "report_json",
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
