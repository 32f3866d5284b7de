"""Batch driver: analyse many files (or all entities of a file) at once.

Inputs are file paths; outputs are :class:`BatchItem` records holding the
exact text/JSON the sequential ``vhdl-ifa analyze`` command would print for
that file.  Like the CLI and the serve mode, the driver is a shell over one
:class:`~repro.workspace.Workspace`: :func:`expand_jobs` turns paths into
:class:`BatchJob` items (one per file, or one per entity with
``all_entities=True``), reading each file's AST through the workspace so the
parse is cached like any other stage, and :func:`run_job` runs one job on
the workspace's pipeline and renders it with
:func:`repro.pipeline.render.render_analysis_text` — the single-file
commands share the renderer, so the per-file output is byte-identical by
construction.

``parallel=True`` distributes jobs over a forked ``ProcessPoolExecutor``;
results are collected in submission order, so the output ordering is
deterministic regardless of which worker finishes first.  Each pool worker
builds one workspace from :meth:`~repro.workspace.Workspace.worker_configuration`
(as a serve worker does) and keeps it across the jobs it serves: its memory
tier serves the worker's repeated files, and with a ``cache_dir`` every
worker layers that tier over the one shared disk store, so a cold parallel
run reads what expansion or an earlier run wrote there.  ``parallel=False``
runs every job on the workspace's own pipeline, so a second batch on the
same workspace is served from warm artefacts.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError
from repro.pipeline.artifacts import AnalysisOptions
from repro.pipeline.faults import FaultInjector
from repro.pipeline.render import (
    analysis_json,
    lint_section,
    policy_summary,
    render_analysis_text,
    render_lint_text,
    report_json,
    select_graph,
    stamped,
)

if TYPE_CHECKING:
    from repro.workspace import Workspace

#: Everything one job can fail with: analysis errors, unreadable files, and
#: files that are not valid UTF-8 (UnicodeDecodeError is a ValueError, so the
#: OSError net alone would let it escape as a crash).
_JOB_ERRORS = (ReproError, OSError, UnicodeDecodeError)


def _error_kind(error: BaseException) -> str:
    """Classify a job failure for exit-code purposes.

    ``"analysis"`` is everything the toolchain itself diagnoses (parse,
    elaboration, analysis and policy errors — any :class:`ReproError`);
    ``"input"`` is a file the job could not even read (missing, unreadable,
    not UTF-8).  The CLI maps these to exit codes 1 and 2 respectively.
    A third kind, ``"worker"``, is assigned by :func:`run_batch` itself when
    a job repeatedly took its worker process down (see the broken-pool
    recovery there); it exits like an analysis failure.
    """
    return "analysis" if isinstance(error, ReproError) else "input"


@dataclass(frozen=True)
class BatchJob:
    """One unit of batch work: a source file, optionally a specific entity."""

    path: str
    entity: Optional[str] = None

    @property
    def label(self) -> str:
        """Display name used in headers and JSON output."""
        return self.path if self.entity is None else f"{self.path}:{self.entity}"


@dataclass
class BatchItem:
    """The outcome of one job: rendered text, JSON payload, or an error.

    ``error_kind`` classifies a failure (``"analysis"`` vs ``"input"``, see
    :func:`_error_kind`); ``clean`` is the policy verdict when the batch ran
    with a policy (``None`` otherwise).
    """

    job: BatchJob
    ok: bool
    text: str = ""
    error: Optional[str] = None
    error_kind: Optional[str] = None
    data: Optional[Dict[str, Any]] = None
    seconds: float = 0.0
    clean: Optional[bool] = None


@dataclass
class BatchReport:
    """All job outcomes (in submission order) plus run-level statistics."""

    items: List[BatchItem] = field(default_factory=list)
    elapsed: float = 0.0
    parallel: bool = False
    workers: int = 1
    policy: Optional[Any] = None
    fail_on: str = "error"
    """The severity threshold behind :attr:`exit_code` (``--fail-on``):
    ``"error"`` (the default), ``"warning"`` (warnings fail too), or
    ``"never"`` (findings and violations never affect the exit code)."""

    @property
    def ok(self) -> bool:
        """True when every job succeeded."""
        return all(item.ok for item in self.items)

    @property
    def failures(self) -> List[BatchItem]:
        """The failed jobs, in submission order."""
        return [item for item in self.items if not item.ok]

    @property
    def violations_found(self) -> bool:
        """True when a policy ran and at least one job was not clean."""
        return any(item.clean is False for item in self.items)

    @property
    def lint_findings_found(self) -> bool:
        """True when a lint section of any job trips :attr:`fail_on`."""
        if self.fail_on == "never":
            return False
        for item in self.items:
            summary = ((item.data or {}).get("lint") or {}).get("summary")
            if summary is None:
                continue
            if summary["errors"]:
                return True
            if self.fail_on == "warning" and summary["warnings"]:
                return True
        return False

    @property
    def exit_code(self) -> int:
        """The CLI exit code for this run, most severe condition first:
        2 when any job failed on unreadable input, 1 when any job failed in
        analysis, 3 when every job ran but a policy violation or a lint
        finding at/above :attr:`fail_on` was found, 0 otherwise — mirroring
        the single-file subcommands (``--fail-on never`` turns verdicts
        informational).
        """
        failures = self.failures
        if any(item.error_kind == "input" for item in failures):
            return 2
        if failures:
            return 1
        if self.fail_on != "never" and self.violations_found:
            return 3
        if self.lint_findings_found:
            return 3
        return 0

    def to_json_dict(self) -> Dict[str, Any]:
        """The ``--json`` document for a whole batch run."""
        document: Dict[str, Any] = {
            "command": "batch",
            "parallel": self.parallel,
            "workers": self.workers,
        }
        if self.policy is not None:
            document["policy"] = policy_summary(self.policy)
        document.update(
            {
                "jobs": [
                    {
                        "file": item.job.path,
                        "entity": item.job.entity,
                        "ok": item.ok,
                        "seconds": round(item.seconds, 6),
                        **(
                            {"error": item.error, "error_kind": item.error_kind}
                            if item.error is not None
                            else {}
                        ),
                        **(item.data or {}),
                    }
                    for item in self.items
                ],
                "elapsed": round(self.elapsed, 6),
                "failed": len(self.failures),
            }
        )
        return stamped(document)


def expand_jobs(
    paths: Sequence[str],
    workspace: "Workspace",
    all_entities: bool = False,
) -> List[BatchJob]:
    """Turn file paths into jobs, optionally one per entity in each file.

    With ``all_entities`` each file's AST comes from
    ``workspace.analyze_run(source, until="parse")``, so it is read from the
    workspace's cache when there and left there for the jobs that follow.
    A file that cannot be read or parsed still yields a single job for it,
    so the error surfaces as that job's outcome instead of aborting the
    whole batch.
    """
    jobs: List[BatchJob] = []
    for path in paths:
        if not all_entities:
            jobs.append(BatchJob(path=path))
            continue
        try:
            source = Path(path).read_text(encoding="utf-8")
            program = workspace.analyze_run(source, until="parse").artifacts.program
        except _JOB_ERRORS:
            jobs.append(BatchJob(path=path))
            continue
        names = [arch.entity_name for arch in program.architectures]
        if names:
            jobs.extend(BatchJob(path=path, entity=name) for name in names)
        else:
            jobs.append(BatchJob(path=path))
    return jobs


def run_job(
    job: BatchJob,
    workspace: "Workspace",
    options: AnalysisOptions,
    collapse: bool = False,
    self_loops: bool = False,
    dot: bool = False,
    policy: Optional[Any] = None,
    lint: Optional[Any] = None,
) -> BatchItem:
    """Analyse one job on ``workspace`` and render its output; errors become
    the outcome.

    Without a policy the outcome is the ``analyze`` rendering (text and the
    ``analysis_json`` payload).  With a policy the job becomes a check: the
    pipeline's report stage runs (in the policy's preferred transitive mode),
    the text is the covert-channel report, the payload is the ``check``-style
    report document, and ``clean`` carries the verdict.  ``lint`` (a
    :class:`~repro.analysis.lint.LintConfig`) additionally runs the cached
    lint stage and rides a ``"lint"`` section — the exact
    :func:`~repro.pipeline.render.lint_section` body the single-file ``lint``
    command emits — on the payload, plus the lint text after the rendering.
    """
    pipeline = workspace.pipeline
    started = time.perf_counter()
    try:
        source = Path(job.path).read_text(encoding="utf-8")
        if job.entity is not None:
            options = dataclasses.replace(options, entity=job.entity)
        if policy is not None:
            report_options = {
                "transitive": bool(getattr(policy, "transitive", False))
            }
            if lint is not None:
                run = pipeline.run_lint(
                    source, options, policy=policy, report_options=report_options
                )
            else:
                run = pipeline.run(
                    source, options, policy=policy, report_options=report_options
                )
            text = run.report.to_text()
            data = report_json(run)
        else:
            if lint is not None:
                run = pipeline.run_lint(source, options)
            else:
                run = pipeline.run(source, options)
            graph = select_graph(run.result, collapse, self_loops)
            text = render_analysis_text(
                run.result,
                collapse=collapse,
                self_loops=self_loops,
                dot=dot,
                graph=graph,
            )
            data = analysis_json(
                run, collapse=collapse, self_loops=self_loops, graph=graph
            )
        if lint is not None:
            findings = lint.apply(run.artifacts.lint)
            data["lint"] = lint_section(findings)
            text = "\n\n".join(
                (text, render_lint_text(run.result.design.name, findings))
            )
        return BatchItem(
            job=job,
            ok=True,
            text=text,
            data=data,
            seconds=time.perf_counter() - started,
            clean=run.report.is_clean if policy is not None else None,
        )
    except _JOB_ERRORS as error:
        return BatchItem(
            job=job,
            ok=False,
            error=str(error),
            error_kind=_error_kind(error),
            seconds=time.perf_counter() - started,
        )


# Each pool worker keeps one workspace, and the fault injector the
# environment arms, for the jobs it serves.
_WORKER: Optional[Tuple["Workspace", FaultInjector]] = None


def _init_worker(cache_dir: Optional[str], no_cache: bool) -> None:
    global _WORKER
    # Imported here: the workspace module imports this one.
    from repro.workspace import Workspace

    workspace = Workspace(cache=None) if no_cache else Workspace(cache_dir=cache_dir)
    _WORKER = (workspace, FaultInjector.from_env())


def _run_job_in_worker(
    job: BatchJob, options: AnalysisOptions, settings: Dict[str, Any]
) -> BatchItem:
    workspace, injector = _WORKER
    # The job path is the fault trigger text, so a test can crash or delay
    # exactly one job of a batch.
    injector.before_analysis(job.path)
    return run_job(job, workspace, options, **settings)


def default_workers() -> int:
    """The default pool size: one worker per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_results(
    jobs: Sequence[BatchJob],
    options: AnalysisOptions,
    settings: Dict[str, Any],
    workers: int,
    configuration: Dict[str, Any],
) -> List[Optional[BatchItem]]:
    """Run jobs on one process pool; a broken-pool casualty is ``None``.

    ``None`` marks a job whose result was lost to pool breakage — either the
    job itself killed its worker, or it was collateral damage of one that
    did.  The caller decides the retry policy; this helper never raises on
    worker death.
    """
    results: List[Optional[BatchItem]] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(configuration["cache_dir"], configuration["no_cache"]),
    ) as executor:
        futures = [
            executor.submit(_run_job_in_worker, job, options, settings)
            for job in jobs
        ]
        for future in futures:
            try:
                results.append(future.result())
            except BrokenExecutor:
                results.append(None)
    return results


def run_batch(
    jobs: Iterable[BatchJob],
    workspace: "Workspace",
    options: Optional[AnalysisOptions] = None,
    *,
    collapse: bool = False,
    self_loops: bool = False,
    dot: bool = False,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    policy: Optional[Any] = None,
    lint: Optional[Any] = None,
    fail_on: str = "error",
) -> BatchReport:
    """Analyse every job on ``workspace``; results come back in submission
    order.

    ``parallel=True`` fans out over a process pool (``max_workers`` defaults
    to :func:`default_workers`) whose workers rebuild the workspace's cache
    configuration (see the module docstring); ``parallel=False`` runs every
    job on the workspace's pipeline, so two batches on one workspace share
    its cache.  ``policy`` turns every job into a policy check (see
    :func:`run_job`); the policy must be picklable for parallel runs.
    ``lint`` (a picklable :class:`~repro.analysis.lint.LintConfig`) adds the
    per-job lint section; ``fail_on`` sets the severity threshold behind
    :attr:`BatchReport.exit_code`.
    """
    if options is None:
        options = AnalysisOptions()
    job_list = list(jobs)
    settings = {
        "collapse": collapse,
        "self_loops": self_loops,
        "dot": dot,
        "policy": policy,
        "lint": lint,
    }
    report = BatchReport(parallel=parallel, policy=policy, fail_on=fail_on)
    started = time.perf_counter()

    if parallel:
        workers = max_workers if max_workers is not None else default_workers()
        workers = max(1, min(workers, len(job_list) or 1))
        report.workers = workers
        configuration = workspace.worker_configuration()
        results = _pool_results(job_list, options, settings, workers, configuration)
        # A job that takes its worker process down (crash, OOM kill) breaks
        # the whole executor: every unfinished future raises.  Retry each
        # casualty once on its own fresh single-worker pool — one poisonous
        # job then costs exactly its own slot, not the batch — and report a
        # job that breaks its pool twice as a "worker" error item.
        casualties = [index for index, item in enumerate(results) if item is None]
        for index in casualties:
            job = job_list[index]
            retried = _pool_results([job], options, settings, 1, configuration)[0]
            if retried is None:
                retried = BatchItem(
                    job=job,
                    ok=False,
                    error=(
                        "analysis worker process died running this job "
                        "(broken process pool); the retry on a fresh pool "
                        "died too"
                    ),
                    error_kind="worker",
                )
            results[index] = retried
        report.items = results
    else:
        report.items = [
            run_job(job, workspace, options, **settings) for job in job_list
        ]

    report.elapsed = time.perf_counter() - started
    return report
