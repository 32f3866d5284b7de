"""Batch driver: analyse many files (or all entities of a file) at once.

Inputs are file paths; outputs are :class:`BatchItem` records holding the
exact text/JSON the single-file ``vhdl-ifa analyze`` (or, with a policy,
``check``) command would print for that file.  Like the CLI and the serve
mode, the driver is a shell over one :class:`~repro.workspace.Workspace`:
:func:`expand_jobs` turns paths into :class:`BatchJob` items (one per file,
or one per entity with ``all_entities=True``), reading each file's AST
through the workspace so the parse is cached like any other stage, and
:func:`run_job` answers one job as a request on the response path the
single-file commands and serve share
(:func:`repro.pipeline.serve.respond`), so the per-file output is
byte-identical by construction.

``parallel=True`` runs the jobs on a supervised
:class:`~repro.pipeline.pool.WorkerPool`, the one serve runs on; results
come back in submission order, so the output ordering is deterministic
regardless of which worker finishes first.  The pool is built before its
dispatch threads, so its workers fork when the batch starts from a
single-threaded process, and are spawned otherwise.  Each worker builds one
workspace from :meth:`~repro.workspace.Workspace.worker_configuration` and
keeps it across the jobs it serves: its memory tier serves the worker's
repeated files, and with a ``cache_dir`` every worker layers that tier over
the one shared disk store, so a cold parallel run reads what expansion or an
earlier run wrote there.  A job that kills its worker is reported as its own
``"worker"`` error item, and the pool respawns the worker for the jobs
after it.  ``parallel=False`` runs every job on the workspace's own
pipeline, so a second batch on the same workspace is served from warm
artefacts.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.analysis.lint import findings_fail
from repro.errors import ReproError
from repro.pipeline.artifacts import AnalysisOptions
from repro.pipeline.faults import FaultInjector
from repro.pipeline.pool import WorkerPool
from repro.pipeline.render import policy_summary, stamped
from repro.pipeline.serve import respond
from repro.security.report import Diagnostic

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
    a pooled job took its worker process down; it exits like an analysis
    failure.
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
    with a policy (``None`` otherwise); ``findings`` are the job's lint
    findings with the batch's lint configuration applied (empty without
    lint).
    """

    job: BatchJob
    ok: bool
    text: str = ""
    error: Optional[str] = None
    error_kind: Optional[str] = None
    data: Optional[Dict[str, Any]] = None
    seconds: float = 0.0
    clean: Optional[bool] = None
    findings: List[Diagnostic] = field(default_factory=list)


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
        """True when the lint findings of any job trip :attr:`fail_on`
        (:func:`~repro.analysis.lint.findings_fail`, which rejects an
        unknown threshold)."""
        findings = [finding for item in self.items for finding in item.findings]
        return findings_fail(findings, self.fail_on)

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

    With ``all_entities`` a file yields one job per distinct entity its
    architectures implement, in order of first appearance (an entity with
    two architectures is analysed once: elaboration takes the first).  Its
    AST comes from ``workspace.analyze_run(source, until="parse")``, which
    reads each design unit from the workspace's cache when there and leaves
    the ones it parsed there for the jobs that follow.  A file that cannot
    be read or parsed still yields a single job for it, so the error
    surfaces as that job's outcome instead of aborting the whole batch.
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
        names = dict.fromkeys(arch.entity_name for arch in program.architectures)
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
    """Answer one job on ``workspace`` and keep what it prints; errors
    become the outcome.

    The job is one request on the response path of the single-file commands
    and serve (:func:`~repro.pipeline.serve.respond`): an analyze, or with a
    policy a check in the policy's own mode.  Its payload is the request's
    document without ``schema``, ``command`` and ``policy``, its text what
    the command prints, and ``clean`` the check's verdict.  ``lint`` (a
    :class:`~repro.analysis.lint.LintConfig`) adds a ``"lint"`` section to
    the payload and the lint text after the rendering, from the same run.
    """
    started = time.perf_counter()
    try:
        # The options' fields are request members of the same names.
        request = {
            **dataclasses.asdict(options),
            "source": Path(job.path).read_text(encoding="utf-8"),
            "entity": options.entity if job.entity is None else job.entity,
            "collapse": collapse,
            "self_loops": self_loops,
            "dot": dot,
            "policy": policy,
            "lint": lint,
        }
        response = respond(workspace, "analyze" if policy is None else "check", request)
        data = response.document()
        for member in ("schema", "command", "policy"):
            data.pop(member, None)
        return BatchItem(
            job=job,
            ok=True,
            text=response.text,
            data=data,
            seconds=time.perf_counter() - started,
            clean=None if policy is None else response.verdict.clean,
            findings=[] if response.lint is None else response.lint.findings,
        )
    except _JOB_ERRORS as error:
        return BatchItem(
            job=job,
            ok=False,
            error=str(error),
            error_kind=_error_kind(error),
            seconds=time.perf_counter() - started,
        )


def _run_pooled_job(
    workspace: "Workspace",
    job: BatchJob,
    options: AnalysisOptions,
    settings: Dict[str, Any],
    injector: FaultInjector,
) -> BatchItem:
    """One job on a pool worker's workspace (a :class:`WorkerPool` call)."""
    # The job path is the fault trigger text, so a test can crash or delay
    # exactly one job of a batch.
    injector.before_analysis(job.path)
    return run_job(job, workspace, options, **settings)


def default_workers() -> int:
    """The default pool size: one worker per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled_items(
    jobs: Sequence[BatchJob],
    options: AnalysisOptions,
    settings: Dict[str, Any],
    workers: int,
    configuration: Dict[str, Any],
) -> List[BatchItem]:
    """Run jobs on a worker pool; a job that killed its worker is an error
    item, and its peers are unaffected."""
    pool = WorkerPool(workers, configuration=configuration)
    try:
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="vhdl-ifa-batch"
        ) as dispatch:
            results = list(
                dispatch.map(
                    lambda job: pool.run(_run_pooled_job, job, options, settings),
                    jobs,
                )
            )
    finally:
        pool.stop()
    return [
        BatchItem(
            job=job,
            ok=False,
            error="analysis worker process died running this job",
            error_kind="worker",
        )
        if result.crashed
        else result.value
        for job, result in zip(jobs, results)
    ]


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

    ``parallel=True`` fans out over a worker pool (``max_workers`` defaults
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
        if job_list:
            report.items = _pooled_items(
                job_list, options, settings, workers, workspace.worker_configuration()
            )
    else:
        report.items = [
            run_job(job, workspace, options, **settings) for job in job_list
        ]

    report.elapsed = time.perf_counter() - started
    return report
