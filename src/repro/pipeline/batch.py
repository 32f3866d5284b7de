"""Batch driver: analyse many files (or all entities of a file) at once.

Inputs are file paths; outputs are :class:`BatchItem` records holding the
exact text/JSON the sequential ``vhdl-ifa analyze`` command would print for
that file.  The driver expands the requested paths into :class:`BatchJob`
items (one per file, or one per entity with ``all_entities=True``), runs
each job through the staged pipeline and renders it with
:func:`repro.pipeline.render.render_analysis_text` — both paths share the
renderer, so the per-file output is byte-identical by construction.

``parallel=True`` distributes jobs over a ``ProcessPoolExecutor``; results
are collected in submission order, so the output ordering is deterministic
regardless of which worker finishes first.  Every pool worker keeps one
process-local :class:`~repro.pipeline.cache.ArtifactCache` alive across the
jobs it serves, and with ``cache_dir`` every worker layers that in-memory
tier over the *shared* :class:`~repro.pipeline.cache.DiskArtifactCache` —
a cold parallel run over previously-seen files then skips parse/elaborate
(and every other stage) entirely.  In sequential mode a caller-supplied
cache persists across whole batch runs, which is what makes warm re-runs
skip the expensive stages; cache keys are the per-stage keys of
:func:`repro.pipeline.stages.stage_key` (stage + source sha256 + the options
the stage depends on).
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.pipeline.artifacts import AnalysisOptions
from repro.pipeline.cache import open_cache, source_digest
from repro.pipeline.faults import install_process_injector, process_injector
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
from repro.pipeline.stages import PARSE, Pipeline, stage_key
from repro.vhdl.parser import parse_program

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


def entities_in(source: str) -> List[str]:
    """The entities of a source file, in architecture order."""
    return [arch.entity_name for arch in parse_program(source).architectures]


def expand_jobs(
    paths: Sequence[str],
    all_entities: bool = False,
    cache: Optional[Any] = None,
) -> List[BatchJob]:
    """Turn file paths into jobs, optionally one per entity in each file.

    With ``all_entities`` a file that cannot be read or parsed still yields a
    single job for it, so the error surfaces as that job's outcome instead of
    aborting the whole batch.  ``cache`` optionally receives the parse
    artefacts produced during expansion (under their pipeline stage keys), so
    an in-process batch run over the same cache does not parse each file a
    second time.
    """
    jobs: List[BatchJob] = []
    for path in paths:
        if not all_entities:
            jobs.append(BatchJob(path=path))
            continue
        try:
            source = Path(path).read_text(encoding="utf-8")
            program = parse_program(source)
        except _JOB_ERRORS:
            jobs.append(BatchJob(path=path))
            continue
        if cache is not None:
            cache.put(
                stage_key(PARSE, source_digest(source), AnalysisOptions()), program
            )
        names = [arch.entity_name for arch in program.architectures]
        if names:
            jobs.extend(BatchJob(path=path, entity=name) for name in names)
        else:
            jobs.append(BatchJob(path=path))
    return jobs


def run_job(
    job: BatchJob,
    options: AnalysisOptions,
    collapse: bool = False,
    self_loops: bool = False,
    dot: bool = False,
    pipeline: Optional[Pipeline] = None,
    policy: Optional[Any] = None,
    lint: Optional[Any] = None,
) -> BatchItem:
    """Analyse one job and render its output; errors become the outcome.

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
    if pipeline is None:
        pipeline = Pipeline()
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


# Each pool worker keeps one pipeline (and its artifact cache) alive for the
# jobs it serves; repeated files within one batch hit the worker's cache, and
# with a cache directory all workers additionally share the disk tier.
_WORKER_PIPELINE: Optional[Pipeline] = None


def _init_worker(cache_dir: Optional[str] = None, no_cache: bool = False) -> None:
    global _WORKER_PIPELINE
    # Arm this worker's fault injector from the environment switch (a no-op
    # plan outside the fault-injection tests).
    install_process_injector()
    _WORKER_PIPELINE = Pipeline(None if no_cache else open_cache(cache_dir))


def _run_job_in_worker(payload) -> BatchItem:
    job, options, collapse, self_loops, dot, policy, lint, preparsed = payload
    # The job path is the fault trigger text, so a test can crash or delay
    # exactly one job of a batch.
    process_injector().before_analysis(job.path)
    if preparsed is not None and _WORKER_PIPELINE.cache is not None:
        # The driver pre-parsed this job's file (it backs several jobs of the
        # batch) and shipped the parse artifact; seed it under its pipeline
        # stage key so this worker's run skips the parse stage.
        digest, program = preparsed
        _WORKER_PIPELINE.cache.put(
            stage_key(PARSE, digest, AnalysisOptions()), program
        )
    return run_job(
        job,
        options,
        collapse=collapse,
        self_loops=self_loops,
        dot=dot,
        pipeline=_WORKER_PIPELINE,
        policy=policy,
        lint=lint,
    )


def default_workers() -> int:
    """The default pool size: one worker per available CPU."""
    return os.cpu_count() or 1


def _shared_parses(
    jobs: Sequence[BatchJob], cache: Optional[Any] = None
) -> Dict[str, Any]:
    """Pre-parse every file that backs more than one job of a parallel batch.

    Returns ``path -> (source digest, parsed program)`` for those files, to
    be shipped inside the job payloads and seeded into each worker's cache —
    without this, an ``all_entities`` batch over an 8-entity file parses the
    identical source once per entity job *per worker*.  ``cache`` is the
    driver-side cache that :func:`expand_jobs` seeded, so expansion's parse
    is reused here rather than redone.  Unreadable or unparsable files are
    skipped; their jobs surface the error individually.
    """
    counts: Dict[str, int] = {}
    for job in jobs:
        counts[job.path] = counts.get(job.path, 0) + 1
    shared: Dict[str, Any] = {}
    for path, count in counts.items():
        if count < 2:
            continue
        try:
            source = Path(path).read_text(encoding="utf-8")
            digest = source_digest(source)
            program = None
            if cache is not None:
                program = cache.get(stage_key(PARSE, digest, AnalysisOptions()))
            if program is None:
                program = parse_program(source)
            shared[path] = (digest, program)
        except _JOB_ERRORS:
            continue
    return shared


def _pool_results(
    payloads: Sequence[Any],
    workers: int,
    cache_dir: Optional[str],
    no_cache: bool,
) -> List[Optional[BatchItem]]:
    """Run payloads on one process pool; a broken-pool casualty is ``None``.

    ``None`` marks a job whose result was lost to pool breakage — either the
    job itself killed its worker, or it was collateral damage of one that
    did.  The caller decides the retry policy; this helper never raises on
    worker death.
    """
    results: List[Optional[BatchItem]] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(cache_dir, no_cache),
    ) as executor:
        futures = [
            executor.submit(_run_job_in_worker, payload) for payload in payloads
        ]
        for future in futures:
            try:
                results.append(future.result())
            except BrokenExecutor:
                results.append(None)
    return results


def run_batch(
    jobs: Iterable[BatchJob],
    options: Optional[AnalysisOptions] = None,
    *,
    collapse: bool = False,
    self_loops: bool = False,
    dot: bool = False,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    cache: Optional[Any] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    policy: Optional[Any] = None,
    lint: Optional[Any] = None,
    fail_on: str = "error",
) -> BatchReport:
    """Analyse every job; results come back in submission order.

    ``parallel=True`` fans out over a process pool (``max_workers`` defaults
    to the CPU count; in-memory caches are then per worker process, though
    files backing several jobs are parsed once on the driver — reusing
    ``cache`` when :func:`expand_jobs` seeded it — and the parse artifacts
    shipped to the workers; with ``cache_dir`` every worker additionally
    shares the persistent :class:`~repro.pipeline.cache.DiskArtifactCache`
    rooted there, and ``no_cache=True`` gives the workers no cache at all).
    ``parallel=False`` runs in-process, threading ``cache`` through every
    job — run two batches over the same cache and the second one is served
    from warm artifacts.  When no ``cache`` is supplied (and ``no_cache`` is
    off) the run opens its own via :func:`~repro.pipeline.cache.open_cache`,
    so entity jobs over the same file share one parse artifact even on a
    cold one-shot batch.  ``policy`` turns every job into a policy check
    (see :func:`run_job`); the policy must be picklable for parallel runs.
    ``lint`` (a picklable :class:`~repro.analysis.lint.LintConfig`) adds the
    per-job lint section; ``fail_on`` sets the severity threshold behind
    :attr:`BatchReport.exit_code`.
    """
    if options is None:
        options = AnalysisOptions()
    job_list = list(jobs)
    report = BatchReport(parallel=parallel, policy=policy, fail_on=fail_on)
    started = time.perf_counter()

    if parallel:
        workers = max_workers if max_workers is not None else default_workers()
        workers = max(1, min(workers, len(job_list) or 1))
        report.workers = workers
        # Parse each multi-job file once on the driver (reusing the parse
        # that expand_jobs left in ``cache`` when the caller threaded it
        # through) and ship the program with every job touching that file;
        # each worker seeds its own cache from the payload instead of
        # re-parsing per job.
        preparsed = {} if no_cache else _shared_parses(job_list, cache)
        payloads = [
            (
                job,
                options,
                collapse,
                self_loops,
                dot,
                policy,
                lint,
                preparsed.get(job.path),
            )
            for job in job_list
        ]
        results = _pool_results(payloads, workers, cache_dir, no_cache)
        # A job that takes its worker process down (crash, OOM kill) breaks
        # the whole executor: every unfinished future raises.  Retry each
        # casualty once on its own fresh single-worker pool — one poisonous
        # job then costs exactly its own slot, not the batch — and report a
        # job that breaks its pool twice as a "worker" error item.
        casualties = [index for index, item in enumerate(results) if item is None]
        for index in casualties:
            retried = _pool_results([payloads[index]], 1, cache_dir, no_cache)[0]
            if retried is None:
                job = payloads[index][0]
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
        report.workers = 1
        if cache is None and not no_cache:
            # Even a one-shot sequential batch wants an in-run cache: with
            # ``all_entities`` every entity job re-reads the same file, and
            # the source-keyed parse tier means one parse serves all of
            # them.  Without this a cold 8-entity batch tokenises and parses
            # the identical source eight times over.
            cache = open_cache(cache_dir)
        pipeline = Pipeline(cache)
        report.items = [
            run_job(
                job,
                options,
                collapse=collapse,
                self_loops=self_loops,
                dot=dot,
                pipeline=pipeline,
                policy=policy,
                lint=lint,
            )
            for job in job_list
        ]

    report.elapsed = time.perf_counter() - started
    return report
