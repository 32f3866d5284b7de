"""The v1 public API: one :class:`Workspace` behind every frontend.

A :class:`Workspace` is the session object the CLI, the batch driver and the
serve mode are all thin shells over.  It owns the session state the
toolchain has grown:

* one artifact cache — in-memory, tiered over a ``cache_dir``, or none —
  threaded through a single long-lived
  :class:`~repro.pipeline.stages.Pipeline`;
* a registry of *named* policies, loadable from declarative TOML/JSON
  documents (:mod:`repro.security.policy_file`).

The facade exposes six verbs::

    ws = Workspace(cache_dir=".ifa-cache")
    result  = ws.analyze(source)                      # AnalysisResult
    run     = ws.analyze_run(source)                  # PipelineResult
    run     = ws.kemmerer_run(source)                 # PipelineResult
    checked = ws.check(source, policy="mls")          # CheckResult
    linted  = ws.lint(source)                         # LintResult
    report  = ws.batch(["a.vhd", "b.vhd"])            # BatchReport
    ws.stats()                                        # session statistics

A :class:`~repro.pipeline.artifacts.PipelineResult` carries the per-stage
timings and cache hits the JSON document builders consume;
:attr:`CheckResult.run` and :attr:`LintResult.run` carry it for ``check``
and ``lint``.  The paper-level one-liners :func:`analyze` and
:func:`analyze_kemmerer` (``repro.analyze``, ``repro.analyze_kemmerer``)
are each one call on a cache-less ``Workspace``.

Hierarchical designs (component instantiations) need nothing special: every
verb runs them through the same :class:`~repro.pipeline.stages.Pipeline`,
whose front for a source with instantiations is ``place`` (each entity
summarised, every instance placed) in place of ``elaborate`` — see
``docs/hierarchy.md``.  Each verb asks the pipeline for its goals:
``analyze_run`` for what an analyze document reads (the rendered graph
member and the inventory), ``check`` for its rendered report, ``lint``
for the inventory and the lint findings, and ``kemmerer_run`` for
Kemmerer's baseline alone.

Universes: a computed front interns the design's resource names into a
fresh :class:`~repro.dataflow.universe.FactUniverse` and makes it final, and
every bitset artefact, computed or served, carries the universe it decodes
through, so independent runs share no interned names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis.kemmerer import KemmererResult
from repro.analysis.lint import LintConfig, findings_fail
from repro.errors import PolicyError
# Not called here: perfbench/spans.py wraps these names on this module.
from repro.hier.flatten import flatten_source  # noqa: F401
from repro.hier.link import link_hierarchy  # noqa: F401
from repro.pipeline.artifacts import (
    AnalysisOptions,
    AnalysisResult,
    PipelineResult,
    ReportJSON,
)
from repro.pipeline.batch import BatchJob, BatchReport, expand_jobs, run_batch
from repro.pipeline.cache import open_cache
from repro.pipeline.render import check_document, lint_document, render_lint_text
from repro.pipeline.stages import ANALYZE_GOALS, CHECK_GOALS, LINT_GOALS, Pipeline
from repro.security.policy import FlowPolicy
from repro.security.policy_file import load_policy_file, policy_from_dict
from repro.security.report import CovertChannelReport, Diagnostic

#: Anything :meth:`Workspace.policy` resolves: a policy object, a registered
#: name, a parsed policy document, or a path to a policy file.
PolicySpec = Union[FlowPolicy, str, Dict[str, Any], os.PathLike]

_UNSET = object()


@dataclass
class CheckResult:
    """The outcome of one :meth:`Workspace.check`.

    Bundles the run's rendered report with the policy that was enforced and
    the underlying pipeline run (timings, cache hits, artifacts).
    :attr:`clean`, :attr:`exit_code`, :meth:`to_text` and :meth:`document`
    read the rendered report (the ``report_json`` stage's artefact, all a
    warm check reads); :attr:`report`, :attr:`violations`,
    :attr:`diagnostics` and :attr:`result` resolve the report and the
    analysis on first access, and each equals a cold run's.  Those reads
    check the run against :attr:`policy` as it is then, so the policy must
    not be changed (``assign``, ``permit``) between :meth:`Workspace.check`
    and the last read of its result.
    """

    run: PipelineResult
    policy: FlowPolicy

    @property
    def rendered(self) -> ReportJSON:
        """The rendered report: what every output of the check prints."""
        return self.run.artifacts.artifact("report_json")

    @property
    def report(self) -> CovertChannelReport:
        """The :class:`~repro.security.report.CovertChannelReport`."""
        return self.run.artifacts.artifact("report")

    @property
    def clean(self) -> bool:
        """True when no policy violation was found."""
        return self.rendered.clean

    @property
    def violations(self) -> List[Any]:
        """The raw :class:`~repro.security.policy.PolicyViolation` records."""
        return list(self.report.violations)

    @property
    def diagnostics(self) -> List[Any]:
        """The violations as structured :class:`Diagnostic` records."""
        return self.report.diagnostics

    @property
    def result(self) -> AnalysisResult:
        """The full analysis result the check ran on."""
        return AnalysisResult(self.run.artifacts)

    @property
    def exit_code(self) -> int:
        """The CLI convention: 0 clean, 3 when a violation was found."""
        return 0 if self.clean else 3

    def to_text(self) -> str:
        """The human-readable report (what ``vhdl-ifa check`` prints)."""
        return self.rendered.text

    def document(self, file: Optional[str] = None) -> Dict[str, Any]:
        """The complete ``check`` JSON document (``vhdl-ifa/v1``)."""
        return check_document(self.run, self.policy, file=file)


@dataclass
class LintResult:
    """The outcome of one :meth:`Workspace.lint`.

    ``findings`` already reflect the applied :class:`LintConfig` (rule
    selection, severity overrides) and are deterministically ordered;
    ``run.artifacts.lint`` keeps the cached full-catalog tuple.
    """

    run: PipelineResult
    config: LintConfig
    findings: List[Diagnostic]
    fail_on: str = "error"

    @property
    def clean(self) -> bool:
        """True when no finding survived the configuration."""
        return not self.findings

    @property
    def result(self) -> AnalysisResult:
        """The full analysis result the lint ran on."""
        return self.run.result

    @property
    def exit_code(self) -> int:
        """The CLI convention: 0 clean, 3 when ``--fail-on`` is tripped."""
        return 3 if findings_fail(self.findings, self.fail_on) else 0

    def to_text(self) -> str:
        """The human-readable report (what ``vhdl-ifa lint`` prints)."""
        design = self.run.artifacts.artifact("inventory").design
        return render_lint_text(design, self.findings)

    def document(self, file: Optional[str] = None) -> Dict[str, Any]:
        """The complete ``lint`` JSON document (``vhdl-ifa/v1``)."""
        return lint_document(self.run, self.findings, file=file)


class Workspace:
    """The session facade: one cache, named policies.

    The cache is in memory, or with ``cache_dir`` tiered over a disk store
    rooted there (:func:`~repro.pipeline.cache.open_cache`); passing
    ``cache=`` explicitly overrides both, and ``cache=None`` disables
    caching (the CLI's ``--no-cache``).  ``policies`` pre-registers named
    policies — values may be :class:`FlowPolicy` objects, parsed policy
    documents (dicts) or policy-file paths.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[str] = None,
        cache: Any = _UNSET,
        policies: Optional[Dict[str, PolicySpec]] = None,
    ):
        if cache is _UNSET:
            cache = open_cache(cache_dir)
        self.cache = cache
        self.cache_dir = cache_dir
        self.pipeline = Pipeline(cache)
        self._policies: Dict[str, FlowPolicy] = {}
        for name, spec in (policies or {}).items():
            self.register_policy(name, spec)

    # ------------------------------------------------------------- policies

    @property
    def policies(self) -> Dict[str, FlowPolicy]:
        """The registered policies, name → policy (a copy)."""
        return dict(self._policies)

    def register_policy(self, name: str, policy: PolicySpec) -> FlowPolicy:
        """Register ``policy`` (resolved via :meth:`policy`) under ``name``."""
        resolved = self.policy(policy)
        self._policies[name] = resolved
        return resolved

    def load_policy(
        self, path: "str | os.PathLike[str]", name: Optional[str] = None
    ) -> FlowPolicy:
        """Load a TOML/JSON policy file and register it.

        The registry name is ``name``, else the document's own ``name`` key,
        else the file stem.
        """
        policy = load_policy_file(path)
        register_as = name or policy.name or Path(path).stem
        self._policies[register_as] = policy
        return policy

    def policy(self, spec: PolicySpec) -> FlowPolicy:
        """Resolve a policy: an object as-is, a ``dict`` as a declarative
        document, a path as a file, and a ``str`` as a registered name
        first, else as a path to an existing policy file."""
        if isinstance(spec, FlowPolicy):
            return spec
        if isinstance(spec, dict):
            return policy_from_dict(spec)
        if isinstance(spec, str):
            registered = self._policies.get(spec)
            if registered is not None:
                return registered
            if os.path.exists(spec):
                return load_policy_file(spec)
            known = ", ".join(sorted(self._policies)) or "(none)"
            raise PolicyError(
                f"unknown policy {spec!r}: not a registered policy "
                f"(registered: {known}) and no such policy file"
            )
        if isinstance(spec, os.PathLike):
            return load_policy_file(spec)
        raise PolicyError(
            "expected a FlowPolicy, a registered policy name, a policy "
            f"document or a policy-file path, got {type(spec).__name__}"
        )

    # -------------------------------------------------------------- analyse

    @staticmethod
    def _options(
        entity: Optional[str],
        improved: bool,
        loop_processes: bool,
        use_under_approximation: bool,
        collapse: bool = False,
        self_loops: bool = False,
    ) -> AnalysisOptions:
        return AnalysisOptions(
            entity=entity,
            improved=improved,
            loop_processes=loop_processes,
            use_under_approximation=use_under_approximation,
            collapse=collapse,
            self_loops=self_loops,
        )

    def analyze(self, source: str, **opts: Any) -> AnalysisResult:
        """Run the full Information Flow analysis on VHDL1 source text.

        Accepts the keyword options of :meth:`analyze_run` and returns the
        :class:`AnalysisResult` artifact bundle.
        """
        return self.analyze_run(source, **opts).result

    def analyze_run(
        self,
        source: str,
        *,
        entity: Optional[str] = None,
        improved: bool = True,
        loop_processes: bool = True,
        use_under_approximation: bool = True,
        collapse: bool = False,
        self_loops: bool = False,
        until: Optional[str] = None,
        profile: bool = False,
    ) -> PipelineResult:
        """As :meth:`analyze`, returning the staged :class:`PipelineResult`.

        The run resolves what an analyze document reads
        (:data:`~repro.pipeline.stages.ANALYZE_GOALS`): the inventory and
        the ``graph`` member, rendered with the CLI's shaping flags
        ``collapse`` and ``self_loops``, which
        :func:`~repro.pipeline.render.analyze_document` splices in.  Its
        ``result`` still reads the flow graph on first access.
        ``until`` names the one stage to resolve instead of the analysis:
        ``"parse"`` yields the AST, and the source's front (``"elaborate"``,
        or ``"place"`` for a source with component instantiations) the
        design, its CFG, Table 4 and ``RM_lo``.
        ``profile=True`` runs every computed stage under cProfile; the
        per-stage hot spots are on ``PipelineResult.stage_profiles`` (this
        is what ``vhdl-ifa analyze --profile`` prints).
        """
        return self.pipeline.run(
            source,
            self._options(
                entity,
                improved,
                loop_processes,
                use_under_approximation,
                collapse,
                self_loops,
            ),
            goals=ANALYZE_GOALS if until is None else (until,),
            profile=profile,
        )

    def kemmerer_run(
        self,
        source: str,
        *,
        entity: Optional[str] = None,
        loop_processes: bool = True,
    ) -> PipelineResult:
        """Kemmerer's baseline over the workspace's pipeline and cache.

        The result is on ``PipelineResult.kemmerer``.  A source with
        component instantiations is placed, as in every verb.
        """
        return self.pipeline.run(
            source,
            AnalysisOptions(entity=entity, loop_processes=loop_processes),
            goals=("kemmerer",),
        )

    # ---------------------------------------------------------------- check

    def check(
        self,
        source: str,
        policy: PolicySpec,
        *,
        outputs: Optional[Iterable[str]] = None,
        transitive: Optional[bool] = None,
        restrict_to_ports: bool = False,
        entity: Optional[str] = None,
        improved: bool = True,
        loop_processes: bool = True,
        use_under_approximation: bool = True,
    ) -> CheckResult:
        """Analyse ``source`` and check it against ``policy``.

        ``transitive=None`` defers to the policy's own preferred mode (the
        ``mode`` key of a declarative policy); ``outputs`` restricts the
        reported sinks; ``restrict_to_ports`` keeps only port-to-port flows.
        The run resolves the rendered report
        (:data:`~repro.pipeline.stages.CHECK_GOALS`), which is cached under
        the policy's content and these options, so a warm check reads that
        one entry.
        """
        resolved = self.policy(policy)
        if transitive is None:
            transitive = bool(getattr(resolved, "transitive", False))
        run = self.pipeline.run(
            source,
            self._options(entity, improved, loop_processes, use_under_approximation),
            goals=CHECK_GOALS,
            policy=resolved,
            report_options={
                "transitive": transitive,
                "restrict_to_ports": restrict_to_ports,
                "outputs": list(outputs) if outputs else None,
            },
        )
        return CheckResult(run=run, policy=resolved)

    # ----------------------------------------------------------------- lint

    def lint(
        self,
        source: str,
        policy: Optional[PolicySpec] = None,
        *,
        config: Optional[LintConfig] = None,
        fail_on: str = "error",
        entity: Optional[str] = None,
        improved: bool = True,
        loop_processes: bool = True,
        use_under_approximation: bool = True,
    ) -> LintResult:
        """Run the lint rule catalog (``docs/lint.md``) over ``source``.

        ``config`` selects rules and overrides severities explicitly; else a
        ``policy`` (any :data:`PolicySpec`) supplies its ``[lint]`` table;
        else the full catalog runs at default severities.  ``fail_on`` sets
        the severity threshold behind :attr:`LintResult.exit_code`.
        ``LintResult.run.artifacts.lint`` keeps the unfiltered full-catalog
        tuple.
        """
        resolved_config = config
        if resolved_config is None and policy is not None:
            resolved_config = getattr(self.policy(policy), "lint", None)
        if resolved_config is None:
            resolved_config = LintConfig()
        run = self.pipeline.run(
            source,
            self._options(entity, improved, loop_processes, use_under_approximation),
            goals=LINT_GOALS,
        )
        findings = resolved_config.apply(run.artifacts.lint)
        return LintResult(
            run=run, config=resolved_config, findings=findings, fail_on=fail_on
        )

    # ---------------------------------------------------------------- batch

    def batch(
        self,
        jobs: Sequence[Union[str, BatchJob]],
        *,
        all_entities: bool = False,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        policy: Optional[PolicySpec] = None,
        collapse: bool = False,
        self_loops: bool = False,
        dot: bool = False,
        improved: bool = True,
        loop_processes: bool = True,
        use_under_approximation: bool = True,
        lint: Union[bool, LintConfig, None] = None,
        fail_on: str = "error",
    ) -> BatchReport:
        """Analyse many files (or :class:`BatchJob` items) in one run.

        Paths are expanded to jobs (one per entity with ``all_entities``)
        and run on this workspace (:func:`~repro.pipeline.batch.run_batch`):
        sequential runs on its pipeline and cache, parallel runs on a
        worker pool whose workers each build a workspace from
        :meth:`worker_configuration`, layering a per-worker memory tier
        over the ``cache_dir`` disk store.
        ``policy`` turns the batch into a policy check over every job.
        ``lint=True`` (or a :class:`LintConfig`) adds a per-job lint section;
        ``lint=None`` defers to the resolved policy's ``[lint]`` table (no
        lint run when it has none); ``fail_on`` sets the severity threshold
        behind :attr:`BatchReport.exit_code`, and an unknown one is a
        :class:`~repro.errors.PolicyError` before any job runs.
        """
        findings_fail([], fail_on)  # rejects an unknown threshold
        expanded: List[BatchJob] = []
        for job in jobs:
            if isinstance(job, BatchJob):
                expanded.append(job)
            else:
                expanded.extend(expand_jobs([job], self, all_entities=all_entities))
        resolved_policy = None if policy is None else self.policy(policy)
        lint_config: Optional[LintConfig]
        policy_lint = getattr(resolved_policy, "lint", None)
        if isinstance(lint, LintConfig):
            lint_config = lint
        elif lint:
            # Explicitly requested: the policy's table still configures it.
            lint_config = policy_lint if policy_lint is not None else LintConfig()
        elif lint is None:
            # Unspecified: a policy declaring a [lint] table opts the run in.
            lint_config = policy_lint
        else:
            lint_config = None
        return run_batch(
            expanded,
            self,
            AnalysisOptions(
                improved=improved,
                loop_processes=loop_processes,
                use_under_approximation=use_under_approximation,
            ),
            collapse=collapse,
            self_loops=self_loops,
            dot=dot,
            parallel=parallel,
            max_workers=max_workers,
            policy=resolved_policy,
            lint=lint_config,
            fail_on=fail_on,
        )

    def worker_configuration(self) -> Dict[str, Any]:
        """The keyword arguments a worker process builds its workspace from.

        Caches hold live pickles and open file handles, so they never cross
        a process boundary; this mapping does.  Every batch pool worker and
        every serve pool worker calls ``Workspace(**configuration)``: with
        caching off that is ``{"cache": None}``, else ``{"cache_dir": ...}``,
        so each worker layers its own in-memory tier over the workspace's
        persistent store (if any).
        """
        if self.cache is None:
            return {"cache": None}
        return {"cache_dir": self.cache_dir}

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        """Session statistics: registered policies, cache counters."""
        document: Dict[str, Any] = {"policies": sorted(self._policies)}
        if self.cache is not None:
            document["cache"] = self.cache.stats()
        return document


def analyze(
    source: str,
    entity_name: Optional[str] = None,
    improved: bool = True,
    loop_processes: bool = True,
    use_under_approximation: bool = True,
) -> AnalysisResult:
    """Parse, elaborate and run the Information Flow analysis (Tables 4–9).

    ``improved`` selects the Table 9 extension (incoming/outgoing nodes);
    ``loop_processes=False`` analyses process bodies as straight-line code
    (the paper's presentation of its sequential example programs);
    ``use_under_approximation=False`` ablates the ``RD∩ϕ``-driven kill at
    synchronisation points (Section 4.2).  One call on a cache-less
    :class:`Workspace`.
    """
    return Workspace(cache=None).analyze(
        source,
        entity=entity_name,
        improved=improved,
        loop_processes=loop_processes,
        use_under_approximation=use_under_approximation,
    )


def analyze_kemmerer(
    source: str, entity_name: Optional[str] = None, loop_processes: bool = True
) -> KemmererResult:
    """Run Kemmerer's baseline (Sections 5.2 and 6) on VHDL1 source text.

    One call on a cache-less :class:`Workspace`.
    """
    run = Workspace(cache=None).kemmerer_run(
        source, entity=entity_name, loop_processes=loop_processes
    )
    return run.kemmerer
