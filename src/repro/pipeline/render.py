"""Render pipeline results as the CLI's text and ``--json`` documents.

Inputs are finished :class:`~repro.pipeline.artifacts.PipelineResult` /
:class:`~repro.pipeline.artifacts.AnalysisResult` objects; outputs are the
user-facing renderings.  Both the ``vhdl-ifa analyze`` command and the batch
driver go through :func:`render_analysis_text`, so a batch run's per-file
output is byte-identical to the sequential command by construction.  The
JSON builders return plain dicts (stable key order, only JSON-native types),
shared by ``--json`` on ``analyze``/``check``/``batch``;
:func:`analyze_document` / :func:`check_document` / :func:`json_text` are
the complete documents, shared by the CLI and ``vhdl-ifa serve`` — which is
why a server response is byte-identical to the corresponding CLI output.

The ``vhdl-ifa/v1`` contract these documents follow is the recorded
interaction corpus (``tests/contract/pacts``, see :mod:`repro.contract`):
every field is pinned there except the run-dependent ones that
:func:`volatile_pointers` declares.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.pipeline.artifacts import AnalysisResult, PipelineResult
from repro.security.policy_file import policy_to_dict
from repro.version import version

#: The versioned contract stamped (as ``"schema"``, always the first key) on
#: every JSON document the toolchain emits — CLI ``--json`` bodies, batch
#: documents, every serve-mode response.  Bumped only on breaking changes,
#: together with a re-recording of the contract corpus, whose replay fails
#: on any interaction recorded under another version.
SCHEMA_VERSION = "vhdl-ifa/v1"


def stamped(document: Dict[str, Any]) -> Dict[str, Any]:
    """``document`` with the ``"schema"`` version as its first key."""
    if document.get("schema") == SCHEMA_VERSION:
        return document
    return {"schema": SCHEMA_VERSION, **document}


def select_graph(result: AnalysisResult, collapse: bool, self_loops: bool):
    """Apply the CLI's graph-shaping flags (shared by analyze/kemmerer/batch)."""
    graph = result.graph if self_loops else result.graph.without_self_loops()
    if collapse:
        graph = graph.collapse_environment_nodes()
    return graph


def render_adjacency(graph: Any) -> List[str]:
    """The CLI's adjacency-list rendering, one line per node."""
    return [
        f"  {node} -> {', '.join(successors) if successors else '(none)'}"
        for node, successors in graph.to_adjacency().items()
    ]


def render_analysis_text(
    result: AnalysisResult,
    collapse: bool = False,
    self_loops: bool = False,
    dot: bool = False,
    graph: Optional[Any] = None,
) -> str:
    """Exactly what ``vhdl-ifa analyze`` prints for one design.

    ``graph`` optionally supplies an already-shaped graph (the result of
    :func:`select_graph` with the same flags), so callers rendering both text
    and JSON shape it only once.
    """
    if graph is None:
        graph = select_graph(result, collapse, self_loops)
    lines = [result.summary()]
    if dot:
        lines.append(graph.to_dot())
    else:
        lines.extend(render_adjacency(graph))
    return "\n".join(lines)


def _round_timings(pipeline: PipelineResult) -> Dict[str, float]:
    return {name: round(seconds, 6) for name, seconds in pipeline.timings.items()}


def analysis_json(
    pipeline: PipelineResult,
    collapse: bool = False,
    self_loops: bool = False,
    file: Optional[str] = None,
    graph: Optional[Any] = None,
) -> Dict[str, Any]:
    """The machine-readable summary of one analysis run.

    Contains the design inventory (the run's ``inventory`` artefact), the
    (flag-shaped) adjacency, per-stage wall-clock timings and which stages
    were served from the artifact cache.
    ``graph`` optionally supplies an already-shaped graph, as in
    :func:`render_analysis_text`.
    """
    result = pipeline.result
    if graph is None:
        graph = select_graph(result, collapse, self_loops)
    inventory = result.inventory
    document: Dict[str, Any] = {}
    if file is not None:
        document["file"] = file
    document.update(
        {
            "design": inventory.design,
            "options": {
                "entity": pipeline.options.entity,
                "improved": pipeline.options.improved,
                "loop_processes": pipeline.options.loop_processes,
                "use_under_approximation": pipeline.options.use_under_approximation,
            },
            "summary": {
                **inventory.cfg_stats,
                "local_entries": inventory.local_entries,
                "global_entries": inventory.global_entries,
                "nodes": graph.node_count(),
                "edges": graph.edge_count(),
            },
            "graph": {
                "collapse": collapse,
                "self_loops": self_loops,
                "adjacency": graph.to_adjacency(),
            },
            "timings": _round_timings(pipeline),
            "cached_stages": pipeline.cached_stages,
        }
    )
    return document


def report_json(pipeline: PipelineResult, file: Optional[str] = None) -> Dict[str, Any]:
    """The machine-readable form of a ``check`` run (analysis + verdict)."""
    document: Dict[str, Any] = {}
    if file is not None:
        document["file"] = file
    document.update(pipeline.report.to_json_dict())
    document["timings"] = _round_timings(pipeline)
    document["cached_stages"] = pipeline.cached_stages
    return document


def lint_section(findings: Sequence[Any]) -> Dict[str, Any]:
    """The shared lint body: verdict, findings and severity counters.

    ``findings`` are :class:`~repro.security.report.Diagnostic` records with
    any policy selection/overrides already applied.  The CLI ``lint --json``
    document, the batch per-job ``lint`` section and the ``POST /lint``
    response all embed exactly this dict, which is what makes the three
    byte-comparable.  (Takes plain diagnostics rather than importing the lint
    package: render is imported by the pipeline package the lint rules
    ultimately depend on.)
    """
    summary = {"findings": len(findings), "errors": 0, "warnings": 0, "infos": 0}
    for finding in findings:
        summary[finding.severity + "s"] += 1
    return {
        "clean": not findings,
        "findings": [finding.to_dict() for finding in findings],
        "summary": summary,
    }


def lint_json(
    pipeline: PipelineResult,
    findings: Sequence[Any],
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The machine-readable form of a ``lint`` run."""
    document: Dict[str, Any] = {}
    if file is not None:
        document["file"] = file
    document["design"] = pipeline.result.inventory.design
    document.update(lint_section(findings))
    document["timings"] = _round_timings(pipeline)
    document["cached_stages"] = pipeline.cached_stages
    return document


def lint_document(
    pipeline: PipelineResult,
    findings: Sequence[Any],
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``lint --json`` document (CLI and server share it)."""
    return stamped(
        {
            "command": "lint",
            **lint_json(pipeline, findings, file=file),
        }
    )


def render_lint_text(design_name: str, findings: Sequence[Any]) -> str:
    """Exactly what ``vhdl-ifa lint`` prints for one design."""
    lines = [f"Lint report for design {design_name!r}"]
    if not findings:
        lines.append("No findings.")
    else:
        lines.append(f"{len(findings)} finding(s):")
        for finding in findings:
            lines.append(f"  - {finding.severity}: {finding.describe()}")
    return "\n".join(lines)


def policy_summary(policy: Any) -> Dict[str, Any]:
    """The ``"policy"`` member of a ``check`` document.

    Two-level policies keep their compact historical form (the sorted secret
    list); every other policy is rendered as its full declarative document,
    so a check driven by a policy file echoes the policy it enforced.
    """
    secrets = getattr(policy, "secret_resources", None)
    if secrets is not None:
        return {"secrets": sorted(secrets)}
    return policy_to_dict(policy)


def analyze_document(
    pipeline: PipelineResult,
    collapse: bool = False,
    self_loops: bool = False,
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``analyze --json`` document (CLI and server share it)."""
    return stamped(
        {
            "command": "analyze",
            **analysis_json(
                pipeline, collapse=collapse, self_loops=self_loops, file=file
            ),
        }
    )


def check_document(
    pipeline: PipelineResult,
    policy: Any,
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``check --json`` document (CLI and server share it)."""
    return stamped(
        {
            "command": "check",
            **report_json(pipeline, file=file),
            "policy": policy_summary(policy),
        }
    )


def version_document() -> Dict[str, Any]:
    """The ``GET /version`` document (package metadata version)."""
    return stamped({"command": "version", "version": version()})


#: Volatile-field matcher rules shared by every analysis-style document.
#: ``/file`` is the caller-supplied path (absolute and run-dependent under
#: the CLI, ``null`` for ``source`` requests — a null is simply not masked).
_ANALYSIS_VOLATILE = {
    "/timings": "object",
    "/cached_stages": "array",
    "/file": "string",
}


def volatile_pointers(command: str) -> Dict[str, str]:
    """The authoritative matcher table of one document kind.

    Maps each ``command`` value a v1 document can carry to the JSON-pointer
    → JSON-type rules declaring which of its fields are run-dependent
    (wall-clock timings, cache state, absolute paths, uptime, counters,
    latency histograms).  ``vhdl-ifa contract record`` (:mod:`repro.contract`)
    stamps the rules of each live document's ``command`` (``"error"`` for a
    body without one) into its interaction, and the verifier masks both the
    recording and the live response with them — everything *not* listed
    here is pinned byte-for-byte by the corpus.
    """
    if command in ("analyze", "check", "lint"):
        return dict(_ANALYSIS_VOLATILE)
    if command == "batch":
        # Batch jobs inline the per-job analyze/check/lint document, so the
        # analysis volatiles recur one level down, plus per-job wall clocks.
        return {
            "/elapsed": "number",
            "/jobs/*/file": "string",
            "/jobs/*/seconds": "number",
            "/jobs/*/timings": "object",
            "/jobs/*/cached_stages": "array",
        }
    if command == "policy":
        return {}
    if command == "version":
        # The package version moves on every release; the *shape* is the
        # contract, enforced separately via the schema stamp.
        return {"/version": "string"}
    if command == "stats":
        return {
            "/uptime_seconds": "number",
            "/requests": "object",
            "/policies": "array",
            "/cache": "object",
        }
    if command == "cache-stats":
        # The resolved cache directory, and the disk format, which a cache
        # change may bump without breaking the document.
        return {"/path": "string", "/version": "number"}
    if command == "healthz":
        return {"/workers": "object"}
    if command == "metrics":
        return {
            "/uptime_seconds": "number",
            "/requests": "object",
            "/cache": "object",
            "/latency": "object",
            "/workers": "object",
        }
    if command == "error":
        return {}
    raise ValueError(f"no matcher table for document kind {command!r}")


def json_text(document: Dict[str, Any]) -> str:
    """One canonical JSON serialisation, shared by the CLI and the server.

    Both ``vhdl-ifa analyze --json`` (via ``print``) and ``vhdl-ifa serve``
    emit exactly this text plus a trailing newline, which is what makes the
    two byte-comparable.
    """
    return json.dumps(document, indent=2, ensure_ascii=False)
