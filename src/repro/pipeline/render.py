"""Render pipeline results as the CLI's text and ``--json`` documents.

Inputs are finished :class:`~repro.pipeline.artifacts.PipelineResult` /
:class:`~repro.pipeline.artifacts.AnalysisResult` objects; outputs are the
user-facing renderings.  Both the ``vhdl-ifa analyze`` command and the batch
driver go through :func:`render_analysis_text`, so a batch run's per-file
output is byte-identical to the sequential command by construction.  The
JSON builders return dicts in a stable key order, shared by ``--json`` on
``analyze``/``check``/``batch``; :func:`analyze_document` /
:func:`check_document` / :func:`json_text` are the complete documents,
shared by the CLI and ``vhdl-ifa serve`` — which is why a server response
is byte-identical to the corresponding CLI output.

:func:`json_text` is the one serialiser of these documents, and
:func:`json_bytes` its UTF-8 bytes, which serve writes.  Their values are
JSON-native types, except two rendered members: the ``graph`` member of an
analyze document, a :class:`RenderedJSON` of the text the ``graph_json``
stage rendered and cached (:func:`render_graph_json`), and the
``violations`` member of a check document, a :class:`RenderedList` of the
text the ``report_json`` stage rendered and cached
(:func:`render_report_json`).  :func:`json_text` splices each into the
document's remainder as it is.  Plain ``json.dumps`` of such a document
raises ``TypeError``; read the member as a mapping or a list, or serialise
the document with :func:`json_text`.

The ``vhdl-ifa/v1`` contract these documents follow is the recorded
interaction corpus (``tests/contract/pacts``, see :mod:`repro.contract`):
every field is pinned there except the run-dependent ones that
:func:`volatile_pointers` declares.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.analysis.flowgraph import FlowGraph
from repro.pipeline.artifacts import (
    AnalysisResult,
    GraphJSON,
    PipelineResult,
    ReportJSON,
)
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


def shape_graph(graph: FlowGraph, collapse: bool, self_loops: bool) -> FlowGraph:
    """Apply the CLI's graph-shaping flags to ``graph``."""
    if not self_loops:
        graph = graph.without_self_loops()
    if collapse:
        graph = graph.collapse_environment_nodes()
    return graph


def select_graph(result: AnalysisResult, collapse: bool, self_loops: bool):
    """Apply the CLI's graph-shaping flags (shared by analyze/kemmerer/batch)."""
    return shape_graph(result.graph, collapse, self_loops)


class _Rendered:
    """A JSON value held as its rendered text: a document member that
    :func:`json_text` splices in as it is.

    ``text`` is UTF-8 JSON, rendered as :func:`json_text` renders a member
    one level down in a document.  Reading the value parses the text once;
    the parsed value is never serialised, so treat it as read-only.  A
    copy, a deep copy and a pickle carry the text alone.
    """

    __slots__ = ("text", "_value")

    def __init__(self, text: bytes):
        self.text = text
        self._value: Any = None

    def _parsed(self) -> Any:
        if self._value is None:
            self._value = json.loads(self.text)
        return self._value

    def _plain(self, other: object) -> Any:
        """``other`` as the plain value it equals, or None if it is none."""
        raise NotImplementedError

    def __getitem__(self, key: Any) -> Any:
        return self._parsed()[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._parsed())

    def __len__(self) -> int:
        return len(self._parsed())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Rendered):
            return self.text == other.text or self._parsed() == other._parsed()
        plain = self._plain(other)
        if plain is None:
            return NotImplemented
        return self._parsed() == plain

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.text)} bytes)"

    def __reduce__(self) -> Any:
        # Pickles, copies and deep copies all rebuild from the text.
        return type(self), (self.text,)


class RenderedJSON(_Rendered, Mapping):
    """A JSON object held as its rendered text (an analyze document's
    ``graph`` member).

    It reads as the mapping it renders: ``member["adjacency"]``, ``==``
    against a dict and ``dict(member)`` work.
    """

    __slots__ = ()

    def _plain(self, other: object) -> Any:
        if isinstance(other, Mapping):
            return other if isinstance(other, dict) else dict(other)
        return None


class RenderedList(_Rendered, Sequence):
    """A JSON array held as its rendered text (a check document's
    ``violations`` member).

    It reads as the list it renders: indexing, ``len``, iteration, ``==``
    against a list and ``list(member)`` work.
    """

    __slots__ = ()

    def _plain(self, other: object) -> Any:
        return other if isinstance(other, list) else None


_JSON_BOOLEANS = {False: b"false", True: b"true"}


def render_graph_json(graph: FlowGraph, collapse: bool, self_loops: bool) -> GraphJSON:
    """The ``graph_json`` stage's artefact: ``graph``'s document member for
    the two shaping flags, and the shaped graph's counts.

    The text is byte for byte what :func:`json_text` writes for the member
    ``{"collapse": …, "self_loops": …, "adjacency": to_adjacency()}`` one
    level down in a document, written into one buffer
    (:meth:`~repro.analysis.flowgraph.FlowGraph.write_adjacency_json`).
    ``graph`` is a cached artefact: only a copy of it is shaped, so it keeps
    no map the shaping derives.
    """
    shaped, keep_self_loops = graph, self_loops
    if collapse:
        # As select_graph: the self-loops go first, and merging n◦/n• onto n
        # can make new ones, which stay.
        shaped, keep_self_loops = shape_graph(graph.copy(), True, self_loops), True
    buffer = io.BytesIO()
    buffer.write(
        b'{\n    "collapse": %s,\n    "self_loops": %s,\n    "adjacency": '
        % (_JSON_BOOLEANS[collapse], _JSON_BOOLEANS[self_loops])
    )
    edges = shaped.write_adjacency_json(buffer, 2, self_loops=keep_self_loops)
    buffer.write(b"\n  }")
    return GraphJSON(shaped.node_count(), edges, buffer.getvalue())


def _violations_json(diagnostics: Sequence[Any]) -> bytes:
    """The ``violations`` member: each diagnostic's ``to_dict()``, as
    :func:`json_text` writes the list one level down in a document.

    Every value of a diagnostic's dict is a string but its witness path, a
    list of strings, and each is escaped by the escaper ``json`` itself
    uses.
    """
    if not diagnostics:
        return b"[]"
    items = []
    for diagnostic in diagnostics:
        fields = []
        for key, value in diagnostic.to_dict().items():
            if isinstance(value, list):
                value = (
                    "[\n        " + ",\n        ".join(map(encode_basestring, value))
                    + "\n      ]"
                    if value
                    else "[]"
                )
            else:
                value = encode_basestring(value)
            fields.append(f"{encode_basestring(key)}: {value}")
        items.append("{\n      " + ",\n      ".join(fields) + "\n    }")
    text = "[\n    " + ",\n    ".join(items) + "\n  ]"
    return text.encode("utf-8", "surrogatepass")


def render_report_json(report: Any) -> ReportJSON:
    """The ``report_json`` stage's artefact: what every output of a check
    prints, from its :class:`~repro.security.report.CovertChannelReport`.

    The members are those of ``report.to_json_dict()``, the ``violations``
    member rendered (:func:`_violations_json`), and the text is
    ``report.to_text()``.
    """
    return ReportJSON(
        design=report.design_name,
        clean=report.is_clean,
        nodes=report.node_count,
        edges=report.edge_count,
        violations=_violations_json(report.diagnostics),
        output_dependencies={
            output: list(inputs)
            for output, inputs in sorted(report.output_dependencies.items())
        },
        text=report.to_text(),
    )


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
) -> str:
    """Exactly what ``vhdl-ifa analyze`` prints for one design."""
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
    pipeline: PipelineResult, file: Optional[str] = None
) -> Dict[str, Any]:
    """The machine-readable summary of one analysis run.

    Contains the design inventory (the run's ``inventory`` artefact), the
    ``graph`` member shaped by the run's ``collapse``/``self_loops`` options
    (the ``graph_json`` artefact, a :class:`RenderedJSON`), per-stage
    wall-clock timings and which stages were served from the artifact
    cache.  Both artefacts resolve first, so the timings and the cached
    stages include them.
    """
    artifacts = pipeline.artifacts
    member = artifacts.artifact("graph_json")
    inventory = artifacts.artifact("inventory")
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
                "nodes": member.nodes,
                "edges": member.edges,
            },
            "graph": RenderedJSON(member.text),
            "timings": _round_timings(pipeline),
            "cached_stages": pipeline.cached_stages,
        }
    )
    return document


def report_json(pipeline: PipelineResult, file: Optional[str] = None) -> Dict[str, Any]:
    """The machine-readable form of a ``check`` run (analysis + verdict).

    Its members are the run's ``report_json`` artefact, the ``violations``
    member a :class:`RenderedList`, and per-stage wall-clock timings and
    the cached stages.  The artefact resolves first, so the timings and
    the cached stages include it.
    """
    rendered = pipeline.artifacts.artifact("report_json")
    document: Dict[str, Any] = {}
    if file is not None:
        document["file"] = file
    document.update(
        {
            "design": rendered.design,
            "clean": rendered.clean,
            "violations": RenderedList(rendered.violations),
            "output_dependencies": {
                output: list(inputs)
                for output, inputs in rendered.output_dependencies.items()
            },
            "summary": {"nodes": rendered.nodes, "edges": rendered.edges},
            "timings": _round_timings(pipeline),
            "cached_stages": pipeline.cached_stages,
        }
    )
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
    pipeline: PipelineResult, file: Optional[str] = None
) -> Dict[str, Any]:
    """The complete ``analyze --json`` document (CLI and server share it).

    The graph member is shaped by the run's ``collapse`` and ``self_loops``
    options (:meth:`repro.workspace.Workspace.analyze_run` takes both).
    """
    return stamped({"command": "analyze", **analysis_json(pipeline, file=file)})


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


#: What :func:`json_bytes`'s hook writes where a rendered member goes.
#: ``json`` escapes its NULs, so the escaped form can stand only for a whole
#: string of the document equal to it; a document holding one is serialised
#: again with another placeholder.
_PLACEHOLDER = "\x00vhdl-ifa:rendered-json\x00"


class _Splicer:
    """``json.dumps``'s ``default`` hook: a placeholder for each rendered
    member (:class:`RenderedJSON`, :class:`RenderedList`), whose text it
    keeps in order."""

    __slots__ = ("placeholder", "texts")

    def __init__(self, placeholder: str):
        self.placeholder = placeholder
        self.texts: List[bytes] = []

    def __call__(self, value: Any) -> str:
        if isinstance(value, _Rendered):
            self.texts.append(value.text)
            return self.placeholder
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def json_bytes(document: Any) -> bytes:
    """The UTF-8 bytes of :func:`json_text`, which ``vhdl-ifa serve``
    writes as a response body.

    A string of the document that is no text (it holds a lone surrogate)
    raises :class:`UnicodeEncodeError`: a body must be valid UTF-8.
    """
    return _spliced(document, "strict")


def json_text(document: Any) -> str:
    """One canonical JSON serialisation, shared by the CLI and the server.

    ``vhdl-ifa analyze --json`` prints exactly this text, and ``vhdl-ifa
    serve`` writes its bytes (:func:`json_bytes`), plus a trailing newline,
    which is what makes the two byte-comparable.  It is
    ``json.dumps(document, indent=2, ensure_ascii=False)`` of the document
    with every rendered member parsed, written without parsing one.  A lone
    surrogate (a file name the OS gave as undecodable bytes) is kept as it
    is.
    """
    return _spliced(document, "surrogatepass").decode("utf-8", "surrogatepass")


def _spliced(document: Any, errors: str) -> bytes:
    """The document's UTF-8 bytes, its remainder encoded with ``errors``.

    The document is serialised by ``json.dumps(document, indent=2,
    ensure_ascii=False)`` with a placeholder for each rendered member
    (:class:`RenderedJSON`, :class:`RenderedList`), and each member's text
    is spliced in where its placeholder sits, re-indented to its depth; no
    member is parsed.  The small remainder is encoded to join the member
    texts, so each member is copied once, by the join.
    """
    attempt = 0
    while True:
        splicer = _Splicer(f"{_PLACEHOLDER}{attempt}")
        text = json.dumps(document, indent=2, ensure_ascii=False, default=splicer)
        texts = splicer.texts
        # The pure-Python encoder leaves the hook in a reference cycle: it
        # must not keep the members alive until the next collection.
        splicer.texts = []
        if not texts:
            return text.encode("utf-8", errors)
        pieces = text.split(encode_basestring(splicer.placeholder))
        if len(pieces) == len(texts) + 1:
            break
        attempt += 1
    parts = [pieces[0].encode("utf-8", errors)]
    for before, member, after in zip(pieces, texts, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        shift = len(line) - len(line.lstrip(" ")) - 2
        if shift > 0:
            member = member.replace(b"\n", b"\n" + b" " * shift)
        elif shift < 0:
            member = member.replace(b"\n" + b" " * -shift, b"\n")
        parts.append(member)
        parts.append(after.encode("utf-8", errors))
    return b"".join(parts)
