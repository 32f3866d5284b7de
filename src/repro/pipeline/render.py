"""Render pipeline results as the documents and text every surface prints.

Inputs are finished :class:`~repro.pipeline.artifacts.PipelineResult` /
:class:`~repro.pipeline.artifacts.AnalysisResult` objects; outputs are the
user-facing renderings: :func:`analyze_document`, :func:`check_document`
and :func:`lint_document` build the complete documents, in a stable key
order, and :func:`render_analysis_text` and :func:`render_lint_text` the
text.  The one response path, :func:`repro.pipeline.serve.respond`, calls
them for the CLI, batch jobs and serve alike, so their outputs are
byte-identical by construction.

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
from math import isfinite
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
_JSON_CONSTANTS = {None: "null", False: "false", True: "true"}


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


def _run_document(
    command: str,
    pipeline: PipelineResult,
    file: Optional[str],
    members: Dict[str, Any],
) -> Dict[str, Any]:
    """A stamped document of one run: the command, the file label (when
    there is one), ``members``, then the run's per-stage wall-clock timings
    and the stages served from the artifact cache."""
    document: Dict[str, Any] = {"schema": SCHEMA_VERSION, "command": command}
    if file is not None:
        document["file"] = file
    document.update(members)
    document["timings"] = {
        name: round(seconds, 6) for name, seconds in pipeline.timings.items()
    }
    document["cached_stages"] = pipeline.cached_stages
    return document


def analyze_document(
    pipeline: PipelineResult, file: Optional[str] = None
) -> Dict[str, Any]:
    """The complete ``analyze --json`` document of one run.

    Contains the design inventory (the run's ``inventory`` artefact) and
    the ``graph`` member shaped by the run's ``collapse``/``self_loops``
    options (the ``graph_json`` artefact, a :class:`RenderedJSON`).  Both
    artefacts resolve first, so the timings and the cached stages include
    them.
    """
    artifacts = pipeline.artifacts
    member = artifacts.artifact("graph_json")
    inventory = artifacts.artifact("inventory")
    options = pipeline.options
    return _run_document(
        "analyze",
        pipeline,
        file,
        {
            "design": inventory.design,
            "options": {
                "entity": options.entity,
                "improved": options.improved,
                "loop_processes": options.loop_processes,
                "use_under_approximation": options.use_under_approximation,
            },
            "summary": {
                **inventory.cfg_stats,
                "local_entries": inventory.local_entries,
                "global_entries": inventory.global_entries,
                "nodes": member.nodes,
                "edges": member.edges,
            },
            "graph": RenderedJSON(member.text),
        },
    )


def check_document(
    pipeline: PipelineResult,
    policy: Any,
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``check --json`` document of one run (analysis and
    verdict).

    Its members are the run's ``report_json`` artefact, the ``violations``
    member a :class:`RenderedList`, and the policy it enforced.  The
    artefact resolves first, so the timings and the cached stages include
    it.
    """
    rendered = pipeline.artifacts.artifact("report_json")
    document = _run_document(
        "check",
        pipeline,
        file,
        {
            "design": rendered.design,
            "clean": rendered.clean,
            "violations": RenderedList(rendered.violations),
            "output_dependencies": {
                output: list(inputs)
                for output, inputs in rendered.output_dependencies.items()
            },
            "summary": {"nodes": rendered.nodes, "edges": rendered.edges},
        },
    )
    document["policy"] = policy_summary(policy)
    return document


def lint_section(findings: Sequence[Any]) -> Dict[str, Any]:
    """The lint body a lint document and a batch job's ``lint`` section
    share: verdict, findings and severity counters.

    ``findings`` are :class:`~repro.security.report.Diagnostic` records with
    any policy selection/overrides already applied.  (Takes plain
    diagnostics rather than importing the lint package: render is imported
    by the pipeline package the lint rules ultimately depend on.)
    """
    summary = {"findings": len(findings), "errors": 0, "warnings": 0, "infos": 0}
    for finding in findings:
        summary[finding.severity + "s"] += 1
    return {
        "clean": not findings,
        "findings": [finding.to_dict() for finding in findings],
        "summary": summary,
    }


def lint_document(
    pipeline: PipelineResult,
    findings: Sequence[Any],
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``lint --json`` document of one run."""
    return _run_document(
        "lint",
        pipeline,
        file,
        {"design": pipeline.result.inventory.design, **lint_section(findings)},
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
    """The document's UTF-8 bytes, its text encoded with ``errors``.

    Each run of text between rendered members is encoded once, and the join
    copies each member once.
    """
    pieces: List[Any] = []
    _write(document, "", pieces)
    parts, start = [], 0
    for index, piece in enumerate(pieces):
        if type(piece) is bytes:
            parts += ("".join(pieces[start:index]).encode("utf-8", errors), piece)
            start = index + 1
    parts.append("".join(pieces[start:]).encode("utf-8", errors))
    return b"".join(parts)


def _write(value: Any, indent: str, pieces: List[Any]) -> None:
    """Append ``value`` to ``pieces`` as ``json.dumps(indent=2,
    ensure_ascii=False)`` writes it on a line indented by ``indent``.

    A rendered member (:class:`RenderedJSON`, :class:`RenderedList`) is its
    UTF-8 text, re-indented from depth 1 to this one; the rest is text.
    Keys must be strings, as every document's are.  A module-level
    function, so that writing leaves no reference cycle for the collector.
    """
    if isinstance(value, str):
        pieces.append(encode_basestring(value))
    elif isinstance(value, dict):
        inner = indent + "  "
        opener = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pieces.append(f"{opener}{encode_basestring(key)}: ")
            _write(item, inner, pieces)
            opener = ",\n" + inner
        pieces.append(f"\n{indent}}}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        opener = "[\n" + inner
        for item in value:
            pieces.append(opener)
            _write(item, inner, pieces)
            opener = ",\n" + inner
        pieces.append(f"\n{indent}]" if value else "[]")
    elif value is None or value is True or value is False:
        pieces.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, float):
        # json writes what is not finite as NaN, Infinity or -Infinity.
        pieces.append(float.__repr__(value) if isfinite(value) else json.dumps(value))
    elif isinstance(value, _Rendered):
        shift = len(indent) - 2
        old, new = b"\n" + b" " * max(-shift, 0), b"\n" + b" " * max(shift, 0)
        pieces.append(value.text.replace(old, new) if shift else value.text)
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )
