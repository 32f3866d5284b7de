"""Outside-in span recorder for the traced run.

The benchmark does not change the program. It replaces public functions
where they are *called*: modules import by name, so the wrapped attribute is
the one the call site looks up, e.g. ``repro.pipeline.stages.parse_program``
and not ``repro.vhdl.parser.parse_program``. Each call becomes one span of
(name, start, end, parent, op id, note), kept in memory and written out when
the run ends.

A span's *self time* is its duration minus the time its direct child spans
cover. The op root span is named ``workspace``. Its self time is the op wall
time that no layer span explains, and ``trace.coverage_ratio`` is one minus
its share of the op time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "workspace"


def _source_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    return len(args[0]) if args and isinstance(args[0], str) else 0


def _result_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    return len(result) if isinstance(result, str) else 0


def _found(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> bool:
    return result is not None


def _reused(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> bool:
    return bool(result[1])


def _written_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    """The size of the entry file a ``DiskArtifactCache.put`` left behind."""
    store, key = args[0], args[1]
    try:
        return store._entry_path(key).stat().st_size
    except OSError:  # an unpicklable value is skipped, not written
        return 0


#: (module[:class], attribute, span name, note) — every call site the op
#: paths of the workloads go through.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[..., Any]]], ...] = (
    ("repro.pipeline.stages", "parse_program", "vhdl.parse", _source_bytes),
    ("repro.pipeline.stages", "elaborate", "vhdl.elaborate", None),
    ("repro.hier.summary", "elaborate", "vhdl.elaborate", None),
    ("repro.pipeline.stages", "build_cfg", "cfg.build", None),
    ("repro.hier.summary", "build_cfg", "cfg.build", None),
    ("repro.pipeline.stages", "analyze_all_active_signals", "analysis.active", None),
    ("repro.pipeline.stages", "analyze_reaching_definitions", "analysis.reaching", None),
    ("repro.pipeline.stages", "local_resource_matrix", "analysis.local", None),
    ("repro.pipeline.stages", "specialize", "analysis.specialize", None),
    ("repro.hier.link", "specialize", "analysis.specialize", None),
    ("repro.pipeline.stages", "improved_global_resource_matrix", "analysis.closure", None),
    ("repro.pipeline.stages", "global_resource_matrix", "analysis.closure", None),
    ("repro.hier.link", "improved_global_resource_matrix", "analysis.closure", None),
    ("repro.hier.link", "global_resource_matrix", "analysis.closure", None),
    ("repro.analysis.flowgraph:FlowGraph", "from_resource_matrix", "analysis.flow_graph", None),
    ("repro.analysis.lint", "run_lint_rules", "analysis.lint", None),
    ("repro.analysis.reaching_active", "solve", "dataflow.solve", None),
    ("repro.analysis.reaching_defs", "solve", "dataflow.solve", None),
    ("repro.hier.link", "solve", "dataflow.solve", None),
    ("repro.security.report", "build_report", "security.report", None),
    ("repro.pipeline.serve", "analyze_document", "render.document", None),
    ("repro.workspace", "check_document", "render.document", None),
    ("repro.workspace", "lint_document", "render.document", None),
    ("repro.pipeline.render", "json_text", "render.json", _result_bytes),
    ("repro.workspace", "open_cache", "cache.open", None),
    ("repro.pipeline.cache:TieredArtifactCache", "get", "cache.get", _found),
    ("repro.pipeline.cache:ArtifactCache", "get", "cache.memory.get", _found),
    ("repro.pipeline.cache:DiskArtifactCache", "get", "cache.disk.get", _found),
    ("repro.pipeline.cache:DiskArtifactCache", "put", "cache.disk.put", _written_bytes),
    ("repro.workspace", "link_hierarchy", "hier.link", None),
    ("repro.hier.link", "build_hierarchy", "hier.build", None),
    ("repro.hier.link", "summarize_entity", "hier.summary", _reused),
    ("repro.workspace", "flatten_source", "hier.flatten", None),
)

# Span record fields.
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Records spans between :meth:`begin_op` and :meth:`end_op`.

    Installed wrappers pass straight through outside an op, so set-up and
    verification never leave spans. Spans are stored in columns of machine
    integers, so recording allocates no objects the garbage collector must
    trace; a per-span list would make the collector's full passes over the
    program's own heap more frequent and charge them to the traced ops.
    """

    def __init__(self) -> None:
        self.active = False
        self._names: List[str] = []
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._notes: List[Any] = []
        self._stack: List[int] = []
        self._op_id = -1
        self._restore: List[Tuple[Any, str, Any]] = []

    @property
    def spans(self) -> List[Tuple[Any, ...]]:
        """Every span as a (name, start, end, parent, op, note) tuple."""
        return list(zip(self._names, self._start, self._end, self._parent, self._op, self._notes))

    def _open(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self._op_id)
        self._notes.append(None)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        self._stack.pop()

    # ----------------------------------------------------------- patching

    def _wrap(self, fn: Callable[..., Any], name: str, note) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if note is not None:
                tracer._notes[index] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets: Sequence[Tuple[str, str, str, Any]] = TARGETS) -> None:
        """Wrap every target attribute (idempotent per tracer)."""
        if self._restore:
            return
        for where, attribute, name, note in targets:
            module_name, _, class_name = where.partition(":")
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    wrapped: Any = classmethod(self._wrap(original.__func__, name, note))
                else:
                    wrapped = self._wrap(original, name, note)
            else:
                original = getattr(owner, attribute)
                wrapped = self._wrap(original, name, note)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # ------------------------------------------------------------- op spans

    def begin_op(self, op_id: int, kind: str) -> None:
        """Open the root span of one op; its note is the op's command."""
        self._op_id = op_id
        self._stack = []
        self._notes[self._open(ROOT)] = kind
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._close(self._stack[0])
        self._op_id = -1

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        fields = ("name", "start_ns", "end_ns", "parent", "op", "note")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


# ------------------------------------------------------------------ analysis


def self_times(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another on one thread, so their
    durations add up; each is clipped to the parent's interval.
    """
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            covered = min(span[END], outer[END]) - max(span[START], outer[START])
            result[parent] -= max(covered, 0)
    return result


def _duration(span: Sequence[Any]) -> int:
    return span[END] - span[START]


#: (metric, span name) pairs reported as per-op mean span time in ms.
TIME_METRICS = (
    ("vhdl.parse_ms", "vhdl.parse"),
    ("vhdl.elaborate_ms", "vhdl.elaborate"),
    ("cache.open_ms", "cache.open"),
    ("cache.disk.put_ms", "cache.disk.put"),
    ("cache.disk.get_ms", "cache.disk.get"),
    ("cache.memory.get_ms", "cache.memory.get"),
    ("security.report_ms", "security.report"),
    ("render.document_ms", "render.document"),
    ("render.json_ms", "render.json"),
    ("hier.build_ms", "hier.build"),
    ("hier.summary_ms", "hier.summary"),
    ("hier.flatten_ms", "hier.flatten"),
    ("dataflow.solve_ms", "dataflow.solve"),
    ("cfg.build_ms", "cfg.build"),
    ("analysis.active_ms", "analysis.active"),
    ("analysis.reaching_ms", "analysis.reaching"),
    ("analysis.local_ms", "analysis.local"),
    ("analysis.specialize_ms", "analysis.specialize"),
    ("analysis.closure_ms", "analysis.closure"),
    ("analysis.flow_graph_ms", "analysis.flow_graph"),
    ("analysis.lint_ms", "analysis.lint"),
)

#: (metric, span name) pairs reported as per-op mean call counts.
COUNT_METRICS = (
    ("vhdl.parse_calls", "vhdl.parse"),
    ("cache.disk.puts", "cache.disk.put"),
    ("hier.flatten_calls", "hier.flatten"),
    ("dataflow.solve_calls", "dataflow.solve"),
)

_LOOKUPS = ("cache.get", "cache.memory.get", "cache.disk.get")


def layer_metrics(spans: Sequence[Sequence[Any]]) -> Dict[str, float]:
    """The per-layer metrics of one traced phase, as per-op means.

    ``_ms`` metrics are mean span time per op; counts are per op; ratios are
    over the whole phase.
    """
    ops = [index for index, span in enumerate(spans) if span[NAME] == ROOT and span[PARENT] < 0]
    count = max(len(ops), 1)
    totals: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for span in spans:
        totals[span[NAME]] = totals.get(span[NAME], 0) + _duration(span)
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1

    def per_op_ms(nanos: float) -> float:
        return nanos / count / 1e6

    metrics: Dict[str, float] = {}
    for metric, name in TIME_METRICS:
        metrics[metric] = per_op_ms(totals.get(name, 0))
    for metric, name in COUNT_METRICS:
        metrics[metric] = calls.get(name, 0) / count

    def notes(name: str, value: Any) -> int:
        return sum(1 for span in spans if span[NAME] == name and span[NOTE] == value)

    def note_sum(name: str) -> int:
        return sum(span[NOTE] or 0 for span in spans if span[NAME] == name)

    metrics["vhdl.parse_kb"] = note_sum("vhdl.parse") / 1024 / count
    metrics["render.response_kb"] = note_sum("render.json") / 1024 / count
    metrics["cache.disk_mb"] = note_sum("cache.disk.put") / 1e6 / count
    metrics["cache.disk.hits"] = notes("cache.disk.get", True) / count
    metrics["cache.memory.hits"] = notes("cache.memory.get", True) / count
    metrics["hier.summaries_reused"] = notes("hier.summary", True) / count
    metrics["hier.summaries_built"] = notes("hier.summary", False) / count

    # A lookup is the outermost cache get: the tiered get, or a single tier
    # used on its own.
    lookups = [
        span for span in spans
        if span[NAME] in _LOOKUPS
        and (span[PARENT] < 0 or spans[span[PARENT]][NAME] not in _LOOKUPS)
    ]
    served = sum(1 for span in lookups if span[NOTE])
    metrics["cache.misses"] = (len(lookups) - served) / count
    metrics["cache.hit_ratio"] = served / len(lookups) if lookups else 0.0

    # Link time minus its hierarchy-build and summary calls.
    link_children = sum(
        _duration(span) for span in spans
        if span[NAME] in ("hier.build", "hier.summary")
        and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "hier.link"
    )
    metrics["hier.link_ms"] = per_op_ms(totals.get("hier.link", 0) - link_children)

    own = self_times(spans)
    root_self = sum(own[index] for index in ops)
    root_total = sum(_duration(spans[index]) for index in ops)
    metrics["workspace.self_ms"] = per_op_ms(root_self)
    metrics["trace.coverage_ratio"] = 1 - root_self / root_total if root_total else 0.0
    return metrics


def ops_of_kind(spans: Sequence[Sequence[Any]], kind: str) -> List[Tuple[Any, ...]]:
    """The spans of the ops whose command is ``kind``, parents re-indexed."""
    keep = {span[OP] for span in spans if span[NAME] == ROOT and span[NOTE] == kind}
    remap: Dict[int, int] = {}
    selected: List[Tuple[Any, ...]] = []
    for index, span in enumerate(spans):
        if span[OP] in keep:
            remap[index] = len(selected)
            selected.append(tuple(span[:PARENT]) + (remap.get(span[PARENT], -1),) + tuple(span[PARENT + 1:]))
    return selected


def top_layers(spans: Sequence[Sequence[Any]], kinds: Sequence[str], count: int = 5) -> Dict[str, Dict[str, float]]:
    """Per command, the ``count`` largest per-op ``_ms`` layer metrics."""
    result: Dict[str, Dict[str, float]] = {}
    for kind in kinds:
        metrics = layer_metrics(ops_of_kind(spans, kind))
        timed = [(name, value) for name, value in metrics.items() if name.endswith("_ms")]
        result[kind] = dict(sorted(timed, key=lambda item: -item[1])[:count])
    return result
