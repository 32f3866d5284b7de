#!/usr/bin/env python
"""Repo invariant gate: AST lint over ``src/repro`` (stdlib only).

Eight invariants, each of which has silently rotted in similar codebases and
none of which the type checker can express:

1. **Every serve/CLI JSON document is stamped.**  Arguments to
   ``json_bytes(...)``, ``json_text(...)``, ``_print_json(...)`` and
   ``_spliced(...)`` must be built by ``stamped(...)``, a
   ``*_document(...)`` helper, a ``.document(...)`` / ``.to_json_dict(...)``
   method, or a local name assigned from one of those in the same function.
   (The ``_print_json``, ``json_text`` and ``json_bytes`` wrappers
   themselves are the blessed pass-throughs.)
   This keeps ``schema``/``generator``/``version`` on every
   machine-readable payload.

2. **No module-global interner state.**  ``FactUniverse()`` must never be
   instantiated at module scope or as a function-parameter default — a
   shared interner makes bit positions leak between unrelated analyses and
   breaks worker-pool isolation.

3. **Every cacheable pipeline stage declares its cache-key options.**
   Each ``Stage(...)`` construction must pass ``option_fields`` (third
   positional argument onwards or by keyword) unless it is
   ``cacheable=False``.  A cacheable stage that needs the run's policy
   (``needs`` names ``policy``, ``report_options`` or ``report``, the
   artefact built from them) must also pass ``key_part``, which keys it on
   the policy.
   A stage that forgets this is cached under too-weak a key and serves
   stale artifacts when options or policies change.

4. **Diagnostic codes are registered exactly once.**  Every string literal
   matching ``IFA<3 digits>`` that is *assigned to a name* must be unique
   across the tree — two rules (or a rule and the flow checker) sharing a
   code would corrupt the lint catalog and docs gate.

5. **The engine never imports the layers built on it.**  No module under
   ``repro/{vhdl,cfg,dataflow,analysis,hier,security,semantics,solver,aes}``
   imports ``repro.workspace``, ``repro.cli``, ``repro.contract`` or
   ``repro.pipeline.{stages,batch,serve,pool,render}`` — not even lazily,
   for typing or by a relative import.  Such a back-edge is how a second
   way to start an analysis (and an import cycle to break with lazy
   imports) creeps back in.

6. **Only the worker pool starts worker processes.**  Outside
   ``repro/pipeline/pool.py`` no module imports ``multiprocessing``, uses
   ``concurrent.futures``' ``ProcessPoolExecutor`` or calls ``os.fork*``.
   Serve and batch share that one supervised pool; a second pool is how a
   second fault model (and a retry loop to paper over it) creeps back in.
   Threads and ``subprocess`` are out of scope.

7. **No nested function refers to itself.**  A function defined inside
   another may not call or name itself, directly or through sibling nested
   functions of the same enclosing scope.  Each call of the enclosing
   function would build a function ↔ closure-cell cycle, and that cycle
   holds everything the closures see (a whole hierarchy, its AST) until a
   full collection finds it, where reference counting would have freed it
   at once.  Recurse in a module-level function, or loop over an explicit
   stack.

8. **One response path.**  Outside ``repro/pipeline/render.py``,
   ``repro/pipeline/stages.py``, ``repro/workspace.py`` and
   ``repro/pipeline/serve.py`` (whose ``respond`` answers every analyze,
   check and lint request of the CLI, batch jobs and serve), no module
   calls ``analyze_document``, ``check_document``, ``lint_document``,
   ``render_analysis_text`` or ``render_lint_text``, or reads
   ``ANALYZE_GOALS``, ``CHECK_GOALS`` or ``LINT_GOALS``.  Imports and
   re-exports are fine.  A surface that picks a verb's goals, document or
   text itself is how its output drifts from the others'.

Usage: ``python scripts/check_invariants.py [PATH ...]`` — paths default to
``src/repro``; passing explicit paths lets the tests seed violations in a
scratch tree.  Exits 1 listing every violation, 0 when clean.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = (REPO_ROOT / "src" / "repro",)

#: JSON sinks whose argument must be a stamped document (invariant 1).
JSON_SINKS = ("json_bytes", "json_text", "_print_json", "_spliced")
#: Call shapes that produce stamped documents.
DOCUMENT_FUNCTIONS = ("stamped",)
DOCUMENT_SUFFIXES = ("_document",)
DOCUMENT_METHODS = ("document", "to_json_dict", "stamped")
#: The blessed pass-through wrappers for invariant 1.
SINK_WRAPPERS = ("_print_json", "json_text", "json_bytes")
#: The context attributes that vary with a run's policy (invariant 3).
POLICY_NEEDS = ("policy", "report_options", "report")

#: Diagnostic code shape (invariant 4).
CODE_PATTERN = re.compile(r"^IFA[0-9]{3}\Z")

#: The engine packages under ``repro`` and the modules above them that they
#: must not import (invariant 5).
ENGINE_PACKAGES = (
    "vhdl", "cfg", "dataflow", "analysis", "hier", "security", "semantics",
    "solver", "aes",
)
UPPER_LAYERS = (
    "repro.workspace",
    "repro.cli",
    "repro.contract",
    "repro.pipeline.stages",
    "repro.pipeline.batch",
    "repro.pipeline.serve",
    "repro.pipeline.pool",
    "repro.pipeline.render",
)

#: The one module that starts worker processes (invariant 6).
POOL_MODULE = ("repro", "pipeline", "pool.py")

#: What only the response path and the layers below it call or read
#: (invariant 8), and the modules that may.
RESPONSE_BUILDERS = (
    "analyze_document", "check_document", "lint_document",
    "render_analysis_text", "render_lint_text",
)
RESPONSE_GOALS = ("ANALYZE_GOALS", "CHECK_GOALS", "LINT_GOALS")
RESPONSE_MODULES = (
    ("repro", "pipeline", "render.py"),
    ("repro", "pipeline", "stages.py"),
    ("repro", "workspace.py"),
    ("repro", "pipeline", "serve.py"),
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def python_files(paths: Tuple[Path, ...]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _call_name(node: ast.AST) -> str:
    """The bare function name of a call target (``''`` when not a call)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_document_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in DOCUMENT_FUNCTIONS or func.id.endswith(
            DOCUMENT_SUFFIXES
        )
    if isinstance(func, ast.Attribute):
        return func.attr in DOCUMENT_METHODS or func.attr.endswith(
            DOCUMENT_SUFFIXES
        )
    return False


def _document_names(function: ast.AST) -> set:
    """Local names bound (anywhere in ``function``) to a document call."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _is_document_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_document_call(node.value) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return names


def check_stamped_json(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 1: JSON sink arguments must be stamped documents."""
    failures = []
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Function scopes first: ast.walk(tree) descends into function bodies,
    # so the module scope must only pick up calls no function claimed.
    scopes = [(fn, fn.name, _document_names(fn)) for fn in functions] + [
        (tree, "<module>", set())
    ]
    seen = set()
    for scope, scope_name, documents in scopes:
        for node in ast.walk(scope):
            if scope is tree and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue  # handled by the per-function scopes
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) not in JSON_SINKS:
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if scope_name in SINK_WRAPPERS:
                continue  # the wrapper forwards its parameter by design
            if not node.args:
                continue
            argument = node.args[0]
            if _is_document_call(argument):
                continue
            if isinstance(argument, ast.Name) and argument.id in documents:
                continue
            failures.append(
                f"{relpath}:{node.lineno}: argument of "
                f"{_call_name(node.func)}() is not a stamped document "
                "(build it with stamped(), a *_document() helper, "
                ".document() or .to_json_dict())"
            )
    return failures


def check_no_global_universe(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 2: no module-scope or default-argument ``FactUniverse()``."""
    failures = []

    def is_universe_call(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and _call_name(node.func) == (
            "FactUniverse"
        )

    for node in tree.body:  # module scope only — locals are fine
        values = []
        if isinstance(node, ast.Assign):
            values.append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            values.append(node.value)
        for value in values:
            for sub in ast.walk(value):
                if is_universe_call(sub):
                    failures.append(
                        f"{relpath}:{sub.lineno}: FactUniverse() instantiated "
                        "at module scope — interner state must never be "
                        "global"
                    )
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            for sub in ast.walk(default):
                if is_universe_call(sub):
                    failures.append(
                        f"{relpath}:{sub.lineno}: FactUniverse() as a "
                        f"default argument of {node.name}() — the instance "
                        "would be shared across calls"
                    )
    return failures


def check_stage_option_fields(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 3: cacheable ``Stage(...)`` calls declare option_fields."""
    failures = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or _call_name(node.func) != "Stage":
            continue
        name = ""
        if node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                name = node.args[0].value
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        cacheable = keywords.get("cacheable")
        if isinstance(cacheable, ast.Constant) and cacheable.value is False:
            continue
        if len(node.args) < 4 and "option_fields" not in keywords:
            failures.append(
                f"{relpath}:{node.lineno}: Stage({name!r}, ...) is cacheable "
                "but declares no option_fields — its cache key would ignore "
                "the analysis options"
            )
        needs = keywords.get("needs")
        needed = set()
        if isinstance(needs, (ast.Tuple, ast.List)):
            needed = {
                item.value for item in needs.elts if isinstance(item, ast.Constant)
            }
        if needed & set(POLICY_NEEDS) and "key_part" not in keywords:
            failures.append(
                f"{relpath}:{node.lineno}: Stage({name!r}, ...) is cacheable "
                "and needs the run's policy but declares no key_part — its "
                "cache key would ignore the policy"
            )
    return failures


def _engine_package(path: Path) -> str:
    """The ``repro`` subpackage ``path`` lives in (``''`` outside one)."""
    parts = path.parts
    if "repro" not in parts:
        return ""
    index = len(parts) - 1 - parts[::-1].index("repro")
    return parts[index + 1] if index + 2 < len(parts) else ""


def _absolute_module(node: ast.ImportFrom, path: Path) -> str:
    """The absolute module a ``from … import`` names, relative ones resolved."""
    if not node.level:
        return node.module or ""
    parts = path.parts
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    package = list(parts[anchor:-1])
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _is_upper_layer(module: str) -> bool:
    return any(
        module == layer or module.startswith(layer + ".") for layer in UPPER_LAYERS
    )


def check_layering(tree: ast.Module, path: Path, relpath: str) -> List[str]:
    """Invariant 5: engine modules import nothing from the layers above."""
    package = _engine_package(path)
    if package not in ENGINE_PACKAGES:
        return []
    failures = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _absolute_module(node, path)
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            if _is_upper_layer(module):
                failures.append(
                    f"{relpath}:{node.lineno}: engine package {package!r} "
                    f"imports {module} — the engine must not import the "
                    "layers built on it"
                )
                break
    return failures


def _process_start(node: ast.AST) -> str:
    """What ``node`` does to start a process (``''`` when nothing)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "multiprocessing":
                return f"imports {alias.name}"
            if alias.name == "concurrent.futures.process":
                return "imports concurrent.futures.process"
    elif isinstance(node, ast.ImportFrom) and not node.level:
        module = node.module or ""
        names = [alias.name for alias in node.names]
        if module.split(".")[0] == "multiprocessing":
            return f"imports {module}"
        if module.startswith("concurrent.futures") and (
            module == "concurrent.futures.process" or "ProcessPoolExecutor" in names
        ):
            return "imports ProcessPoolExecutor"
        if module == "os" and any(name.startswith("fork") for name in names):
            return "imports os.fork"
    elif isinstance(node, ast.Attribute):
        if node.attr == "ProcessPoolExecutor":
            return "uses ProcessPoolExecutor"
        if (
            node.attr.startswith("fork")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            return f"uses os.{node.attr}"
    return ""


def check_process_starts(tree: ast.Module, path: Path, relpath: str) -> List[str]:
    """Invariant 6: only ``repro/pipeline/pool.py`` starts worker processes."""
    if path.parts[-len(POOL_MODULE):] == POOL_MODULE:
        return []
    failures = []
    for node in ast.walk(tree):
        what = _process_start(node)
        if what:
            failures.append(
                f"{relpath}:{node.lineno}: {what} — only "
                "repro/pipeline/pool.py starts worker processes"
            )
    return failures


def _nested_functions(scope: ast.AST) -> Iterator[ast.AST]:
    """The functions defined in ``scope``'s body, not inside another one."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, _FUNCTIONS):
            yield child
        elif not isinstance(child, (ast.Lambda, ast.ClassDef)):
            yield from _nested_functions(child)


def _names_read(function: ast.AST) -> set:
    """The names ``function``'s body and nested scopes read, its own
    parameters apart."""
    parameters = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
    return {
        node.id
        for statement in function.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    } - parameters


def check_nested_recursion(tree: ast.Module, relpath: str) -> List[str]:
    """Invariant 7: no nested function refers to itself, directly or through
    its siblings."""
    failures = []
    for outer in ast.walk(tree):
        if not isinstance(outer, _FUNCTIONS):
            continue
        siblings = {node.name: node for node in _nested_functions(outer)}
        refers = {
            name: _names_read(node) & siblings.keys()
            for name, node in siblings.items()
        }
        for name, node in siblings.items():
            # Depth first over the sibling reference graph, back to ``name``.
            path, seen, pending = None, set(), [(name, [name])]
            while pending and path is None:
                current, trail = pending.pop()
                for callee in sorted(refers[current]):
                    if callee == name:
                        path = trail + [name]
                    elif callee not in seen:
                        seen.add(callee)
                        pending.append((callee, trail + [callee]))
            if path is not None:
                failures.append(
                    f"{relpath}:{node.lineno}: nested function {name}() of "
                    f"{outer.name}() refers to itself ({' -> '.join(path)}): "
                    "each call leaves a reference cycle for the collector; "
                    "recurse in a module-level function or loop over a stack"
                )
    return failures


def check_one_response_path(tree: ast.Module, path: Path, relpath: str) -> List[str]:
    """Invariant 8: only the response path builds a verb's document or text,
    or reads its goals."""
    if any(path.parts[-len(module):] == module for module in RESPONSE_MODULES):
        return []
    failures = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node.func) in RESPONSE_BUILDERS:
            what = f"calls {_call_name(node.func)}()"
        elif (
            isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and _call_name(node) in RESPONSE_GOALS
        ):
            what = f"reads {_call_name(node)}"
        else:
            continue
        failures.append(
            f"{relpath}:{node.lineno}: {what} outside the one response path "
            "— answer analyze, check and lint through "
            "repro.pipeline.serve.respond"
        )
    return failures


def collect_diagnostic_codes(
    tree: ast.Module, relpath: str
) -> List[Tuple[str, str]]:
    """All ``NAME = "IFAnnn"`` assignments as ``(code, location)`` pairs."""
    codes = []
    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = list(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, ast.Constant):
            continue
        if not isinstance(value.value, str):
            continue
        if not CODE_PATTERN.match(value.value):
            continue
        if any(isinstance(target, ast.Name) for target in targets):
            codes.append((value.value, f"{relpath}:{node.lineno}"))
    return codes


def check_tree(paths: Tuple[Path, ...]) -> List[str]:
    failures = []
    codes: dict = {}
    for path in python_files(paths):
        try:
            relpath = str(path.relative_to(REPO_ROOT))
        except ValueError:
            relpath = str(path)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as error:
            failures.append(f"{relpath}: syntax error: {error}")
            continue
        failures.extend(check_stamped_json(tree, relpath))
        failures.extend(check_no_global_universe(tree, relpath))
        failures.extend(check_stage_option_fields(tree, relpath))
        failures.extend(check_layering(tree, path, relpath))
        failures.extend(check_process_starts(tree, path, relpath))
        failures.extend(check_nested_recursion(tree, relpath))
        failures.extend(check_one_response_path(tree, path, relpath))
        for code, location in collect_diagnostic_codes(tree, relpath):
            codes.setdefault(code, []).append(location)
    for code in sorted(codes):
        locations = codes[code]
        if len(locations) > 1:
            failures.append(
                f"diagnostic code {code!r} assigned {len(locations)} times "
                f"({', '.join(locations)}) — codes must be registered "
                "exactly once"
            )
    return failures


def main(argv: List[str]) -> int:
    paths = (
        tuple(Path(arg).resolve() for arg in argv[1:])
        if len(argv) > 1
        else DEFAULT_PATHS
    )
    failures = check_tree(paths)
    for failure in failures:
        print(f"invariant check: {failure}", file=sys.stderr)
    if failures:
        print(
            f"invariant check: {len(failures)} violation(s)", file=sys.stderr
        )
        return 1
    count = sum(1 for _ in python_files(paths))
    print(
        f"invariant check: {count} files OK (stamped JSON sinks, no global "
        "interner state, stage cache keys declared, diagnostic codes unique, "
        "engine layering, one process starter, no self-referring nested "
        "functions, one response path)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
