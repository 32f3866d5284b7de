#!/usr/bin/env python
"""Docs consistency gate (no dependencies beyond the stdlib).

Checks nine things, and exits non-zero listing every failure:

1. Internal markdown links in ``README.md`` and ``docs/*.md`` resolve —
   every relative link target (minus any ``#anchor``) names an existing
   file or directory, relative to the linking document.
2. ``docs/cli.md`` and ``src/repro/cli.py`` agree on the subcommand set:
   every ``## `name ...``` heading in the CLI reference names a real
   ``vhdl-ifa`` subcommand, and every subcommand registered in ``cli.py``
   has a heading in the reference.
3. ``docs/api.md`` and ``src/repro/security/policy_file.py`` agree on the
   policy-file key set: the table between the ``policy-file-keys`` markers
   in the docs must list exactly the ``POLICY_KEYS`` of the loader.
4. ``docs/serve.md`` documents every flag the ``serve`` subparser
   registers in ``cli.py`` (the ops guide must not fall behind the CLI).
5. ``docs/lint.md`` catalogues every lint rule code registered in
   ``src/repro/analysis/lint/rules.py`` — a rule without a catalog entry
   (or a catalog entry for a removed rule) fails the gate.
6. ``docs/performance.md`` mentions every benchmark phase defined in
   ``benchmarks/bench_scaling.py`` — a phase the performance guide does
   not place in its methodology fails the gate, as does a documented
   phase the benchmark module no longer defines.
7. The document table in ``docs/api.md`` lists exactly the document kinds
   the contract corpus records: the ``command`` values of the responses
   in ``tests/contract/pacts``, where a body without one is an ``error``.
   A recorded kind the table omits, or a row no recording carries, fails
   the gate.
8. The hierarchy guide ``docs/hierarchy.md`` exists and mentions every
   public name exported from ``src/repro/hier/__init__.py`` (its
   ``__all__``) — a new hierarchy API without documentation fails the
   gate.
9. The cache-key table in ``docs/architecture.md`` (between the
   ``cache-keys`` markers) names every ``Stage(...)`` built in
   ``src/repro/pipeline/stages.py`` exactly once.  The row of a cached stage
   lists exactly its ``option_fields``, and shows the part its
   ``key_part`` adds, as ``name=…`` in backquotes, when it has one (and only
   then); the row of a stage built with
   ``cacheable=False`` says "never cached" or "no stage entry".  The two
   stage tables of the ``stages.py`` module docstring, the artefact table
   and the cache-key table, each name every declared stage exactly once,
   and no other.

Run it directly (``python scripts/check_docs.py``) or via ``make docs``;
CI runs it as the ``docs`` job.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: [text](target) — target captured; images (![...]) match too, harmlessly.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: ## `analyze FILE` — the subcommand is the first word inside the backticks.
_CLI_HEADING = re.compile(r"^#{2,3}\s+`([a-z][a-z-]*)", re.MULTILINE)
#: sub.add_parser("analyze", ...) — only the top-level subparser object.
_ADD_PARSER = re.compile(r"\bsub\.add_parser\(\s*[\"']([a-z-]+)[\"']")
#: POLICY_KEYS = ("name", ...) — the policy-file loader's key tuple.
_POLICY_KEYS = re.compile(r"^POLICY_KEYS\s*=\s*\(([^)]*)\)", re.MULTILINE)
#: | `key` | ... — the first backticked cell of a table row.
_KEY_ROW = re.compile(r"^\|\s*`([a-z_]+)`", re.MULTILINE)
#: The fenced region of docs/api.md holding the policy-key table.
_KEY_MARKERS = ("<!-- policy-file-keys:start -->", "<!-- policy-file-keys:end -->")
#: | `cache-stats` | ... — a document kind, the first cell of a table row.
_KIND_ROW = re.compile(r"^\|\s*`([a-z][a-z-]*)`", re.MULTILINE)
#: The fenced region of docs/api.md holding the document-kind table.
_KIND_MARKERS = ("<!-- document-kinds:start -->", "<!-- document-kinds:end -->")


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:"))


def check_links(documents: list[Path]) -> list[str]:
    failures = []
    for document in documents:
        text = document.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if _is_external(target):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure #anchor link within the same file
                continue
            resolved = (document.parent / path_part).resolve()
            if not resolved.exists():
                failures.append(
                    f"{document.relative_to(REPO_ROOT)}: broken link "
                    f"{target!r} (no such file {path_part!r})"
                )
    return failures


def check_cli_reference() -> list[str]:
    reference = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    cli_source = (REPO_ROOT / "src" / "repro" / "cli.py").read_text(
        encoding="utf-8"
    )
    documented = set(_CLI_HEADING.findall(reference))
    registered = set(_ADD_PARSER.findall(cli_source))
    failures = []
    for name in sorted(documented - registered):
        failures.append(
            f"docs/cli.md documents subcommand {name!r} but cli.py does not "
            "register it"
        )
    for name in sorted(registered - documented):
        failures.append(
            f"cli.py registers subcommand {name!r} but docs/cli.md has no "
            f"heading for it"
        )
    if not documented:
        failures.append("docs/cli.md: found no `## `subcommand`` headings")
    return failures


def check_policy_keys() -> list[str]:
    """``docs/api.md`` must document exactly the loader's ``POLICY_KEYS``."""
    api_doc = REPO_ROOT / "docs" / "api.md"
    loader = REPO_ROOT / "src" / "repro" / "security" / "policy_file.py"
    failures = []
    match = _POLICY_KEYS.search(loader.read_text(encoding="utf-8"))
    if match is None:
        return [f"{loader.relative_to(REPO_ROOT)}: found no POLICY_KEYS tuple"]
    declared = set(re.findall(r"[\"']([a-z_]+)[\"']", match.group(1)))
    text = api_doc.read_text(encoding="utf-8")
    start, end = _KEY_MARKERS
    if start not in text or end not in text:
        return [
            f"docs/api.md: missing the {start} / {end} markers around the "
            "policy-file key table"
        ]
    table = text.split(start, 1)[1].split(end, 1)[0]
    documented = set(_KEY_ROW.findall(table))
    for key in sorted(documented - declared):
        failures.append(
            f"docs/api.md documents policy-file key {key!r} but "
            "security/policy_file.py POLICY_KEYS does not declare it"
        )
    for key in sorted(declared - documented):
        failures.append(
            f"security/policy_file.py declares policy-file key {key!r} but "
            "the docs/api.md key table does not document it"
        )
    return failures


#: serve_p.add_argument("--workers", ...) — flags registered on the serve
#: subparser (the block between its add_parser and set_defaults calls).
_SERVE_FLAG = re.compile(r"add_argument\(\s*[\"'](--[a-z-]+)[\"']")


def check_serve_flags() -> list[str]:
    """``docs/serve.md`` must document every ``serve`` subparser flag."""
    cli_source = (REPO_ROOT / "src" / "repro" / "cli.py").read_text(
        encoding="utf-8"
    )
    match = re.search(
        r"serve_p = sub\.add_parser(.*?)serve_p\.set_defaults", cli_source, re.DOTALL
    )
    if match is None:
        return ["cli.py: found no serve subparser block"]
    registered = set(_SERVE_FLAG.findall(match.group(1)))
    guide = (REPO_ROOT / "docs" / "serve.md").read_text(encoding="utf-8")
    failures = []
    for flag in sorted(registered):
        if f"`{flag}" not in guide:
            failures.append(
                f"cli.py registers serve flag {flag!r} but docs/serve.md "
                "does not document it"
            )
    if not registered:
        failures.append("cli.py: the serve subparser registers no flags")
    return failures


#: code = "IFA101" — a lint rule's stable diagnostic code.
_LINT_CODE = re.compile(r"^\s*code\s*=\s*[\"'](IFA[0-9]{3})[\"']", re.MULTILINE)


def check_lint_catalog() -> list[str]:
    """``docs/lint.md`` must catalogue every registered lint rule code."""
    rules_source = (
        REPO_ROOT / "src" / "repro" / "analysis" / "lint" / "rules.py"
    )
    catalog = REPO_ROOT / "docs" / "lint.md"
    if not catalog.exists():
        return ["docs/lint.md: the lint rule catalog is missing"]
    registered = set(_LINT_CODE.findall(rules_source.read_text(encoding="utf-8")))
    if not registered:
        return [
            f"{rules_source.relative_to(REPO_ROOT)}: found no "
            "code = \"IFAnnn\" rule registrations"
        ]
    text = catalog.read_text(encoding="utf-8")
    documented = set(re.findall(r"`(IFA[0-9]{3})`", text))
    # Only table rows count as catalog *entries* — prose may legitimately
    # mention the flow checker's IFA001/IFA002.
    entries = set(re.findall(r"^\|\s*`(IFA[0-9]{3})`", text, re.MULTILINE))
    failures = []
    for code in sorted(registered - documented):
        failures.append(
            f"lint rule {code!r} is registered in rules.py but docs/lint.md "
            "does not catalogue it"
        )
    for code in sorted(entries - registered):
        failures.append(
            f"docs/lint.md catalogues {code!r} but rules.py registers no "
            "such rule"
        )
    return failures


#: def test_cold_parse(...) — a benchmark phase in bench_scaling.py.
_BENCH_PHASE = re.compile(r"^def (test_[a-z0-9_]+)", re.MULTILINE)


def check_performance_doc() -> list[str]:
    """``docs/performance.md`` must place every benchmark phase."""
    guide = REPO_ROOT / "docs" / "performance.md"
    bench = REPO_ROOT / "benchmarks" / "bench_scaling.py"
    if not guide.exists():
        return ["docs/performance.md: the performance guide is missing"]
    defined = set(_BENCH_PHASE.findall(bench.read_text(encoding="utf-8")))
    if not defined:
        return [
            f"{bench.relative_to(REPO_ROOT)}: found no test_* benchmark "
            "phase definitions"
        ]
    text = guide.read_text(encoding="utf-8")
    mentioned = set(re.findall(r"`(test_[a-z0-9_]+)`", text))
    failures = []
    for phase in sorted(defined - mentioned):
        failures.append(
            f"benchmark phase {phase!r} is defined in bench_scaling.py but "
            "docs/performance.md does not mention it"
        )
    for phase in sorted(mentioned - defined):
        failures.append(
            f"docs/performance.md mentions benchmark phase {phase!r} but "
            "bench_scaling.py does not define it"
        )
    return failures


def check_document_kinds() -> list[str]:
    """``docs/api.md``'s document table lists exactly the recorded kinds."""
    import json

    pacts = sorted((REPO_ROOT / "tests" / "contract" / "pacts").glob("*.json"))
    if not pacts:
        return [
            "tests/contract/pacts: no recorded interactions; restore the "
            "corpus (vhdl-ifa contract record re-records an existing one)"
        ]
    recorded = set()
    for path in pacts:
        response = json.loads(path.read_text(encoding="utf-8"))["response"]
        recorded.add(response["document"].get("command", "error"))
    text = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    start, end = _KIND_MARKERS
    if start not in text or end not in text:
        return [
            f"docs/api.md: missing the {start} / {end} markers around the "
            "document table"
        ]
    documented = set(_KIND_ROW.findall(text.split(start, 1)[1].split(end, 1)[0]))
    failures = []
    for kind in sorted(recorded - documented):
        failures.append(
            f"tests/contract/pacts records document kind {kind!r} but the "
            "docs/api.md document table has no row for it"
        )
    for kind in sorted(documented - recorded):
        failures.append(
            f"docs/api.md documents kind {kind!r} but no interaction in "
            "tests/contract/pacts records it — record one (vhdl-ifa "
            "contract record) or drop the row"
        )
    return failures


#: __all__ = [...] — the hierarchy package's public surface.
_HIER_ALL = re.compile(r"^__all__\s*=\s*[\[(]([^\])]*)[\])]", re.MULTILINE)


def check_hierarchy_doc() -> list[str]:
    """``docs/hierarchy.md`` must mention every ``repro.hier`` export."""
    guide = REPO_ROOT / "docs" / "hierarchy.md"
    package = REPO_ROOT / "src" / "repro" / "hier" / "__init__.py"
    if not guide.exists():
        return ["docs/hierarchy.md: the hierarchy guide is missing"]
    match = _HIER_ALL.search(package.read_text(encoding="utf-8"))
    if match is None:
        return [f"{package.relative_to(REPO_ROOT)}: found no __all__ list"]
    exported = set(re.findall(r"[\"']([A-Za-z_]+)[\"']", match.group(1)))
    if not exported:
        return [f"{package.relative_to(REPO_ROOT)}: __all__ is empty"]
    text = guide.read_text(encoding="utf-8")
    failures = []
    for name in sorted(exported):
        if f"`{name}`" not in text:
            failures.append(
                f"repro/hier exports {name!r} but docs/hierarchy.md does "
                "not document it"
            )
    return failures


#: The fenced region of docs/architecture.md holding the cache-key table.
_CACHE_KEY_MARKERS = ("<!-- cache-keys:start -->", "<!-- cache-keys:end -->")
#: | `elaborate`, `place` | `entity`, ... | — a table row's first two cells.
_TABLE_ROW = re.compile(r"^\|([^|\n]*)\|([^|\n]*)\|", re.MULTILINE)
#: What the row of a stage without a cache entry of its own must say.
_UNCACHED = ("never cached", "no stage entry")
#: `policy=<sha256>` — how a row shows the part a stage's key_part adds.
_KEY_PART = re.compile(r"`[a-z_]+=")


def _declared_stages(
    source: str,
) -> dict[str, tuple[bool, tuple[str, ...], bool]]:
    """Each ``Stage(...)`` call: name → (cacheable, option fields, whether
    it declares a ``key_part``).

    Option fields are a literal tuple or a module-level name bound to one
    (``_SHAPE = ("entity", "loop_processes")``).
    """
    tree = ast.parse(source)
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    constants[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    stages = {}
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Stage"
        ):
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        fields = node.args[3] if len(node.args) > 3 else keywords.get("option_fields")
        if fields is None:
            option_fields: tuple = ()
        elif isinstance(fields, ast.Name):
            option_fields = tuple(constants[fields.id])
        else:
            option_fields = tuple(ast.literal_eval(fields))
        cacheable = keywords.get("cacheable")
        stages[ast.literal_eval(node.args[0])] = (
            cacheable is None or ast.literal_eval(cacheable),
            option_fields,
            "key_part" in keywords,
        )
    return stages


#: ========== ===== — a border line of a reStructuredText simple table.
_RST_BORDER = re.compile(r"^=+( +=+)+$")
#: The first word of the second header cell of each stage table in the
#: stages.py docstring.
_DOCSTRING_TABLES = ("artefact", "cache-key")


def check_stage_docstring(source: str) -> list[str]:
    """The stage tables of the ``stages.py`` docstring name exactly the
    stages ``source`` declares, each once."""
    declared = set(_declared_stages(source))
    lines = (ast.get_docstring(ast.parse(source)) or "").splitlines()
    borders = [index for index, line in enumerate(lines) if _RST_BORDER.match(line)]
    tables: dict[str, list[str]] = {}
    # A simple table is three borders: above the header, below it, closing.
    for top, rule, bottom in zip(borders[::3], borders[1::3], borders[2::3]):
        width = len(lines[top].split()[0])
        header = lines[top + 1][width:].split()[0]
        tables[header] = [
            line[:width].strip()
            for line in lines[rule + 1 : bottom]
            if line[:width].strip()
        ]
    failures = []
    for header in _DOCSTRING_TABLES:
        names = tables.get(header)
        if names is None:
            failures.append(
                f"pipeline/stages.py: the module docstring has no stage table "
                f"headed {header!r}"
            )
            continue
        for name in sorted({name for name in names if names.count(name) > 1}):
            failures.append(
                f"pipeline/stages.py: the {header!r} table names stage "
                f"{name!r} twice"
            )
        for name in sorted(set(names) - declared):
            failures.append(
                f"pipeline/stages.py: the {header!r} table names {name!r}, but "
                "the module builds no such Stage"
            )
        for name in sorted(declared - set(names)):
            failures.append(
                f"pipeline/stages.py builds stage {name!r} but its {header!r} "
                "table has no row for it"
            )
    return failures


def check_cache_key_table() -> list[str]:
    """``docs/architecture.md``'s key table and the ``stages.py`` docstring
    tables match the declared stages."""
    stages_py = REPO_ROOT / "src" / "repro" / "pipeline" / "stages.py"
    source = stages_py.read_text(encoding="utf-8")
    declared = _declared_stages(source)
    if not declared:
        return [f"{stages_py.relative_to(REPO_ROOT)}: found no Stage(...) calls"]
    failures = check_stage_docstring(source)
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    start, end = _CACHE_KEY_MARKERS
    if start not in text or end not in text:
        return failures + [
            f"docs/architecture.md: missing the {start} / {end} markers around "
            "the cache-key table"
        ]
    table = text.split(start, 1)[1].split(end, 1)[0]
    rows: dict[str, str] = {}
    for names_cell, fields_cell in _TABLE_ROW.findall(table):
        for name in re.findall(r"`([a-z_]+)`", names_cell):
            if name in rows:
                failures.append(
                    f"docs/architecture.md: the cache-key table names stage "
                    f"{name!r} twice"
                )
            rows[name] = fields_cell
    for name in sorted(set(rows) - set(declared)):
        failures.append(
            f"docs/architecture.md: the cache-key table names {name!r}, but "
            "pipeline/stages.py builds no such Stage"
        )
    for name, (cacheable, option_fields, key_part) in sorted(declared.items()):
        cell = rows.get(name)
        if cell is None:
            failures.append(
                f"pipeline/stages.py builds stage {name!r} but the "
                "docs/architecture.md cache-key table has no row for it"
            )
        elif not cacheable and not any(phrase in cell for phrase in _UNCACHED):
            failures.append(
                f"docs/architecture.md: stage {name!r} is never cached, but its "
                f"cache-key row does not say so ({' or '.join(_UNCACHED)})"
            )
        elif cacheable:
            listed = re.findall(r"`([a-z_]+)`", cell)
            if sorted(listed) != sorted(option_fields):
                failures.append(
                    f"docs/architecture.md: the cache-key row of {name!r} lists "
                    f"{listed}, but its option_fields are {list(option_fields)}"
                )
            if key_part != bool(_KEY_PART.search(cell)):
                failures.append(
                    f"docs/architecture.md: the cache-key row of {name!r} "
                    + (
                        "does not show the part its key_part adds (`name=…`)"
                        if key_part
                        else "shows a key part (`name=…`), but the stage "
                        "declares no key_part"
                    )
                )
    return failures


def main() -> int:
    documents = [REPO_ROOT / "README.md"]
    docs_dir = REPO_ROOT / "docs"
    documents.extend(sorted(docs_dir.glob("*.md")))
    failures = check_links(documents)
    failures.extend(check_cli_reference())
    failures.extend(check_policy_keys())
    failures.extend(check_serve_flags())
    failures.extend(check_lint_catalog())
    failures.extend(check_performance_doc())
    failures.extend(check_document_kinds())
    failures.extend(check_hierarchy_doc())
    failures.extend(check_cache_key_table())
    for failure in failures:
        print(f"docs check: {failure}", file=sys.stderr)
    if failures:
        print(f"docs check: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print(
        f"docs check: {len(documents)} documents OK "
        "(links resolve, CLI reference matches cli.py, policy keys match "
        "policy_file.py, serve flags documented in serve.md, lint catalog "
        "matches rules.py, performance guide covers bench_scaling.py, "
        "api.md document table matches the recorded kinds, hierarchy guide "
        "covers the repro.hier exports, cache-key and stage tables match the "
        "stages)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
