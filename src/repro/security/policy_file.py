"""Declarative flow policies: TOML/JSON documents loaded into ``FlowPolicy``.

The paper's Section 5 discussion treats policies as *data* — Rushby-style
channel-control relations and the non-transitive MLS extension of Haigh and
Young — so this module gives them a file format.  A policy document has the
top-level keys in :data:`POLICY_KEYS`:

``name``
    Optional registry name (``Workspace.load_policy`` registers under it).
``description``
    Optional free text, carried through ``to_dict`` round trips.
``mode``
    ``"channel-control"`` (default; check direct edges only, the
    non-transitive reading of the result graph) or ``"transitive"``
    (classical all-paths noninterference).
``default``
    The level name resources fall back to; defaults to the lowest rank.
``levels``
    Table of ``level name → integer rank`` (higher = more secret).
``resources``
    Table of ``resource name or fnmatch pattern → level name``.  Exact names
    win over patterns; patterns match in declaration order.
``allow``
    Array of ``{from = LEVEL, to = LEVEL}`` pairs naming the permitted
    cross-level flows (same-level flows are always permitted).
``lint``
    Optional table configuring the lint rule catalog (``docs/lint.md``):
    ``enable`` (allowlist of codes when non-empty), ``disable`` (always
    wins), and ``severity`` (``code = "error"/"warning"/"info"``
    overrides).  A document carrying only a ``lint`` table is a valid
    *lint-only* policy: ``levels`` may then be omitted.

Example (TOML)::

    name = "mls"
    mode = "channel-control"
    default = "public"

    [levels]
    public = 0
    secret = 1

    [resources]
    key = "secret"
    "debug_*" = "public"

    [[allow]]
    from = "public"
    to = "secret"

:func:`load_policy_file` parses TOML (``.toml``) or JSON (``.json``) files;
:func:`policy_from_dict` validates an already-parsed document;
:func:`policy_to_dict` renders any :class:`FlowPolicy` back into a document
(the round trip ``policy_from_dict(policy_to_dict(p))`` preserves the
checking behaviour).  All validation failures raise
:class:`PolicyFileError` whose message carries the file and key context
(``policy.toml: resources.'debug_*': unknown level 'pubic'``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.resource_matrix import base_resource
from repro.errors import PolicyError
from repro.security.policy import Clearance, FlowPolicy

#: The complete top-level key set of a policy document (gated against
#: ``docs/api.md`` by ``scripts/check_docs.py``).
POLICY_KEYS = (
    "name", "description", "mode", "default", "levels", "resources", "allow",
    "lint",
)

_MODES = ("channel-control", "transitive")

#: Characters that make a resource assignment a pattern, not an exact name.
_WILDCARD_CHARS = set("*?[")


class PolicyFileError(PolicyError):
    """A policy document that does not validate.

    ``context`` names where the problem is — the file (or other source) and
    the key path inside the document — and is prefixed onto the message.
    """

    def __init__(self, message: str, context: str = "policy"):
        self.context = context
        super().__init__(f"{context}: {message}")


@dataclass
class DeclaredPolicy(FlowPolicy):
    """A :class:`FlowPolicy` loaded from a declarative document.

    Adds what the file format has and the in-code class lacks: a ``name``
    and ``description``, and ordered ``fnmatch`` resource patterns.  Exact
    assignments in ``levels`` win over patterns; patterns apply in
    declaration order; unmatched resources get ``default_level``.
    """

    patterns: List[Tuple[str, Clearance]] = field(default_factory=list)
    name: Optional[str] = None
    description: Optional[str] = None
    lint: Optional[Any] = None
    """The document's ``lint`` table as a
    :class:`~repro.analysis.lint.LintConfig`, when one was declared."""

    def level_of(self, resource: str) -> Clearance:
        """The clearance of ``resource`` (``n◦``/``n•`` share ``n``'s level)."""
        base = base_resource(resource)
        exact = self.levels.get(base)
        if exact is not None:
            return exact
        for pattern, level in self.patterns:
            if fnmatchcase(base, pattern):
                return level
        return self.default_level


def _require(condition: bool, message: str, context: str) -> None:
    if not condition:
        raise PolicyFileError(message, context)


def holds_lone_surrogate(value: Any) -> bool:
    """True when a key or a value of ``value``, at any depth, is a string
    with a lone surrogate: valid JSON (``"\\ud800"``), but no text a
    document can carry."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                return True
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return False


def policy_from_dict(data: Any, context: str = "policy") -> DeclaredPolicy:
    """Validate a parsed policy document and build the policy it declares."""
    _require(isinstance(data, dict), "policy document must be a table/object", context)
    _require(
        not holds_lone_surrogate(data),
        "policy document holds a string with a lone surrogate "
        "(an unpaired \\ud800-\\udfff escape), which is not text",
        context,
    )
    unknown = sorted(set(data) - set(POLICY_KEYS))
    _require(
        not unknown,
        "unknown key(s) " + ", ".join(repr(key) for key in unknown)
        + "; expected " + ", ".join(POLICY_KEYS),
        context,
    )

    name = data.get("name")
    _require(name is None or isinstance(name, str), "'name' must be a string", context)
    description = data.get("description")
    _require(
        description is None or isinstance(description, str),
        "'description' must be a string",
        context,
    )

    mode = data.get("mode", "channel-control")
    _require(
        mode in _MODES,
        f"'mode' must be one of {', '.join(repr(m) for m in _MODES)}, got {mode!r}",
        f"{context}: mode",
    )

    raw_lint = data.get("lint")
    lint_config = None
    if raw_lint is not None:
        _require(
            isinstance(raw_lint, dict),
            "'lint' must be a table (enable/disable/severity)",
            f"{context}: lint",
        )
        # Imported lazily: the lint package sits on top of the pipeline,
        # which this module must stay importable without.
        from repro.analysis.lint import LintConfig

        lint_config = LintConfig.from_dict(raw_lint, context=f"{context}: lint")

    raw_levels = data.get("levels")
    if raw_levels is None and lint_config is not None:
        # A lint-only policy: no flow levels declared.  Synthesise the one
        # default level so the object still is a complete FlowPolicy.
        raw_levels = {"default": 0}
    _require(
        isinstance(raw_levels, dict) and raw_levels,
        "'levels' must be a non-empty table of level name -> integer rank",
        f"{context}: levels",
    )
    clearances: Dict[str, Clearance] = {}
    for level_name, rank in raw_levels.items():
        key_context = f"{context}: levels.{level_name}"
        _require(
            isinstance(level_name, str) and level_name != "",
            "level names must be non-empty strings",
            key_context,
        )
        _require(
            isinstance(rank, int) and not isinstance(rank, bool),
            f"rank must be an integer, got {rank!r}",
            key_context,
        )
        clearances[level_name] = Clearance(rank, level_name)

    def clearance_of(level_name: Any, key_context: str) -> Clearance:
        _require(
            isinstance(level_name, str),
            f"expected a level name string, got {level_name!r}",
            key_context,
        )
        _require(
            level_name in clearances,
            f"unknown level {level_name!r}; declared levels: "
            + ", ".join(sorted(clearances)),
            key_context,
        )
        return clearances[level_name]

    default_name = data.get("default")
    if default_name is None:
        default = min(clearances.values())  # lowest rank, then name
    else:
        default = clearance_of(default_name, f"{context}: default")

    raw_resources = data.get("resources", {})
    _require(
        isinstance(raw_resources, dict),
        "'resources' must be a table of resource name/pattern -> level name",
        f"{context}: resources",
    )
    levels: Dict[str, Clearance] = {}
    patterns: List[Tuple[str, Clearance]] = []
    for resource, level_name in raw_resources.items():
        key_context = f"{context}: resources.{resource!r}"
        _require(
            isinstance(resource, str) and resource != "",
            "resource names must be non-empty strings",
            key_context,
        )
        level = clearance_of(level_name, key_context)
        if _WILDCARD_CHARS & set(resource):
            patterns.append((resource, level))
        else:
            levels[resource] = level

    raw_allow = data.get("allow", [])
    _require(
        isinstance(raw_allow, list),
        "'allow' must be an array of {from, to} tables",
        f"{context}: allow",
    )
    permitted = set()
    for position, pair in enumerate(raw_allow):
        key_context = f"{context}: allow[{position}]"
        _require(
            isinstance(pair, dict) and set(pair) == {"from", "to"},
            "each 'allow' entry must be a table with exactly 'from' and 'to'",
            key_context,
        )
        permitted.add(
            (
                clearance_of(pair["from"], f"{key_context}.from"),
                clearance_of(pair["to"], f"{key_context}.to"),
            )
        )

    return DeclaredPolicy(
        levels=levels,
        permitted=permitted,
        default_level=default,
        transitive=(mode == "transitive"),
        patterns=patterns,
        name=name,
        description=description,
        lint=lint_config,
    )


def policy_to_dict(policy: FlowPolicy) -> Dict[str, Any]:
    """Render any :class:`FlowPolicy` as a policy document (round-trippable).

    The clearance set is recovered from everything the policy mentions
    (assignments, patterns, the default, the permitted pairs), so in-code
    policies — including :class:`~repro.security.policy.TwoLevelPolicy` —
    serialise to the same format the file loader reads.
    """
    clearances = {policy.default_level}
    clearances.update(policy.levels.values())
    for source, target in policy.permitted:
        clearances.update((source, target))
    patterns: List[Tuple[str, Clearance]] = list(getattr(policy, "patterns", ()))
    clearances.update(level for _, level in patterns)

    document: Dict[str, Any] = {}
    name = getattr(policy, "name", None)
    if name is not None:
        document["name"] = name
    description = getattr(policy, "description", None)
    if description is not None:
        document["description"] = description
    document["mode"] = "transitive" if policy.transitive else "channel-control"
    document["default"] = policy.default_level.name
    levels_by_name: Dict[str, int] = {}
    for clearance in sorted(clearances):
        # The file format keys levels by name, so two distinct clearances
        # sharing a name cannot be represented — refuse rather than silently
        # serialise a policy that would check different flows when reloaded.
        if levels_by_name.get(clearance.name, clearance.rank) != clearance.rank:
            raise PolicyFileError(
                f"level {clearance.name!r} has conflicting ranks "
                f"{levels_by_name[clearance.name]} and {clearance.rank}; "
                "such a policy cannot round-trip through the file format",
                context="policy_to_dict",
            )
        levels_by_name[clearance.name] = clearance.rank
    document["levels"] = levels_by_name
    resources = {
        resource: level.name for resource, level in sorted(policy.levels.items())
    }
    resources.update((pattern, level.name) for pattern, level in patterns)
    document["resources"] = resources
    document["allow"] = [
        {"from": source.name, "to": target.name}
        for source, target in sorted(policy.permitted)
    ]
    lint_config = getattr(policy, "lint", None)
    if lint_config is not None:
        lint_table = lint_config.to_dict()
        if lint_table:
            document["lint"] = lint_table
    return document


def load_policy_file(path: "str | Path") -> DeclaredPolicy:
    """Load and validate a ``.toml`` or ``.json`` policy file.

    The suffix selects the parser (anything that is not ``.json`` is read as
    TOML).  Parse errors and validation errors both surface as
    :class:`PolicyFileError` with the file name as context; a missing or
    unreadable file raises the usual :class:`OSError`.
    """
    path = Path(path)
    context = str(path)
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise PolicyFileError(f"not valid JSON: {error}", context) from error
    else:
        import tomllib

        try:
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as error:
            raise PolicyFileError(f"not valid TOML: {error}", context) from error
    return policy_from_dict(data, context=context)
