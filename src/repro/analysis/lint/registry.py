"""The lint-rule registry: stable codes, one class per rule.

A lint rule is a small class deriving from :class:`LintRule`: it declares a
stable diagnostic ``code`` (``IFA1xx``; the policy-check codes ``IFA001``/
``IFA002`` live in :mod:`repro.security.report` and share the namespace), a
``title`` and a ``default_severity``.  Every rule reads the ``lint`` stage's
inputs (the design, its CFG, the Reaching Definitions and the flow graph).
Rules emit plain :class:`~repro.security.report.Diagnostic` records, the
same structured type the policy checker uses, so every downstream surface
(CLI ``--json``, batch sections, ``POST /lint``) renders findings with one
shared shape.

Registration happens once at import time via the :func:`rule` decorator;
registering two rules under one code is a programming error and raises
immediately (the repo-invariant lint in ``scripts/check_invariants.py``
additionally enforces this statically over the source tree).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Type

from repro.errors import AnalysisError
from repro.security.report import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.artifacts import AnalysisResult

#: The severities a rule (or a policy override) may assign.
SEVERITIES = ("info", "warning", "error")

#: Stable lint codes follow the policy-check codes' format.
_CODE_FORMAT = re.compile(r"^IFA[0-9]{3}$")


def severity_rank(severity: str) -> int:
    """The ordering of :data:`SEVERITIES` (``error`` ranks highest)."""
    return SEVERITIES.index(severity)


class LintRule:
    """One registered static-analysis rule over pipeline artefacts.

    Subclasses set the class attributes and implement :meth:`check`, which
    receives a finished :class:`~repro.pipeline.artifacts.AnalysisResult`
    and yields :class:`Diagnostic` records.
    """

    code: str = ""
    title: str = ""
    default_severity: str = "warning"

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        """Yield this rule's findings for one analysed design."""
        raise NotImplementedError
        yield  # pragma: no cover - makes every override a generator

    def diagnostic(
        self,
        message: str,
        *,
        source: str = "",
        target: str = "",
        path: Tuple[str, ...] = (),
    ) -> Diagnostic:
        """A :class:`Diagnostic` carrying this rule's code and severity.

        Lint findings have no clearance levels, so ``source_level`` and
        ``target_level`` are empty strings (the shared schema keeps them
        required for one uniform diagnostic shape).
        """
        return Diagnostic(
            code=self.code,
            severity=self.default_severity,
            message=message,
            source=source,
            target=target,
            source_level="",
            target_level="",
            path=path,
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator registering a :class:`LintRule` under its code."""
    code = cls.code
    if not _CODE_FORMAT.match(code):
        raise AnalysisError(
            f"lint rule {cls.__name__} declares malformed code {code!r}; "
            "expected the stable IFAnnn format"
        )
    if not cls.title:
        raise AnalysisError(f"lint rule {code} ({cls.__name__}) declares no title")
    if cls.default_severity not in SEVERITIES:
        raise AnalysisError(
            f"lint rule {code} declares severity {cls.default_severity!r}; "
            "expected one of " + ", ".join(SEVERITIES)
        )
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not cls:
        raise AnalysisError(
            f"lint code {code} is already registered by {existing.__name__}; "
            "codes are stable and must be registered exactly once"
        )
    _REGISTRY[code] = cls
    return cls


def registered_rules() -> Dict[str, Type[LintRule]]:
    """Code → rule class for every registered rule (a copy)."""
    _ensure_catalog()
    return dict(_REGISTRY)


def registered_codes() -> List[str]:
    """The registered lint codes, sorted."""
    _ensure_catalog()
    return sorted(_REGISTRY)


def _ensure_catalog() -> None:
    # The built-in catalog registers itself on import; importing it here
    # keeps `registered_codes()` complete for callers that never touched
    # repro.analysis.lint.rules directly (e.g. the docs gate).
    import repro.analysis.lint.rules  # noqa: F401
