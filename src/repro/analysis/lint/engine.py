"""The lint engine: run the registered catalog, select, override, order.

The split between :func:`run_lint_rules` and :class:`LintConfig` mirrors the
cache design: the pipeline's ``lint`` stage caches the *complete* finding
tuple (every registered rule, default severities, deterministically sorted),
so a cached artefact stays valid whatever ``[lint]`` policy table the caller
brings; rule selection and severity overrides are applied afterwards, outside
the content-addressed stage, by :meth:`LintConfig.apply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.lint.registry import (
    SEVERITIES,
    registered_rules,
    severity_rank,
)
from repro.errors import PolicyError
from repro.security.report import Diagnostic, diagnostic_sort_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.artifacts import AnalysisResult

#: The ``--fail-on`` vocabulary shared by ``lint``, ``check`` and ``batch``.
FAIL_ON_CHOICES = ("error", "warning", "never")


def run_lint_rules(analysis: "AnalysisResult") -> Tuple[Diagnostic, ...]:
    """Every registered rule's findings for one design, sorted and frozen.

    This is what the pipeline's ``lint`` stage caches: the full catalog at
    default severities, ordered by :func:`diagnostic_sort_key` so the bytes
    are stable across runs, platforms and pool workers.
    """
    findings: List[Diagnostic] = []
    for code in sorted(registered_rules()):
        findings.extend(registered_rules()[code]().check(analysis))
    return tuple(sorted(findings, key=diagnostic_sort_key))


@dataclass(frozen=True)
class LintConfig:
    """Rule selection and severity overrides (a policy file's ``[lint]``).

    ``enable`` non-empty acts as an allowlist; ``disable`` always wins over
    ``enable``; ``severity`` re-grades individual codes.  The object is a
    frozen, picklable value so batch pool workers can carry it in their
    payload tuples.
    """

    enable: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    severity: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], context: str = "[lint]") -> "LintConfig":
        """Validate and freeze a parsed ``[lint]`` table.

        Raises :class:`PolicyError` on unknown keys, non-list selections,
        unregistered codes, or severities outside the shared vocabulary.
        """
        from repro.analysis.lint.registry import registered_codes

        known = set(registered_codes())
        unknown_keys = sorted(set(data) - {"enable", "disable", "severity"})
        if unknown_keys:
            raise PolicyError(
                f"{context} has unknown key(s) "
                + ", ".join(repr(key) for key in unknown_keys)
                + "; expected enable, disable, severity"
            )
        selections: Dict[str, Tuple[str, ...]] = {}
        for key in ("enable", "disable"):
            raw = data.get(key, ())
            if not isinstance(raw, (list, tuple)) or not all(
                isinstance(code, str) for code in raw
            ):
                raise PolicyError(f"{context}.{key} must be a list of lint codes")
            for code in raw:
                if code not in known:
                    raise PolicyError(
                        f"{context}.{key} names unknown lint code {code!r} "
                        "(registered: " + ", ".join(sorted(known)) + ")"
                    )
            selections[key] = tuple(raw)
        raw_severity = data.get("severity", {})
        if not isinstance(raw_severity, Mapping):
            raise PolicyError(
                f"{context}.severity must be a table of code = severity pairs"
            )
        overrides: List[Tuple[str, str]] = []
        for code in sorted(raw_severity):
            level = raw_severity[code]
            if code not in known:
                raise PolicyError(
                    f"{context}.severity names unknown lint code {code!r}"
                )
            if level not in SEVERITIES:
                raise PolicyError(
                    f"{context}.severity.{code} is {level!r}; expected one of "
                    + ", ".join(SEVERITIES)
                )
            overrides.append((code, level))
        return cls(
            enable=selections["enable"],
            disable=selections["disable"],
            severity=tuple(overrides),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The ``[lint]`` table this config round-trips to (sparse)."""
        document: Dict[str, Any] = {}
        if self.enable:
            document["enable"] = list(self.enable)
        if self.disable:
            document["disable"] = list(self.disable)
        if self.severity:
            document["severity"] = {code: level for code, level in self.severity}
        return document

    def allows(self, code: str) -> bool:
        """Whether findings with ``code`` survive this selection."""
        if self.enable and code not in self.enable:
            return False
        return code not in self.disable

    def apply(self, findings: Sequence[Diagnostic]) -> List[Diagnostic]:
        """Filter and re-grade cached findings; order is preserved sorted."""
        overrides = dict(self.severity)
        selected: List[Diagnostic] = []
        for finding in findings:
            if not self.allows(finding.code):
                continue
            override = overrides.get(finding.code)
            if override is not None and override != finding.severity:
                finding = replace(finding, severity=override)
            selected.append(finding)
        return sorted(selected, key=diagnostic_sort_key)


def findings_fail(findings: Sequence[Diagnostic], fail_on: str) -> bool:
    """The shared severity → exit-code gate behind ``--fail-on``."""
    if fail_on not in FAIL_ON_CHOICES:
        raise PolicyError(
            f"unknown --fail-on value {fail_on!r}; expected one of "
            + ", ".join(FAIL_ON_CHOICES)
        )
    if fail_on == "never":
        return False
    threshold = severity_rank(fail_on)
    return any(severity_rank(f.severity) >= threshold for f in findings)
