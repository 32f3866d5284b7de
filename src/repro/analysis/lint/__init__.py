"""``vhdl-ifa lint``: a rule-based static-analysis engine over pipeline
artifacts.

The package splits into three modules:

* :mod:`~repro.analysis.lint.registry` — the :class:`LintRule` base class,
  the :func:`rule` decorator and the stable-code registry;
* :mod:`~repro.analysis.lint.rules` — the built-in IFA101–IFA108 catalog
  (documented in ``docs/lint.md``);
* :mod:`~repro.analysis.lint.engine` — :func:`run_lint_rules` (what the
  cached ``lint`` pipeline stage computes) and :class:`LintConfig` (the
  policy-file ``[lint]`` table: selection + severity overrides, applied
  *after* the cache).
"""

from repro.analysis.lint.engine import (
    FAIL_ON_CHOICES,
    LintConfig,
    findings_fail,
    run_lint_rules,
)
from repro.analysis.lint.registry import (
    SEVERITIES,
    LintRule,
    registered_codes,
    registered_rules,
    rule,
    severity_rank,
)

__all__ = [
    "FAIL_ON_CHOICES",
    "LintConfig",
    "LintRule",
    "SEVERITIES",
    "findings_fail",
    "registered_codes",
    "registered_rules",
    "rule",
    "run_lint_rules",
    "severity_rank",
]
