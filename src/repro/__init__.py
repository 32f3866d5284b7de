"""Reproduction of *Information Flow Analysis for VHDL* (Tolstrup, Nielson &
Nielson, PaCT 2005).

The package provides:

* a frontend for the VHDL1 fragment defined in the paper (:mod:`repro.vhdl`);
* a structural-operational-semantics simulator with delta cycles
  (:mod:`repro.semantics`);
* the Reaching Definitions analyses and the Information Flow analysis of the
  paper, together with Kemmerer's baseline (:mod:`repro.analysis`);
* a small Datalog-style constraint solver standing in for the Succinct Solver
  (:mod:`repro.solver`);
* an AES-128 workload generator reproducing the paper's evaluation programs
  (:mod:`repro.aes`);
* security-policy checking on the resulting flow graphs (:mod:`repro.security`).

The session facade is :class:`repro.Workspace`.  The paper-level one-liners
are :func:`repro.analyze`, which parses VHDL1 source text, elaborates it and
runs the full improved Information Flow analysis (its
:class:`~repro.pipeline.artifacts.AnalysisResult` carries the
:class:`repro.analysis.flowgraph.FlowGraph`), and
:func:`repro.analyze_kemmerer`, which runs Kemmerer's baseline.
"""

from repro.analysis.flowgraph import FlowGraph
from repro.pipeline.artifacts import AnalysisResult
from repro.version import __version__, version
from repro.vhdl.parser import parse_program
from repro.vhdl.elaborate import elaborate
from repro.workspace import CheckResult, Workspace, analyze, analyze_kemmerer

__all__ = [
    "AnalysisResult",
    "CheckResult",
    "FlowGraph",
    "Workspace",
    "analyze",
    "analyze_kemmerer",
    "parse_program",
    "elaborate",
    "version",
    "__version__",
]
