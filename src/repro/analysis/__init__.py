"""The paper's analyses: Reaching Definitions (Section 4) and Information Flow
(Section 5), plus Kemmerer's baseline (Section 5.2 / Section 6).

Module map (paper table → module):

===========================  ==============================================
Paper artefact               Module
===========================  ==============================================
Table 4 (``RD∪ϕ``/``RD∩ϕ``)  :mod:`repro.analysis.reaching_active`
Table 5 (``RDcf``)           :mod:`repro.analysis.reaching_defs`
Table 6 (local deps)         :mod:`repro.analysis.local_deps`
Table 7 (``RD†``/``RD†ϕ``)   :mod:`repro.analysis.specialize`
Table 8 (closure)            :mod:`repro.analysis.closure`
Table 9 (improved)           :mod:`repro.analysis.improved`
Kemmerer's method            :mod:`repro.analysis.kemmerer`
Result graph                 :mod:`repro.analysis.flowgraph`
ALFP encoding                :mod:`repro.analysis.alfp`
===========================  ==============================================

The stages are composed by :class:`repro.pipeline.stages.Pipeline`; start a
run with :class:`repro.Workspace`, or with :func:`repro.analyze` and
:func:`repro.analyze_kemmerer`.
"""

from repro.analysis.flowgraph import FlowGraph
from repro.analysis.resource_matrix import Access, Entry, ResourceMatrix

__all__ = [
    "Access",
    "Entry",
    "FlowGraph",
    "ResourceMatrix",
]
