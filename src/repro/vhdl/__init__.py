"""Frontend for the VHDL1 fragment of VHDL defined in the paper (Figure 1).

Modules
-------
``stdlogic``
    The IEEE-1164 nine-valued logic domain, its resolution function, logical
    operators and vector arithmetic (Section 2 / Section 3 "basic semantic
    domains").
``ast``
    Abstract syntax tree nodes mirroring the grammar of Figure 1.
``tokens`` / ``lexer`` / ``parser``
    A hand-written lexer and recursive-descent parser accepting concrete VHDL
    syntax for the VHDL1 fragment.
``pretty``
    A pretty printer producing parseable VHDL1 source from an AST.
``elaborate``
    Elaboration into a :class:`~repro.vhdl.elaborate.Design`: entity/architecture
    binding, rewriting concurrent signal assignments to processes, flattening
    blocks, normalising ``to`` ranges to ``downto`` (Section 3.3).
"""

from repro.vhdl.parser import parse_program, parse_statement, parse_expression
from repro.vhdl.elaborate import elaborate, Design, Process
from repro.vhdl.stdlogic import StdLogic, StdLogicVector

__all__ = [
    "parse_program",
    "parse_statement",
    "parse_expression",
    "elaborate",
    "Design",
    "Process",
    "StdLogic",
    "StdLogicVector",
]
