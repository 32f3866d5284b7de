"""Tests for AST helpers: free variables/signals, walking, type widths."""

from repro.vhdl import ast
from repro.vhdl.elaborate import elaborate_source
from repro.vhdl.parser import parse_expression, parse_statements


def _resolved_process(source: str):
    return elaborate_source(source).processes[0]


MIXED = """
entity mixed is
  port( sig_in  : in std_logic_vector(3 downto 0);
        sig_out : out std_logic_vector(3 downto 0) );
end mixed;

architecture a of mixed is
  signal internal : std_logic_vector(3 downto 0);
begin
  p : process
    variable v : std_logic_vector(3 downto 0);
    variable w : std_logic_vector(3 downto 0);
  begin
    v := sig_in xor internal;
    if v(0) = '1' then
      w := v;
    else
      w := "0000";
    end if;
    internal <= w;
    sig_out <= w;
    wait on sig_in;
  end process p;
end a;
"""


class TestTypeNodes:
    def test_scalar_width_is_none(self):
        assert ast.StdLogicType().width is None

    def test_vector_width(self):
        downto = ast.StdLogicVectorType(left=7, right=0)
        assert downto.width == 8
        to_range = ast.StdLogicVectorType(
            left=0, right=7, direction=ast.RangeDirection.TO
        )
        assert to_range.width == 8

    def test_normalized_swaps_to_ranges(self):
        to_range = ast.StdLogicVectorType(
            left=0, right=7, direction=ast.RangeDirection.TO
        )
        normalized = to_range.normalized()
        assert normalized.direction is ast.RangeDirection.DOWNTO
        assert (normalized.left, normalized.right) == (7, 0)

    def test_normalized_keeps_downto_untouched(self):
        downto = ast.StdLogicVectorType(left=7, right=0)
        assert downto.normalized() is downto


class TestFreeNames:
    def test_free_names_of_expression(self):
        expr = parse_expression("(a xor b(3 downto 0)) and not c")
        assert ast.free_names(expr) == {"a", "b", "c"}

    def test_free_names_of_none(self):
        assert ast.free_names(None) == set()

    def test_unresolved_names_have_no_kind(self):
        expr = parse_expression("a xor b")
        assert ast.free_variables_expr(expr) == set()
        assert ast.free_signals_expr(expr) == set()

    def test_resolved_expression_separates_kinds(self):
        process = _resolved_process(MIXED)
        first_assignment = process.body[0]
        assert ast.free_variables_expr(first_assignment.value) == set()
        assert ast.free_signals_expr(first_assignment.value) == {"sig_in", "internal"}

    def test_statement_level_free_variables(self):
        process = _resolved_process(MIXED)
        assert ast.free_variables_stmt(process.body) == {"v", "w"}

    def test_statement_level_free_signals(self):
        process = _resolved_process(MIXED)
        assert ast.free_signals_stmt(process.body) == {
            "sig_in",
            "sig_out",
            "internal",
        }

    def test_written_variables_and_signals(self):
        process = _resolved_process(MIXED)
        assert ast.written_signals(process.body) == {"internal", "sig_out"}


class TestWalking:
    def test_iter_statements_recurses_into_branches(self):
        statements = parse_statements(
            "if a = '1' then x := b; else y := c; end if; while d = '1' loop z := e; end loop;"
        )
        kinds = [type(s).__name__ for s in ast.iter_statements(statements)]
        assert kinds == [
            "If",
            "VariableAssign",
            "VariableAssign",
            "While",
            "VariableAssign",
        ]


class TestProgramHelpers:
    def test_process_free_sets(self):
        design = elaborate_source(MIXED)
        process = design.processes[0]
        assert process.free_signals() == {"sig_in", "sig_out", "internal"}
        assert process.free_variables() == {"v", "w"}

    def test_design_resource_names(self):
        design = elaborate_source(MIXED)
        assert design.input_ports == ["sig_in"]
        assert design.output_ports == ["sig_out"]
        assert design.internal_signals == ["internal"]
