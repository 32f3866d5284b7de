"""Property-based tests tying the analysis to the executable semantics.

The central property is *soundness as noninterference*: whenever the improved
Information Flow analysis reports **no** edge from an input port (or its
incoming node) into an output port's outgoing node, then changing only that
input must not change the observed output value in the delta-cycle simulator.
The programs are generated randomly: straight-line and branching assignments
over a fixed set of ports and variables, which is exactly the shape of the
paper's pre-processed AES code (unrolled loops, substituted constants).
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro import analyze, analyze_kemmerer
from repro.analysis.resource_matrix import incoming_node, outgoing_node
from repro.semantics.simulator import simulate
from repro.vhdl.elaborate import elaborate_source

INPUTS = ("in0", "in1", "in2")
VARIABLES = ("v0", "v1", "v2", "v3")
WIDTH = 4

# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------

operand = st.sampled_from(INPUTS + VARIABLES + ('"0011"', '"1010"'))
operator = st.sampled_from(("xor", "and", "or"))


@st.composite
def expressions(draw) -> str:
    left = draw(operand)
    if draw(st.booleans()):
        return left
    right = draw(operand)
    return f"({left} {draw(operator)} {right})"


@st.composite
def simple_assignments(draw) -> str:
    target = draw(st.sampled_from(VARIABLES))
    return f"{target} := {draw(expressions())};"


@st.composite
def conditional_assignments(draw) -> str:
    selector = draw(st.sampled_from(INPUTS + VARIABLES))
    bit = draw(st.integers(0, WIDTH - 1))
    then_stmt = draw(simple_assignments())
    else_stmt = draw(simple_assignments())
    return (
        f"if {selector}({bit}) = '1' then {then_stmt} else {else_stmt} end if;"
    )


@st.composite
def statement_lists(draw) -> List[str]:
    count = draw(st.integers(2, 7))
    statements = []
    for _ in range(count):
        if draw(st.integers(0, 3)) == 0:
            statements.append(draw(conditional_assignments()))
        else:
            statements.append(draw(simple_assignments()))
    return statements


@st.composite
def random_programs(draw) -> Tuple[str, str]:
    """A random VHDL1 design plus the expression driving its output."""
    statements = draw(statement_lists())
    result_source = draw(st.sampled_from(VARIABLES + INPUTS))
    ports = ";\n        ".join(
        f"{name} : in std_logic_vector({WIDTH - 1} downto 0)" for name in INPUTS
    )
    variables = "\n    ".join(
        f"variable {name} : std_logic_vector({WIDTH - 1} downto 0);"
        for name in VARIABLES
    )
    body = "\n    ".join(statements)
    source = f"""
entity random_design is
  port( {ports};
        outp : out std_logic_vector({WIDTH - 1} downto 0) );
end random_design;

architecture generated of random_design is
begin
  p : process
    {variables}
  begin
    {body}
    outp <= {result_source};
    wait on in0, in1, in2;
  end process p;
end generated;
"""
    return source, result_source


input_vectors = st.tuples(
    st.integers(0, 2**WIDTH - 1),
    st.integers(0, 2**WIDTH - 1),
    st.integers(0, 2**WIDTH - 1),
)


def _simulate(source: str, values: dict) -> str:
    design = elaborate_source(source)
    outputs = simulate(
        design, {name: format(value, f"0{WIDTH}b") for name, value in values.items()}
    )
    return outputs["outp"].to_string()


class TestNoninterferenceSoundness:
    @settings(max_examples=30, deadline=None)
    @given(random_programs(), input_vectors, st.integers(0, 2**WIDTH - 1))
    def test_unreported_inputs_cannot_influence_the_output(
        self, program, base_values, alternative
    ):
        source, _ = program
        result = analyze(source, improved=True)
        graph = result.graph
        sink = outgoing_node("outp")

        independent = [
            port
            for port in INPUTS
            if not graph.has_edge(port, sink)
            and not graph.has_edge(incoming_node(port), sink)
        ]
        if not independent:
            return

        values = dict(zip(INPUTS, base_values))
        baseline = _simulate(source, values)
        for port in independent:
            changed = dict(values)
            changed[port] = alternative
            assert _simulate(source, changed) == baseline, (
                f"analysis reported no flow {port} -> outp but simulation "
                f"observed one"
            )

    @settings(max_examples=30, deadline=None)
    @given(random_programs())
    def test_analysis_is_at_most_as_coarse_as_kemmerer(self, program):
        source, _ = program
        ours = analyze(source, improved=False).graph_without_self_loops()
        kemmerer = analyze_kemmerer(source).graph.without_self_loops()
        assert ours.is_subgraph_of(kemmerer)

    @settings(max_examples=30, deadline=None)
    @given(random_programs())
    def test_under_approximation_below_over_approximation(self, program):
        source, _ = program
        result = analyze(source)
        for process_result in result.active.values():
            for label in process_result.over_entry:
                assert (
                    process_result.under_entry_of(label)
                    <= process_result.over_entry_of(label)
                )

    @settings(max_examples=20, deadline=None)
    @given(random_programs())
    def test_improved_closure_contains_basic_closure(self, program):
        source, _ = program
        basic = analyze(source, improved=False)
        improved = analyze(source, improved=True)
        assert basic.rm_global.entries() <= improved.rm_global.entries()


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_programs())
    def test_pretty_print_parse_roundtrip(self, program):
        from repro.vhdl.parser import parse_program
        from repro.vhdl.pretty import format_program

        source, _ = program
        printed = format_program(parse_program(source))
        assert format_program(parse_program(printed)) == printed

    @settings(max_examples=15, deadline=None)
    @given(random_programs())
    def test_solver_encoding_agrees_with_direct_closure(self, program):
        from repro.analysis import alfp

        source, _ = program
        result = analyze(source, improved=True)
        via_solver = alfp.closure_via_solver(
            result.program_cfg,
            result.rm_local,
            result.active,
            result.reaching,
            result.design,
            improved=True,
        )
        assert via_solver == result.rm_global


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(random_programs())
    def test_analysis_is_deterministic(self, program):
        source, _ = program
        first = analyze(source)
        second = analyze(source)
        assert first.graph.edges == second.graph.edges
        assert first.rm_global == second.rm_global
