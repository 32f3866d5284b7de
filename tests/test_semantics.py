"""Tests for the structural operational semantics (simulator, Tables 1–3)."""

import pytest

from repro.errors import SimulationError
from repro.semantics.expressions import evaluate_expression, is_false, is_true
from repro.semantics.simulator import Simulator, simulate
from repro.semantics.state import SignalStore, VariableStore, default_value
from repro.vhdl import ast
from repro.vhdl.elaborate import elaborate_source
from repro.vhdl.parser import parse_expression
from repro.vhdl.stdlogic import StdLogic, StdLogicVector
from repro import workloads


class TestStores:
    def test_default_values_are_uninitialised(self):
        assert default_value(ast.StdLogicType()) == StdLogic("U")
        assert default_value(ast.StdLogicVectorType(left=3, right=0)) == "UUUU"

    def test_variable_store_read_write(self):
        from repro.vhdl.elaborate import VariableInfo

        store = VariableStore({"x": VariableInfo("x", ast.StdLogicType())})
        assert store.read("x") == StdLogic("U")
        store.write("x", StdLogic("1"))
        assert store.read("x") == StdLogic("1")
        with pytest.raises(SimulationError):
            store.read("ghost")
        with pytest.raises(SimulationError):
            store.write("ghost", StdLogic("1"))

    def test_variable_store_slice_write(self):
        from repro.vhdl.elaborate import VariableInfo

        store = VariableStore(
            {"v": VariableInfo("v", ast.StdLogicVectorType(left=3, right=0))}
        )
        store.write("v", StdLogicVector.from_string("0000"))
        store.write_slice("v", 3, 2, StdLogicVector.from_string("11"))
        assert store.read("v") == "1100"

    def test_signal_store_present_and_active(self):
        from repro.vhdl.elaborate import SignalInfo

        store = SignalStore({"s": SignalInfo("s", ast.StdLogicType())})
        assert store.present("s") == StdLogic("U")
        assert store.active("s") is None
        assert not store.is_active()
        store.set_active("s", StdLogic("1"))
        assert store.is_active()
        assert store.present("s") == StdLogic("U")  # active values are not visible yet
        store.clear_active()
        assert not store.is_active()


EXPRESSION_FIXTURE = """
entity e is
  port( s : in std_logic_vector(7 downto 0); b : in std_logic; y : out std_logic ); end e;
architecture a of e is
begin
  p : process
    variable v : std_logic_vector(7 downto 0);
  begin
    v := s;
    y <= b;
    wait on s, b;
  end process p;
end a;
"""


class TestExpressionEvaluation:
    def _stores(self):
        design = elaborate_source(EXPRESSION_FIXTURE)
        process = design.processes[0]
        variables = VariableStore(process.variables)
        signals = SignalStore(design.signals)
        variables.write("v", StdLogicVector.from_string("10110001"))
        signals.set_present("s", StdLogicVector.from_string("00001111"))
        signals.set_present("b", StdLogic("1"))
        return variables, signals

    def _eval(self, text):
        variables, signals = self._stores()
        expr = parse_expression(text)
        # mimic elaboration's name resolution for the fixture's names
        for node in [expr] if not isinstance(expr, ast.BinaryOp) else [expr.left, expr.right]:
            pass
        return evaluate_expression(expr, variables, signals)

    def test_literals(self):
        assert self._eval("'1'") == StdLogic("1")
        assert self._eval('"1010"') == "1010"

    def test_variable_and_signal_lookup_fall_back_without_kinds(self):
        assert self._eval("v") == "10110001"
        assert self._eval("s") == "00001111"

    def test_slices_and_indexing(self):
        assert self._eval("v(7 downto 4)") == "1011"
        assert self._eval("v(0)") == StdLogic("1")

    def test_logic_operators(self):
        assert self._eval("v and s") == "00000001"
        assert self._eval("v xor s") == "10111110"
        assert self._eval("not b") == StdLogic("0")

    def test_comparisons(self):
        assert self._eval("v = v") == StdLogic("1")
        assert self._eval("v /= s") == StdLogic("1")
        assert self._eval("s < v") == StdLogic("1")
        assert self._eval("s >= v") == StdLogic("0")

    def test_concatenation_and_arithmetic(self):
        assert self._eval("v(3 downto 0) & s(3 downto 0)") == "00011111"
        assert self._eval('s + "00000001"') == "00010000"
        assert self._eval('s - "00010000"') == "11111111"

    def test_condition_helpers(self):
        assert is_true(StdLogic("1")) and not is_true(StdLogic("0"))
        assert is_false(StdLogic("0")) and not is_false(StdLogic("X"))
        assert is_true(StdLogicVector.from_string("01"))
        assert is_false(StdLogicVector.from_string("00"))


class TestSimulatorBasics:
    def test_combinational_process(self):
        design = elaborate_source(workloads.producer_consumer_program())
        outputs = simulate(design, {"left": "1100", "right": "1010"})
        assert outputs["result"] == "0110"

    def test_drive_requires_an_input_port(self):
        design = elaborate_source(workloads.producer_consumer_program())
        simulator = Simulator(design)
        with pytest.raises(SimulationError):
            simulator.drive("result", "0000")
        with pytest.raises(SimulationError):
            simulator.drive("ghost", "0000")

    def test_drive_coercions(self):
        design = elaborate_source(workloads.producer_consumer_program())
        simulator = Simulator(design)
        simulator.run()
        simulator.drive("left", 12)          # integer
        simulator.drive("right", "1010")     # bit string
        simulator.run()
        assert simulator.read_signal("result") == "0110"

    def test_conditional_program(self):
        design = elaborate_source(workloads.conditional_program())
        assert simulate(design, {"sel": "1", "a": "1", "b": "0"})["y"] == StdLogic("1")
        assert simulate(design, {"sel": "0", "a": "1", "b": "0"})["y"] == StdLogic("0")

    def test_while_loop_program(self):
        design = elaborate_source(workloads.overwriting_loop_program())
        outputs = simulate(design, {"start": "1", "data": "0101"})
        # acc = data, then xored with data three times: data ^ data ^ data ^ data = 0
        assert outputs["done"] == "0000"
        outputs = simulate(design, {"start": "0", "data": "0101"})
        assert outputs["done"] == "0000"

    def test_overwritten_secret_never_reaches_output(self):
        design = elaborate_source(workloads.challenge_f_program())
        out_a = simulate(design, {"key": "11111111", "plain": "00110011"})
        out_b = simulate(design, {"key": "00000000", "plain": "00110011"})
        assert out_a["leak"] == out_b["leak"] == "00110011"

    def test_delta_cycle_counting_and_trace(self):
        design = elaborate_source(workloads.producer_consumer_program())
        simulator = Simulator(design)
        simulator.run()
        before = simulator.delta_cycles
        simulator.drive("left", "1111")
        simulator.drive("right", "0000")
        simulator.run()
        assert simulator.delta_cycles > before
        assert len(simulator.trace) == simulator.delta_cycles
        assert any("result" in entry for entry in simulator.trace.entries)

    def test_variables_are_process_local(self):
        design = elaborate_source(workloads.producer_consumer_program())
        simulator = Simulator(design)
        simulator.drive("left", "1100")
        simulator.drive("right", "0011")
        simulator.run()
        assert simulator.read_variable("producer", "mixed") == "1111"
        with pytest.raises(SimulationError):
            simulator.read_variable("consumer", "mixed")
        with pytest.raises(SimulationError):
            simulator.read_variable("ghost", "mixed")

    def test_quiescence_without_stimulus(self):
        design = elaborate_source(workloads.producer_consumer_program())
        simulator = Simulator(design)
        first = simulator.run()
        again = simulator.run()
        assert again == 0  # nothing active any more

    def test_runaway_process_is_detected(self):
        source = """
        entity e is port( a : in std_logic ); end e;
        architecture arch of e is
        begin
          p : process
            variable v : std_logic;
          begin
            v := a;
          end process p;
        end arch;
        """
        design = elaborate_source(source)
        simulator = Simulator(design, max_steps_per_activation=100)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_straight_line_mode_stops_after_one_pass(self):
        source = """
        entity e is port( a : in std_logic ); end e;
        architecture arch of e is
        begin
          p : process
            variable v : std_logic;
          begin
            v := a;
          end process p;
        end arch;
        """
        design = elaborate_source(source)
        simulator = Simulator(design, loop_processes=False)
        simulator.run()
        assert simulator.read_variable("p", "v") == StdLogic("U")


class TestSynchronisation:
    def test_resolution_of_multiple_drivers(self):
        source = """
        entity e is port( a : in std_logic; y : out std_logic ); end e;
        architecture arch of e is
          signal shared : std_logic;
        begin
          d1 : process begin shared <= '1'; wait on a; end process d1;
          d2 : process begin shared <= 'Z'; wait on a; end process d2;
          obs : process begin y <= shared; wait on shared; end process obs;
        end arch;
        """
        design = elaborate_source(source)
        outputs = simulate(design, {"a": "1"})
        assert outputs["shared"] == StdLogic("1")

    def test_conflicting_drivers_resolve_to_unknown(self):
        source = """
        entity e is port( a : in std_logic; y : out std_logic ); end e;
        architecture arch of e is
          signal shared : std_logic;
        begin
          d1 : process begin shared <= '1'; wait on a; end process d1;
          d2 : process begin shared <= '0'; wait on a; end process d2;
          obs : process begin y <= shared; wait on shared; end process obs;
        end arch;
        """
        design = elaborate_source(source)
        outputs = simulate(design, {"a": "1"})
        assert outputs["shared"] == StdLogic("X")

    def test_wait_until_condition_gates_resumption(self):
        source = """
        entity e is port( d : in std_logic; en : in std_logic; q : out std_logic ); end e;
        architecture arch of e is
        begin
          p : process
          begin
            q <= d;
            wait on d until en = '1';
          end process p;
        end arch;
        """
        design = elaborate_source(source)
        simulator = Simulator(design)
        simulator.run()
        # enable low: driving d does not wake the process beyond the first pass
        simulator.drive("en", "0")
        simulator.drive("d", "1")
        simulator.run()
        first = simulator.read_signal("q")
        simulator.drive("d", "0")
        simulator.run()
        assert simulator.read_signal("q") == first  # still the old value
        # enable high: a change on d now propagates
        simulator.drive("en", "1")
        simulator.drive("d", "1")
        simulator.run()
        assert simulator.read_signal("q") == StdLogic("1")

    def test_pipeline_propagates_through_delta_cycles(self):
        from repro.aes.generator import aes_round_source
        from repro.aes.reference import (
            add_round_key,
            shift_rows,
            state_to_bitstring,
            bitstring_to_state,
        )

        design = elaborate_source(aes_round_source())
        state = list(range(16))
        key = [0xA5] * 16
        outputs = simulate(
            design,
            {"state_i": state_to_bitstring(state), "key_i": state_to_bitstring(key)},
        )
        expected = shift_rows(add_round_key(state, key))
        assert bitstring_to_state(outputs["state_o"].to_string()) == expected
