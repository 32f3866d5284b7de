"""Tests for the local dependency analysis (Table 6)."""

import subprocess
import sys
from pathlib import Path

from repro.analysis.local_deps import local_dependencies, local_resource_matrix
from repro.analysis.resource_matrix import Access, Entry
from repro.cfg.builder import build_cfg
from repro.cfg.labels import BlockKind
from repro.vhdl.elaborate import elaborate_source
from repro import workloads


def matrix_for(source, process="p", loop=True):
    design = elaborate_source(source)
    program_cfg = build_cfg(design, loop_processes=loop)
    return program_cfg, local_dependencies(program_cfg.processes[process].process)


class TestAssignments:
    def test_variable_assignment_entries(self):
        program_cfg, matrix = matrix_for(workloads.paper_program_b(), loop=False)
        labels = sorted(program_cfg.processes["p"].body_labels)
        first, second = labels[0], labels[1]
        assert Entry("b", first, Access.M0) in matrix
        assert Entry("a", first, Access.R0) in matrix
        assert Entry("c", second, Access.M0) in matrix
        assert Entry("b", second, Access.R0) in matrix

    def test_signal_assignment_modifies_active_value(self):
        program_cfg, matrix = matrix_for(
            workloads.producer_consumer_program(), process="producer"
        )
        producer = program_cfg.processes["producer"]
        link_label = next(iter(producer.assignment_labels_of_signal("link")))
        assert Entry("link", link_label, Access.M1) in matrix
        assert Entry("mixed", link_label, Access.R0) in matrix

    def test_null_contributes_nothing(self):
        source = """
        entity e is end e;
        architecture a of e is
        begin
          p : process begin null; end process p;
        end a;
        """
        _, matrix = matrix_for(source)
        assert len(matrix) == 0


class TestImplicitFlows:
    def test_condition_reads_flow_into_both_branches(self):
        program_cfg, matrix = matrix_for(workloads.conditional_program())
        process = program_cfg.processes["p"]
        assign_labels = sorted(process.assignment_labels_of_variable("t"))
        for label in assign_labels:
            assert Entry("sel", label, Access.R0) in matrix

    def test_nested_conditions_accumulate(self):
        source = """
        entity e is port( c1 : in std_logic; c2 : in std_logic; y : out std_logic ); end e;
        architecture a of e is
        begin
          p : process
            variable t : std_logic;
          begin
            if c1 = '1' then
              if c2 = '1' then
                t := '1';
              else
                t := '0';
              end if;
            else
              null;
            end if;
            y <= t;
            wait on c1, c2;
          end process p;
        end a;
        """
        program_cfg, matrix = matrix_for(source)
        process = program_cfg.processes["p"]
        for label in process.assignment_labels_of_variable("t"):
            assert Entry("c1", label, Access.R0) in matrix
            assert Entry("c2", label, Access.R0) in matrix

    def test_while_guard_flows_into_body(self):
        program_cfg, matrix = matrix_for(workloads.overwriting_loop_program())
        process = program_cfg.processes["p"]
        acc_labels = process.assignment_labels_of_variable("acc")
        # the assignment inside the loop body reads the guard's variable
        inside = [
            label
            for label in acc_labels
            if Entry("counter", label, Access.R0) in matrix
        ]
        assert inside

    def test_guards_produce_no_entries_of_their_own(self):
        program_cfg, matrix = matrix_for(workloads.conditional_program())
        process = program_cfg.processes["p"]
        guard_labels = {
            label
            for label, block in process.blocks.items()
            if block.kind in (BlockKind.IF_GUARD, BlockKind.WHILE_GUARD)
            and label in process.body_labels
        }
        assert guard_labels
        for label in guard_labels:
            assert matrix.at_label(label) == []


class TestWaitStatements:
    def test_wait_reads_active_values_of_all_process_signals(self):
        program_cfg, matrix = matrix_for(
            workloads.producer_consumer_program(), process="producer"
        )
        producer = program_cfg.processes["producer"]
        wait_label = next(iter(producer.wait_labels))
        r1_names = {e.name for e in matrix.at_label(wait_label) if e.access is Access.R1}
        assert r1_names == {"left", "right", "link"}

    def test_wait_reads_waited_on_signals(self):
        program_cfg, matrix = matrix_for(
            workloads.producer_consumer_program(), process="producer"
        )
        wait_label = next(iter(program_cfg.processes["producer"].wait_labels))
        r0_names = {e.name for e in matrix.at_label(wait_label) if e.access is Access.R0}
        assert {"left", "right"} <= r0_names

    def test_wait_condition_reads(self):
        source = """
        entity e is port( clk : in std_logic; en : in std_logic; q : out std_logic ); end e;
        architecture a of e is
        begin
          p : process begin q <= en; wait on clk until en = '1'; end process p;
        end a;
        """
        program_cfg, matrix = matrix_for(source)
        wait_label = next(iter(program_cfg.processes["p"].wait_labels))
        r0_names = {e.name for e in matrix.at_label(wait_label) if e.access is Access.R0}
        assert {"clk", "en"} <= r0_names


class TestWholeProgram:
    def test_local_matrix_is_union_over_processes(self, producer_consumer_design):
        program_cfg = build_cfg(producer_consumer_design)
        combined = local_resource_matrix(program_cfg)
        separate = local_dependencies(
            program_cfg.processes["producer"].process
        ).union(local_dependencies(program_cfg.processes["consumer"].process))
        assert combined == separate

    def test_matrix_rendering(self, producer_consumer_design):
        program_cfg = build_cfg(producer_consumer_design)
        table = local_resource_matrix(program_cfg).to_table()
        assert "label" in table and "resource" in table
        assert "link" in table


#: Prints, for every flat batch workload, the names ``RM_lo`` interns, in order.
_INTERNING_ORDER = """
from repro import workloads
from repro.analysis.local_deps import local_resource_matrix
from repro.cfg.builder import build_cfg
from repro.vhdl.elaborate import elaborate_source

for _, source in workloads.batch_workload_sources():
    print(list(local_resource_matrix(build_cfg(elaborate_source(source))).universe))
"""


class TestInterningOrder:
    def test_rm_lo_interns_in_one_order_under_every_hash_seed(self):
        # A statement's names intern sorted, not in the iteration order of
        # a set of names, so a flat front's facts follow from its key alone.
        src = str(Path(__file__).resolve().parent.parent / "src")
        orders = set()
        for seed in ("0", "1", "2", "3"):
            env = {"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"}
            done = subprocess.run(
                [sys.executable, "-c", _INTERNING_ORDER],
                capture_output=True,
                text=True,
                env=env,
            )
            assert done.returncode == 0, done.stderr
            orders.add(done.stdout)
        assert len(orders) == 1
