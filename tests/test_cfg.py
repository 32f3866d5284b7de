"""Tests for labelling, CFG construction and the cross-flow relation."""

import pytest

from repro.cfg.builder import (
    build_cfg,
    build_process_cfg,
    finals_of,
    flow_of,
    init_of,
)
from repro.cfg.labels import BlockKind, LabelAllocator, label_statements
from repro.errors import AnalysisError
from repro.vhdl.elaborate import elaborate_source
from repro.vhdl.parser import parse_statements


def labelled(source):
    statements = parse_statements(source)
    label_statements(statements, "p", LabelAllocator())
    return statements


class TestLabelling:
    def test_labels_are_assigned_in_textual_order(self):
        statements = labelled("x := a; y := b; s <= x;")
        assert [s.label for s in statements] == [1, 2, 3]

    def test_nested_statements_are_labelled(self):
        statements = labelled("if a = '1' then x := b; else y := c; end if;")
        guard = statements[0]
        assert guard.label == 1
        assert guard.then_branch[0].label == 2
        assert guard.else_branch[0].label == 3

    def test_block_kinds(self):
        allocator = LabelAllocator()
        statements = parse_statements(
            "null; x := a; s <= b; wait on s; if a = '1' then null; end if; "
            "while a = '1' loop null; end loop;"
        )
        blocks = label_statements(statements, "p", allocator)
        kinds = [blocks[label].kind for label in sorted(blocks)]
        assert kinds[0] is BlockKind.NULL
        assert kinds[1] is BlockKind.VARIABLE_ASSIGN
        assert kinds[2] is BlockKind.SIGNAL_ASSIGN
        assert kinds[3] is BlockKind.WAIT
        assert BlockKind.IF_GUARD in kinds
        assert BlockKind.WHILE_GUARD in kinds

    def test_allocator_counts(self):
        allocator = LabelAllocator(start=10)
        assert allocator.fresh() == 10
        assert allocator.fresh() == 11
        assert allocator.allocated == 2


class TestFlowFunctions:
    def test_straight_line_flow(self):
        statements = labelled("x := a; y := b; s <= x;")
        assert init_of(statements) == 1
        assert finals_of(statements) == {3}
        assert flow_of(statements) == {(1, 2), (2, 3)}

    def test_if_flow(self):
        statements = labelled("x := a; if a = '1' then y := b; else z := c; end if; w := d;")
        # labels: 1=x, 2=guard, 3=then, 4=else, 5=w
        assert flow_of(statements) == {(1, 2), (2, 3), (2, 4), (3, 5), (4, 5)}
        assert finals_of(statements) == {5}

    def test_while_flow(self):
        statements = labelled("while a = '1' loop x := b; y := c; end loop; z := d;")
        # labels: 1=guard, 2=x, 3=y, 4=z
        assert flow_of(statements) == {(1, 2), (2, 3), (3, 1), (1, 4)}

    def test_if_as_last_statement_finals(self):
        statements = labelled("if a = '1' then x := b; else y := c; end if;")
        assert finals_of(statements) == {2, 3}

    def test_empty_list_rejected(self):
        with pytest.raises(AnalysisError):
            init_of([])
        with pytest.raises(AnalysisError):
            finals_of([])


SOURCE_TWO_PROCESSES = """
entity two is
  port( a : in std_logic; y : out std_logic );
end two;
architecture arch of two is
  signal link : std_logic;
begin
  producer : process
    variable v : std_logic;
  begin
    v := a;
    link <= v;
    wait on a;
  end process producer;

  consumer : process
  begin
    y <= link;
    wait on link;
  end process consumer;
end arch;
"""


class TestProcessCFG:
    def _cfg(self, loop=True):
        design = elaborate_source(SOURCE_TWO_PROCESSES)
        return build_cfg(design, loop_processes=loop)

    def test_labels_unique_across_processes(self):
        program_cfg = self._cfg()
        seen = set()
        for cfg in program_cfg.processes.values():
            assert not (seen & set(cfg.blocks))
            seen |= set(cfg.blocks)

    def test_entry_is_isolated(self):
        program_cfg = self._cfg()
        for cfg in program_cfg.processes.values():
            assert cfg.predecessors(cfg.entry_label) == []

    def test_looping_wrapper_adds_back_edge(self):
        program_cfg = self._cfg(loop=True)
        producer = program_cfg.processes["producer"]
        assert (producer.loop_label, init_of(producer.process.body)) in producer.flow
        body_finals = finals_of(producer.process.body)
        assert all((final, producer.loop_label) in producer.flow for final in body_finals)

    def test_straight_line_mode_has_no_back_edge(self):
        program_cfg = self._cfg(loop=False)
        producer = program_cfg.processes["producer"]
        first = init_of(producer.process.body)
        assert (producer.entry_label, first) in producer.flow
        final = max(finals_of(producer.process.body))
        assert not producer.successors(final)

    def test_wait_labels(self):
        program_cfg = self._cfg()
        producer = program_cfg.processes["producer"]
        assert len(producer.wait_labels) == 1
        assert len(program_cfg.wait_labels) == 2

    def test_assignment_label_lookup(self):
        program_cfg = self._cfg()
        producer = program_cfg.processes["producer"]
        assert len(producer.assignment_labels_of_signal("link")) == 1
        assert len(producer.assignment_labels_of_variable("v")) == 1
        assert producer.assignment_labels_of_signal("ghost") == frozenset()

    def test_label_to_process_lookup(self):
        program_cfg = self._cfg()
        for name, cfg in program_cfg.processes.items():
            for label in cfg.blocks:
                assert program_cfg.process_of_label(label) == name
        with pytest.raises(KeyError):
            program_cfg.process_of_label(9999)

    def test_label_index_stays_out_of_the_pickle(self):
        import pickle

        program_cfg = self._cfg()
        fresh = pickle.dumps(program_cfg)
        program_cfg.process_of_label(min(program_cfg.labels))  # builds the index
        assert pickle.dumps(program_cfg) == fresh
        restored = pickle.loads(fresh)
        assert restored.wait_labels == program_cfg.wait_labels

    def test_summary_statistics(self):
        stats = self._cfg().summary()
        assert stats["processes"] == 2
        assert stats["signals"] == 3
        assert stats["variables"] == 1
        assert stats["wait_labels"] == 2


class TestCrossFlow:
    def _cfg(self, source=SOURCE_TWO_PROCESSES):
        return build_cfg(elaborate_source(source))

    def test_cross_flow_is_cartesian_product(self):
        program_cfg = self._cfg()
        tuples = program_cfg.cross_flow()
        assert len(tuples) == 1
        assert len(tuples[0]) == 2

    def test_cross_flow_tuples_containing(self):
        program_cfg = self._cfg()
        wait = next(iter(program_cfg.processes["producer"].wait_labels))
        assert program_cfg.cross_flow_tuples_containing(wait) == program_cfg.cross_flow()
        assert program_cfg.cross_flow_tuples_containing(1) in ([], program_cfg.cross_flow())

    def test_cooccurrence_requires_distinct_processes(self):
        program_cfg = self._cfg()
        producer_wait = next(iter(program_cfg.processes["producer"].wait_labels))
        consumer_wait = next(iter(program_cfg.processes["consumer"].wait_labels))
        assert program_cfg.labels_cooccur_in_cross_flow(producer_wait, consumer_wait)
        assert program_cfg.labels_cooccur_in_cross_flow(producer_wait, producer_wait)
        assert not program_cfg.labels_cooccur_in_cross_flow(producer_wait, 1)

    def test_two_waits_in_same_process_do_not_cooccur(self):
        source = """
        entity e is port( a : in std_logic; y : out std_logic ); end e;
        architecture arch of e is
          signal link : std_logic;
        begin
          p1 : process begin link <= a; wait on a; link <= a; wait on a; end process p1;
          p2 : process begin y <= link; wait on link; end process p2;
        end arch;
        """
        program_cfg = self._cfg(source)
        w1, w2 = sorted(program_cfg.processes["p1"].wait_labels)
        assert not program_cfg.labels_cooccur_in_cross_flow(w1, w2)
        assert len(program_cfg.cross_flow()) == 2

    def test_process_without_wait_empties_cross_flow(self):
        source = """
        entity e is port( a : in std_logic; y : out std_logic ); end e;
        architecture arch of e is
          signal link : std_logic;
        begin
          p1 : process
            variable v : std_logic;
          begin
            v := a;
            link <= v;
          end process p1;
          p2 : process begin y <= link; wait on link; end process p2;
        end arch;
        """
        program_cfg = self._cfg(source)
        assert program_cfg.cross_flow() == []
        wait = next(iter(program_cfg.processes["p2"].wait_labels))
        assert not program_cfg.label_occurs_in_cross_flow(wait)

    def test_consistency_of_cooccurrence_with_product(self):
        program_cfg = self._cfg()
        tuples = program_cfg.cross_flow()
        for li in program_cfg.wait_labels:
            for lj in program_cfg.wait_labels:
                expected = any(li in t and lj in t for t in tuples)
                assert program_cfg.labels_cooccur_in_cross_flow(li, lj) == expected
