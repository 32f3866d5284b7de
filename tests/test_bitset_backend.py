"""Equivalence of the bitset engines with their set-based oracles.

The production pipeline runs on interned bitsets (``dataflow.worklist.solve``,
``analysis.closure.propagate``); the original frozenset/entry-at-a-time
implementations are kept as oracles (``solve_sets``, ``propagate_naive``).
These tests assert both engines compute identical ``RD∪ϕ`` / ``RD∩ϕ`` /
``RDcf`` solutions, identical ``RM_gl`` / flow graphs and byte-identical
rendered documents on the paper programs, the AES rounds and randomized synthetic programs, plus unit-level
properties of the :class:`FactUniverse` interner and the dotted intersection.
"""

import json
import random

import pytest

import repro.analysis.closure as closure_mod
import repro.analysis.improved as improved_mod
import repro.analysis.reaching_active as reaching_active_mod
import repro.analysis.reaching_defs as reaching_defs_mod
from repro import analyze, workloads
from repro.aes.generator import aes_round_source, shift_rows_paper_source
from repro.analysis.closure import propagate, propagate_naive
from repro.analysis.flowgraph import FlowGraph, resource_matrix_edges
from repro.analysis.resource_matrix import Access, Entry, ResourceMatrix
from repro.dataflow.framework import DataflowInstance, JoinMode
from repro.dataflow.universe import FactUniverse, bit_indices
from repro.dataflow.worklist import solve, solve_sets

WORKLOADS = [
    pytest.param(workloads.paper_program_a(), {"loop_processes": False}, id="paper-a"),
    pytest.param(workloads.paper_program_b(), {"loop_processes": False}, id="paper-b"),
    pytest.param(workloads.challenge_f_program(), {}, id="challenge-f"),
    pytest.param(workloads.producer_consumer_program(), {}, id="producer-consumer"),
    pytest.param(workloads.conditional_program(), {}, id="conditional"),
    pytest.param(workloads.two_phase_program(), {}, id="two-phase"),
    pytest.param(workloads.overwriting_loop_program(), {}, id="overwriting-loop"),
    pytest.param(workloads.synthetic_chain_program(3, 5), {}, id="chain-3x5"),
    pytest.param(shift_rows_paper_source(), {"loop_processes": False}, id="shiftrows"),
    pytest.param(aes_round_source(), {}, id="aes-round"),
]


class TestFactUniverse:
    def test_intern_round_trip(self):
        universe = FactUniverse()
        facts = [("x", 1), ("y", 2), ("x", 1), "plain"]
        indices = [universe.intern(fact) for fact in facts]
        assert indices == [0, 1, 0, 2]
        assert len(universe) == 3
        for fact in facts:
            assert universe.fact_of(universe.index_of(fact)) == fact
        assert list(universe) == [("x", 1), ("y", 2), "plain"]

    def test_building_from_facts_equals_interning_them_one_at_a_time(self):
        rng = random.Random(11)
        pool = [f"fact_{i}" for i in range(40)] + [("n", "in"), ("n", "out")]
        facts = [rng.choice(pool) for _ in range(120)]
        assert len(set(facts)) < len(facts)  # duplicates, in no sorted order
        built = FactUniverse(facts)
        interned = FactUniverse()
        for fact in facts:
            interned.intern(fact)
        assert list(built) == list(interned)
        assert all(built.index_of(fact) == interned.index_of(fact) for fact in facts)
        assert built.intern("late") == interned.intern("late") == len(interned) - 1

    def test_encode_decode_round_trip_randomized(self):
        rng = random.Random(7)
        pool = [f"fact_{i}" for i in range(200)]
        universe = FactUniverse(pool)
        for _ in range(50):
            subset = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            bits = universe.encode(subset)
            assert universe.decode(bits) == subset
            assert bits.bit_count() == len(subset)

    def test_decode_list_agrees_with_decode_iter_dense_and_sparse(self):
        universe = FactUniverse(range(300))
        dense = (1 << 300) - 1
        sparse = (1 << 5) | (1 << 150) | (1 << 299)
        for bits in (0, 1, dense, sparse):
            assert universe.decode_list(bits) == list(universe.decode_iter(bits))

    def test_encode_known_rejects_unknown_facts(self):
        universe = FactUniverse(["a"])
        assert universe.encode_known(["a"]) == 1
        with pytest.raises(KeyError):
            universe.encode_known(["b"])
        assert "b" not in universe  # encode_known must not intern


class TestDottedIntersectionOverEmptyFamilies:
    """The paper's ``⋂˙``: a join over no predecessors yields ∅, not ⊤."""

    def _instance(self, join_mode):
        # Label 2 is not extremal and has no incoming edges: its entry is the
        # join over the empty family.  Label 3 joins 1 and 2.
        return DataflowInstance(
            labels=frozenset({1, 2, 3}),
            flow=frozenset({(1, 3), (2, 3)}),
            extremal_labels=frozenset({1}),
            extremal_value={1: frozenset({"seed"})},
            kill={},
            gen={2: frozenset({"other"})},
            join_mode=join_mode,
        )

    def test_join_api_on_empty_family(self):
        instance = self._instance(JoinMode.INTERSECTION_DOTTED)
        assert instance.join([]) == frozenset()

    @pytest.mark.parametrize("engine", [solve, solve_sets], ids=["bitset", "sets"])
    def test_no_predecessor_label_gets_empty_entry(self, engine):
        solution = engine(self._instance(JoinMode.INTERSECTION_DOTTED))
        assert solution.entry_of(2) == frozenset()
        assert solution.exit_of(2) == frozenset({"other"})
        # the join at 3 intersects {"seed"} with {"other"}: nothing survives
        assert solution.entry_of(3) == frozenset()

    def test_engines_agree_on_both_modes(self):
        for mode in JoinMode:
            fast = solve(self._instance(mode))
            slow = solve_sets(self._instance(mode))
            assert fast.entry == slow.entry
            assert fast.exit == slow.exit


def random_instance(rng: random.Random) -> DataflowInstance:
    n_labels = rng.randint(1, 12)
    labels = frozenset(range(n_labels))
    flow = frozenset(
        (rng.randrange(n_labels), rng.randrange(n_labels))
        for _ in range(rng.randint(0, 3 * n_labels))
    )
    pool = [f"d{i}" for i in range(rng.randint(1, 8))]

    def random_facts():
        return frozenset(rng.sample(pool, rng.randint(0, len(pool))))

    extremal = frozenset(rng.sample(range(n_labels), rng.randint(1, n_labels)))
    return DataflowInstance(
        labels=labels,
        flow=flow,
        extremal_labels=extremal,
        extremal_value={label: random_facts() for label in extremal},
        kill={label: random_facts() for label in labels},
        gen={label: random_facts() for label in labels},
        join_mode=rng.choice(list(JoinMode)),
    )


class TestSolverEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_engines_agree_on_random_instances(self, seed):
        instance = random_instance(random.Random(seed))
        fast = solve(instance)
        slow = solve_sets(instance)
        assert fast.entry == slow.entry
        assert fast.exit == slow.exit

    @pytest.mark.parametrize("processes,assignments", [(1, 3), (2, 2), (3, 6), (4, 4)])
    def test_engines_agree_on_synthetic_chains(self, processes, assignments):
        from repro.analysis.reaching_active import _build_instance
        from repro.cfg.builder import build_cfg
        from repro.vhdl.elaborate import elaborate_source

        design = elaborate_source(
            workloads.synthetic_chain_program(processes, assignments)
        )
        program_cfg = build_cfg(design)
        for cfg in program_cfg.processes.values():
            for mode in JoinMode:
                instance = _build_instance(cfg, mode)
                fast = solve(instance)
                slow = solve_sets(instance)
                assert fast.entry == slow.entry
                assert fast.exit == slow.exit


class TestPropagateEquivalence:
    def _random_closure_problem(self, rng: random.Random):
        labels = list(range(rng.randint(1, 15)))
        names = [f"n{i}" for i in range(6)]
        seeds = [
            Entry(rng.choice(names), rng.choice(labels), rng.choice(list(Access)))
            for _ in range(rng.randint(0, 30))
        ]
        copy_edges = {}
        for _ in range(rng.randint(0, 3 * len(labels))):
            copy_edges.setdefault(rng.choice(labels), set()).add(rng.choice(labels))
        return seeds, copy_edges

    @pytest.mark.parametrize("seed", range(40))
    def test_propagate_matches_naive_on_random_graphs(self, seed):
        seeds, copy_edges = self._random_closure_problem(random.Random(seed))
        assert propagate(seeds, copy_edges) == propagate_naive(seeds, copy_edges)

    def test_propagate_accepts_matrix_seeds(self):
        matrix = ResourceMatrix(
            [Entry("a", 1, Access.R0), Entry("x", 2, Access.M0)]
        )
        closed = propagate(matrix, {1: {2}, 2: {1}})
        assert closed == propagate_naive(matrix, {1: {2}, 2: {1}})
        assert Entry("a", 2, Access.R0) in closed
        # seeds are not mutated
        assert Entry("a", 2, Access.R0) not in matrix

    def test_self_loop_edges_are_harmless(self):
        seeds = [Entry("a", 1, Access.R0)]
        edges = {1: {1, 2}}
        assert propagate(seeds, edges) == propagate_naive(seeds, edges)

    @pytest.mark.parametrize("source,kwargs", WORKLOADS)
    def test_propagate_matches_naive_on_workload_copy_edges(self, source, kwargs):
        result = analyze(source, improved=False, **kwargs)
        copy_edges = closure_mod.merge_edges(
            closure_mod.present_value_edges(result.specialized),
            closure_mod.synchronized_value_edges(
                result.program_cfg, result.specialized
            ),
        )
        assert propagate(result.rm_local, copy_edges) == propagate_naive(
            result.rm_local, copy_edges
        )


def use_reference_backend(monkeypatch):
    """Route the dataflow solves and the closure through the set oracles."""
    monkeypatch.setattr(reaching_defs_mod, "solve", solve_sets)
    monkeypatch.setattr(reaching_active_mod, "solve", solve_sets)
    monkeypatch.setattr(closure_mod, "propagate", propagate_naive)
    monkeypatch.setattr(improved_mod, "propagate", propagate_naive)


class TestPipelineEquivalence:
    """The whole analysis, bitset backend vs. set-based oracle backend."""

    @pytest.mark.parametrize("source,kwargs", WORKLOADS)
    @pytest.mark.parametrize("improved", [True, False], ids=["improved", "basic"])
    def test_rm_global_and_graph_identical(self, monkeypatch, source, kwargs, improved):
        fast = analyze(source, improved=improved, **kwargs)
        use_reference_backend(monkeypatch)
        slow = analyze(source, improved=improved, **kwargs)
        assert fast.reaching.entry == slow.reaching.entry
        assert fast.reaching.exit == slow.reaching.exit
        for name, fast_active in fast.active.items():
            slow_active = slow.active[name]
            assert fast_active.over_entry == slow_active.over_entry
            assert fast_active.under_entry == slow_active.under_entry
        assert fast.specialized.present == slow.specialized.present
        assert fast.specialized.active == slow.specialized.active
        assert fast.rm_global == slow.rm_global
        assert fast.graph.nodes == slow.graph.nodes
        assert fast.graph.edges == slow.graph.edges

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_chains_identical(self, monkeypatch, seed):
        rng = random.Random(seed)
        source = workloads.synthetic_chain_program(
            rng.randint(1, 4), rng.randint(1, 8)
        )
        fast = analyze(source, improved=True)
        use_reference_backend(monkeypatch)
        slow = analyze(source, improved=True)
        assert fast.rm_global == slow.rm_global
        assert fast.graph.edges == slow.graph.edges


class TestBitIndices:
    @pytest.mark.parametrize(
        "bits", [0, 1, (1 << 300) - 1, (1 << 5) | (1 << 150) | (1 << 299)]
    )
    def test_matches_naive_decomposition(self, bits):
        assert bit_indices(bits) == [
            i for i in range(bits.bit_length()) if bits >> i & 1
        ]


class TestFlowGraphOracle:
    """Bitset-native FlowGraph vs. the materialised-edge-set construction."""

    def _oracle(self, matrix, include_self_loops=True):
        return FlowGraph.from_edges(
            resource_matrix_edges(matrix, include_self_loops=include_self_loops),
            nodes=matrix.names(),
        )

    @pytest.mark.parametrize("source,kwargs", WORKLOADS)
    @pytest.mark.parametrize("improved", [True, False], ids=["improved", "basic"])
    def test_byte_identical_renderings_on_workloads(self, source, kwargs, improved):
        result = analyze(source, improved=improved, **kwargs)
        graph = result.graph
        oracle = self._oracle(result.rm_global)
        assert graph.to_dot() == oracle.to_dot()
        assert graph.to_adjacency() == oracle.to_adjacency()
        assert graph.edges == oracle.edges
        assert graph.nodes == oracle.nodes
        assert graph == oracle

    def test_byte_identical_renderings_on_8xN_chain(self):
        result = analyze(workloads.synthetic_chain_program(8, 12), improved=True)
        graph = result.graph
        oracle = self._oracle(result.rm_global)
        assert graph.to_dot() == oracle.to_dot()
        assert graph.to_adjacency() == oracle.to_adjacency()
        assert graph.edge_count() == oracle.edge_count()

    def test_self_loop_exclusion_matches_oracle(self):
        result = analyze(workloads.challenge_f_program(), improved=True)
        graph = FlowGraph.from_resource_matrix(
            result.rm_global, include_self_loops=False
        )
        oracle = self._oracle(result.rm_global, include_self_loops=False)
        # the oracle drops isolated nodes' self-loops but keeps the nodes
        assert graph.edges == oracle.edges
        assert graph.to_adjacency() == oracle.to_adjacency()

    def test_graph_algebra_agrees_with_oracle(self):
        result = analyze(workloads.producer_consumer_program(), improved=True)
        graph = result.graph
        oracle = self._oracle(result.rm_global)
        assert (
            graph.transitive_closure().edges == oracle.transitive_closure().edges
        )
        assert graph.is_transitive() == oracle.is_transitive()
        assert (
            graph.collapse_environment_nodes().edges
            == oracle.collapse_environment_nodes().edges
        )
        for node in sorted(graph.nodes):
            assert graph.successors(node) == oracle.successors(node)
            assert graph.predecessors(node) == oracle.predecessors(node)
            assert graph.reachable_from(node) == oracle.reachable_from(node)


class TestBackendByteIdenticalDocuments:
    """analyze/check/lint JSON must be byte-identical on the set oracles.

    The second run swaps every bitset engine for its set-based oracle,
    the flow graph included.  The ``timings`` block is wall-clock and
    differs even between two runs of the *same* backend, so it is
    stripped before the byte comparison; everything else — graphs,
    matrices, reports, findings — must match exactly over all eight
    paper workloads.
    """

    @staticmethod
    def _without_timings(text: str) -> str:
        data = json.loads(text)
        data.pop("timings", None)
        return json.dumps(data, sort_keys=True)

    def _documents(self, source):
        from repro.pipeline.render import (
            analyze_document,
            check_document,
            json_text,
            lint_document,
        )
        from repro.pipeline.stages import LINT_GOALS, Pipeline
        from repro.security.policy import TwoLevelPolicy

        pipeline = Pipeline()
        run = pipeline.run(source)
        analyze_text = json_text(analyze_document(run, file="w.vhd"))

        policy = TwoLevelPolicy(secret_resources=[])
        checked = pipeline.run(
            source, policy=policy, report_options={"transitive": True}
        )
        check_text = json_text(
            check_document(checked, policy=policy, file="w.vhd")
        )

        linted = pipeline.run(source, goals=LINT_GOALS)
        lint_text = json_text(
            lint_document(linted, findings=linted.artifacts.lint, file="w.vhd")
        )
        return analyze_text, check_text, lint_text

    @staticmethod
    def _oracle_flow_graph(cls, matrix, include_self_loops=True):
        return cls.from_edges(
            resource_matrix_edges(matrix, include_self_loops=include_self_loops),
            nodes=matrix.names(),
        )

    @pytest.mark.parametrize(
        "name,source",
        [pytest.param(n, s, id=n) for n, s in workloads.batch_workload_sources()],
    )
    def test_documents_identical_across_backends(self, monkeypatch, name, source):
        via_bitsets = self._documents(source)
        use_reference_backend(monkeypatch)
        monkeypatch.setattr(
            FlowGraph, "from_resource_matrix", classmethod(self._oracle_flow_graph)
        )
        via_oracles = self._documents(source)
        for bitset_text, oracle_text in zip(via_bitsets, via_oracles):
            assert self._without_timings(bitset_text) == self._without_timings(
                oracle_text
            )


class TestPerSessionUniverse:
    """Independent analyses must not share or leak interned names."""

    def test_sessions_get_independent_universes(self):
        first = analyze(workloads.paper_program_a(), loop_processes=False)
        size_before = len(first.universe)
        second = analyze(workloads.producer_consumer_program())
        assert first.universe is not second.universe
        # the second analysis interned nothing into the first session
        assert len(first.universe) == size_before
        assert "left" not in first.universe
        assert "a" not in second.universe

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(workloads.challenge_f_program(), id="flat"),
            pytest.param(workloads.hierarchical_mux_program(), id="linked"),
        ],
    )
    def test_each_run_threads_one_universe_through_its_matrices(self, source):
        result = analyze(source)
        assert result.universe is not None
        assert result.rm_local.universe is result.universe
        assert result.rm_global.universe is result.universe
        assert result.graph.edges == FlowGraph.from_edges(
            resource_matrix_edges(result.rm_global)
        ).edges

    def test_cross_universe_matrix_equality_and_union(self):
        left = ResourceMatrix([Entry("a", 1, Access.R0), Entry("b", 1, Access.M0)])
        right = ResourceMatrix([Entry("b", 1, Access.M0), Entry("a", 1, Access.R0)])
        assert left.universe is not right.universe
        assert left == right
        extra = ResourceMatrix([Entry("z", 9, Access.M1)])
        combined = left.union(extra)
        assert Entry("z", 9, Access.M1) in combined
        assert len(combined) == 3
