"""E1 — Figure 3: non-transitive flow graphs for programs (a) and (b).

The paper's Section 5 example: for program (a) ``c := b; b := a`` the analysis
must report exactly the edges ``b → c`` and ``a → b`` (and *not* ``a → c``),
whereas for program (b) ``b := a; c := b`` the composed flow ``a → c`` is real
and must be reported.  Kemmerer's transitive closure reports ``a → c`` in both
cases.
"""

from repro import analyze, analyze_kemmerer, workloads


def _edges(source, improved=False):
    result = analyze(source, improved=improved, loop_processes=False)
    return result.graph_without_self_loops().edges


def test_program_a_graph(benchmark, report):
    """Figure 3(a): the result graph of program (a) is non-transitive."""
    edges = benchmark(_edges, workloads.paper_program_a())
    assert edges == {("b", "c"), ("a", "b")}
    report(
        program="(a) c := b; b := a",
        edges=sorted(edges),
        has_spurious_a_to_c=("a", "c") in edges,
    )


def test_program_b_graph(benchmark, report):
    """Figure 3(b): program (b) exhibits the composed flow a -> c."""
    edges = benchmark(_edges, workloads.paper_program_b())
    assert edges == {("a", "b"), ("b", "c"), ("a", "c")}
    report(program="(b) b := a; c := b", edges=sorted(edges))


def test_program_a_kemmerer_adds_the_spurious_edge(benchmark, report):
    """The baseline's transitive closure cannot distinguish (a) from (b)."""

    def run():
        return analyze_kemmerer(
            workloads.paper_program_a(), loop_processes=False
        ).graph.without_self_loops().edges

    edges = benchmark(run)
    assert ("a", "c") in edges
    ours = _edges(workloads.paper_program_a())
    report(
        kemmerer_edges=sorted(edges),
        our_edges=sorted(ours),
        false_positives=sorted(set(edges) - set(ours)),
    )


def test_result_graph_is_non_transitive_in_general(benchmark, report):
    """The paper's headline claim: the result graph is in general non-transitive."""

    def run():
        result = analyze(
            workloads.paper_program_a(), improved=False, loop_processes=False
        )
        return result.graph_without_self_loops()

    graph = benchmark(run)
    assert not graph.is_transitive()
    report(transitive=graph.is_transitive(), edge_count=graph.edge_count())
