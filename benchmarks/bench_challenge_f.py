"""E7 — Section 7: programs accepted here but rejected by security-type systems.

The conclusion notes the improved analysis "correctly analyses programs that
would incorrectly be rejected by typical security-type systems; as it is
described in the Open Challenge F of [15]", because Reaching Definitions lets
the analysis kill overwritten variables and signals.  The benchmark runs the
overwritten-secret workload end to end, checks the covert-channel report is
clean at the port level, and contrasts the verdict with a flow-insensitive
check (Kemmerer-style transitive reading), which raises a false alarm.
"""

from repro import analyze, analyze_kemmerer, workloads
from repro.analysis.resource_matrix import incoming_node, outgoing_node
from repro.security.policy import TwoLevelPolicy
from repro.security.report import build_report


def test_overwritten_secret_is_accepted(benchmark, report):
    """Analysis + policy check: the overwritten key never reaches the output."""

    def run():
        result = analyze(workloads.challenge_f_program(), improved=True)
        policy = TwoLevelPolicy(secret_resources=["key"])
        return result, build_report(result, policy, restrict_to_ports=True)

    result, covert_report = benchmark(run)
    assert covert_report.is_clean
    assert covert_report.output_dependencies == {"leak": ["plain"]}
    report(
        verdict="accepted",
        output_dependencies=covert_report.output_dependencies,
        violations=len(covert_report.violations),
    )


def test_flow_insensitive_reading_rejects_it(benchmark, report):
    """A Kemmerer-style (transitive) reading raises the false alarm."""

    def run():
        kemmerer = analyze_kemmerer(workloads.challenge_f_program())
        return kemmerer.graph.without_self_loops()

    graph = benchmark(run)
    # flow-insensitively, key reaches the output through the shared temporary
    assert graph.has_edge("key", "leak")
    report(verdict="rejected (false alarm)", spurious_edge=("key", "leak"))


def test_simulation_confirms_the_analysis(benchmark, report):
    """Ground truth: two runs differing only in the key produce the same output."""
    from repro.semantics.simulator import simulate
    from repro.vhdl.elaborate import elaborate_source

    design = elaborate_source(workloads.challenge_f_program())

    def run():
        high = simulate(design, {"key": "11111111", "plain": "01010101"})
        low = simulate(design, {"key": "00000000", "plain": "01010101"})
        return high["leak"], low["leak"]

    high_leak, low_leak = benchmark(run)
    assert high_leak == low_leak
    report(leak_with_key_1="".join(str(high_leak)), outputs_equal=high_leak == low_leak)


def test_leaky_variant_is_still_flagged(benchmark, report):
    """Sanity: a genuinely leaky variant is rejected by the same check."""
    leaky = workloads.challenge_f_program().replace("t := plain;", "t := t xor plain;")

    def run():
        result = analyze(leaky, improved=True)
        policy = TwoLevelPolicy(secret_resources=["key"])
        return build_report(result, policy, restrict_to_ports=True)

    covert_report = benchmark(run)
    assert not covert_report.is_clean
    report(
        verdict="rejected",
        violations=[v.describe() for v in covert_report.violations],
    )
