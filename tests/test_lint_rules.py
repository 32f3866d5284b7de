"""Per-rule reproducers and unit tests for the lint engine.

Every registered code (``IFA101`` … ``IFA108``) has one minimal design
below that triggers exactly that rule (``IFA104``'s isolated signal
necessarily also trips ``IFA102``; the assertion accounts for it).
``IFA107`` cannot be produced from well-formed VHDL1 source — the CFG
builder connects every statement — so its reproducer severs a flow edge
on a real ``ProcessCFG`` directly.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro import analyze, workloads
from repro.analysis.lint import (
    FAIL_ON_CHOICES,
    LintConfig,
    LintRule,
    findings_fail,
    registered_codes,
    registered_rules,
    rule,
    run_lint_rules,
    severity_rank,
)
from repro.analysis.closure import _strongly_connected_components
from repro.analysis.lint.rules import (
    CombinationalLoopRule,
    DeadProcessRule,
    UnreachableStatementRule,
)
from repro.analysis.resource_matrix import outgoing_node
from repro.errors import AnalysisError, PolicyError
from repro.hier import flatten_source
from repro.pipeline.render import lint_section
from repro.vhdl.parser import parse_program
from repro.security.report import diagnostic_sort_key
from repro.workspace import Workspace


@pytest.fixture(scope="module")
def workspace():
    return Workspace()


def codes_of(linted):
    return sorted({finding.code for finding in linted.findings})


MULTIPLE_DRIVERS = """
entity r101 is
  port( a : in std_logic; o : out std_logic );
end r101;
architecture rtl of r101 is
  signal s : std_logic;
begin
  p1 : process begin s <= a; wait on a; end process p1;
  p2 : process begin s <= a; wait on a; end process p2;
  p3 : process begin o <= s; wait on s; end process p3;
end rtl;
"""

WRITTEN_NEVER_READ = """
entity r102 is
  port( a : in std_logic; o : out std_logic );
end r102;
architecture rtl of r102 is
  signal dead : std_logic;
begin
  p1 : process begin dead <= a; o <= a; wait on a; end process p1;
end rtl;
"""

READ_NEVER_WRITTEN = """
entity r103 is
  port( a : in std_logic; o : out std_logic );
end r103;
architecture rtl of r103 is
  signal ghost : std_logic;
begin
  p1 : process begin o <= ghost; wait on ghost; end process p1;
end rtl;
"""

DEAD_PROCESS = """
entity r104 is
  port( a : in std_logic; o : out std_logic );
end r104;
architecture rtl of r104 is
  signal iso : std_logic;
begin
  p1 : process begin iso <= a; wait on a; end process p1;
  p2 : process begin o <= a; wait on a; end process p2;
end rtl;
"""

INCOMPLETE_SENSITIVITY = """
entity r105 is
  port( a : in std_logic; clk : in std_logic; o : out std_logic );
end r105;
architecture rtl of r105 is
begin
  p : process begin o <= a; wait on clk; end process p;
end rtl;
"""

COMBINATIONAL_LOOP = """
entity r106 is
  port( o : out std_logic );
end r106;
architecture rtl of r106 is
  signal x : std_logic;
  signal y : std_logic;
begin
  p1 : process begin x <= y; wait on y; end process p1;
  p2 : process begin y <= x; wait on x; end process p2;
  p3 : process begin o <= x; wait on x; end process p3;
end rtl;
"""

CLOCKED_LOOP = """
entity r106c is
  port( clk : in std_logic; o : out std_logic );
end r106c;
architecture rtl of r106c is
  signal x : std_logic;
  signal y : std_logic;
begin
  p1 : process begin x <= y; wait on clk; end process p1;
  p2 : process begin y <= x; wait on x; end process p2;
  p3 : process begin o <= x; wait on x; end process p3;
end rtl;
"""

SHADOWED_ASSIGNMENT = """
entity r108 is
  port( a : in std_logic; b : in std_logic; o : out std_logic );
end r108;
architecture rtl of r108 is
begin
  p : process
    variable v : std_logic;
  begin
    v := a;
    v := b;
    o <= v;
    wait on a, b;
  end process p;
end rtl;
"""


class TestReproducers:
    def test_ifa101_multiple_drivers(self, workspace):
        linted = workspace.lint(MULTIPLE_DRIVERS)
        assert codes_of(linted) == ["IFA101"]
        (finding,) = linted.findings
        assert finding.severity == "error"
        assert finding.source == "s"
        assert finding.path == ("p1", "p2")
        assert linted.exit_code == 3

    def test_ifa102_written_never_read(self, workspace):
        linted = workspace.lint(WRITTEN_NEVER_READ)
        assert codes_of(linted) == ["IFA102"]
        (finding,) = linted.findings
        assert finding.severity == "warning"
        assert finding.source == "dead"
        assert linted.exit_code == 0  # warning < the default --fail-on error

    def test_ifa103_read_never_written(self, workspace):
        linted = workspace.lint(READ_NEVER_WRITTEN)
        assert codes_of(linted) == ["IFA103"]
        assert linted.findings[0].source == "ghost"

    def test_ifa104_dead_process(self, workspace):
        linted = workspace.lint(DEAD_PROCESS)
        # The isolated signal is necessarily also written-never-read.
        assert codes_of(linted) == ["IFA102", "IFA104"]
        (finding,) = [f for f in linted.findings if f.code == "IFA104"]
        assert finding.source == "p1"
        assert finding.path == ("iso",)

    def test_ifa104_skips_designs_without_output_ports(self, workspace):
        linted = workspace.lint(workloads.paper_program_a())
        assert "IFA104" not in codes_of(linted)

    def test_ifa105_incomplete_sensitivity(self, workspace):
        linted = workspace.lint(INCOMPLETE_SENSITIVITY)
        assert codes_of(linted) == ["IFA105"]
        (finding,) = linted.findings
        assert finding.source == "p"
        assert finding.target == "a"

    def test_ifa106_combinational_loop(self, workspace):
        linted = workspace.lint(COMBINATIONAL_LOOP)
        assert codes_of(linted) == ["IFA106"]
        (finding,) = linted.findings
        assert finding.severity == "error"
        assert finding.path == ("x", "y")

    def test_ifa106_clocked_driver_breaks_the_loop(self, workspace):
        linted = workspace.lint(CLOCKED_LOOP)
        assert "IFA106" not in codes_of(linted)

    def test_ifa107_unreachable_statement(self):
        result = analyze(workloads.paper_program_a())
        name, cfg = next(iter(result.program_cfg.processes.items()))
        severed_label = max(cfg.body_labels)
        severed = dataclasses.replace(
            cfg,
            flow={edge for edge in cfg.flow if edge[1] != severed_label},
        )
        analysis = SimpleNamespace(
            program_cfg=SimpleNamespace(processes={name: severed})
        )
        (finding,) = UnreachableStatementRule().check(analysis)
        assert finding.code == "IFA107"
        assert finding.target == f"L{severed_label}"

    def test_ifa107_silent_on_well_formed_source(self, workspace):
        for _, source in workloads.batch_workload_sources():
            assert "IFA107" not in codes_of(workspace.lint(source))

    def test_ifa108_shadowed_assignment(self, workspace):
        linted = workspace.lint(SHADOWED_ASSIGNMENT)
        assert codes_of(linted) == ["IFA108"]
        (finding,) = linted.findings
        assert finding.severity == "info"
        assert finding.target == "v"

    def test_ifa108_on_the_paper_overwrite_challenge(self, workspace):
        linted = workspace.lint(workloads.challenge_f_program())
        assert codes_of(linted) == ["IFA108"]
        assert linted.findings[0].target == "t"


def dead_processes_by_definition(analysis):
    """IFA104 as defined: a forward search from each process's writes."""
    ports = analysis.design.output_ports
    if not ports:
        return set()
    port_nodes = set(ports) | {outgoing_node(port) for port in ports}
    graph = analysis.graph
    dead = set()
    for cfg in analysis.program_cfg.processes.values():
        reach = set()
        for signal in cfg.process.written_signals():
            for node in (signal, outgoing_node(signal)):
                if graph.has_node(node):
                    reach |= graph.reachable_from(node, include_start=True)
        if not reach & port_nodes:
            dead.add(cfg.name)
    return dead


def signal_loops_by_definition(analysis):
    """IFA106's loops as defined: SCCs of the collapsed signal graph."""
    graph = analysis.graph.collapse_environment_nodes().without_self_loops()
    signals = sorted(node for node in graph.nodes if node in analysis.design.signals)
    adjacency = graph.restricted_to(signals).to_adjacency()
    edges = {node: tuple(targets) for node, targets in adjacency.items()}
    _, components = _strongly_connected_components(adjacency, edges)
    return sorted(sorted(component) for component in components if len(component) > 1)


GRAPH_RULE_SOURCES = (
    workloads.batch_workload_sources()
    + [
        ("dead_process", DEAD_PROCESS),
        ("combinational_loop", COMBINATIONAL_LOOP),
        ("clocked_loop", CLOCKED_LOOP),
    ]
    + [
        (name, flatten_source(parse_program(source)))
        for name, source in workloads.hierarchy_workload_sources()
        + [("regfile_8", workloads.hierarchical_register_file(cells=8, depth=4))]
    ]
)


@pytest.mark.parametrize("name,source", GRAPH_RULE_SOURCES, ids=lambda v: v[:20])
def test_graph_rules_match_their_definitions(name, source):
    # IFA104 searches backwards from the ports once and IFA106 builds the
    # signal graph in one pass; both must find what the definitions find.
    analysis = analyze(source)
    dead = {
        finding.source
        for finding in DeadProcessRule().check(analysis)
    }
    assert dead == dead_processes_by_definition(analysis)
    loops = sorted(CombinationalLoopRule._signal_loops(analysis))
    assert loops == signal_loops_by_definition(analysis)


class TestRegistry:
    def test_every_catalog_code_is_registered_once(self):
        codes = registered_codes()
        assert codes == sorted(set(codes))
        assert set(codes) >= {f"IFA10{i}" for i in range(1, 9)}

    def test_registry_maps_each_code_to_its_rule(self):
        for code, rule_class in registered_rules().items():
            assert rule_class.code == code
            assert rule_class.title
            assert set(rule_class.requires) <= {
                "cfg", "reaching", "local", "closure", "flow_graph"
            }

    def test_duplicate_code_is_refused(self):
        with pytest.raises(AnalysisError):

            @rule
            class Impostor(LintRule):
                code = "IFA101"
                title = "already taken"
                requires = ("cfg",)

    def test_malformed_code_is_refused(self):
        with pytest.raises(AnalysisError):

            @rule
            class BadCode(LintRule):
                code = "XYZ1"
                title = "bad"
                requires = ("cfg",)

    def test_severity_rank_orders_severities(self):
        assert severity_rank("error") > severity_rank("warning")
        assert severity_rank("warning") > severity_rank("info")


class TestEngine:
    def test_findings_are_deterministically_sorted(self, workspace):
        run = workspace.lint(DEAD_PROCESS).run
        findings = run.artifacts.lint
        assert list(findings) == sorted(findings, key=diagnostic_sort_key)
        again = run_lint_rules(run.result)
        assert again == findings

    def test_severity_counts(self, workspace):
        linted = workspace.lint(MULTIPLE_DRIVERS)
        counts = lint_section(linted.findings)["summary"]
        assert counts == {"findings": 1, "errors": 1, "warnings": 0, "infos": 0}

    def test_findings_fail_thresholds(self, workspace):
        warning = workspace.lint(WRITTEN_NEVER_READ).findings
        error = workspace.lint(MULTIPLE_DRIVERS).findings
        assert not findings_fail(warning, "error")
        assert findings_fail(warning, "warning")
        assert not findings_fail(warning, "never")
        assert findings_fail(error, "error")
        assert findings_fail(error, "warning")
        assert not findings_fail(error, "never")
        with pytest.raises(PolicyError):
            findings_fail(error, "sometimes")
        assert set(FAIL_ON_CHOICES) == {"error", "warning", "never"}


class TestLintConfig:
    def test_disable_filters_a_code(self, workspace):
        config = LintConfig(disable=("IFA108",))
        linted = workspace.lint(workloads.challenge_f_program(), config=config)
        assert linted.findings == []
        assert linted.clean

    def test_enable_is_an_allowlist(self, workspace):
        config = LintConfig(enable=("IFA104",))
        linted = workspace.lint(DEAD_PROCESS, config=config)
        assert codes_of(linted) == ["IFA104"]

    def test_disable_wins_over_enable(self):
        config = LintConfig(enable=("IFA101",), disable=("IFA101",))
        assert not config.allows("IFA101")

    def test_severity_override_changes_exit_code(self, workspace):
        config = LintConfig(severity=(("IFA102", "error"),))
        linted = workspace.lint(WRITTEN_NEVER_READ, config=config)
        (finding,) = linted.findings
        assert finding.severity == "error"
        assert linted.exit_code == 3

    def test_from_dict_rejects_unknown_code(self):
        with pytest.raises(PolicyError) as excinfo:
            LintConfig.from_dict({"disable": ["IFA999"]}, context="doc")
        assert "IFA999" in str(excinfo.value)

    def test_from_dict_rejects_unknown_severity(self):
        with pytest.raises(PolicyError):
            LintConfig.from_dict({"severity": {"IFA101": "fatal"}})

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(PolicyError):
            LintConfig.from_dict({"rules": ["IFA101"]})

    def test_round_trips_through_to_dict(self):
        config = LintConfig(
            enable=("IFA101", "IFA102"),
            disable=("IFA108",),
            severity=(("IFA102", "error"),),
        )
        assert LintConfig.from_dict(config.to_dict()) == config

    def test_apply_keeps_sorted_order(self, workspace):
        run = workspace.lint(DEAD_PROCESS).run
        config = LintConfig(severity=(("IFA104", "error"),))
        applied = config.apply(run.artifacts.lint)
        assert list(applied) == sorted(applied, key=diagnostic_sort_key)
