"""The linked plan versus the flattening oracle.

The headline contract of the hierarchy subsystem: for every hierarchical
workload and every analysis option combination, the analyze, check and lint
documents of the linked plan (``parse → hierarchy → summary → place → …``)
are byte-identical to those of the flattened program — through the library,
the CLI (``--flatten``), batch and the serve surface alike.
"""

import itertools
import json
import sys

import pytest

from repro import Workspace, workloads
from repro.analysis.lint import LintConfig
from repro.cli import main
from repro.errors import AnalysisError, HierarchyError
from repro.hier import flatten as flatten_module
from repro.hier import flatten_source
from repro.pipeline import (
    LINKED_STAGES,
    Pipeline,
    analyze_document,
    check_document,
    json_text,
    lint_document,
)
from repro.pipeline.artifacts import AnalysisOptions
from repro.pipeline.serve import execute_request
from repro.security.policy import TwoLevelPolicy
from repro.vhdl.parser import parse_program

VOLATILE = ("timings", "cached_stages")

OPTION_COMBOS = list(itertools.product([True, False], repeat=3))

LINKED_STAGE_NAMES = [stage.name for stage in LINKED_STAGES if stage.name != "report"]

#: A hierarchy with lint findings on both kinds of process: a child whose
#: concurrent assignment drives a signal nobody reads, instantiated twice,
#: and a root process whose only write reaches no output.
LINT_FINDINGS_SOURCE = """
entity leaf is
  port( a : in std_logic;
        q : out std_logic );
end leaf;

architecture rtl of leaf is
  signal spare : std_logic;
begin
  q <= (not a);
  spare <= a;
end rtl;

entity top is
  port( x : in std_logic;
        y : out std_logic );
end top;

architecture rtl of top is
  component leaf is
    port( a : in std_logic;
          q : out std_logic );
  end component leaf;
  signal n1 : std_logic;
  signal n2 : std_logic;
  signal idle : std_logic;
begin
  u1 : leaf port map (x, n1);
  u2 : leaf port map (n1, n2);
  y <= n2;
  hold : process
    variable v : std_logic;
  begin
    v := x;
    v := n1;
    idle <= v;
    wait on x, n1;
  end process hold;
end rtl;
"""

SOURCES = workloads.hierarchy_workload_sources() + [
    ("lint_findings", LINT_FINDINGS_SOURCE)
]


def _text(document):
    for field in VOLATILE:
        document.pop(field, None)
    return json_text(document)


def _documents(source, options):
    """The analyze, check and lint documents of ``source``, one run each."""
    pipeline = Pipeline()
    analyzed = pipeline.run(source, options)
    policy = TwoLevelPolicy(secret_resources=analyzed.result.design.input_ports[:1])
    checked = pipeline.run(source, options, policy=policy)
    linted = pipeline.run_lint(source, options)
    return (
        _text(analyze_document(analyzed)),
        _text(check_document(checked, policy)),
        _text(lint_document(linted, LintConfig().apply(linted.artifacts.lint))),
    )


@pytest.mark.parametrize("name,source", SOURCES, ids=lambda v: v[:20])
@pytest.mark.parametrize(
    "improved,loop_processes,under", OPTION_COMBOS, ids=lambda v: str(v)[:5]
)
def test_linked_documents_equal_flattened(name, source, improved, loop_processes, under):
    options = AnalysisOptions(
        improved=improved,
        loop_processes=loop_processes,
        use_under_approximation=under,
    )
    flattened = flatten_source(parse_program(source))
    assert _documents(source, options) == _documents(flattened, options)


def test_rendering_variants_agree():
    source = workloads.hierarchical_mux_program()
    linked = Pipeline().run(source)
    flattened = Pipeline().run(flatten_source(parse_program(source)))
    for collapse, self_loops in itertools.product([True, False], repeat=2):
        render = {"collapse": collapse, "self_loops": self_loops}
        assert _text(analyze_document(linked, **render)) == _text(
            analyze_document(flattened, **render)
        )


def test_lint_findings_name_placed_processes_like_flat_ones():
    linted = Workspace().lint(LINT_FINDINGS_SOURCE)
    dead = {f.source for f in linted.findings if f.code == "IFA104"}
    # u1's and u2's `spare <= a` are the 2nd and 4th concurrent assignments
    # of the flattened design; `hold` keeps its root-level name
    assert dead == {"concurrent_2", "concurrent_4", "hold"}


class TestLinkedPlan:
    def test_hierarchical_sources_run_the_linked_plan(self):
        run = Workspace().analyze_run(workloads.hierarchical_mux_program())
        assert [stage.name for stage in run.stages] == LINKED_STAGE_NAMES

    def test_flat_sources_run_the_flat_plan(self):
        run = Workspace().analyze_run(workloads.paper_program_a())
        assert [stage.name for stage in run.stages][:2] == ["parse", "elaborate"]

    def test_check_and_lint_run_the_linked_plan(self):
        ws = Workspace()
        source = workloads.hierarchical_mux_program()
        checked = ws.check(
            source, {"levels": {"sel": 1, "o": 0}, "mode": "transitive"}
        )
        names = [stage.name for stage in checked.run.stages]
        assert "place" in names and names[-1] == "report"
        linted = ws.lint(source)
        names = [stage.name for stage in linted.run.stages]
        assert "place" in names and names[-1] == "lint"
        assert linted.exit_code == 0

    def test_warm_run_serves_the_placed_stages_from_cache(self):
        ws = Workspace()
        source = workloads.hierarchical_mux_program()
        ws.analyze_run(source)
        warm = ws.analyze_run(source)
        assert warm.cached_stages == [
            "parse", "place", "reaching", "specialize", "closure", "flow_graph",
        ]

    def test_until_stops_at_a_linked_stage(self):
        run = Workspace().analyze_run(
            workloads.hierarchical_mux_program(), until="place"
        )
        assert [stage.name for stage in run.stages] == [
            "parse", "hierarchy", "summary", "place",
        ]
        assert run.result is None
        assert run.artifacts.program_cfg.summary()["processes"] == 5

    def test_until_rejects_a_stage_of_the_flat_plan(self):
        with pytest.raises(AnalysisError, match="'cfg' is not part"):
            Workspace().analyze_run(workloads.hierarchical_mux_program(), until="cfg")

    def test_entity_selects_the_root(self):
        ws = Workspace()
        source = workloads.hierarchical_mux_program()
        sub = ws.analyze_run(source, entity="stage")
        assert sub.result.design.name == "stage"


class TestCLI:
    def test_flatten_flag_matches_default_route(self, tmp_path, capsys):
        path = tmp_path / "mux.vhdl"
        path.write_text(workloads.hierarchical_mux_program(), encoding="utf-8")
        assert main(["analyze", str(path), "--json"]) == 0
        linked = json.loads(capsys.readouterr().out)
        assert main(["analyze", str(path), "--json", "--flatten"]) == 0
        flattened = json.loads(capsys.readouterr().out)
        for document in (linked, flattened):
            for field in VOLATILE:
                document.pop(field, None)
        assert linked == flattened

    def test_profile_covers_the_linked_stages(self, tmp_path, capsys):
        path = tmp_path / "mux.vhdl"
        path.write_text(workloads.hierarchical_mux_program(), encoding="utf-8")
        sidecar = tmp_path / "profile.json"
        assert main(
            ["analyze", str(path), "--profile", "--profile-json", str(sidecar)]
        ) == 0
        err = capsys.readouterr().err
        for stage in LINKED_STAGE_NAMES:
            assert f"[profile] stage {stage}\n" in err
        stages = json.loads(sidecar.read_text(encoding="utf-8"))["stages"]
        assert list(stages) == LINKED_STAGE_NAMES

    def test_structural_fault_exits_like_an_analysis_error(self, tmp_path, capsys):
        path = tmp_path / "bad.vhdl"
        source = workloads.hierarchical_mux_program().replace(
            "port map (lo, sel, n2)", "port map (lo, sel)"
        )
        path.write_text(source, encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "unbound formal port" in capsys.readouterr().err

    def test_batch_over_hierarchical_files(self, tmp_path, capsys):
        hier = tmp_path / "mux.vhdl"
        hier.write_text(workloads.hierarchical_mux_program(), encoding="utf-8")
        flat = tmp_path / "flat.vhdl"
        flat.write_text(workloads.paper_program_a(), encoding="utf-8")
        assert (
            main(["batch", str(hier), str(flat), "--jobs", "1", "--json"]) == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert [job["ok"] for job in document["jobs"]] == [True, True]
        # the hierarchical job's document equals the single-file analyze one
        assert main(["analyze", str(hier), "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        batch_job = document["jobs"][0]
        assert batch_job["design"] == single["design"]
        assert batch_job["graph"] == single["graph"]


class TestServe:
    def test_serve_analyzes_hierarchical_sources(self):
        ws = Workspace()
        status, document = execute_request(
            ws, "analyze", {"source": workloads.hierarchical_mux_program()}, None
        )
        assert status == 200
        assert document["design"] == "mux_top"
        flat_doc = json.loads(
            _text(analyze_document(ws.analyze_run(workloads.hierarchical_mux_program())))
        )
        assert document["graph"] == flat_doc["graph"]


@pytest.fixture
def flatten_calls(monkeypatch):
    """Every call of ``flatten_source``, whichever module imported it."""
    original = flatten_module.flatten_source
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "flatten_source", None) is original:
            monkeypatch.setattr(module, "flatten_source", counting)
    return calls


def test_only_analyze_flatten_calls_the_oracle(tmp_path, capsys, flatten_calls):
    source = workloads.hierarchical_mux_program()
    path = tmp_path / "mux.vhdl"
    path.write_text(source, encoding="utf-8")
    ws = Workspace()
    policy = TwoLevelPolicy(secret_resources=["sel"])
    ws.check(source, policy)
    ws.lint(source)
    assert ws.batch([str(path)], parallel=False, lint=True).ok
    for kind, request in (
        ("analyze", {"source": source}),
        ("check", {"source": source, "policy": policy}),
        ("lint", {"source": source}),
    ):
        assert execute_request(ws, kind, request)[0] == 200
    main(["check", str(path), "--secret", "sel", "--fail-on", "never"])
    main(["lint", str(path)])
    assert flatten_calls == []
    assert main(["analyze", str(path), "--flatten"]) == 0
    assert len(flatten_calls) == 1
    capsys.readouterr()


class TestLinkErrorParity:
    def test_flat_signal_collision(self):
        # an internal signal of the root spelled like a renamed child signal
        source = workloads.hierarchical_mux_program().replace(
            "signal n1 : std_logic;",
            "signal n1 : std_logic;\n  signal u1__t : std_logic;",
        )
        with pytest.raises(HierarchyError, match="duplicate signal 'u1__t'"):
            Pipeline().run(source)

    def test_zero_process_design(self):
        source = """
entity empty is
  port( x : in std_logic;
        y : out std_logic );
end empty;

architecture rtl of empty is
begin
end rtl;

entity shell is
  port( p : in std_logic;
        q : out std_logic );
end shell;

architecture rtl of shell is
  component empty is
    port( x : in std_logic;
          y : out std_logic );
  end component empty;
begin
  u1 : empty port map (p, q);
end rtl;
"""
        with pytest.raises(HierarchyError, match="contains no processes"):
            Pipeline().run(source)
