"""Tests for the ``vhdl-ifa`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro import workloads
from repro.aes.generator import shift_rows_paper_source
from repro.semantics.simulator import Simulator


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.vhd"
    path.write_text(workloads.challenge_f_program(), encoding="utf-8")
    return str(path)


@pytest.fixture
def producer_file(tmp_path):
    path = tmp_path / "pc.vhd"
    path.write_text(workloads.producer_consumer_program(), encoding="utf-8")
    return str(path)


class TestAnalyzeCommand:
    def test_adjacency_output(self, design_file, capsys):
        assert main(["analyze", design_file]) == 0
        out = capsys.readouterr().out
        assert "design 'challenge_f'" in out
        assert "plain" in out

    def test_dot_output(self, design_file, capsys):
        assert main(["analyze", design_file, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_basic_and_straight_line_flags(self, tmp_path, capsys):
        path = tmp_path / "a.vhd"
        path.write_text(workloads.paper_program_a(), encoding="utf-8")
        assert main(["analyze", str(path), "--basic", "--straight-line"]) == 0
        out = capsys.readouterr().out
        assert "a -> b" in out

    def test_collapse_flag(self, tmp_path, capsys):
        path = tmp_path / "sr.vhd"
        path.write_text(shift_rows_paper_source(), encoding="utf-8")
        assert main(["analyze", str(path), "--straight-line", "--collapse"]) == 0
        out = capsys.readouterr().out
        assert "○" not in out and "•" not in out


class TestKemmererCommand:
    def test_kemmerer_output(self, design_file, capsys):
        assert main(["kemmerer", design_file]) == 0
        assert "Kemmerer" in capsys.readouterr().out

    @pytest.fixture
    def loop_file(self, tmp_path):
        path = tmp_path / "loop.vhd"
        path.write_text(workloads.overwriting_loop_program(), encoding="utf-8")
        return str(path)

    def test_self_loops_flag_parity(self, loop_file, capsys):
        # default drops trivial self loops, exactly like `analyze` ...
        assert main(["kemmerer", loop_file]) == 0
        assert "acc -> done" in capsys.readouterr().out
        # ... and --self-loops keeps them
        assert main(["kemmerer", loop_file, "--self-loops"]) == 0
        assert "acc -> acc, done" in capsys.readouterr().out

    def test_collapse_flag_parity(self, loop_file, capsys):
        assert main(["kemmerer", loop_file]) == 0
        default = capsys.readouterr().out
        # Kemmerer's graph has no environment nodes, so collapsing is the
        # identity — but the flag must be accepted, like `analyze`'s.
        assert main(["kemmerer", loop_file, "--collapse"]) == 0
        assert capsys.readouterr().out == default

    def test_dot_with_flags(self, loop_file, capsys):
        assert main(["kemmerer", loop_file, "--self-loops", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestCheckCommand:
    def test_clean_design_returns_zero(self, design_file, capsys):
        assert main(["check", design_file, "--secret", "key", "--ports-only"]) == 0
        out = capsys.readouterr().out
        assert "leak <- plain" in out

    def test_internal_flow_is_flagged_without_ports_only(self, design_file, capsys):
        # the secret key does flow into the (public) temporary t, so the
        # unrestricted check reports it
        assert main(["check", design_file, "--secret", "key"]) == 3
        assert "key" in capsys.readouterr().out

    def test_leak_returns_nonzero(self, producer_file, capsys):
        assert main(["check", producer_file, "--secret", "left"]) == 3
        assert "violation" in capsys.readouterr().out

    def test_output_flag_restricts_reported_sinks(self, design_file, capsys):
        # key flows into the internal temporary t, but with the sinks
        # restricted to the leak output the check comes back clean
        assert main(["check", design_file, "--secret", "key", "--output", "leak"]) == 0
        out = capsys.readouterr().out
        assert "leak <- plain" in out
        assert "to t" not in out

    def test_unknown_output_is_an_error(self, design_file, capsys):
        assert main(["check", design_file, "--secret", "key", "--output", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope" in err

    def test_source_only_resource_is_rejected_as_output(self, design_file, capsys):
        # `plain` is an input port: nothing flows *into* it, so accepting it
        # as a sink would silently filter away every violation
        assert main(["check", design_file, "--secret", "key", "--output", "plain"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "plain" in err

    def test_basic_flag_disables_environment_nodes(self, design_file, capsys):
        # the improved analysis reports the key○ incoming node as well ...
        assert main(["check", design_file, "--secret", "key"]) == 3
        assert "key○" in capsys.readouterr().out
        # ... the basic (Table 8 only) analysis has no environment nodes
        assert main(["check", design_file, "--secret", "key", "--basic"]) == 3
        assert "key○" not in capsys.readouterr().out

    def test_straight_line_flag_changes_the_verdict(self, tmp_path, capsys):
        # program (a): c := b; b := a.  Looped, the previous iteration's
        # b := a reaches c := b, so the secret a also taints c; analysed as
        # straight-line code (the paper's Figure 3(a) reading) it does not.
        path = tmp_path / "a.vhd"
        path.write_text(workloads.paper_program_a(), encoding="utf-8")
        assert main(["check", str(path), "--secret", "a"]) == 3
        assert "to c" in capsys.readouterr().out
        assert main(["check", str(path), "--secret", "a", "--straight-line"]) == 3
        assert "to c" not in capsys.readouterr().out


class TestSimulateCommand:
    def test_simulation_prints_signal_values(self, producer_file, capsys):
        assert (
            main(
                [
                    "simulate",
                    producer_file,
                    "--set",
                    "left=1100",
                    "--set",
                    "right=1010",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert 'result = "0110"' in out

    def test_malformed_set_reports_error(self, producer_file, capsys):
        assert main(["simulate", producer_file, "--set", "oops"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_set_fails_before_any_simulation(
        self, producer_file, capsys, monkeypatch
    ):
        # A bad setting in last position must fail *before* the first
        # simulator.run(), not after a full simulation.
        def explode(self, *args, **kwargs):
            raise AssertionError("simulator ran before --set validation")

        monkeypatch.setattr(Simulator, "run", explode)
        assert (
            main(["simulate", producer_file, "--set", "left=1100", "--set", "oops"])
            == 1
        )
        assert "error" in capsys.readouterr().err

    def test_unknown_port_fails_before_any_simulation(
        self, producer_file, capsys, monkeypatch
    ):
        def explode(self, *args, **kwargs):
            raise AssertionError("simulator ran before --set validation")

        monkeypatch.setattr(Simulator, "run", explode)
        assert main(["simulate", producer_file, "--set", "nosuch=1"]) == 1
        assert "unknown signal" in capsys.readouterr().err

    def test_non_input_port_is_rejected(self, producer_file, capsys):
        assert main(["simulate", producer_file, "--set", "result=0000"]) == 1
        assert "not an input port" in capsys.readouterr().err


@pytest.fixture
def workload_files(tmp_path):
    paths = []
    for name, source in workloads.batch_workload_sources():
        path = tmp_path / f"{name}.vhd"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    return paths


class TestBatchCommand:
    def _expected_output(self, paths, capsys, extra_flags=()):
        """What batch stdout must look like: per-file `analyze` output."""
        chunks = []
        for path in paths:
            assert main(["analyze", path, *extra_flags]) == 0
            chunks.append(f"== {path} ==\n" + capsys.readouterr().out)
        return "".join(chunks)

    @pytest.mark.parametrize("mode_flags", [["--sequential"], ["--jobs", "2"]])
    def test_per_file_output_is_byte_identical_to_analyze(
        self, workload_files, capsys, mode_flags
    ):
        assert len(workload_files) >= 8
        expected = self._expected_output(workload_files, capsys)
        assert main(["batch", *workload_files, *mode_flags]) == 0
        assert capsys.readouterr().out == expected

    def test_flags_are_forwarded_to_every_job(self, workload_files, capsys):
        flags = ["--basic", "--straight-line", "--self-loops"]
        expected = self._expected_output(workload_files[:3], capsys, flags)
        assert main(["batch", *workload_files[:3], "--sequential", *flags]) == 0
        assert capsys.readouterr().out == expected

    def test_all_entities(self, tmp_path, capsys):
        path = tmp_path / "multi.vhd"
        path.write_text(workloads.multi_entity_program(3, 2, 4), encoding="utf-8")
        assert main(["batch", str(path), "--all-entities", "--sequential"]) == 0
        out = capsys.readouterr().out
        for entity in ("chain_0", "chain_1", "chain_2"):
            assert f"== {path}:{entity} ==" in out
            assert f"design '{entity}'" in out

    def test_failures_exit_nonzero_but_keep_going(
        self, workload_files, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.vhd")
        assert main(["batch", workload_files[0], missing, "--sequential"]) == 2
        captured = capsys.readouterr()
        assert f"== {workload_files[0]} ==" in captured.out
        assert "missing.vhd" in captured.err
        assert "1 failed" in captured.err

    def test_json_output(self, workload_files, capsys):
        assert main(["batch", *workload_files, "--sequential", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "batch"
        assert [job["file"] for job in document["jobs"]] == workload_files
        assert all(job["ok"] for job in document["jobs"])
        assert all("timings" in job for job in document["jobs"])


class TestJsonOutput:
    def test_analyze_json(self, design_file, capsys):
        assert main(["analyze", design_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "analyze"
        assert document["design"] == "challenge_f"
        assert document["summary"]["processes"] == 1
        assert set(document["timings"]) >= {"parse", "elaborate", "closure"}
        assert document["cached_stages"] == []
        # the adjacency must agree with the text rendering's graph
        assert document["graph"]["adjacency"]["key"] == ["t"]

    def test_check_json_clean(self, design_file, capsys):
        assert (
            main(
                ["check", design_file, "--secret", "key", "--output", "leak", "--json"]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "check"
        assert document["clean"] is True
        assert document["violations"] == []
        assert document["output_dependencies"]["leak"] == ["plain"]
        assert document["policy"]["secrets"] == ["key"]

    def test_check_json_violation_keeps_exit_code(self, producer_file, capsys):
        assert main(["check", producer_file, "--secret", "left", "--json"]) == 3
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is False
        assert any(
            violation["source"].startswith("left")
            for violation in document["violations"]
        )
        assert all(
            violation["code"] == "IFA001" and violation["severity"] == "error"
            and "message" in violation
            for violation in document["violations"]
        )


class TestErrorHandling:
    def test_parse_errors_are_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.vhd"
        path.write_text("entity broken is", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "kemmerer", "check", "simulate"])
    def test_missing_file_is_reported_not_raised(self, command, tmp_path, capsys):
        missing = str(tmp_path / "does_not_exist.vhd")
        assert main([command, missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does_not_exist.vhd" in err
        assert len(err.strip().splitlines()) == 1

    def test_unreadable_directory_is_reported_not_raised(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["analyze", "kemmerer", "check", "simulate"])
    def test_non_utf8_file_is_reported_not_raised(self, command, tmp_path, capsys):
        path = tmp_path / "binary.vhd"
        path.write_bytes(b"\xff\xfe not text")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCacheFlags:
    # A fully cached run reads its goals and nothing else: an analyze the
    # rendered graph member and the inventory, a check the analysis.
    WARM_STAGES = ["graph_json", "inventory"]
    CHECK_WARM_STAGES = ["flow_graph", "inventory"]

    def _analyze_json(self, argv, capsys):
        code = main(["analyze", *argv, "--json"])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_cache_dir_persists_across_invocations(self, design_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cold = self._analyze_json([design_file, "--cache-dir", cache_dir], capsys)
        assert cold["cached_stages"] == []
        # every CLI invocation builds a fresh Pipeline and fresh cache tiers,
        # so this second call is a cold process served purely from disk
        warm = self._analyze_json([design_file, "--cache-dir", cache_dir], capsys)
        assert warm["cached_stages"] == self.WARM_STAGES
        cold.pop("timings"), warm.pop("timings")
        cold.pop("cached_stages"), warm.pop("cached_stages")
        assert warm == cold

    def test_no_cache_bypasses_both_tiers(self, design_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._analyze_json([design_file, "--cache-dir", cache_dir], capsys)
        bypassed = self._analyze_json(
            [design_file, "--cache-dir", cache_dir, "--no-cache"], capsys
        )
        assert bypassed["cached_stages"] == []

    def test_check_shares_the_disk_cache_with_analyze(
        self, design_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        self._analyze_json([design_file, "--cache-dir", cache_dir], capsys)
        assert (
            main(
                ["check", design_file, "--secret", "key", "--output", "leak",
                 "--json", "--cache-dir", cache_dir]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["cached_stages"] == self.CHECK_WARM_STAGES

    def test_batch_cache_dir_serves_a_cold_rerun_from_disk(
        self, workload_files, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        files = workload_files[:3]
        assert main(["batch", *files, "--sequential", "--json",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["batch", *files, "--sequential", "--json",
                     "--cache-dir", cache_dir]) == 0
        document = json.loads(capsys.readouterr().out)
        for job in document["jobs"]:
            assert job["cached_stages"] == self.WARM_STAGES


class TestCacheCommand:
    def test_stats_and_clear_round_trip(self, design_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["analyze", design_file, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["command"] == "cache-stats"
        # Seven stage entries, one parse entry and one outline per design
        # unit (the entity and its architecture), and the reach record.
        assert stats["entries"] == 12
        assert stats["stages"]["parse"] == 2

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        text = capsys.readouterr().out
        assert "entries: 12" in text

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 12 entries" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_stats_on_an_empty_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "never-used")
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0


class TestParallelBatchNoCache:
    def test_no_cache_reaches_the_pool_workers(self, design_file, capsys):
        # the same file twice on one worker: without the fix the second job
        # was served from the worker's in-memory cache despite --no-cache
        assert main(["batch", design_file, design_file, "--jobs", "1",
                     "--json", "--no-cache"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [job["cached_stages"] for job in document["jobs"]] == [[], []]


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        from repro.version import version

        assert out.strip() == f"vhdl-ifa {version()}"


TWO_LEVEL_TOML = """\
default = "public"

[levels]
public = 0
secret = 1

[resources]
key = "secret"

[[allow]]
from = "public"
to = "secret"
"""


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "two_level.toml"
    path.write_text(TWO_LEVEL_TOML, encoding="utf-8")
    return str(path)


class TestPolicyFileFlag:
    def test_policy_file_matches_secret_flag(self, design_file, policy_file, capsys):
        # the acceptance property: a policy expressed only as TOML drives
        # check --policy to the same violations as the in-code policy
        assert main(["check", design_file, "--policy", policy_file, "--json"]) == 3
        declared = json.loads(capsys.readouterr().out)
        assert main(["check", design_file, "--secret", "key", "--json"]) == 3
        in_code = json.loads(capsys.readouterr().out)
        assert declared["violations"] == in_code["violations"]
        assert declared["clean"] is False
        # the policy member echoes the declarative document
        assert declared["policy"]["levels"] == {"public": 0, "secret": 1}
        assert in_code["policy"] == {"secrets": ["key"]}

    def test_policy_and_secret_are_mutually_exclusive(self, design_file, policy_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", design_file, "--policy", policy_file, "--secret", "key"])
        assert excinfo.value.code == 2

    def test_invalid_policy_file_exits_one_with_context(self, design_file, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('[levels]\npublic = "zero"\n', encoding="utf-8")
        assert main(["check", design_file, "--policy", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.toml" in err

    def test_missing_policy_file_exits_two(self, design_file, tmp_path, capsys):
        missing = str(tmp_path / "nope.toml")
        assert main(["check", design_file, "--policy", missing]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_lint_reads_its_policy_file_as_check_does(
        self, design_file, tmp_path, capsys
    ):
        # A missing file is unreadable input, not an unknown policy name.
        missing = str(tmp_path / "nope.toml")
        assert main(["lint", design_file, "--policy", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nope.toml" in err
        bad = tmp_path / "bad.toml"
        bad.write_text('[levels]\npublic = "zero"\n', encoding="utf-8")
        assert main(["lint", design_file, "--policy", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.toml" in err

    def test_batch_policy_reports_violations_and_exits_three(
        self, design_file, policy_file, capsys
    ):
        assert main(["batch", design_file, "--sequential", "--policy",
                     policy_file, "--json"]) == 3
        document = json.loads(capsys.readouterr().out)
        assert document["policy"]["levels"] == {"public": 0, "secret": 1}
        [job] = document["jobs"]
        assert job["ok"] is True and job["clean"] is False
        assert job["violations"][0]["code"] == "IFA001"


class TestExitCodeContract:
    def test_batch_analysis_failure_exits_one(self, design_file, tmp_path, capsys):
        broken = tmp_path / "broken.vhd"
        broken.write_text("entity broken is", encoding="utf-8")
        assert main(["batch", design_file, str(broken), "--sequential"]) == 1
        assert "1 failed" in capsys.readouterr().err

    def test_batch_input_failure_beats_analysis_failure(
        self, design_file, tmp_path, capsys
    ):
        broken = tmp_path / "broken.vhd"
        broken.write_text("entity broken is", encoding="utf-8")
        missing = str(tmp_path / "missing.vhd")
        assert main(["batch", design_file, str(broken), missing,
                     "--sequential", "--json"]) == 2
        document = json.loads(capsys.readouterr().out)
        kinds = [job.get("error_kind") for job in document["jobs"]]
        assert kinds == [None, "analysis", "input"]


class TestSchemaStamp:
    def test_cli_json_documents_carry_the_schema(self, design_file, tmp_path, capsys):
        assert main(["analyze", design_file, "--json"]) == 0
        analyze_doc = json.loads(capsys.readouterr().out)
        assert main(["check", design_file, "--secret", "key", "--json"]) == 3
        check_doc = json.loads(capsys.readouterr().out)
        assert main(["batch", design_file, "--sequential", "--json"]) == 0
        batch_doc = json.loads(capsys.readouterr().out)
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        cache_doc = json.loads(capsys.readouterr().out)
        for document in (analyze_doc, check_doc, batch_doc, cache_doc):
            assert list(document)[0] == "schema"
            assert document["schema"] == "vhdl-ifa/v1"


class TestCheckModeFlags:
    def test_direct_overrides_a_transitive_policy_file(
        self, design_file, tmp_path, capsys
    ):
        transitive = tmp_path / "t.toml"
        transitive.write_text(
            'mode = "transitive"\n' + TWO_LEVEL_TOML, encoding="utf-8"
        )
        assert main(["check", design_file, "--policy", str(transitive), "--json"]) == 3
        via_mode = json.loads(capsys.readouterr().out)
        assert main(["check", design_file, "--policy", str(transitive),
                     "--direct", "--json"]) == 3
        via_direct = json.loads(capsys.readouterr().out)
        # the transitive check reports strictly more violating pairs
        assert len(via_mode["violations"]) > len(via_direct["violations"])

    def test_transitive_and_direct_are_mutually_exclusive(self, design_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", design_file, "--secret", "key",
                  "--transitive", "--direct"])
        assert excinfo.value.code == 2

    def test_batch_policy_rejects_graph_flags(self, design_file, policy_file, capsys):
        assert main(["batch", design_file, "--sequential", "--policy",
                     policy_file, "--dot"]) == 2
        assert "--dot" in capsys.readouterr().err
