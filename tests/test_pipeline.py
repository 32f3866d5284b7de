"""Tests for the staged pipeline, its artifact cache and the batch driver."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import analyze, analyze_kemmerer, workloads
from repro.contract.matchers import normalize
from repro.errors import AnalysisError
from repro.pipeline import (
    ANALYSIS_STAGES,
    KEMMERER_STAGES,
    LINKED_STAGES,
    LINT_STAGES,
    STAGE_NAMES,
    AnalysisOptions,
    ArtifactCache,
    BatchJob,
    Pipeline,
    expand_jobs,
    render_analysis_text,
    run_batch,
    run_job,
    source_digest,
    stage_key,
    volatile_pointers,
)
from repro.security.policy import TwoLevelPolicy
from repro.workspace import Workspace

ANALYSIS_STAGE_NAMES = [name for name in STAGE_NAMES if name != "report"]
# A fully cached run never reads the parse: no stage that misses needs it.
WARM_STAGE_NAMES = ANALYSIS_STAGE_NAMES[1:]


class TestPipelineStages:
    def test_full_run_traverses_every_stage_in_order(self):
        run = Pipeline().run(workloads.challenge_f_program())
        assert [stage.name for stage in run.stages] == ANALYSIS_STAGE_NAMES
        assert all(stage.seconds >= 0.0 for stage in run.stages)
        assert not run.cached_stages
        assert run.result is not None

    def test_matches_the_legacy_api(self):
        source = workloads.producer_consumer_program()
        via_pipeline = Pipeline().run(source).result
        via_api = analyze(source)
        assert via_pipeline.summary() == via_api.summary()
        assert (
            via_pipeline.graph.to_adjacency() == via_api.graph.to_adjacency()
        )

    def test_until_stops_after_the_named_stage(self):
        run = Pipeline().run(workloads.challenge_f_program(), until="cfg")
        assert [stage.name for stage in run.stages] == ["parse", "elaborate", "cfg"]
        assert run.result is None
        assert run.artifacts.program_cfg is not None
        assert run.artifacts.rm_local is None

    def test_unknown_stage_is_an_error(self):
        with pytest.raises(AnalysisError, match="unknown pipeline stage"):
            Pipeline().run(workloads.challenge_f_program(), until="nonsense")

    def test_policy_enables_the_report_stage(self):
        run = Pipeline().run(
            workloads.challenge_f_program(),
            policy=TwoLevelPolicy(secret_resources=["key"]),
            report_options={"outputs": ["leak"]},
        )
        assert [stage.name for stage in run.stages] == list(STAGE_NAMES)
        assert run.report is not None and run.report.is_clean

    def test_kemmerer_run_matches_the_legacy_api(self):
        source = workloads.overwriting_loop_program()
        via_pipeline = Pipeline().run_kemmerer(source).kemmerer
        via_api = analyze_kemmerer(source)
        assert via_pipeline.graph.to_adjacency() == via_api.graph.to_adjacency()

    def test_options_thread_through(self):
        source = workloads.paper_program_a()
        options = AnalysisOptions(improved=False, loop_processes=False)
        run = Pipeline().run(source, options)
        assert run.result.improved is False
        assert run.result.graph.to_adjacency() == analyze(
            source, improved=False, loop_processes=False
        ).graph.to_adjacency()


class TestArtifactCache:
    def test_second_run_hits_every_stage(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.producer_consumer_program()
        cold = pipeline.run(source)
        warm = pipeline.run(source)
        assert not cold.cached_stages
        assert warm.cached_stages == WARM_STAGE_NAMES
        assert cache.hits == len(WARM_STAGE_NAMES)
        assert render_analysis_text(warm.result) == render_analysis_text(cold.result)

    def test_differing_options_miss_only_the_dependent_stages(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.producer_consumer_program()
        pipeline.run(source)

        basic = pipeline.run(source, AnalysisOptions(improved=False))
        assert basic.cached_stages == [
            "elaborate", "cfg", "active", "reaching", "local", "specialize",
        ]
        assert basic.computed_stages == ["closure", "flow_graph"]

        straight = pipeline.run(source, AnalysisOptions(loop_processes=False))
        assert straight.cached_stages == ["elaborate"]

    def test_different_source_misses_everything(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        pipeline.run(workloads.producer_consumer_program())
        other = pipeline.run(workloads.challenge_f_program())
        assert not other.cached_stages

    def test_parse_artifact_shared_across_differing_option_runs(self):
        # The parse stage has no option_fields: its key is option- and
        # entity-independent, so two runs with entirely different options
        # share one cached parse artifact.  The second run analyses another
        # entity, so its elaborate misses and it needs the AST.
        from repro.pipeline.stages import PARSE, stage_key

        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.multi_entity_program(2, 2, 4)
        digest = source_digest(source)

        first = pipeline.run(
            source, AnalysisOptions(entity="chain_0", improved=False)
        )
        second = pipeline.run(
            source,
            AnalysisOptions(
                entity="chain_1",
                improved=True,
                loop_processes=False,
                use_under_approximation=False,
            ),
        )
        assert "parse" not in first.cached_stages
        assert second.cached_stages == ["parse"]

        # Both option contexts address the very same cache entry ...
        key_first = stage_key(PARSE, digest, AnalysisOptions(improved=False))
        key_second = stage_key(
            PARSE, digest, AnalysisOptions(loop_processes=False)
        )
        assert key_first == key_second == f"parse:{digest}"
        assert key_first in cache
        # ... and only one parse artifact was ever stored for the source.
        assert (
            stage_key(PARSE, digest, AnalysisOptions(entity="other")) in cache
        )
        assert [key for key in cache._entries if key.startswith("parse:")] == [
            key_first
        ]

    def test_cached_and_cold_runs_agree(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.two_phase_program()
        cold = pipeline.run(source)
        warm = pipeline.run(source)
        fresh = Pipeline().run(source)
        for run in (warm, fresh):
            assert run.result.graph.to_adjacency() == cold.result.graph.to_adjacency()
            assert run.result.summary() == cold.result.summary()

    def test_adopting_the_cached_universe_keeps_artifacts_consistent(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.producer_consumer_program()
        cold = pipeline.run(source)
        warm = pipeline.run(source)
        assert warm.result.universe is cold.result.universe
        assert warm.result.rm_local.universe is warm.result.universe

    def test_kemmerer_reuses_the_analysis_prefix(self):
        # Kemmerer closes the same RM_lo the analysis builds: after an
        # analysis run only the closure itself is left to compute.
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.challenge_f_program()
        analysis = pipeline.run(source)
        baseline = pipeline.run_kemmerer(source)
        # No stage misses that needs the AST, so the parse is never read.
        assert [stage.name for stage in baseline.stages] == [
            stage.name for stage in KEMMERER_STAGES[1:]
        ]
        assert baseline.cached_stages == ["elaborate", "cfg", "local"]
        assert baseline.kemmerer.rm_local is analysis.result.rm_local
        assert baseline.artifacts.universe is analysis.result.universe
        cold = Pipeline().run_kemmerer(source).kemmerer
        assert baseline.kemmerer.graph.to_adjacency() == cold.graph.to_adjacency()

    def test_linked_kemmerer_runs_are_cached(self):
        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.hierarchical_mux_program()
        cold = pipeline.run_kemmerer(source)
        warm = pipeline.run_kemmerer(source)
        assert not cold.cached_stages
        assert warm.cached_stages == ["place", "kemmerer"]
        assert warm.kemmerer.rm_local.universe is warm.artifacts.universe
        assert (
            warm.kemmerer.graph.to_adjacency() == cold.kemmerer.graph.to_adjacency()
        )
        # The analysis of the same design starts from the placed matrix.
        assert pipeline.run(source).cached_stages == ["place"]

    def test_partial_eviction_never_mixes_universes(self):
        # Evict one universe-bound entry ("local") while later ones
        # ("specialize", "closure", "flow_graph") survive: the re-run must
        # recompute the survivors rather than adopt their (now foreign)
        # universe, so every artifact of one run shares one universe.
        from repro.pipeline.stages import LOCAL

        cache = ArtifactCache()
        pipeline = Pipeline(cache)
        source = workloads.producer_consumer_program()
        pipeline.run(source)
        from repro.pipeline.stages import stage_key

        del cache._entries[stage_key(LOCAL, source_digest(source), AnalysisOptions())]
        rerun = pipeline.run(source)
        assert "local" in rerun.computed_stages
        assert {"specialize", "closure", "flow_graph"} <= set(rerun.computed_stages)
        assert rerun.result.rm_local.universe is rerun.result.universe
        assert rerun.result.rm_global.universe is rerun.result.universe

    def test_eviction_keeps_the_cache_bounded(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("a") is None  # oldest entry evicted
        assert cache.get("c") == 3

    def test_source_digest_is_content_addressed(self):
        assert source_digest("abc") == source_digest("abc")
        assert source_digest("abc") != source_digest("abd")


class TestApiWrapperIsolation:
    def test_independent_analyze_calls_get_independent_universes(self):
        source = workloads.producer_consumer_program()
        first = analyze(source)
        second = analyze(source)
        assert first.universe is not second.universe
        assert first.graph.to_adjacency() == second.graph.to_adjacency()


def _planned_stages():
    stages = {}
    for plan in (ANALYSIS_STAGES, LINKED_STAGES, LINT_STAGES, KEMMERER_STAGES):
        for stage in plan:
            stages.setdefault(stage.name, stage)
    return [pytest.param(stage, id=name) for name, stage in stages.items()]


class TestStageKeyGrammar:
    """Keys read ``<stage>:<sha256>:<field>=<value>…`` (docs/cache.md)."""

    @pytest.mark.parametrize("stage", _planned_stages())
    def test_key_is_name_digest_and_exactly_the_option_fields(self, stage):
        options = AnalysisOptions(
            entity="top",
            improved=False,
            loop_processes=False,
            use_under_approximation=False,
        )
        digest = source_digest("entity top is end;")
        name, key_digest, *parts = stage_key(stage, digest, options).split(":")
        assert (name, key_digest) == (stage.name, digest)
        pairs = [part.split("=", 1) for part in parts]
        assert [field for field, _ in pairs] == list(stage.option_fields)
        for field, value in pairs:
            assert value == repr(getattr(options, field))


class TestWorkspaceCheck:
    def test_reports_through_the_pipeline(self):
        report = Workspace(cache=ArtifactCache()).check(
            workloads.challenge_f_program(),
            TwoLevelPolicy(secret_resources=["key"]),
            outputs=["leak"],
        ).report
        assert report.is_clean
        document = report.to_json_dict()
        assert document["clean"] is True
        assert document["output_dependencies"]["leak"] == ["plain"]

    def test_shares_a_cache_across_checks(self):
        cache = ArtifactCache()
        workspace = Workspace(cache=cache)
        source = workloads.challenge_f_program()
        policy = TwoLevelPolicy(secret_resources=["key"])
        workspace.check(source, policy, outputs=["leak"])
        misses_after_first = cache.misses
        workspace.check(source, policy, outputs=["leak"])
        assert cache.hits == len(WARM_STAGE_NAMES)
        assert cache.misses == misses_after_first


@pytest.fixture
def workload_files(tmp_path):
    paths = []
    for name, source in workloads.batch_workload_sources():
        path = tmp_path / f"{name}.vhd"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    return paths


#: A declarative policy for the batch job kinds that check one.
BATCH_POLICY = {
    "levels": {"public": 0, "secret": 1},
    "resources": {"key": "secret"},
    "allow": [{"from": "public", "to": "secret"}],
}

#: The four job kinds: ``Workspace.batch`` keywords per kind.
JOB_KINDS = {
    "analyze": {},
    "policy": {"policy": BATCH_POLICY},
    "lint": {"lint": True},
    "policy+lint": {"policy": BATCH_POLICY, "lint": True},
}


def _cache_workspace(configuration, cache_dir):
    if configuration == "memory":
        return Workspace()
    if configuration == "cache_dir":
        return Workspace(cache_dir=str(cache_dir))
    return Workspace(cache=None)


class TestBatchDriver:
    @pytest.mark.parametrize("configuration", ["memory", "cache_dir", "no_cache"])
    @pytest.mark.parametrize("kind", sorted(JOB_KINDS))
    def test_sequential_and_parallel_agree(
        self, workload_files, tmp_path, kind, configuration
    ):
        # The roster, a hierarchical file, and a multi-entity file expanded
        # with all_entities; each mode runs on a fresh workspace of the
        # configuration, so both start cold.
        assert len(workload_files) >= 8
        hierarchical = tmp_path / "regfile.vhd"
        hierarchical.write_text(
            workloads.hierarchical_register_file(cells=3, depth=4), encoding="utf-8"
        )
        multi = tmp_path / "multi.vhd"
        multi.write_text(workloads.multi_entity_program(3, 2, 4), encoding="utf-8")
        jobs = [BatchJob(path=path) for path in [*workload_files, str(hierarchical)]]

        def batch(mode, parallel):
            workspace = _cache_workspace(configuration, tmp_path / mode)
            return workspace.batch(
                [*jobs, str(multi)],
                all_entities=True,
                parallel=parallel,
                max_workers=2,
                **JOB_KINDS[kind],
            )

        sequential = batch("sequential", False)
        parallel = batch("parallel", True)
        assert sequential.ok and parallel.ok
        assert len(sequential.items) == len(jobs) + 3
        assert [item.job for item in parallel.items] == [
            item.job for item in sequential.items
        ]
        assert [item.text for item in parallel.items] == [
            item.text for item in sequential.items
        ]
        masks = volatile_pointers("batch")
        documents = []
        for report in (sequential, parallel):
            document = report.to_json_dict()
            del document["parallel"], document["workers"]
            documents.append(normalize(document, masks))
        assert documents[0] == documents[1]

    def test_cold_parallel_all_entities_batch_reads_the_expanded_parse(
        self, tmp_path
    ):
        # Expansion parses the file into the shared cache dir, and every
        # worker reads that entry: no job computes the parse.
        path = tmp_path / "multi.vhd"
        path.write_text(workloads.multi_entity_program(4, 2, 4), encoding="utf-8")
        workspace = Workspace(cache_dir=str(tmp_path / "cache"))
        report = workspace.batch(
            [str(path)], all_entities=True, parallel=True, max_workers=2
        )
        assert report.ok and len(report.items) == 4
        for item in report.items:
            assert item.data["cached_stages"] == ["parse"]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls here"
    )
    def test_default_workers_counts_the_cpus_this_process_may_use(self):
        # A process pinned to one CPU gets one worker, however many CPUs
        # the machine has.
        code = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro.pipeline.batch import default_workers\n"
            "print(default_workers())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        pinned = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        assert pinned.returncode == 0, pinned.stderr
        assert pinned.stdout.strip() == "1"

    def test_batch_output_matches_single_runs(self, workload_files):
        workspace = Workspace()
        jobs = expand_jobs(workload_files, workspace)
        batch = run_batch(jobs, workspace, parallel=False)
        for item in batch.items:
            source = open(item.job.path, encoding="utf-8").read()
            single = Pipeline().run(source).result
            assert item.text == render_analysis_text(single)

    def test_errors_become_item_outcomes(self, workload_files, tmp_path):
        broken = tmp_path / "broken.vhd"
        broken.write_text("entity broken is", encoding="utf-8")
        missing = str(tmp_path / "missing.vhd")
        workspace = Workspace()
        jobs = expand_jobs([workload_files[0], str(broken), missing], workspace)
        report = run_batch(jobs, workspace, parallel=False)
        assert [item.ok for item in report.items] == [True, False, False]
        assert not report.ok and len(report.failures) == 2
        assert all(item.error for item in report.failures)

    def test_all_entities_expansion(self, tmp_path):
        path = tmp_path / "multi.vhd"
        path.write_text(
            workloads.multi_entity_program(3, 2, 4), encoding="utf-8"
        )
        workspace = Workspace()
        jobs = expand_jobs([str(path)], workspace, all_entities=True)
        assert [job.entity for job in jobs] == ["chain_0", "chain_1", "chain_2"]
        report = run_batch(jobs, workspace, parallel=False)
        assert report.ok
        source = path.read_text(encoding="utf-8")
        for job, item in zip(jobs, report.items):
            single = Pipeline().run(
                source, AnalysisOptions(entity=job.entity)
            ).result
            assert item.text == render_analysis_text(single)
            assert item.data["design"] == job.entity

    def test_cold_sequential_batch_shares_one_parse(self, tmp_path):
        # A default workspace caches in memory, so the per-entity jobs of a
        # file reuse its parse artifact instead of re-tokenising the same
        # source per entity (expanded on a cache-less workspace here, so
        # the first job's parse is cold).
        path = tmp_path / "multi.vhd"
        path.write_text(
            workloads.multi_entity_program(3, 2, 4), encoding="utf-8"
        )
        jobs = expand_jobs([str(path)], Workspace(cache=None), all_entities=True)
        report = run_batch(jobs, Workspace(), parallel=False)
        assert report.ok
        first, *rest = report.items
        assert "parse" not in first.data["cached_stages"]
        for item in rest:
            assert "parse" in item.data["cached_stages"]

    def test_no_cache_sequential_batch_stays_cold(self, tmp_path):
        path = tmp_path / "multi.vhd"
        path.write_text(
            workloads.multi_entity_program(2, 2, 4), encoding="utf-8"
        )
        workspace = Workspace(cache=None)
        jobs = expand_jobs([str(path)], workspace, all_entities=True)
        report = run_batch(jobs, workspace, parallel=False)
        assert report.ok
        for item in report.items:
            assert item.data["cached_stages"] == []

    def test_warm_cache_rerun_skips_expensive_stages(self, workload_files):
        cache = ArtifactCache()
        workspace = Workspace(cache=cache)
        jobs = expand_jobs(workload_files, workspace)
        cold = run_batch(jobs, workspace, parallel=False)
        warm = run_batch(jobs, workspace, parallel=False)
        assert warm.ok
        assert [item.text for item in warm.items] == [
            item.text for item in cold.items
        ]
        for item in warm.items:
            assert item.data["cached_stages"] == WARM_STAGE_NAMES
        assert cache.hits == len(jobs) * len(WARM_STAGE_NAMES)
        cold_stage_seconds = sum(
            sum(item.data["timings"].values()) for item in cold.items
        )
        warm_stage_seconds = sum(
            sum(item.data["timings"].values()) for item in warm.items
        )
        assert warm_stage_seconds < cold_stage_seconds

    def test_run_job_reports_missing_files(self, tmp_path):
        item = run_job(
            BatchJob(path=str(tmp_path / "gone.vhd")), Workspace(), AnalysisOptions()
        )
        assert not item.ok and "gone.vhd" in item.error

    def test_non_utf8_files_become_item_outcomes(self, tmp_path):
        binary = tmp_path / "binary.vhd"
        binary.write_bytes(b"\xff\xfe not text")
        item = run_job(BatchJob(path=str(binary)), Workspace(), AnalysisOptions())
        assert not item.ok and item.error
        # ... in --all-entities expansion too, instead of crashing it
        jobs = expand_jobs([str(binary)], Workspace(), all_entities=True)
        assert jobs == [BatchJob(path=str(binary))]

    def test_expansion_seeds_the_parse_cache(self, tmp_path):
        path = tmp_path / "multi.vhd"
        path.write_text(workloads.multi_entity_program(3, 2, 4), encoding="utf-8")
        workspace = Workspace(cache=ArtifactCache())
        jobs = expand_jobs([str(path)], workspace, all_entities=True)
        report = run_batch(jobs, workspace, parallel=False)
        assert report.ok
        # every job reuses the parse from expansion: the file is parsed once
        assert all("parse" in item.data["cached_stages"] for item in report.items)

    def test_json_document_shape(self, workload_files):
        workspace = Workspace()
        report = run_batch(
            expand_jobs(workload_files[:2], workspace), workspace, parallel=False
        )
        document = report.to_json_dict()
        assert document["command"] == "batch"
        assert document["failed"] == 0
        assert [job["file"] for job in document["jobs"]] == workload_files[:2]
        assert all("timings" in job and "summary" in job for job in document["jobs"])
