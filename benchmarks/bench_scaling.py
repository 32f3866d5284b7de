"""E5 — Conclusion: complexity of the implementation.

The paper states the implementation "directly follows the structure of the
specifications" with a worst-case complexity of O(n^5), conjectured improvable
to cubic because the analysis decomposes into "three bit-vector frameworks
(each being linear time in practice) and a cubic time reachability analysis".

These benchmarks time (i) the bit-vector Reaching Definitions phases and
(ii) the closure phase separately on a synthetic program family of growing
size, so the report exposes the near-linear growth of the former and the
super-linear growth of the latter.  Since the interned-bitset engine landed
(``dataflow.worklist.solve`` on int bitsets, SCC-condensed column propagation
in ``analysis.closure.propagate``) the family extends to the 8×64 and 16×64
chains; ``benchmarks/run_benchmarks.py`` snapshots the timings into
``BENCH_scaling.json`` at the repo root so future changes have a perf
trajectory to compare against.

The cold-path phases (``test_cold_*``) and the batch/serve groups below
price first contact and deployment modes rather than asymptotics;
docs/performance.md walks through what each one demonstrates.
"""

import itertools

import pytest

from repro.analysis.closure import global_resource_matrix
from repro.analysis.flowgraph import FlowGraph
from repro.analysis.improved import improved_global_resource_matrix
from repro.analysis.local_deps import local_resource_matrix
from repro.analysis.reaching_active import analyze_all_active_signals
from repro.analysis.reaching_defs import analyze_reaching_definitions
from repro.analysis.specialize import specialize
from repro.cfg.builder import build_cfg
from repro.pipeline import (
    AnalysisOptions,
    AnalysisServer,
    ArtifactCache,
    DiskArtifactCache,
    Pipeline,
    ServerThread,
    TieredArtifactCache,
    expand_jobs,
    run_batch,
    source_digest,
    stage_key,
)
from repro.hier import build_hierarchy, flatten_source, summary_cache_key
from repro.pipeline.stages import ANALYSIS_STAGES, LINKED_STAGES, PARSE, REPORT
from repro.security.policy import TwoLevelPolicy
from repro.vhdl.elaborate import elaborate, elaborate_source
from repro.vhdl.parser import parse_program
from repro.workspace import Workspace
from repro.workloads import (
    hierarchical_register_file,
    multi_entity_program,
    synthetic_chain_program,
)

#: (processes, assignments per process) — program size grows left to right.
#: The 8×64 chain is the headline workload of the bitset-engine optimisation;
#: 16×64 is ~4× its flow-graph size and was out of reach for the frozenset
#: implementation.
SIZES = [(2, 4), (2, 16), (4, 16), (4, 32), (8, 32), (8, 64), (16, 64)]


def _design(processes, assignments):
    return elaborate_source(synthetic_chain_program(processes, assignments))


@pytest.mark.parametrize("processes,assignments", SIZES)
def test_full_analysis_scaling(benchmark, report, processes, assignments):
    """End-to-end analysis time as the program grows.

    Every stage after ``elaborate``, improved analysis: cfg → active →
    reaching → local → specialize → closure → flow graph.
    """
    design = _design(processes, assignments)

    def run():
        program_cfg = build_cfg(design)
        active = analyze_all_active_signals(program_cfg.processes)
        reaching = analyze_reaching_definitions(program_cfg, active)
        rm_local = local_resource_matrix(program_cfg)
        specialized = specialize(program_cfg, rm_local, active, reaching)
        rm_global = improved_global_resource_matrix(
            program_cfg, rm_local, specialized, design
        ).rm_global
        return program_cfg, rm_global, FlowGraph.from_resource_matrix(rm_global)

    program_cfg, rm_global, graph = benchmark(run)
    stats = program_cfg.summary()
    report(
        processes=processes,
        assignments_per_process=assignments,
        blocks=stats["labels"],
        flow_edges=stats["flow_edges"],
        global_entries=len(rm_global),
        graph_edges=graph.edge_count(),
    )


@pytest.mark.parametrize("processes,assignments", SIZES)
def test_bitvector_phases_scaling(benchmark, report, processes, assignments):
    """The Reaching Definitions phases (the paper's three bit-vector frameworks)."""
    design = _design(processes, assignments)
    program_cfg = build_cfg(design)

    def run():
        active = analyze_all_active_signals(program_cfg.processes)
        return analyze_reaching_definitions(program_cfg, active)

    benchmark(run)
    report(
        processes=processes,
        assignments_per_process=assignments,
        blocks=len(program_cfg.blocks),
    )


@pytest.mark.parametrize("processes,assignments", SIZES)
def test_closure_phase_scaling(benchmark, report, processes, assignments):
    """The closure phase alone (the paper's cubic reachability component)."""
    design = _design(processes, assignments)
    program_cfg = build_cfg(design)
    active = analyze_all_active_signals(program_cfg.processes)
    reaching = analyze_reaching_definitions(program_cfg, active)
    rm_local = local_resource_matrix(program_cfg)
    specialized = specialize(program_cfg, rm_local, active, reaching)

    def run():
        return global_resource_matrix(program_cfg, rm_local, specialized)

    result = benchmark(run)
    report(
        processes=processes,
        assignments_per_process=assignments,
        local_entries=len(rm_local),
        global_entries=len(result.rm_global),
    )


# ------------------------------------------------------------------- cold path
#
# The cold-path phases price first contact: what a fresh process pays before
# any cache tier can help.  The front end is measured split (tokenise+parse
# vs elaborate) on the 32×128 chain — the scale the fast-path rewrite was
# profiled at — followed by the closure and flow-graph construction on the
# same chain, the two phases whose int-bitset sweeps dominate past the front
# end.

#: The cold-path chain shape (processes, assignments per process).
COLD_SHAPE = (32, 128)


@pytest.fixture(scope="module")
def cold_source():
    return synthetic_chain_program(*COLD_SHAPE)


def test_cold_parse(benchmark, report, cold_source):
    """Cold single-file front end, parse half: tokenise + parse only."""
    program = benchmark(lambda: parse_program(cold_source))
    report(
        shape=COLD_SHAPE,
        source_bytes=len(cold_source),
        architectures=len(program.architectures),
    )


def test_cold_elaborate(benchmark, report, cold_source):
    """Cold single-file front end, elaborate half (parse done once outside)."""
    program = parse_program(cold_source)
    design = benchmark(lambda: elaborate(program, None))
    report(shape=COLD_SHAPE, processes=len(design.processes))


@pytest.fixture(scope="module")
def cold_closure_inputs(cold_source):
    design = elaborate_source(cold_source)
    program_cfg = build_cfg(design)
    active = analyze_all_active_signals(program_cfg.processes)
    reaching = analyze_reaching_definitions(program_cfg, active)
    rm_local = local_resource_matrix(program_cfg)
    specialized = specialize(program_cfg, rm_local, active, reaching)
    return program_cfg, rm_local, specialized


def test_cold_closure(benchmark, report, cold_closure_inputs):
    """The 32×128 closure phase (Table 8 over int bitsets)."""
    program_cfg, rm_local, specialized = cold_closure_inputs
    result = benchmark(
        lambda: global_resource_matrix(program_cfg, rm_local, specialized)
    )
    report(shape=COLD_SHAPE, global_entries=len(result.rm_global))


def test_cold_flow_graph(benchmark, report, cold_closure_inputs):
    """Building the 32×128 flow graph from the closed matrix."""
    program_cfg, rm_local, specialized = cold_closure_inputs
    closure = global_resource_matrix(program_cfg, rm_local, specialized)
    graph = benchmark(lambda: FlowGraph.from_resource_matrix(closure.rm_global))
    report(shape=COLD_SHAPE, graph_edges=graph.edge_count())


# ---------------------------------------------------------------- batch driver
#
# The batch-throughput phase: one source file holding BATCH_ENTITIES chain
# designs, expanded (as `vhdl-ifa batch --all-entities` does) into one
# analysis job per entity, and driven four ways — sequentially from cold,
# over the process pool, sequentially over a warm in-memory artifact cache,
# and cold-process over a populated on-disk cache dir.  The recorded
# trajectory shows what the deployment modes buy: pool speed-up scales with
# the machine's cores (on a single-core runner the pool only adds overhead),
# the warm-cache run skips every stage regardless, and the disk-warm run
# shows what a *fresh* invocation pays when `--cache-dir` already holds the
# artifacts (unpickling instead of re-analysis).  `test_disk_cold_write`
# prices the other direction on one entity: a cold run that opens a store
# already holding thousands of entries and writes every stage into it.

#: Entities per batch file × the per-entity chain shape.
BATCH_ENTITIES = 8
BATCH_SHAPE = (8, 32)


@pytest.fixture(scope="module")
def batch_jobs(tmp_path_factory):
    """One multi-entity workload file, expanded into per-entity jobs."""
    path = tmp_path_factory.mktemp("batch") / "designs.vhd"
    path.write_text(
        multi_entity_program(BATCH_ENTITIES, *BATCH_SHAPE), encoding="utf-8"
    )
    return expand_jobs([str(path)], Workspace(cache=None), all_entities=True)


def _assert_batch_ok(report):
    assert report.ok, [item.error for item in report.failures]
    return report


def test_batch_throughput_sequential(benchmark, report, batch_jobs):
    """Cold in-process batch: the baseline every other mode is measured against.

    This is the acceptance-criterion phase of the cold-path overhaul: each
    round runs on a fresh default workspace, whose in-memory cache lets the
    eight entity jobs share one option-independent parse artifact, so only
    the per-entity stages run eight times.
    """
    result = benchmark(
        lambda: _assert_batch_ok(
            run_batch(batch_jobs, Workspace(), AnalysisOptions(), parallel=False)
        )
    )
    report(jobs=len(batch_jobs), entities=BATCH_ENTITIES)


def test_batch_throughput_parallel(benchmark, report, batch_jobs):
    """The process-pool path (worker count = usable CPUs, pool startup included)."""
    result = benchmark(
        lambda: _assert_batch_ok(
            run_batch(batch_jobs, Workspace(), AnalysisOptions(), parallel=True)
        )
    )
    report(jobs=len(batch_jobs), entities=BATCH_ENTITIES, workers=result.workers)


#: What a fully cached flat run reads: every analysis stage but the parse.
WARM_STAGES = [stage.name for stage in ANALYSIS_STAGES[1:-1]]


def test_batch_throughput_warm_cache(benchmark, report, batch_jobs):
    """Re-running a batch over a warm artifact cache: every stage served cached."""
    cache = ArtifactCache()
    workspace = Workspace(cache=cache)
    cold = _assert_batch_ok(
        run_batch(batch_jobs, workspace, AnalysisOptions(), parallel=False)
    )

    def run():
        warm = _assert_batch_ok(
            run_batch(batch_jobs, workspace, AnalysisOptions(), parallel=False)
        )
        assert [item.text for item in warm.items] == [item.text for item in cold.items]
        return warm

    warm = benchmark(run)
    cached = set(warm.items[0].data["cached_stages"])
    assert warm.items[0].data["cached_stages"] == WARM_STAGES
    report(
        jobs=len(batch_jobs),
        entities=BATCH_ENTITIES,
        cached_stages_per_job=sorted(cached),
        cache_entries=len(cache),
    )


def test_batch_lint_warm_cache(benchmark, report, batch_jobs):
    """Linting the batch workload over a warm cache.

    The lint stage is content-addressed like every other pipeline stage, so
    a warm re-run serves the full-catalog findings from the cache; this
    prices the per-job overhead the ``--lint`` flag adds to an
    already-cached batch (configuration filtering + section rendering).
    """
    from repro.analysis.lint import LintConfig

    workspace = Workspace(cache=ArtifactCache())
    lint = LintConfig()
    cold = _assert_batch_ok(
        run_batch(batch_jobs, workspace, AnalysisOptions(), parallel=False, lint=lint)
    )

    def run():
        warm = _assert_batch_ok(
            run_batch(
                batch_jobs, workspace, AnalysisOptions(), parallel=False, lint=lint
            )
        )
        assert [item.text for item in warm.items] == [item.text for item in cold.items]
        return warm

    warm = benchmark(run)
    cached = set(warm.items[0].data["cached_stages"])
    assert "lint" in cached
    findings_total = sum(
        item.data["lint"]["summary"]["findings"] for item in warm.items
    )
    report(
        jobs=len(batch_jobs),
        entities=BATCH_ENTITIES,
        findings_total=findings_total,
        cached_stages_per_job=sorted(cached),
    )


def test_batch_throughput_disk_warm(benchmark, report, batch_jobs, tmp_path_factory):
    """A cold process over a populated ``--cache-dir``: disk-served stages.

    Every round builds brand-new cache tiers (empty memory tier, fresh
    universe registry) over the same populated directory, so each measured
    run pays exactly what a fresh CLI invocation with ``--cache-dir`` pays:
    open the store, unpickle the artifacts, adopt the universes.
    """
    cache_dir = str(tmp_path_factory.mktemp("disk-cache") / "store")
    populate = Workspace(
        cache=TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
    )
    cold = _assert_batch_ok(
        run_batch(batch_jobs, populate, AnalysisOptions(), parallel=False)
    )

    def run():
        tier = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(cache_dir))
        warm = _assert_batch_ok(
            run_batch(
                batch_jobs, Workspace(cache=tier), AnalysisOptions(), parallel=False
            )
        )
        assert [item.text for item in warm.items] == [item.text for item in cold.items]
        return warm

    warm = benchmark(run)
    cached = set(warm.items[0].data["cached_stages"])
    assert warm.items[0].data["cached_stages"] == WARM_STAGES
    report(
        jobs=len(batch_jobs),
        entities=BATCH_ENTITIES,
        cached_stages_per_job=sorted(cached),
        disk_entries=len(DiskArtifactCache(cache_dir)),
    )


#: Small entries pre-filled into the store ``test_disk_cold_write`` opens.
COLD_WRITE_FILL = 2000


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A disk store already holding ``COLD_WRITE_FILL`` small entries."""
    root = str(tmp_path_factory.mktemp("disk-write") / "store")
    disk = DiskArtifactCache(root)
    for index in range(COLD_WRITE_FILL):
        disk.put(f"parse:fill{index}", f"entry {index}")
    return root


def test_disk_cold_write(benchmark, report, filled_store):
    """A cold run writing through a store that already holds 2,000 entries.

    Each round opens a fresh ``DiskArtifactCache`` over the filled store and
    analyses an 8×32 chain it has never seen (a new comment nonce changes the
    source digest), so every stage misses and is written: the open, the
    first put's scan and the writes a cold ``--cache-dir`` run pays, on top
    of the analysis itself.
    """
    source = synthetic_chain_program(*BATCH_SHAPE)
    nonces = itertools.count()

    def run():
        tier = TieredArtifactCache(ArtifactCache(), DiskArtifactCache(filled_store))
        return Pipeline(tier).run(f"-- nonce {next(nonces)}\n{source}")

    result = benchmark(run)
    assert not result.cached_stages
    report(
        shape=BATCH_SHAPE,
        store_entries=COLD_WRITE_FILL,
        stages_written=len(result.computed_stages),
    )


# ------------------------------------------------------------------- hierarchy
#
# The hierarchical-design phases drive the linked plan (docs/hierarchy.md)
# through ``Pipeline`` on a 2000-instance register file, with the parse
# already cached so they time hierarchy → summary → place → the
# cross-process stages: a cold run (summaries built from scratch), an
# incremental re-run after a leaf-entity edit (exactly one summary
# recomputed, the rest served from cache), the linked-vs-flattened ratio —
# the flattening oracle analyses every instance's processes again — and the
# check/lint-vs-analyze gate.

#: (cells, per-cell process depth) of the hierarchy workload.
HIER_SHAPE = (2000, 8)

#: The minimum linked-vs-flattened speed-up the ratio phase asserts.  Both
#: plans share the indexed ProgramCFG and the per-process Table 5 solve, so
#: what separates them is the per-instance front end and Table 4/6 work the
#: linked plan shares across instances (measured 3.4-4.4× on a 2-vCPU Xeon:
#: 2.9-3.4 s vs 11.5-12.6 s; before the shared index and per-process solve
#: the flat oracle's quadratic lookups made it 12×).
HIER_MIN_RATIO = 2.5

#: The most a check or a lint of the hierarchy may cost, relative to analyze.
HIER_COMMAND_MAX_RATIO = 1.2


@pytest.fixture(scope="module")
def hier_source():
    return hierarchical_register_file(*HIER_SHAPE)


@pytest.fixture(scope="module")
def hier_program(hier_source):
    return parse_program(hier_source)


def _parsed_pipeline(source, program, *entries):
    """A pipeline whose cache holds ``program`` as the parse of ``source``."""
    cache = ArtifactCache()
    cache.put(stage_key(PARSE, source_digest(source), AnalysisOptions()), program)
    for key, value in entries:
        cache.put(key, value)
    return Pipeline(cache)


def test_hier_link_cold(benchmark, report, hier_source, hier_program):
    """Cold linked plan: summarise every entity, place, cross-process stages."""
    result = benchmark(
        lambda: _parsed_pipeline(hier_source, hier_program).run(hier_source)
    )
    stats = result.result.program_cfg.summary()
    report(
        shape=HIER_SHAPE,
        processes=stats["processes"],
        labels=stats["labels"],
        graph_edges=result.result.graph.edge_count(),
    )


def test_hier_link_incremental(benchmark, report, hier_source, hier_program):
    """Re-run after editing the leaf entity: one summary recomputed.

    Every round starts from a cache holding only the parse and the
    *unchanged* entity's summary (what a real cache holds after the edit
    invalidated the leaf), so the measured work is exactly the incremental
    cost: re-summarise one entity, re-run the stages from ``place`` on.
    """
    edited = hier_source.replace("state <= nxt;", "state <= (nxt xor clr);", 1)
    assert edited != hier_source
    edited_program = parse_program(edited)
    hierarchy = build_hierarchy(edited_program)
    leaf_key = summary_cache_key(hierarchy.unit_of("reg_cell"))
    root_key = summary_cache_key(hierarchy.root_unit)

    warm = _parsed_pipeline(hier_source, hier_program)
    warm.run(hier_source)
    root_summary = warm.cache.get(root_key)
    assert root_summary is not None  # the root's slice is unaffected
    assert warm.cache.get(leaf_key) is None  # the edit invalidated the leaf

    def run():
        pipeline = _parsed_pipeline(edited, edited_program, (root_key, root_summary))
        result = pipeline.run(edited)
        assert leaf_key in pipeline.cache  # exactly the leaf summary was recomputed
        return result

    result = benchmark(run)
    report(
        shape=HIER_SHAPE,
        entities_resummarised=1,
        processes=result.result.program_cfg.summary()["processes"],
    )


def test_hier_linked_vs_flattened(benchmark, report, hier_source, hier_program):
    """The linked plan vs the flattening oracle, same design, same options.

    The linked plan is the benchmarked statistic and runs *first* (the
    oracle's large flat artifacts would otherwise sit in memory, inflating
    the linked rounds); the flattened analysis then runs once and the ratio
    compares the best linked round against it.  Asserts the linked plan is
    at least ``HIER_MIN_RATIO`` times faster on this 2000-instance design.
    """
    import time as time_module

    options = AnalysisOptions()
    link_times = []

    def run():
        pipeline = _parsed_pipeline(hier_source, hier_program)
        started = time_module.perf_counter()
        result = pipeline.run(hier_source, options)
        link_times.append(time_module.perf_counter() - started)
        return result

    linked = benchmark(run)
    link_adjacency = linked.result.graph.to_adjacency()
    link_seconds = min(link_times)
    del linked

    started = time_module.perf_counter()
    flattened = Pipeline().run(flatten_source(hier_program), options)
    flatten_seconds = time_module.perf_counter() - started
    assert flattened.result.graph.to_adjacency() == link_adjacency
    del flattened

    ratio = flatten_seconds / link_seconds
    assert ratio >= HIER_MIN_RATIO, (
        f"linked route only {ratio:.1f}x faster than flattening "
        f"({link_seconds:.2f}s vs {flatten_seconds:.2f}s)"
    )
    report(
        shape=HIER_SHAPE,
        flatten_seconds=round(flatten_seconds, 3),
        link_seconds=round(link_seconds, 3),
        ratio=round(ratio, 2),
        min_ratio=HIER_MIN_RATIO,
    )


def test_hier_check_lint_vs_analyze(benchmark, report, hier_source, hier_program):
    """check and lint of the hierarchy each within HIER_COMMAND_MAX_RATIO of
    analyze: analyze's linked plan plus the report or the lint stage.

    A check or lint run executes exactly analyze's stages and then its own
    (asserted), so each run carries its own analyze: the ratio is the run's
    time over the time of the stages it shares with analyze.  Timing
    separate analyze runs instead compares runs seconds apart, and on a
    shared 2-vCPU host one stage swings by up to 30 % between such runs,
    more than the budget.  Each run starts from a collected heap with the
    collector paused, so a full collection (~0.2 s on this heap) cannot
    land in one stage and not another; the median of the rounds is
    compared.
    """
    import gc
    import statistics

    analyze_plan = [stage.name for stage in LINKED_STAGES if stage is not REPORT]
    policy = TwoLevelPolicy(secret_resources=["din"])
    commands = (
        ("check", "report", lambda pipeline: pipeline.run(hier_source, policy=policy)),
        ("lint", "lint", lambda pipeline: pipeline.run_lint(hier_source)),
    )
    ratios = {name: [] for name, _, _ in commands}
    seconds = {name: [] for name, _, _ in commands}

    def run_all():
        for name, last_stage, command in commands:
            pipeline = _parsed_pipeline(hier_source, hier_program)
            gc.collect()
            gc.disable()
            try:
                run = command(pipeline)
            finally:
                gc.enable()
            assert [stage.name for stage in run.stages] == analyze_plan + [last_stage]
            total = sum(stage.seconds for stage in run.stages)
            ratios[name].append(total / (total - run.stages[-1].seconds))
            seconds[name].append(total)

    benchmark.pedantic(run_all, rounds=5, iterations=1)
    medians = {name: statistics.median(values) for name, values in ratios.items()}
    for name, ratio in medians.items():
        assert ratio <= HIER_COMMAND_MAX_RATIO, (
            f"{name} took {ratio:.2f}x the analyze stages it ran "
            f"(per-round ratios {[round(value, 3) for value in ratios[name]]})"
        )
    report(
        shape=HIER_SHAPE,
        seconds={name: round(min(values), 3) for name, values in seconds.items()},
        ratios={name: round(value, 3) for name, value in medians.items()},
        max_ratio=HIER_COMMAND_MAX_RATIO,
    )


# ------------------------------------------------------------------ serve mode
#
# The serve-mode latency phase: one long-lived AnalysisServer over a warm
# two-tier cache, hit with SERVE_REQUESTS sequential `POST /analyze` requests
# for one entity of the batch workload file.  This prices the full service
# round trip — HTTP parse, cache-served pipeline run, JSON render — i.e. the
# per-request floor of CI-style repeated traffic.

SERVE_REQUESTS = 16


def _post_analyze(port, path, entity):
    import http.client
    import json as json_module

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    connection.request(
        "POST", "/analyze", body=json_module.dumps({"file": path, "entity": entity})
    )
    response = connection.getresponse()
    body = response.read()
    assert response.status == 200, body
    return body


def test_serve_latency_warm(benchmark, report, tmp_path_factory):
    """N sequential requests against one warm server, per-request latency."""
    path = tmp_path_factory.mktemp("serve") / "designs.vhd"
    path.write_text(
        multi_entity_program(BATCH_ENTITIES, *BATCH_SHAPE), encoding="utf-8"
    )
    with ServerThread(
        AnalysisServer(port=0, cache=TieredArtifactCache(ArtifactCache()))
    ) as server:
        _post_analyze(server.port, str(path), "chain_0")  # warm the cache

        def run():
            for _ in range(SERVE_REQUESTS):
                _post_analyze(server.port, str(path), "chain_0")

        benchmark(run)
    report(
        requests_per_round=SERVE_REQUESTS,
        entity_shape=BATCH_SHAPE,
        cache="warm two-tier (in-memory front)",
    )


#: Concurrent clients hammering the pooled server, requests per client.
LOAD_CLIENTS = 4
LOAD_REQUESTS_PER_CLIENT = 4


def test_serve_concurrent_load(benchmark, report, tmp_path_factory):
    """K concurrent clients against the worker-pool server over a warm
    shared disk tier.

    Each client cycles through a *distinct* entity of the workload file —
    identical concurrent requests would be single-flighted into one
    analysis, which is the dedup phase's job to measure, not this one's.
    The recorded throughput and p95 price the full multi-tenant round trip:
    admission, pool dispatch, disk-tier cache hit in the worker, response.
    """
    import threading
    import time as time_module

    path = tmp_path_factory.mktemp("load") / "designs.vhd"
    path.write_text(
        multi_entity_program(BATCH_ENTITIES, *BATCH_SHAPE), encoding="utf-8"
    )
    cache_dir = str(tmp_path_factory.mktemp("load-cache") / "store")
    workspace = Workspace(cache_dir=cache_dir)
    latencies = []
    with ServerThread(
        AnalysisServer(
            port=0, workspace=workspace, workers=2, timeout=120.0, queue_depth=64
        )
    ) as server:
        for client in range(LOAD_CLIENTS):  # warm every entity once
            _post_analyze(server.port, str(path), f"chain_{client}")

        def client_loop(client):
            for _ in range(LOAD_REQUESTS_PER_CLIENT):
                started = time_module.perf_counter()
                _post_analyze(server.port, str(path), f"chain_{client}")
                latencies.append(time_module.perf_counter() - started)

        round_seconds = []

        def run():
            started = time_module.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(client,))
                for client in range(LOAD_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            round_seconds.append(time_module.perf_counter() - started)

        benchmark(run)
    latencies.sort()
    total = LOAD_CLIENTS * LOAD_REQUESTS_PER_CLIENT
    p95 = latencies[max(0, int(len(latencies) * 0.95) - 1)]
    report(
        clients=LOAD_CLIENTS,
        requests_per_client=LOAD_REQUESTS_PER_CLIENT,
        workers=2,
        entity_shape=BATCH_SHAPE,
        throughput_rps=round(total / min(round_seconds), 2),
        p95_ms=round(p95 * 1000, 3),
        cache="warm shared disk tier (per-worker memory front)",
    )
