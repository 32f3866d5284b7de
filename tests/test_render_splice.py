"""The rendered graph member: the ``graph_json`` stage and the splice.

An analyze document's ``graph`` member is the ``graph_json`` stage's
artefact, a :class:`~repro.pipeline.render.RenderedJSON`, and
:func:`~repro.pipeline.render.json_text` splices its text into the rest of
the document.  These tests hold the result byte-equal to ``json.dumps`` of
the plain document, and to the member built from the flow graph itself
(``to_adjacency``, as documents were built before the stage existed), at
the member's depth in analyze and batch documents, for every shaping flag
and every cache state a member can come from.
"""

import copy
import gc
import itertools
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Workspace, workloads
from repro.analysis.flowgraph import FlowGraph
from repro.pipeline import (
    AnalysisOptions,
    ArtifactCache,
    BatchJob,
    Pipeline,
    RenderedJSON,
    analyze_document,
    json_bytes,
    json_text,
    run_batch,
    select_graph,
)
from repro.pipeline.render import render_graph_json

FLAGS = list(itertools.product([False, True], repeat=2))
FLAG_IDS = [f"collapse={c}-self_loops={s}" for c, s in FLAGS]
#: Where the member comes from: computed without a cache, read back from
#: a warm memory tier, computed over an empty cache dir, read from disk.
CACHES = ["none", "memory", "disk-cold", "disk-warm"]

SOURCES = {
    "flat": workloads.producer_consumer_program,
    "linked": workloads.hierarchical_mux_program,
}


def _plain(value):
    """``value`` with every :class:`RenderedJSON` parsed into plain JSON."""
    if isinstance(value, RenderedJSON):
        return json.loads(value.text)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _dumps(value):
    return json.dumps(value, indent=2, ensure_ascii=False)


def _parent_document(run, document):
    """``document`` as it was built from the flow graph: the graph member is
    the shaped graph's ``to_adjacency`` and its counts."""
    options = run.options
    graph = select_graph(run.result, options.collapse, options.self_loops)
    parent = dict(document)
    parent["summary"] = {
        **document["summary"],
        "nodes": graph.node_count(),
        "edges": graph.edge_count(),
    }
    parent["graph"] = {
        "collapse": options.collapse,
        "self_loops": options.self_loops,
        "adjacency": graph.to_adjacency(),
    }
    return parent


def _workspace(cache, tmp_path):
    """A workspace for one cache state (the warm states are populated by
    the test, with a first run)."""
    if cache == "none":
        return Workspace(cache=None)
    if cache == "memory":
        return Workspace()
    cache_dir = str(tmp_path / "cache")
    return Workspace(cache_dir=cache_dir)


def _one_level_down(value):
    """The text ``json_text`` writes for ``value`` as a top-level member."""
    text = json_text({"m": value})
    head, tail = '{\n  "m": ', "\n}"
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head) : -len(tail)]


class TestAnalyzeDocuments:
    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("collapse,self_loops", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_the_splice_equals_the_plain_document(
        self, tmp_path, kind, collapse, self_loops, cache
    ):
        source = SOURCES[kind]()
        flags = {"collapse": collapse, "self_loops": self_loops}
        workspace = _workspace(cache, tmp_path)
        if cache == "memory":
            workspace.analyze_run(source, **flags)
        elif cache == "disk-warm":
            Workspace(cache_dir=workspace.cache_dir).analyze_run(source, **flags)
        run = workspace.analyze_run(source, **flags)
        warm = cache in ("memory", "disk-warm")
        assert run.cached_stages == (["graph_json", "inventory"] if warm else [])
        document = analyze_document(run, file="design.vhd")
        text = json_text(document)
        assert text == _dumps(_plain(document))
        assert text == _dumps(_parent_document(run, document))
        assert document["graph"]["collapse"] is collapse
        assert document["graph"]["self_loops"] is self_loops

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_a_member_another_process_wrote_splices_the_same(self, tmp_path, seed):
        design = tmp_path / "design.vhd"
        design.write_text(workloads.hierarchical_mux_program(), encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        src = str(Path(__file__).resolve().parent.parent / "src")
        written = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "analyze", str(design),
                "--json", "--collapse", "--cache-dir", cache_dir,
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert written.returncode == 0, written.stderr
        source = design.read_text(encoding="utf-8")
        run = Workspace(cache_dir=cache_dir).analyze_run(source, collapse=True)
        assert run.cached_stages == ["graph_json", "inventory"]
        spliced = json.loads(json_text(analyze_document(run, file=str(design))))
        cold = json.loads(written.stdout)
        for document in (spliced, cold):
            del document["timings"], document["cached_stages"]
        assert spliced == cold

    def test_a_warm_analyze_reads_the_member_and_the_inventory(self, tmp_path):
        source = workloads.producer_consumer_program()
        memory = Workspace()
        memory.analyze_run(source)
        assert memory.analyze_run(source).cached_stages == ["graph_json", "inventory"]
        cache_dir = str(tmp_path / "cache")
        Workspace(cache_dir=cache_dir).analyze_run(source)
        disk = Workspace(cache_dir=cache_dir)
        run = disk.analyze_run(source)
        assert run.cached_stages == ["graph_json", "inventory"]
        analyze_document(run)
        # The reach record and the two entries; the member holds no bitset,
        # so no universe snapshot is read.
        assert run.computed_stages == [] and disk.cache.disk.hits == 3
        assert disk.cache.disk._universes == {}

    def test_each_flag_pair_keys_its_own_member(self):
        workspace = Workspace()
        source = workloads.producer_consumer_program()
        workspace.analyze_run(source)
        run = workspace.analyze_run(source, collapse=True)
        # Only the member is rendered again: every other stage is keyed as
        # before.
        assert run.computed_stages == ["graph_json"]
        assert run.cached_stages == ["flow_graph", "inventory"]

    def test_rendering_leaves_the_cached_graph_as_it_was(self):
        cache = ArtifactCache()
        run = Pipeline(cache).run(workloads.producer_consumer_program())
        graph = run.result.graph
        state = pickle.dumps(graph)
        for collapse, self_loops in FLAGS:
            render_graph_json(graph, collapse, self_loops)
        assert pickle.dumps(graph) == state

    def test_plain_json_dumps_of_a_document_raises(self):
        run = Workspace().analyze_run(workloads.paper_program_a())
        document = analyze_document(run)
        with pytest.raises(TypeError, match="RenderedJSON"):
            json.dumps(document)


class TestBatchDocuments:
    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("collapse,self_loops", FLAGS, ids=FLAG_IDS)
    def test_members_three_levels_down_are_re_indented(
        self, tmp_path, collapse, self_loops, cache
    ):
        paths = []
        for name, source in workloads.batch_workload_sources()[:2]:
            path = tmp_path / f"{name}.vhd"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
        hierarchical = tmp_path / "mux.vhd"
        hierarchical.write_text(workloads.hierarchical_mux_program(), encoding="utf-8")
        paths.append(str(hierarchical))
        jobs = [BatchJob(path) for path in paths]
        workspace = _workspace(cache, tmp_path)
        flags = {"collapse": collapse, "self_loops": self_loops}
        if cache == "memory":
            run_batch(jobs, workspace, parallel=False, **flags)
        elif cache == "disk-warm":
            run_batch(
                jobs, Workspace(cache_dir=workspace.cache_dir), parallel=False, **flags
            )
        report = run_batch(jobs, workspace, parallel=False, **flags)
        assert report.ok
        document = report.to_json_dict()
        text = json_text(document)
        assert text == _dumps(_plain(document))
        options = AnalysisOptions(collapse=collapse, self_loops=self_loops)
        for job, path in zip(document["jobs"], paths):
            with open(path, encoding="utf-8") as handle:
                run = Pipeline().run(handle.read(), options)
            assert _plain(job)["graph"] == _parent_document(run, job)["graph"]
            assert job["summary"] == _parent_document(run, job)["summary"]


#: Synthetic graphs the writer renders: every shape of adjacency and every
#: kind of character ``json`` escapes or passes through.
GRAPHS = {
    "empty": FlowGraph.from_edges([]),
    "isolated": FlowGraph.from_edges([], nodes=["b", "a", "c"]),
    "sinks": FlowGraph.from_edges([("a", "b"), ("a", "c")], nodes=["z"]),
    "environment": FlowGraph.from_edges(
        [("x◦", "x"), ("x", "y"), ("y", "y•"), ("y", "y"), ("x◦", "y•")]
    ),
    "escapes": FlowGraph.from_edges(
        [
            ('quote"', "back\\slash"),
            ("tab\tnew\nline", "nul\x00bell\x07"),
            ("astral\U0001f600", "bmpé "),
            ("back\\slash", 'quote"'),
        ]
    ),
    "cycle": FlowGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")]),
}


class TestTheWriter:
    @pytest.mark.parametrize("collapse,self_loops", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_the_writer_matches_json_text(self, name, collapse, self_loops):
        graph = GRAPHS[name]
        member = render_graph_json(graph, collapse, self_loops)
        shaped = graph if self_loops else graph.without_self_loops()
        if collapse:
            shaped = shaped.collapse_environment_nodes()
        plain = {
            "collapse": collapse,
            "self_loops": self_loops,
            "adjacency": shaped.to_adjacency(),
        }
        assert member.text == _one_level_down(plain).encode("utf-8")
        assert member.nodes == shaped.node_count()
        assert member.edges == shaped.edge_count()
        document = {"schema": "x", "graph": RenderedJSON(member.text), "tail": [1]}
        assert json_text(document) == _dumps({**document, "graph": plain})

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    def test_the_adjacency_at_any_depth(self, depth):
        import io

        graph = GRAPHS["escapes"]
        buffer = io.BytesIO()
        graph.write_adjacency_json(buffer, depth)
        value = graph.to_adjacency()
        for _ in range(depth):
            value = {"k": value}
        expected = _dumps(value)
        for _ in range(depth):
            expected = expected[expected.index(": ") + 2 : expected.rindex("\n")]
        assert buffer.getvalue().decode("utf-8") == expected


def _member(value):
    """``value`` as a rendered member: the text ``json.dumps`` writes for it
    one level down in a document."""
    text = _dumps({"m": _plain(value)})
    return RenderedJSON(text[len('{\n  "m": ') : -len("\n}")].encode("utf-8"))


#: JSON values of every type ``json`` writes, rendered members among them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=3).map(_member),
    max_leaves=24,
)


class TestTheSplice:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_the_writer_writes_what_json_dumps_does(self, value):
        expected = _dumps(_plain(value))
        assert json_text(value) == expected
        assert json_bytes(value) == expected.encode("utf-8")

    def test_keys_must_be_strings(self):
        with pytest.raises(TypeError, match="keys must be str"):
            json_text({"a": {1: "one"}})

    MEMBER = render_graph_json(GRAPHS["escapes"], False, False).text
    #: A string that looks like an internal marker for a rendered member.
    PLACEHOLDER = "\x00vhdl-ifa:rendered-json\x00"

    @pytest.mark.parametrize("attempts", [1, 2, 3])
    def test_a_string_equal_to_the_placeholder_stays_a_string(self, attempts):
        taken = [f"{self.PLACEHOLDER}{attempt}" for attempt in range(attempts)]
        document = {
            "file": taken[0],
            "design": taken[-1],
            "options": {"entity": taken[0]},
            "graph": RenderedJSON(self.MEMBER),
            taken[-1]: taken,
            "jobs": [{"graph": RenderedJSON(self.MEMBER), "entity": taken[0]}],
        }
        assert json_text(document) == _dumps(_plain(document))

    def test_lone_surrogates_round_trip(self):
        # A file name the OS gave as undecodable bytes.
        document = {"file": "bad\udcff.vhd", "graph": RenderedJSON(self.MEMBER)}
        assert json_text(document) == _dumps(_plain(document))

    @pytest.mark.parametrize("member", [True, False], ids=["spliced", "plain"])
    def test_the_bytes_of_a_lone_surrogate_are_refused(self, member):
        # A response body must be valid UTF-8, where json_text keeps the
        # surrogate (above).
        document = {"file": "bad\udcff.vhd"}
        if member:
            document["graph"] = RenderedJSON(self.MEMBER)
        with pytest.raises(UnicodeEncodeError):
            json_bytes(document)

    def test_a_document_of_members_only(self):
        member = RenderedJSON(self.MEMBER)
        assert json_text(member) == _dumps(_plain(member))
        listed = [member, {"nested": [member, member]}, member]
        assert json_text(listed) == _dumps(_plain(listed))

    def test_json_text_keeps_nothing_large_alive(self):
        document = {"graph": RenderedJSON(b"[" + b"1, " * 50_000 + b"1]")}
        json_text(document)  # warm-up: json's lazily built state
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            json_text(document)
            del document
            gc.collect()
            # Strings are not tracked by the collector: look at what the
            # garbage refers to.
            large = [
                item
                for item in [*gc.garbage, *gc.get_referents(*gc.garbage)]
                if isinstance(item, (bytes, str, RenderedJSON))
                and len(getattr(item, "text", item)) > 1000
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert large == []


class TestRenderedJSON:
    TEXT = render_graph_json(GRAPHS["environment"], True, False).text

    def test_it_reads_as_the_mapping_it_renders(self):
        member = RenderedJSON(self.TEXT)
        plain = json.loads(self.TEXT)
        assert member == plain and plain == member
        assert member == RenderedJSON(self.TEXT)
        assert member != {**plain, "collapse": False}
        assert member["adjacency"] == plain["adjacency"]
        assert list(member) == list(plain) and len(member) == len(plain)
        assert dict(member) == plain

    def test_copies_and_pickles_carry_the_text(self):
        member = RenderedJSON(self.TEXT)
        member["adjacency"]  # parsed once
        for other in (
            copy.copy(member),
            copy.deepcopy(member),
            pickle.loads(pickle.dumps(member)),
            copy.deepcopy({"graph": member})["graph"],
        ):
            assert isinstance(other, RenderedJSON)
            assert other.text == self.TEXT and other == member
        assert len(pickle.dumps(member)) < len(self.TEXT) + 100
