"""The memory tier's admission policy (``ArtifactCache``).

What a run makes on the way to its goals waits on a small probation queue
and stays only if it is read; what it was asked for goes to the main queue,
where a read buys one more round.  The unit tests pin the queues; the
pipeline-level ones pin what the policy is for: a session that revisits its
files keeps what it reads, and one that keeps editing does not fill the tier
with intermediates no run reads again.
"""

import random

import pytest

from repro import Workspace, workloads
from repro.pipeline import stages as stages_module
from repro.pipeline.cache import ArtifactCache
from repro.security.policy import TwoLevelPolicy
from repro.vhdl.parser import split_units

#: Probation holds two entries at this bound.
BOUND = 20


def _fill_probation(cache, *keys):
    for key in keys:
        cache.put(key, key.upper(), probation=True)


class TestQueues:
    def test_an_unread_probation_entry_leaves_and_its_key_goes_to_the_ghost(self):
        cache = ArtifactCache(max_entries=BOUND)
        _fill_probation(cache, "p1", "p2", "p3")
        assert "p1" not in cache
        assert list(cache._ghost) == ["p1"]
        assert list(cache._probation) == ["p2", "p3"]
        assert len(cache) == 2

    def test_a_read_probation_entry_moves_to_main(self):
        cache = ArtifactCache(max_entries=BOUND)
        _fill_probation(cache, "p1")
        assert cache.get("p1") == "P1"
        _fill_probation(cache, "p2", "p3", "p4", "p5")
        assert cache.get("p1") == "P1"
        assert list(cache._main) == ["p1"]
        assert "p1" not in cache._ghost

    def test_a_hinted_re_put_of_a_ghost_key_lands_in_main(self):
        cache = ArtifactCache(max_entries=BOUND)
        _fill_probation(cache, "p1", "p2", "p3")
        assert "p1" in cache._ghost
        _fill_probation(cache, "p1")
        assert list(cache._main) == ["p1"]
        assert "p1" not in cache._ghost
        _fill_probation(cache, "p4", "p5", "p6")
        assert cache.get("p1") == "P1"

    def test_a_read_main_entry_survives_one_pass(self):
        cache = ArtifactCache(max_entries=3)
        for key in "abc":
            cache.put(key, key)
        assert cache.get("a") == "a"
        cache.put("d", "d")  # a was read: b goes instead
        assert list(cache._entries) == ["a", "c", "d"]
        cache.put("e", "e")
        cache.put("f", "f")  # a was not read again: its round is over
        assert list(cache._entries) == ["d", "e", "f"]

    def test_an_unhinted_put_keeps_fifo(self):
        cache = ArtifactCache(max_entries=3)
        for key in "abcde":
            cache.put(key, key)
        assert list(cache._entries) == ["c", "d", "e"]
        assert cache.get("a") is None and cache.get("b") is None

    def test_a_stored_key_keeps_its_place(self):
        cache = ArtifactCache(max_entries=BOUND)
        _fill_probation(cache, "p1")
        cache.put("p1", "new")
        assert list(cache._probation) == ["p1"]
        assert cache.get("p1") == "new"

    @pytest.mark.parametrize("bound", [1, 2, 3, 10, 25])
    def test_the_total_never_exceeds_max_entries(self, bound):
        rng = random.Random(bound)
        cache = ArtifactCache(max_entries=bound)
        for _ in range(2000):
            key = f"k{rng.randrange(3 * bound)}"
            if rng.random() < 0.4:
                cache.get(key)
            else:
                cache.put(key, key, probation=rng.random() < 0.6)
            assert len(cache) <= bound
            assert len(cache._probation) <= max(1, bound // 10)
            assert len(cache._ghost) <= bound
            assert set(cache._entries) <= set(cache._probation) | set(cache._main)

    def test_a_key_removed_by_hand_is_skipped_at_its_queue_end(self):
        cache = ArtifactCache(max_entries=BOUND)
        _fill_probation(cache, "p1", "p2")
        del cache._entries["p1"]
        _fill_probation(cache, "p3")
        assert list(cache._entries) == ["p2", "p3"]
        assert not cache._ghost

    def test_clear_forgets_the_queues_and_keeps_the_counters(self):
        cache = ArtifactCache(max_entries=BOUND)
        _fill_probation(cache, "p1", "p2", "p3")
        cache.get("p2")
        cache.clear()
        assert len(cache) == 0 and not cache._ghost and not cache._read
        assert cache.stats() == {"entries": 0, "hits": 1, "misses": 0}


def _parse_calls(monkeypatch):
    calls = []
    parse = stages_module.parse_program

    def counting(text, *args):
        calls.append(text)
        return parse(text, *args)

    monkeypatch.setattr(stages_module, "parse_program", counting)
    return calls


class TestSessions:
    def test_a_second_sweep_over_60_files_computes_nothing(self):
        # Each file holds six units and leaves 20 entries, so 60 files are
        # more than the tier holds; what the second sweep reads is not.
        base = workloads.multi_entity_program(3, 1, 2)
        texts = ["\n" * index + base for index in range(60)]
        workspace = Workspace()
        for text in texts:
            workspace.analyze_run(text, entity="chain_0")
        for text in texts:
            run = workspace.analyze_run(text, entity="chain_0")
            assert run.computed_stages == []
            assert run.cached_stages == ["graph_json", "inventory"]

    @pytest.mark.parametrize("first", ["analyze", "lint"])
    def test_a_check_after_20_other_files_computes_only_its_report(self, first):
        # Neither an analyze nor a lint asks for the flow graph, but each
        # computes it, and the full analysis asks for it: it waits in the
        # main queue, not on probation, which the 20 files in between would
        # flush.  The check computes its report and renders it.
        base = workloads.multi_entity_program(3, 1, 2)
        text, *others = ["\n" * index + base for index in range(21)]
        workspace = Workspace()
        if first == "analyze":
            workspace.analyze_run(text, entity="chain_0")
        else:
            workspace.lint(text, entity="chain_0")
        for other in others:
            workspace.analyze_run(other, entity="chain_0")
        checked = workspace.check(
            text, TwoLevelPolicy(secret_resources=["chain_in"]), entity="chain_0"
        )
        assert checked.run.computed_stages == ["report", "report_json"]
        assert checked.run.cached_stages == ["flow_graph", "inventory"]

    def test_all_entities_parses_each_unit_once(self, tmp_path, monkeypatch):
        workspace = Workspace()
        source = workloads.multi_entity_program(52, 1, 2)
        units = len(split_units(source))
        assert units > workspace.cache._max_entries // 10  # probation's size
        path = tmp_path / "many.vhdl"
        path.write_text(source, encoding="utf-8")
        calls = _parse_calls(monkeypatch)
        report = workspace.batch([str(path)], all_entities=True, parallel=False)
        assert len(report.items) == 52 and not report.failures
        assert len(calls) == units

    def test_an_editing_session_keeps_few_intermediates(self):
        source = workloads.hierarchical_register_file(cells=4, depth=2)
        workspace = Workspace()
        for edit in range(120):
            workspace.analyze(f"{source}\n-- edit {edit}\n")
        intermediates = {"elaborate", "place", "reaching", "specialize", "closure"}
        resident = [
            key
            for key in workspace.cache._entries
            if key.partition(":")[0] in intermediates
        ]
        assert len(resident) <= workspace.cache._max_entries // 10
