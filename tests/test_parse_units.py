"""The parse stage works per design unit and gives the whole-file parse.

:func:`~repro.vhdl.parser.split_units` cuts a source at its unit heads, and
the parse stage serves each unit from the cache or parses and caches it
under a key of its first line and text.  These tests pin that the stage's
``Program`` is exactly ``parse_program(source)``, positions included, or
raises the identical error, with no cache, a cold cache and a warm one;
that an edit re-parses only the units it touched; and that a cached unit,
which different files now share, is never mutated by the runs reading it.
"""

import pickle

import pytest
from test_robustness import _mutants

from repro import aes, workloads
from repro.cli import main
from repro.contract.matchers import normalize
from repro.errors import ReproError
from repro.pipeline import (
    ArtifactCache,
    DiskArtifactCache,
    Pipeline,
    TieredArtifactCache,
    analyze_document,
    json_text,
    volatile_pointers,
)
from repro.security.policy import TwoLevelPolicy
from repro.vhdl.parser import parse_program, split_units
from repro.workspace import Workspace

SOURCES = [
    *workloads.batch_workload_sources(),
    *workloads.hierarchy_workload_sources(),
    ("multi_entity", workloads.multi_entity_program(3, 2, 4)),
    ("register_cell", workloads.register_cell_entity()),
    ("regfile_8", workloads.hierarchical_register_file(cells=8, depth=6)),
    ("aes_round", aes.aes_round_source()),
    ("shift_rows", aes.shift_rows_entity_source()),
]

_ENTITY = (
    "entity e is\n  port( a : in std_logic;\n        y : out std_logic );\nend e;\n"
)
_ARCH = "architecture r of e is\nbegin\n  y <= a;\nend r;\n"

#: Hand-written sources around the cut, each with what it exercises.
EDGE_CASES = {
    "two units on one line": "entity e is end e; architecture r of e is begin end r;\n",
    "second head indented": _ENTITY + "  " + _ARCH,
    "end, line break, entity;": "entity e is\nend\nentity;\n" + _ARCH,
    "end, line break, another head": "entity e is\nend\nentity f is\nend f;\n",
    "head-like line in a string": (
        _ENTITY + "architecture r of e is\nbegin\n  y <= \"01\n"
        "entity f is\n10\";\nend r;\n"
    ),
    "closing quote on a comment-like line": (
        _ENTITY + "architecture r of e is\nbegin\n  y <= \"01\n--\";\nend r;\n"
    ),
    "CRLF line endings": (_ENTITY + "\n" + _ARCH).replace("\n", "\r\n"),
    "leading and trailing comment lines": (
        "-- header\n\n  -- indented\n" + _ENTITY + "-- between\n\n"
        + _ARCH + "\n-- trailer\n\t-- tab\n"
    ),
    "trailing comment on the last token line": (
        _ENTITY + _ARCH.replace("end r;", "end r; -- done")
    ),
    "missing ; before the next head": _ENTITY.replace("end e;", "end e") + _ARCH,
    "form feed on a trailing line": _ENTITY + "\f\n" + _ARCH,
    "tokens before the first head": "foo\n" + _ENTITY + _ARCH,
    "mixed-case heads": (
        _ENTITY.upper() + "Architecture R Of E Is\nbegin\n  y <= a;\nend r;\n"
    ),
    "the same unit on two lines": _ENTITY + _ENTITY + _ARCH,
    "empty source": "",
    "comments only": "-- nothing here\n\n",
    "head without its body": "entity e is\n",
}


def _outcome(parse):
    """The program ``parse()`` returns, or its error's type, text and position."""
    try:
        return parse()
    except ReproError as error:
        return type(error), str(error), getattr(error, "position", None)


def _stage(source, cache):
    return _outcome(
        lambda: Pipeline(cache).run(source, goals=("parse",)).artifacts.program
    )


@pytest.fixture(scope="module")
def warmed():
    """A memory cache holding the parsed units of every unmutated source."""
    cache = ArtifactCache()
    for _, source in SOURCES:
        Pipeline(cache).run(source, goals=("parse",))
    return cache


def _copy(cache):
    copied = ArtifactCache()
    copied._entries.update(cache._entries)
    return copied


class TestTheSplitIsTheWholeFileParse:
    @pytest.mark.parametrize(
        "source",
        [source for _, source in SOURCES] + list(EDGE_CASES.values()),
        ids=[name for name, _ in SOURCES] + list(EDGE_CASES),
    )
    def test_every_cache_state_gives_the_whole_file_parse(
        self, source, warmed, tmp_path
    ):
        expected = _outcome(lambda: parse_program(source))
        disk = str(tmp_path / "cache")
        tiered = [
            TieredArtifactCache(ArtifactCache(), DiskArtifactCache(disk))
            for _ in range(2)
        ]
        # No cache, a cold memory cache, a warm one, then a cold disk tier
        # and a fresh tier over it, which reads every unit back from disk.
        for cache in (None, ArtifactCache(), _copy(warmed), *tiered):
            assert _stage(source, cache) == expected

    def test_every_mutant_gives_the_whole_file_parse(self, warmed):
        failures, mutants = [], 0
        for label, text in _mutants():
            mutants += 1
            expected = _outcome(lambda: parse_program(text))
            for name, cache in (
                ("none", None), ("cold", ArtifactCache()), ("warm", _copy(warmed))
            ):
                if _stage(text, cache) != expected:
                    failures.append(f"{label} ({name} cache)")
        assert mutants == 546
        assert not failures, "\n".join(failures[:20])

    def test_edge_cases_cut_where_expected(self):
        for source in EDGE_CASES.values():
            assert "".join(text for _, text in split_units(source)) == source
        assert split_units(EDGE_CASES["two units on one line"]) == [
            (1, EDGE_CASES["two units on one line"])
        ]
        crlf = split_units(EDGE_CASES["CRLF line endings"])
        assert [line for line, _ in crlf] == [1, 6]
        commented = split_units(EDGE_CASES["leading and trailing comment lines"])
        assert [(line, text.split("\n")[0]) for line, text in commented] == [
            (1, "-- header"), (10, "architecture r of e is")
        ]
        assert commented[1][1].endswith("-- trailer\n\t-- tab\n")
        assert split_units(EDGE_CASES["comments only"]) == [
            (1, EDGE_CASES["comments only"])
        ]
        repeated = split_units(EDGE_CASES["the same unit on two lines"])
        assert [line for line, _ in repeated] == [1, 5, 9]


class TestAnEditReparsesOnlyItsUnits:
    SOURCE = workloads.multi_entity_program(3, 2, 4)

    def _rerun(self, edited, parse_calls):
        """Parse ``SOURCE``, then ``edited`` on the same cache; the second
        run's ``parse_program`` calls."""
        cache = ArtifactCache()
        Pipeline(cache).run(self.SOURCE, goals=("parse",))
        parse_calls.clear()
        program = Pipeline(cache).run(edited, goals=("parse",)).artifacts.program
        assert program == parse_program(edited)
        return parse_calls

    def test_a_trailing_comment_reparses_only_the_last_unit(self, parse_calls):
        edited = self.SOURCE + "-- op 7\n\n"
        assert self._rerun(edited, parse_calls) == [split_units(edited)[-1][::-1]]

    def test_an_edit_reparses_only_the_unit_it_changed(self, parse_calls):
        edited = self.SOURCE.replace('"00000001"', '"00000011"', 1)
        before = split_units(self.SOURCE)
        changed = [unit for unit in split_units(edited) if unit not in before]
        assert len(changed) == 1 and changed[0][1].startswith("architecture")
        assert self._rerun(edited, parse_calls) == [(changed[0][1], changed[0][0])]

    def test_a_moved_unit_is_reparsed_at_its_new_line(self, parse_calls):
        # The same text one line down is another key: its positions move.
        edited = "\n" + self.SOURCE
        reparsed = self._rerun(edited, parse_calls)
        assert reparsed == [(text, line) for line, text in split_units(edited)]

    def test_all_entities_parses_each_unit_once(self, tmp_path, parse_calls, capsys):
        path = tmp_path / "multi.vhd"
        path.write_text(self.SOURCE, encoding="utf-8")
        assert main(["batch", str(path), "--all-entities", "--sequential"]) == 0
        assert capsys.readouterr().out.count("== ") == 3
        assert parse_calls == [(text, line) for line, text in split_units(self.SOURCE)]


#: Two files sharing units, with the same text on the same first line, and
#: a secret for their check: the flat pair shares the entity, the linked
#: pair the leaf cell, its architecture and the root entity.
PAIRS = {
    "flat": (
        workloads.challenge_f_program(),
        workloads.challenge_f_program().replace("t := plain;", "t := plain xor key;"),
        "key",
    ),
    "linked": (
        workloads.hierarchical_mux_program(),
        workloads.hierarchical_mux_program().replace("o <= n1;", "o <= n2;"),
        "hi",
    ),
}


def _documents(workspace, source, secret):
    """The masked analyze, check and lint documents of ``source``, as text."""
    documents = [
        analyze_document(workspace.analyze_run(source)),
        workspace.check(source, TwoLevelPolicy(secret_resources=[secret])).document(),
        workspace.lint(source).document(),
    ]
    return [
        json_text(normalize(document, volatile_pointers(document["command"])))
        for document in documents
    ]


class TestSharedUnitsAreNeverMutated:
    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_runs_of_two_files_leave_their_shared_units_intact(self, kind, reverse):
        first, second, secret = PAIRS[kind]
        if reverse:
            first, second = second, first
        shared = set(split_units(first)) & set(split_units(second))
        assert len(shared) == {"flat": 1, "linked": 3}[kind]

        workspace = Workspace(cache=ArtifactCache())
        workspace.analyze_run(first, until="parse")
        entries = workspace.cache._entries
        parse_keys = [key for key in entries if key.startswith("parse:")]
        pristine = {key: pickle.dumps(workspace.cache.get(key)) for key in parse_keys}

        documents = [
            _documents(workspace, source, secret) for source in (first, second)
        ]
        for source, seen in zip((first, second), documents):
            assert seen == _documents(Workspace(), source, secret)
        # The second file added only its own units: the shared ones were
        # served from the cache, and every cached unit pickles as before.
        after = [key for key in entries if key.startswith("parse:")]
        assert len(after) == len(parse_keys) + len(split_units(second)) - len(shared)
        for key, blob in pristine.items():
            assert pickle.dumps(workspace.cache.get(key)) == blob
