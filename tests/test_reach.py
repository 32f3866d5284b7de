"""The reach: a run reads the units its entity reaches, and is keyed on them.

On first contact with a file text, a run with a cache reads every design
unit's outline (parsing the units that have none), picks the front and the
units its entity reaches, and keys every stage on them
(:class:`~repro.pipeline.stages.Reach`).  These tests pin that the reach is
exact: after every edit, a run over a cache warmed by the unedited file
gives the masked document of an uncached run, or its error.  They pin that
it cuts off: an edit that changes no reached unit and no unit's outline
re-parses the unit it changed, reads no parsed unit back and computes no
stage but the parse.  And they pin that a syntax error in a unit the
entity does not reach is still the whole-file parse's error on every
surface, over a cold cache and over one holding every stage of the entity.
"""

import http.client
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_parse_units import SOURCES

from repro import workloads
from repro.cli import main
from repro.contract.matchers import normalize
from repro.errors import ParseError, ReproError
from repro.hier.structure import build_hierarchy, has_instantiations, outline
from repro.pipeline import (
    AnalysisOptions,
    AnalysisServer,
    ArtifactCache,
    BatchJob,
    Pipeline,
    ServerThread,
    TieredArtifactCache,
    analyze_document,
    json_text,
    run_batch,
    volatile_pointers,
)
from repro.security.policy import TwoLevelPolicy
from repro.vhdl.ast import Program
from repro.vhdl.elaborate import elaborate
from repro.vhdl.parser import parse_program, split_units
from repro.workspace import Workspace

COMMANDS = ("analyze", "check", "lint")

#: The test_parse_units sources, and a flat entity in a file that also
#: holds a hierarchy, on either side of it.
REACH_SOURCES = [
    *SOURCES,
    (
        "flat_then_linked",
        workloads.challenge_f_program() + "\n" + workloads.hierarchical_mux_program(),
    ),
    (
        "linked_then_flat",
        workloads.hierarchical_register_file(cells=2, depth=2)
        + "\n"
        + workloads.producer_consumer_program(),
    ),
]


class _Recording(ArtifactCache):
    """An in-memory cache over a copy of ``entries`` that records every get."""

    def __init__(self, entries):
        super().__init__()
        self._entries.update(entries)
        self.got = []

    def get(self, key):
        self.got.append(key)
        return super().get(key)


def _units(source):
    """Each unit's ``(first line, text)`` and AST."""
    return [
        (line, text, parse_program(text, line)) for line, text in split_units(source)
    ]


def _oracle(source, entity):
    """The analysed entity and the indices of the units its front reads,
    found by the fronts' own lookups on the whole program; None when the
    front rejects the program."""
    units = _units(source)
    owner = {
        id(node): index
        for index, (_, _, unit) in enumerate(units)
        for node in (*unit.entities, *unit.architectures)
    }
    whole = Program(
        [node for _, _, unit in units for node in unit.entities],
        [node for _, _, unit in units for node in unit.architectures],
    )
    try:
        if has_instantiations(whole):
            hierarchy = build_hierarchy(whole, entity)
            analysed, names = hierarchy.root, hierarchy.order
        else:
            analysed = elaborate(whole, entity).entity_name
            names = [analysed]
    except ReproError:
        return None
    lookups = [whole.entity(name) for name in names]
    lookups += [whole.architecture_of(name) for name in names]
    return analysed.lower(), {owner[id(node)] for node in lookups}


def _replace_unit(source, index, text):
    units = split_units(source)
    return "".join(text if at == index else old for at, (_, old) in enumerate(units))


_CONSTANT = re.compile(r"'([01])'|\"([01]+)\"")


def _edits(source, found):
    """``(name, edited source)`` for every edit of ``source``."""
    units = _units(source)
    yield "a trailing comment", source + "-- edited\n"
    for index, (_, text, unit) in enumerate(units):
        match = _CONSTANT.search(text)
        if unit.architectures and match:
            at = match.start() + 1
            flipped = text[:at] + "10"[int(text[at])] + text[at + 1 :]
            yield f"a constant in unit {index}", _replace_unit(source, index, flipped)
    if found is None:
        return
    analysed, reached = found
    declaring = next(
        index
        for index, (_, _, unit) in enumerate(units)
        if analysed in (entity.name for entity in unit.entities)
    )
    yield "a line above the entity", _replace_unit(
        source, declaring, "-- above\n" + units[declaring][1]
    )
    unrelated = [
        entity.name
        for index, (_, _, unit) in enumerate(units)
        if index not in reached
        for entity in unit.entities
    ]
    if unrelated:
        renamed = re.sub(rf"\b{unrelated[0]}\b", f"{unrelated[0]}_renamed", source)
        yield "an unrelated entity renamed", renamed
    for index, (_, text, unit) in enumerate(units):
        begin = re.search(r"^begin\b.*\n", text, re.M)
        if index not in reached and unit.architectures and begin:
            # Never resolved: the analysed entity does not reach it.
            added = text[: begin.end()] + "  u_reach : reach_probe port map (x);\n"
            yield "an unrelated instantiation", _replace_unit(
                source, index, added + text[begin.end() :]
            )
            break


def _secret(source, entity):
    """An input port of the analysed design, for ``check``."""
    try:
        ports = Workspace(cache=None).analyze(source, entity=entity).inventory
    except ReproError:
        return "none"
    return (ports.input_ports or ("none",))[0]


def _outcome(workspace, command, source, entity, secret):
    """The run and its masked document, or None and the error."""
    try:
        if command == "analyze":
            run = workspace.analyze_run(source, entity=entity)
            document = analyze_document(run)
        elif command == "check":
            policy = TwoLevelPolicy(secret_resources=[secret])
            checked = workspace.check(source, policy, entity=entity)
            run, document = checked.run, checked.document()
        else:
            linted = workspace.lint(source, entity=entity)
            run, document = linted.run, linted.document()
    except ReproError as error:
        return None, (type(error), str(error), getattr(error, "position", None))
    return run, json_text(normalize(document, volatile_pointers(command)))


def _cuts_off(source, edited, reached):
    """True when ``edited`` changes one unit, which is not reached and
    keeps its outline (so the reach key is unchanged)."""
    before, after = split_units(source), split_units(edited)
    if len(before) != len(after):
        return False
    changed = [index for index, unit in enumerate(after) if unit != before[index]]
    return len(changed) == 1 and changed[0] not in reached and outline(
        parse_program(before[changed[0]][1], before[changed[0]][0])
    ) == outline(parse_program(after[changed[0]][1], after[changed[0]][0]))


def _entities(source):
    program = parse_program(source)
    return [None, *dict.fromkeys(arch.entity_name for arch in program.architectures)]


#: top is the file's one root, but the unit of its architecture also holds
#: e's, which only f instantiates, and f and g instantiate each other.
CYCLE_BESIDE_ROOT = """\
entity top is
  port( a : in std_logic;
        y : out std_logic );
end top;

architecture rtl of top is
begin
  y <= a;
end rtl;  architecture rtl of e is
begin
  y <= a;
end rtl;

entity e is
  port( a : in std_logic;
        y : out std_logic );
end e;

entity f is
  port( a : in std_logic;
        y : out std_logic );
end f;

architecture loop_f of f is
  component g is
    port( a : in std_logic;
          y : out std_logic );
  end component g;
  component e is
    port( a : in std_logic;
          y : out std_logic );
  end component e;
  signal t : std_logic;
begin
  u1 : g port map (a, t);
  u2 : e port map (t, y);
end loop_f;

entity g is
  port( a : in std_logic;
        y : out std_logic );
end g;

architecture loop_g of g is
  component f is
    port( a : in std_logic;
          y : out std_logic );
  end component f;
begin
  u1 : f port map (a, y);
end loop_g;
"""


#: Prints the reach of a flat and of a linked file.
_PRINT_REACHES = """\
from repro import workloads
from repro.pipeline import AnalysisOptions, ArtifactCache, Pipeline
for source, entity in (
    (workloads.multi_entity_program(3, 2, 4), "chain_1"),
    (workloads.hierarchical_bus_program(2, 2, 2), None),
):
    options = AnalysisOptions(entity=entity)
    run = Pipeline(ArtifactCache()).run(source, options, goals=("flow_graph",))
    print(repr(run.artifacts.reach))
"""


class TestTheReachIsExactAndCutsOff:
    @pytest.mark.parametrize(
        "source", [source for _, source in REACH_SOURCES],
        ids=[name for name, _ in REACH_SOURCES],
    )
    def test_every_edit_gives_the_uncached_document(self, source, parse_calls):
        failures, cutoffs = [], 0
        for entity in _entities(source):
            warmed = Workspace(cache=ArtifactCache())
            for command in COMMANDS:
                _outcome(warmed, command, source, entity, _secret(source, entity))
            found = _oracle(source, entity)
            for edit, edited in _edits(source, found):
                secret = _secret(edited, entity)
                cuts_off = found is not None and _cuts_off(source, edited, found[1])
                for command in COMMANDS:
                    where = f"{edit}, entity {entity}, {command}"
                    expected = _outcome(
                        Workspace(cache=None), command, edited, entity, secret
                    )[1]
                    cache = _Recording(warmed.cache._entries)
                    parse_calls.clear()
                    run, seen = _outcome(
                        Workspace(cache=cache), command, edited, entity, secret
                    )
                    if seen != expected:
                        failures.append(f"{where}: the document differs")
                    if not cuts_off:
                        continue
                    cutoffs += 1
                    changed = [
                        unit[::-1]
                        for unit in split_units(edited)
                        if unit not in split_units(source)
                    ]
                    if parse_calls != changed:
                        failures.append(f"{where}: parsed {len(parse_calls)} units")
                    if any(key.startswith("parse:") for key in cache.got):
                        failures.append(f"{where}: read a parsed unit back")
                    if run is None or run.computed_stages != ["parse"]:
                        failures.append(f"{where}: computed more than the parse")
        assert not failures, "\n".join(failures[:20])
        # A file of more than one entity has units some entity does not
        # reach, so some of its edits cut off.
        assert cutoffs or len(_entities(source)) == 2

    def test_an_edit_elsewhere_keeps_the_reach_key(self):
        source = workloads.multi_entity_program(3, 2, 4)
        edited = source + "-- edited\n"
        keys = [
            Pipeline(ArtifactCache()).run(text, AnalysisOptions(entity="chain_0"))
            .artifacts.reach
            for text in (source, edited)
        ]
        assert keys[0] == keys[1]
        assert keys[0].front == "elaborate" and keys[0].units == (0, 1)
        # Another entity's reach is its own units, under its own key.
        other = Pipeline(ArtifactCache()).run(
            edited, AnalysisOptions(entity="chain_2")
        ).artifacts.reach
        assert other.units == (4, 5) and other.key != keys[0].key

    def test_a_root_the_reached_units_alone_would_not_infer_reads_every_unit(
        self,
    ):
        # Alone, the units of top would infer two roots, top and e.
        run = Pipeline(ArtifactCache()).run(CYCLE_BESIDE_ROOT)
        assert run.artifacts.reach.units == tuple(
            range(len(split_units(CYCLE_BESIDE_ROOT)))
        )
        assert run.result.inventory.design == "top"
        assert _outcome(
            Workspace(cache=ArtifactCache()), "analyze", CYCLE_BESIDE_ROOT, None, ""
        )[1] == _outcome(
            Workspace(cache=None), "analyze", CYCLE_BESIDE_ROOT, None, ""
        )[1]

    def test_the_reach_does_not_follow_string_hashing(self):
        # A cache dir written by one process is read by another, under
        # another hash seed: both must find the same reach.
        src = str(Path(__file__).resolve().parents[1] / "src")
        printed = [
            subprocess.run(
                [sys.executable, "-c", _PRINT_REACHES],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", os.environ.get("PYTHONHASHSEED", "random"))
        ]
        assert printed[0] == printed[1] and printed[0].count("Reach(") == 2


#: A file of three flat entities whose last architecture does not parse;
#: ``chain_0`` reaches its first two units only.
SOURCE = workloads.multi_entity_program(3, 2, 4)
BROKEN = _replace_unit(
    SOURCE, 5, split_units(SOURCE)[5][1].replace("xor", "xor xor", 1)
)


@pytest.fixture(scope="module")
def expected():
    with pytest.raises(ParseError) as raised:
        parse_program(BROKEN)
    return raised.value


@pytest.fixture(params=["cold", "warm"])
def warm(request):
    return request.param == "warm"


class TestAnUnreachedSyntaxErrorIsRejected:
    def test_the_broken_unit_is_not_reached(self):
        assert _oracle(SOURCE, "chain_0")[1] == {0, 1}
        assert split_units(BROKEN)[:5] == split_units(SOURCE)[:5]

    def test_pipeline_run(self, expected, warm):
        cache = ArtifactCache()
        if warm:
            workspace = Workspace(cache=cache)
            for command in COMMANDS:
                _outcome(workspace, command, SOURCE, "chain_0", "chain_in")
        with pytest.raises(ParseError) as raised:
            Pipeline(cache).run(BROKEN, AnalysisOptions(entity="chain_0"))
        assert str(raised.value) == str(expected)
        assert raised.value.position == expected.position

    def test_cli(self, tmp_path, capsys, expected, warm):
        cache_dir = str(tmp_path / "cache")
        for name, text in (("design.vhd", SOURCE), ("broken.vhd", BROKEN)):
            (tmp_path / name).write_text(text, encoding="utf-8")
        if warm:
            for command in ("analyze", "lint"):
                argv = [command, str(tmp_path / "design.vhd"), "--entity", "chain_0"]
                assert main([*argv, "--json", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # A parse error is an analysis error: exit 1, one line on stderr.
        argv = ["analyze", str(tmp_path / "broken.vhd"), "--entity", "chain_0"]
        assert main([*argv, "--cache-dir", cache_dir]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_post_analyze(self, expected, warm):
        def post(port, source):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            body = json.dumps({"source": source, "entity": "chain_0"})
            connection.request("POST", "/analyze", body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())

        workspace = Workspace(cache=TieredArtifactCache(ArtifactCache()))
        with ServerThread(AnalysisServer(port=0, workspace=workspace)) as server:
            if warm:
                assert post(server.port, SOURCE)[0] == 200
            status, document = post(server.port, BROKEN)
        assert status == 400
        assert document["error"] == str(expected)

    def test_batch_job(self, tmp_path, expected, warm):
        path = tmp_path / "broken.vhd"
        path.write_text(BROKEN, encoding="utf-8")
        workspace = Workspace(cache=ArtifactCache())
        if warm:
            for command in COMMANDS:
                _outcome(workspace, command, SOURCE, "chain_0", "chain_in")
        report = run_batch(
            [BatchJob(path=str(path), entity="chain_0")],
            workspace,
            AnalysisOptions(),
            parallel=False,
        )
        (item,) = report.items
        assert not item.ok and item.error == str(expected)
