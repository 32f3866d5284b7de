"""The rendered report: the ``report_json`` stage, its key and its splice.

Every output of a check reads the ``report_json`` stage's artefact: the
report's text, its verdict and its small members, and the ``violations``
member of a document as a :class:`~repro.pipeline.render.RenderedList` that
:func:`~repro.pipeline.render.json_text` splices in.  These tests hold the
artefact and the documents built from it byte-equal to the ones built from
the report itself (``CovertChannelReport.to_json_dict()`` and
``to_text()``, as check outputs were built before the stage existed), for
entries another process wrote too, and hold the stage's key to the
policy's content, whatever the string hashing.  ``tests/test_check_surfaces.py``
holds every surface of a check to the same report.
"""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Workspace, workloads
from repro.pipeline import (
    SCHEMA_VERSION,
    ArtifactCache,
    Pipeline,
    RenderedList,
    json_text,
    policy_summary,
)
from repro.pipeline.render import _violations_json, render_report_json
from repro.security.policy import Clearance, FlowPolicy, TwoLevelPolicy
from repro.security.policy_file import load_policy_file, policy_from_dict
from repro.security.report import Diagnostic, report_key

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Where the report comes from: computed without a cache, read back from a
#: warm memory tier, computed over an empty cache dir, read from disk.
CACHES = ["none", "memory", "disk-cold", "disk-warm"]

#: Each source, its input ports (the first is the two-level secret) and
#: its output port.
SOURCES = {
    "flat": (workloads.producer_consumer_program, ("left", "right"), "result"),
    "linked": (workloads.hierarchical_mux_program, ("sel", "hi"), "o"),
}

LOW, MID, TOP = Clearance(0, "low"), Clearance(1, "mid"), Clearance(2, "top")

#: A policy document with three levels, fnmatch patterns and a mode.
DOCUMENT = {
    "name": "tiers",
    "mode": "channel-control",
    "default": "low",
    "levels": {"low": 0, "mid": 1, "top": 2},
    "resources": {"s*": "top", "l?ft": "top", "h[a-z]": "mid", "r*": "mid"},
    "allow": [{"from": "low", "to": "mid"}, {"from": "low", "to": "top"}],
}

POLICIES = ["secret", "three-level", "file", "registered", "inline"]

#: Workspace.check's report options, by name.
OPTIONS = {
    "default": {},
    "transitive": {"transitive": True},
    "ports_only": {"restrict_to_ports": True},
    "output": {"outputs": "output"},
}


def _dumps(value):
    return json.dumps(value, indent=2, ensure_ascii=False)


def _policy(name, kind, workspace, tmp_path):
    """The spec a check of ``kind`` passes, and the policy it enforces."""
    inputs = SOURCES[kind][1]
    if name == "secret":
        policy = TwoLevelPolicy(secret_resources=[inputs[0]])
        return policy, policy
    if name == "three-level":
        policy = FlowPolicy(
            levels={inputs[0]: TOP, inputs[1]: MID},
            permitted={(LOW, MID), (LOW, TOP), (MID, TOP)},
            default_level=LOW,
        )
        return policy, policy
    if name == "file":
        path = tmp_path / "tiers.json"
        path.write_text(json.dumps(DOCUMENT), encoding="utf-8")
        return path, load_policy_file(path)
    if name == "registered":
        workspace.register_policy("tiers", DOCUMENT)
        return "tiers", policy_from_dict(DOCUMENT)
    return DOCUMENT, policy_from_dict(DOCUMENT)


def _report_options(option, kind, policy):
    """The report options Workspace.check resolves for ``option``."""
    options = {"transitive": policy.transitive, "restrict_to_ports": False, "outputs": None}
    for field, value in OPTIONS[option].items():
        options[field] = [SOURCES[kind][2]] if value == "output" else value
    return options


def _check_kwargs(option, kind):
    return {
        field: [SOURCES[kind][2]] if value == "output" else value
        for field, value in OPTIONS[option].items()
    }


def _oracle(source, policy, report_options):
    """The report a cache-less run builds."""
    return Pipeline().run(source, policy=policy, report_options=report_options).report


def _plain(document, report, policy):
    """The check document as it was built from the report: every member
    from ``report.to_json_dict()``, the volatile ones from ``document``."""
    plain = {"schema": SCHEMA_VERSION, "command": "check"}
    if "file" in document:
        plain["file"] = document["file"]
    plain.update(report.to_json_dict())
    plain["timings"] = document["timings"]
    plain["cached_stages"] = document["cached_stages"]
    plain["policy"] = policy_summary(policy)
    return plain


def _workspace(cache, tmp_path):
    """A workspace for one cache state (the test warms the warm ones)."""
    if cache == "none":
        return Workspace(cache=None)
    if cache == "memory":
        return Workspace()
    return Workspace(cache_dir=str(tmp_path / "cache"))


def _warm(cache, workspace, check):
    """Run ``check`` first where ``cache`` is a warm state."""
    if cache == "memory":
        check(workspace)
    elif cache == "disk-warm":
        check(Workspace(cache_dir=workspace.cache_dir))


def _one_level_down(value):
    """The text ``json_text`` writes for ``value`` as a top-level member."""
    text = json_text({"m": value})
    head, tail = '{\n  "m": ', "\n}"
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head) : -len(tail)]


class TestDocuments:
    def test_a_member_another_process_wrote_splices_the_same(self, tmp_path):
        design = tmp_path / "design.vhd"
        design.write_text(workloads.hierarchical_mux_program(), encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        written = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "check", str(design),
                "--secret", "sel", "--transitive", "--json", "--cache-dir", cache_dir,
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "3", "PATH": "/usr/bin:/bin"},
        )
        assert written.returncode == 3, written.stderr
        checked = Workspace(cache_dir=cache_dir).check(
            design.read_text(encoding="utf-8"),
            TwoLevelPolicy(secret_resources=["sel"]),
            transitive=True,
        )
        assert checked.run.cached_stages == ["report_json"]
        spliced = json.loads(json_text(checked.document(file=str(design))))
        cold = json.loads(written.stdout)
        for document in (spliced, cold):
            del document["timings"], document["cached_stages"]
        assert spliced == cold


class TestTheKey:
    SOURCE = workloads.producer_consumer_program()

    def test_equal_policies_built_differently_share_a_key(self, tmp_path):
        assert report_key(TwoLevelPolicy(["left", "right"])) == report_key(
            TwoLevelPolicy(["right", "left"])
        )
        path = tmp_path / "tiers.toml"
        path.write_text(
            'name = "tiers"\ndefault = "low"\n'
            "[levels]\nlow = 0\nmid = 1\ntop = 2\n"
            '[resources]\n"s*" = "top"\n"l?ft" = "top"\n"h[a-z]" = "mid"\n'
            '"r*" = "mid"\n'
            '[[allow]]\nfrom = "low"\nto = "top"\n'
            '[[allow]]\nfrom = "low"\nto = "mid"\n',
            encoding="utf-8",
        )
        assert report_key(load_policy_file(path)) == report_key(policy_from_dict(DOCUMENT))
        # A two-level policy is the in-code policy of the same content.
        two_level = FlowPolicy(
            levels={"left": Clearance(1, "secret")},
            permitted={(Clearance(0, "public"), Clearance(1, "secret"))},
        )
        assert report_key(two_level) == report_key(TwoLevelPolicy(["left"]))
        # An equal policy is served the other's entry.
        workspace = Workspace()
        workspace.check(self.SOURCE, DOCUMENT)
        assert workspace.check(self.SOURCE, path).run.cached_stages == ["report_json"]

    @pytest.mark.parametrize(
        "change",
        [
            "level",
            "permitted",
            "pattern_order",
            "default",
            "transitive",
            "restrict_to_ports",
            "outputs",
        ],
    )
    def test_one_difference_changes_the_key(self, change):
        base = dict(DOCUMENT, resources=dict(DOCUMENT["resources"]))
        options = {}
        other, other_options = copy.deepcopy(base), {}
        if change == "level":
            other["resources"]["r*"] = "top"
        elif change == "permitted":
            other["allow"] = other["allow"][:1]
        elif change == "pattern_order":
            other["resources"] = dict(reversed(list(other["resources"].items())))
        elif change == "default":
            other["default"] = "mid"
        elif change == "outputs":
            options, other_options = {"outputs": ["result"]}, {"outputs": ["mixed"]}
        else:
            other_options = {change: True}
        first = report_key(policy_from_dict(base), **options)
        second = report_key(policy_from_dict(other), **other_options)
        assert first is not None and second is not None and first != second
        # The pipeline keys each apart: the second check renders again.
        workspace = Workspace()
        workspace.check(self.SOURCE, base, **options)
        again = workspace.check(self.SOURCE, other, **other_options)
        assert "report_json" in again.run.computed_stages

    def test_outputs_key_as_a_set(self):
        policy = TwoLevelPolicy(["left"])
        assert report_key(policy, outputs=["a", "b", "a"]) == report_key(
            policy, outputs=["b", "a"]
        )
        assert report_key(policy, outputs=[]) != report_key(policy)

    def test_the_key_does_not_follow_string_hashing(self):
        script = (
            "from repro.security.policy import TwoLevelPolicy\n"
            "from repro.security.policy_file import policy_from_dict\n"
            "from repro.security.report import report_key\n"
            f"document = {DOCUMENT!r}\n"
            "print(report_key(TwoLevelPolicy(['e', 'd', 'c', 'b', 'a'])))\n"
            "print(report_key(policy_from_dict(document), outputs=['z', 'y', 'x']))\n"
            "print(report_key(policy_from_dict(document), transitive=True))\n"
        )
        printed = []
        for seed in ("0", "7"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            assert result.returncode == 0, result.stderr
            printed.append(result.stdout)
        assert printed[0] == printed[1]
        assert len(set(printed[0].split())) == 3


class _Inverted(FlowPolicy):
    """A policy whose check cannot be told from its data."""

    def allows(self, source, target):
        return source != target


class TestSubclasses:
    def test_a_subclass_is_never_served_or_stored(self, tmp_path):
        source = workloads.producer_consumer_program()
        policy = _Inverted(levels={"left": TOP})
        assert report_key(policy) is None
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            workspace = Workspace(cache_dir=str(cache_dir))
            for _ in range(2):
                checked = workspace.check(source, policy)
                assert "report_json" in checked.run.computed_stages
                assert "report_json" not in checked.run.cached_stages
            assert not any(
                key.startswith("report_json:") for key in workspace.cache.memory._entries
            )
        assert not (cache_dir / "report_json").exists()
        report = _oracle(source, policy, {"transitive": False})
        document = checked.document()
        assert not report.is_clean
        assert json_text(document) == _dumps(_plain(document, report, policy))


class TestWarmReads:
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_a_warm_check_reads_the_reach_and_the_report(self, tmp_path, kind):
        source = SOURCES[kind][0]()
        policy = TwoLevelPolicy(secret_resources=[SOURCES[kind][1][0]])
        cold = Workspace(cache=None).check(source, policy)
        cache_dir = str(tmp_path / "cache")
        Workspace(cache_dir=cache_dir).check(source, policy)
        workspace = Workspace(cache_dir=cache_dir)
        checked = workspace.check(source, policy)
        checked.document()
        checked.to_text()
        assert checked.run.cached_stages == ["report_json"]
        assert checked.run.computed_stages == []
        # The reach record and the entry; the entry holds no bitset, so no
        # universe snapshot is read.
        assert workspace.cache.disk.hits == 2
        assert workspace.cache.disk._universes == {}
        assert checked.run.result is None
        # Every other field resolves on first access, and equals the cold
        # run's.
        assert checked.report.to_json_dict() == cold.report.to_json_dict()
        assert checked.report.to_text() == cold.report.to_text()
        assert checked.violations == cold.violations
        assert checked.diagnostics == cold.diagnostics
        assert checked.result is not None
        assert checked.result.inventory == cold.result.inventory
        assert checked.result.graph.to_adjacency() == cold.result.graph.to_adjacency()

    def test_a_check_after_an_analyze_reads_the_flow_graph(self):
        source = workloads.producer_consumer_program()
        workspace = Workspace(cache=ArtifactCache())
        workspace.analyze_run(source)
        checked = workspace.check(source, TwoLevelPolicy(["left"]))
        assert checked.run.cached_stages == ["flow_graph", "inventory"]
        assert checked.run.computed_stages == ["report", "report_json"]


#: Diagnostics the writer renders: every kind of character ``json``
#: escapes or passes through, and an empty witness path.
DIAGNOSTICS = [
    Diagnostic("IFA001", "error", 'a "quoted" \\ message', "a", "b", "s", "p", ("a", "b")),
    Diagnostic(
        "IFA002", "error", "tab\tnew\nline", "x\x00", "astral\U0001f600", "é", "p",
        ("x\x00", "n◦", "m•", "astral\U0001f600"),
    ),
    Diagnostic("IFA001", "warning", "", "", "", "", "", ()),
]


class TestTheWriter:
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_the_writer_matches_json_text(self, count):
        diagnostics = DIAGNOSTICS[:count]
        plain = [diagnostic.to_dict() for diagnostic in diagnostics]
        text = _violations_json(diagnostics)
        assert text == _one_level_down(plain).encode("utf-8")
        document = {"schema": "x", "violations": RenderedList(text), "tail": [1]}
        assert json_text(document) == _dumps({**document, "violations": plain})
        batch = {"jobs": [{"violations": RenderedList(text), "ok": True}]}
        assert json_text(batch) == _dumps({"jobs": [{"violations": plain, "ok": True}]})

    def test_the_artefact_holds_what_a_check_prints(self):
        source = workloads.challenge_f_program()
        report = _oracle(source, TwoLevelPolicy(["key"]), {})
        rendered = render_report_json(report)
        plain = report.to_json_dict()
        assert rendered.design == plain["design"]
        assert rendered.clean is plain["clean"]
        assert json.loads(rendered.violations) == plain["violations"]
        assert rendered.output_dependencies == plain["output_dependencies"]
        assert (rendered.nodes, rendered.edges) == tuple(plain["summary"].values())
        assert rendered.text == report.to_text()


class TestRenderedList:
    TEXT = _violations_json(DIAGNOSTICS)
    PLAIN = [diagnostic.to_dict() for diagnostic in DIAGNOSTICS]

    def test_it_reads_as_the_list_it_renders(self):
        member = RenderedList(self.TEXT)
        assert member == self.PLAIN and self.PLAIN == member
        assert member == RenderedList(self.TEXT)
        assert member != self.PLAIN[:2] and member != tuple(self.PLAIN)
        assert member[0] == self.PLAIN[0] and member[-1] == self.PLAIN[-1]
        assert member[1:] == self.PLAIN[1:]
        assert len(member) == 3 and list(member) == self.PLAIN
        assert [item["code"] for item in member] == ["IFA001", "IFA002", "IFA001"]
        assert RenderedList(b"[]") == [] and not RenderedList(b"[]")

    def test_copies_and_pickles_carry_the_text(self):
        member = RenderedList(self.TEXT)
        member[0]  # parsed once
        for other in (
            copy.copy(member),
            copy.deepcopy(member),
            pickle.loads(pickle.dumps(member)),
            copy.deepcopy({"violations": member})["violations"],
        ):
            assert isinstance(other, RenderedList)
            assert other.text == self.TEXT and other == member
        assert len(pickle.dumps(member)) < len(self.TEXT) + 100

    def test_plain_json_dumps_of_a_check_document_raises(self):
        checked = Workspace().check(workloads.challenge_f_program(), TwoLevelPolicy(["key"]))
        with pytest.raises(TypeError, match="RenderedList"):
            json.dumps(checked.document())
