"""Every surface of a check prints what its report does, and every
surface of an analyze or a lint what a cache-less workspace does.

A check's outputs read the rendered report (the ``report_json`` stage,
tested with its key and its splice in ``tests/test_check_splice.py``).
These tests hold each output byte-equal to the one built from the report
itself (``CovertChannelReport.to_json_dict()`` and ``to_text()``), on each
surface: the Workspace API, the CLI's ``check`` (``--json`` and text), its
``batch --policy`` (sequential and pooled, ``--json`` and text) and
serve's ``POST /check`` (inline and pooled); from each cache state, for
each kind of policy and each report option, on a flat and a linked source.
Analyze (each shaping flag, and the ``--dot`` text) and lint (default
settings and a policy's ``[lint]`` table) get the same matrix, and one
table holds the exit codes of ``--fail-on``.
"""

import http.client
import json

import pytest

from repro import Workspace, workloads
from repro.cli import main
from repro.pipeline import (
    AnalysisServer,
    ServerThread,
    analyze_document,
    json_text,
    render_analysis_text,
)
from repro.security.policy import TwoLevelPolicy
from repro.security.policy_file import policy_from_dict
from test_check_splice import (
    CACHES,
    DOCUMENT,
    OPTIONS,
    POLICIES,
    SOURCES,
    _check_kwargs,
    _dumps,
    _oracle,
    _plain,
    _policy,
    _report_options,
    _warm,
    _workspace,
)


#: Designs of every size of report: (program, secret, check options, what
#: the report must show).
DESIGNS = {
    "no-violations": (
        workloads.challenge_f_program,
        "key",
        {"outputs": ["leak"]},
        lambda report: report.is_clean,
    ),
    "witness-paths": (
        workloads.challenge_f_program,
        "key",
        {"transitive": True},
        lambda report: any(len(v.path) > 2 for v in report.violations),
    ),
    "over-500-violations": (
        lambda: workloads.synthetic_chain_program(8, 32),
        "chain_in",
        {},
        lambda report: len(report.violations) > 500,
    ),
}


class TestWorkspace:
    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("name", POLICIES)
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_every_output_equals_the_report(self, tmp_path, kind, name, option, cache):
        source = SOURCES[kind][0]()
        workspace = _workspace(cache, tmp_path)
        spec, policy = _policy(name, kind, workspace, tmp_path)
        kwargs = _check_kwargs(option, kind)

        def check(on):
            if name == "registered":
                on.register_policy("tiers", DOCUMENT)
            return on.check(source, spec, **kwargs)

        _warm(cache, workspace, check)
        checked = check(workspace)
        warm = cache in ("memory", "disk-warm")
        assert checked.run.cached_stages == (["report_json"] if warm else [])
        report = _oracle(source, policy, _report_options(option, kind, policy))
        document = checked.document(file="design.vhd")
        assert json_text(document) == _dumps(_plain(document, report, policy))
        assert checked.to_text() == report.to_text()
        assert checked.clean is report.is_clean
        assert checked.exit_code == (0 if report.is_clean else 3)
        assert document["violations"] == report.to_json_dict()["violations"]

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_designs_of_every_size(self, tmp_path, design, cache):
        program, secret, kwargs, check_report = DESIGNS[design]
        source = program()
        policy = TwoLevelPolicy(secret_resources=[secret])
        workspace = _workspace(cache, tmp_path)
        _warm(cache, workspace, lambda on: on.check(source, policy, **kwargs))
        checked = workspace.check(source, policy, **kwargs)
        options = {"transitive": False, "restrict_to_ports": False, **kwargs}
        report = _oracle(source, policy, options)
        assert check_report(report)
        document = checked.document()
        assert json_text(document) == _dumps(_plain(document, report, policy))
        assert checked.to_text() == report.to_text()


def _cli_flags(option, kind):
    if option == "transitive":
        return ["--transitive"]
    if option == "ports_only":
        return ["--ports-only"]
    if option == "output":
        return ["--output", SOURCES[kind][2]]
    return []


class TestCLI:
    @pytest.mark.parametrize("cache", ["none", "disk-cold", "disk-warm"])
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("name", ["secret", "file"])
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_json_and_text_equal_the_report(
        self, tmp_path, capsys, kind, name, option, cache
    ):
        source = SOURCES[kind][0]()
        path = tmp_path / "design.vhd"
        path.write_text(source, encoding="utf-8")
        _, policy = _policy(name, kind, None, tmp_path)
        argv = ["check", str(path)]
        if name == "secret":
            argv += ["--secret", SOURCES[kind][1][0]]
        else:
            argv += ["--policy", str(tmp_path / "tiers.json")]
        argv += _cli_flags(option, kind)
        if cache == "none":
            argv.append("--no-cache")
        else:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        report = _oracle(source, policy, _report_options(option, kind, policy))
        status = 0 if report.is_clean else 3
        if cache == "disk-warm":
            assert main(argv) == status
            capsys.readouterr()
        assert main([*argv, "--json"]) == status
        printed = capsys.readouterr().out
        document = json.loads(printed)
        assert (document["cached_stages"] == ["report_json"]) is (cache == "disk-warm")
        assert printed == _dumps(_plain(document, report, policy)) + "\n"
        assert main(argv) == status
        assert capsys.readouterr().out == report.to_text() + "\n"


class TestBatch:
    @pytest.mark.parametrize(
        "mode,cache",
        [
            ("sequential", "none"),
            ("sequential", "disk-cold"),
            ("sequential", "disk-warm"),
            ("pooled", "none"),
            ("pooled", "disk-warm"),
        ],
    )
    def test_jobs_equal_their_reports(self, tmp_path, capsys, mode, cache):
        paths, sources = [], []
        for kind in sorted(SOURCES):
            source = SOURCES[kind][0]()
            path = tmp_path / f"{kind}.vhd"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
            sources.append(source)
        _, policy = _policy("file", "flat", None, tmp_path)
        argv = ["batch", *paths, "--policy", str(tmp_path / "tiers.json")]
        argv += ["--sequential"] if mode == "sequential" else ["--jobs", "2"]
        if cache == "none":
            argv.append("--no-cache")
        else:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        reports = [
            _oracle(source, policy, {"transitive": policy.transitive})
            for source in sources
        ]
        if cache == "disk-warm":
            main(argv)
            capsys.readouterr()
        status = 0 if all(report.is_clean for report in reports) else 3
        assert main([*argv, "--json"]) == status
        printed = capsys.readouterr().out
        document = json.loads(printed)
        plain = dict(document)
        plain["jobs"] = []
        for job, report in zip(document["jobs"], reports):
            head = {key: job[key] for key in ("file", "entity", "ok", "seconds")}
            plain["jobs"].append(
                {
                    **head,
                    **report.to_json_dict(),
                    "timings": job["timings"],
                    "cached_stages": job["cached_stages"],
                }
            )
            warm = cache == "disk-warm"
            assert (job["cached_stages"] == ["report_json"]) is warm
        assert printed == _dumps(plain) + "\n"
        assert main(argv) == status
        expected = "".join(
            f"== {path} ==\n{report.to_text()}\n" for path, report in zip(paths, reports)
        )
        assert capsys.readouterr().out == expected


@pytest.fixture(scope="module", params=["inline", "pooled"])
def server(request, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
    workers = 1 if request.param == "pooled" else None
    with ServerThread(
        AnalysisServer(
            port=0,
            workspace=Workspace(cache_dir=cache_dir, policies={"tiers": DOCUMENT}),
            workers=workers,
            timeout=60.0,
        )
    ) as running:
        yield running


def _post(port, path, payload):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    connection.request("POST", path, body=json.dumps(payload))
    response = connection.getresponse()
    return response.status, response.read()


class TestServe:
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("name", ["secret", "registered", "inline"])
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_bodies_equal_the_report(self, server, kind, name, option):
        source = SOURCES[kind][0]()
        payload = {"source": source}
        if name == "secret":
            payload["secret"] = [SOURCES[kind][1][0]]
            policy = TwoLevelPolicy(secret_resources=payload["secret"])
        else:
            payload["policy"] = "tiers" if name == "registered" else DOCUMENT
            policy = policy_from_dict(DOCUMENT)
        if option == "transitive":
            payload["transitive"] = True
        elif option == "ports_only":
            payload["ports_only"] = True
        elif option == "output":
            payload["output"] = [SOURCES[kind][2]]
        report = _oracle(source, policy, _report_options(option, kind, policy))
        for attempt in ("cold", "warm"):
            status, body = _post(server.port, "/check", payload)
            assert status == 200
            document = json.loads(body)
            if attempt == "warm":
                assert document["cached_stages"] == ["report_json"]
            expected = _dumps(_plain(document, report, policy)) + "\n"
            assert body == expected.encode("utf-8")


# ----------------------------------------------- analyze and lint, as check

#: Sources with lint findings that a ``[lint]`` table changes: an
#: overwritten variable (IFA108, info) and a dead signal (IFA102,
#: warning) in a flat design, and a dead signal in a linked one.
ANALYSIS_SOURCES = {
    "flat": lambda: workloads.challenge_f_program().replace(
        "begin\n  p : process", "  signal dead : std_logic_vector(7 downto 0);\n"
        "begin\n  p : process", 1
    ).replace("    leak <= t;\n", "    leak <= t;\n    dead <= key;\n", 1),
    "linked": lambda: workloads.hierarchical_mux_program().replace(
        "  signal n2 : std_logic;\n",
        "  signal n2 : std_logic;\n  signal dead : std_logic;\n", 1
    ).replace("      o <= n1;\n", "      o <= n1;\n      dead <= hi;\n", 1),
}

#: A policy document of a ``[lint]`` table alone.
LINT_TABLE = {"lint": {"disable": ["IFA108"], "severity": {"IFA102": "error"}}}

#: Each verb's variants, by name: the analyze shaping flags and the text's
#: ``--dot``, and lint with default settings or a policy's ``[lint]`` table.
VARIANTS = {
    "analyze": {
        "plain": {},
        "collapse": {"collapse": True},
        "self-loops": {"self_loops": True},
        "dot": {"collapse": True, "self_loops": True, "dot": True},
    },
    "lint": {"default": {}, "table": {"policy": LINT_TABLE}},
}
CASES = [(verb, variant) for verb in VARIANTS for variant in VARIANTS[verb]]

#: What a warm run of each verb reads: its goals.
WARM_STAGES = {"analyze": ["graph_json", "inventory"], "lint": ["inventory", "lint"]}


def _reference(verb, variant, kind, file=None):
    """The document, text and lint findings a cache-less workspace gives:
    every surface must print the same."""
    source = ANALYSIS_SOURCES[kind]()
    settings = VARIANTS[verb][variant]
    workspace = Workspace(cache=None)
    if verb == "lint":
        linted = workspace.lint(source, policy=settings.get("policy"))
        return linted.document(file=file), linted.to_text(), linted.findings
    flags = {"collapse": False, "self_loops": False, **settings}
    dot = flags.pop("dot", False)
    run = workspace.analyze_run(source, **flags)
    text = render_analysis_text(run.result, dot=dot, **flags)
    return analyze_document(run, file=file), text, None


def _printed(reference, document):
    """What a surface prints for ``reference``, with the volatile members
    of the ``document`` it printed."""
    expected = dict(reference)
    expected["timings"] = document["timings"]
    expected["cached_stages"] = document["cached_stages"]
    return json_text(expected)


def _variant_flags(verb, variant, tmp_path):
    """A variant's CLI flags; a ``[lint]`` table goes to a policy file."""
    settings = VARIANTS[verb][variant]
    flags = [
        "--" + flag.replace("_", "-")
        for flag in ("collapse", "self_loops", "dot")
        if settings.get(flag)
    ]
    if "policy" in settings:
        table = tmp_path / "table.json"
        table.write_text(json.dumps(settings["policy"]), encoding="utf-8")
        flags += ["--policy", str(table)]
    return flags


class TestAnalyzeAndLintWorkspace:
    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("verb,variant", CASES)
    @pytest.mark.parametrize("kind", sorted(ANALYSIS_SOURCES))
    def test_documents_equal_the_reference(self, tmp_path, kind, verb, variant, cache):
        source = ANALYSIS_SOURCES[kind]()
        settings = VARIANTS[verb][variant]
        workspace = _workspace(cache, tmp_path)

        def run(on):
            if verb == "lint":
                return on.lint(source, policy=settings.get("policy"))
            flags = {key: value for key, value in settings.items() if key != "dot"}
            return on.analyze_run(source, **flags)

        _warm(cache, workspace, run)
        result = run(workspace)
        reference, text, findings = _reference(verb, variant, kind, "design.vhd")
        if verb == "lint":
            document = result.document(file="design.vhd")
            assert result.to_text() == text and result.findings == findings
            assert findings  # the sources have findings to configure
            stages = result.run.cached_stages
        else:
            document = analyze_document(result, file="design.vhd")
            stages = result.cached_stages
        warm = cache in ("memory", "disk-warm")
        assert stages == (WARM_STAGES[verb] if warm else [])
        assert json_text(document) == _printed(reference, document)


class TestAnalyzeAndLintCLI:
    @pytest.mark.parametrize("cache", ["none", "disk-cold", "disk-warm"])
    @pytest.mark.parametrize("verb,variant", CASES)
    @pytest.mark.parametrize("kind", sorted(ANALYSIS_SOURCES))
    def test_json_and_text_equal_the_reference(
        self, tmp_path, capsys, kind, verb, variant, cache
    ):
        path = tmp_path / "design.vhd"
        path.write_text(ANALYSIS_SOURCES[kind](), encoding="utf-8")
        argv = [verb, str(path), *_variant_flags(verb, variant, tmp_path)]
        if verb == "lint":
            argv += ["--fail-on", "never"]
        if cache == "none":
            argv.append("--no-cache")
        else:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        reference, text, _ = _reference(verb, variant, kind, str(path))
        if cache == "disk-warm":
            assert main(argv) == 0
            capsys.readouterr()
        assert main([*argv, "--json"]) == 0
        printed = capsys.readouterr().out
        document = json.loads(printed)
        assert (document["cached_stages"] == WARM_STAGES[verb]) is (cache == "disk-warm")
        assert printed == _printed(reference, document) + "\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == text + "\n"


class TestAnalyzeAndLintBatch:
    @pytest.mark.parametrize(
        "mode,cache",
        [
            ("sequential", "none"),
            ("sequential", "disk-cold"),
            ("sequential", "disk-warm"),
            ("pooled", "none"),
            ("pooled", "disk-warm"),
        ],
    )
    @pytest.mark.parametrize("verb,variant", CASES)
    def test_jobs_equal_the_reference(self, tmp_path, capsys, verb, variant, mode, cache):
        paths = []
        for kind in sorted(ANALYSIS_SOURCES):
            path = tmp_path / f"{kind}.vhd"
            path.write_text(ANALYSIS_SOURCES[kind](), encoding="utf-8")
            paths.append(str(path))
        argv = ["batch", *paths, *_variant_flags(verb, variant, tmp_path)]
        if verb == "lint":
            # The jobs analyse, or check the [lint] table's policy, and each
            # carries the lint section.
            argv += ["--lint", "--fail-on", "never"]
        argv += ["--sequential"] if mode == "sequential" else ["--jobs", "2"]
        if cache == "none":
            argv.append("--no-cache")
        else:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        if cache == "disk-warm":
            assert main(argv) == 0
            capsys.readouterr()
        assert main([*argv, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        printed = capsys.readouterr().out
        expected_text = ""
        for job, path, kind in zip(document["jobs"], paths, sorted(ANALYSIS_SOURCES)):
            reference, text, _ = _reference(verb, variant, kind)
            if verb == "lint":
                # The lint section is the lint document's body, and the text
                # follows the job's own.
                lint = {key: reference[key] for key in ("clean", "findings", "summary")}
                assert json_text(job["lint"]) == json_text(lint)
                if variant == "table":
                    checked = Workspace(cache=None).check(
                        ANALYSIS_SOURCES[kind](), LINT_TABLE
                    )
                    reference, own = checked.document(), checked.to_text()
                else:
                    reference, own, _ = _reference("analyze", "plain", kind)
                text = f"{own}\n\n{text}"
            head = {key: job[key] for key in ("file", "entity", "ok", "seconds")}
            payload = {
                key: value
                for key, value in reference.items()
                if key not in ("schema", "command", "policy")
            }
            if verb == "lint":
                payload["lint"] = job["lint"]
            assert json_text(job) == _printed({**head, **payload}, job)
            warm = cache == "disk-warm"
            stages = ["report_json"] if variant == "table" else WARM_STAGES["analyze"]
            stages = stages + ["lint"] if verb == "lint" else stages
            assert (job["cached_stages"] == stages) is warm
            expected_text += f"== {path} ==\n{text}\n"
        assert printed == expected_text


class TestAnalyzeAndLintServe:
    @pytest.mark.parametrize("verb,variant", CASES)
    @pytest.mark.parametrize("kind", sorted(ANALYSIS_SOURCES))
    def test_bodies_equal_the_reference(self, server, kind, verb, variant):
        settings = VARIANTS[verb][variant]
        payload = {"source": ANALYSIS_SOURCES[kind]()}
        payload.update(
            (key, value) for key, value in settings.items() if key != "dot"
        )
        reference, _, _ = _reference(verb, variant, kind)
        for attempt in ("cold", "warm"):
            status, body = _post(server.port, f"/{verb}", payload)
            assert status == 200
            document = json.loads(body)
            if attempt == "warm":
                assert document["cached_stages"] == WARM_STAGES[verb]
            assert body == (_printed(reference, document) + "\n").encode("utf-8")


#: Designs for the exit-code table: a lint error (IFA101, multiple
#: drivers), a lint warning (IFA102, a dead signal), and neither; the
#: first two also leak ``a`` to the public output ``o``.
EXIT_DESIGNS = {
    "error": """
entity md is
  port( a : in std_logic; o : out std_logic );
end md;
architecture rtl of md is
  signal s : std_logic;
begin
  p1 : process begin s <= a; wait on a; end process p1;
  p2 : process begin s <= a; wait on a; end process p2;
  p3 : process begin o <= s; wait on s; end process p3;
end rtl;
""",
    "warning": """
entity ds is
  port( a : in std_logic; o : out std_logic );
end ds;
architecture rtl of ds is
  signal dead : std_logic;
begin
  p1 : process begin dead <= a; o <= a; wait on a; end process p1;
end rtl;
""",
    "clean": """
entity cl is
  port( a : in std_logic; b : in std_logic; o : out std_logic; p : out std_logic );
end cl;
architecture rtl of cl is
begin
  p1 : process begin o <= b; wait on b; end process p1;
  p2 : process begin p <= a; wait on a; end process p2;
end rtl;
""",
}

#: ``a`` and ``p`` are secret, the rest public.
EXIT_POLICY = {
    "levels": {"low": 0, "high": 1},
    "default": "low",
    "resources": {"a": "high", "p": "high"},
    "allow": [{"from": "low", "to": "high"}],
}

#: (command, design) → the exit code for --fail-on error, warning, never.
EXIT_CODES = {
    ("check", "error"): (3, 3, 0),
    ("check", "warning"): (3, 3, 0),
    ("check", "clean"): (0, 0, 0),
    ("lint", "error"): (3, 3, 0),
    ("lint", "warning"): (0, 3, 0),
    ("lint", "clean"): (0, 0, 0),
    ("batch --policy", "error"): (3, 3, 0),
    ("batch --policy", "warning"): (3, 3, 0),
    ("batch --policy", "clean"): (0, 0, 0),
    ("batch --lint", "error"): (3, 3, 0),
    ("batch --lint", "warning"): (0, 3, 0),
    ("batch --lint", "clean"): (0, 0, 0),
}


class TestExitCodes:
    @pytest.mark.parametrize("fail_on", ["error", "warning", "never"])
    @pytest.mark.parametrize("command,design", sorted(EXIT_CODES))
    def test_the_fail_on_table(self, tmp_path, capsys, command, design, fail_on):
        path = tmp_path / "design.vhd"
        path.write_text(EXIT_DESIGNS[design], encoding="utf-8")
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(EXIT_POLICY), encoding="utf-8")
        verb, _, flag = command.partition(" ")
        argv = [verb, str(path), "--fail-on", fail_on, "--no-cache"]
        if verb == "batch":
            argv.append("--sequential")
        if verb == "check" or flag == "--policy":
            argv += ["--policy", str(policy)]
        elif flag:
            argv.append(flag)
        expected = EXIT_CODES[command, design]
        assert main(argv) == expected[["error", "warning", "never"].index(fail_on)]
        capsys.readouterr()
