"""Robustness: malformed input is a structured error on every surface.

* A seeded mutant run: character-, token- and port-map-level mutants of
  the batch and hierarchy workloads raise nothing but
  :class:`~repro.errors.ReproError` through ``Workspace.analyze`` and
  ``Workspace.lint``.
* Malformed serve payloads answer the same 4xx body in inline and pool
  mode, never a 5xx or an empty reply.
* A design nested past the recursion limit is an analysis error on the
  CLI, on serve and in batch, while the same shapes a little shallower
  still analyse.
"""

import http.client
import json
import random
import re

import pytest

from repro import workloads
from repro.cli import main
from repro.errors import ReproError
from repro.pipeline import AnalysisServer, ServerThread
from repro.workspace import Workspace

SOURCES = workloads.batch_workload_sources() + workloads.hierarchy_workload_sources()

#: Identifiers, and every punctuation character, are one token each.
_TOKEN = re.compile(r"\w+|[^\w\s]")
_PORT_MAP = re.compile(r"port map \(([^)]*)\)")
_OPS = ("delete", "insert", "duplicate", "swap")
_INSERTABLE = "();:=<>,.'\"-_ a0\n"


def _char_mutant(source, op, rng):
    i = rng.randrange(len(source) - 1)
    if op == "delete":
        return i, source[:i] + source[i + 1:]
    if op == "insert":
        return i, source[:i] + rng.choice(_INSERTABLE) + source[i:]
    if op == "duplicate":
        return i, source[:i] + source[i] + source[i:]
    return i, source[:i] + source[i + 1] + source[i] + source[i + 2:]


def _token_mutant(source, spans, op, rng):
    k = rng.randrange(len(spans) - 1)
    (start, end), (next_start, next_end) = spans[k], spans[k + 1]
    token = source[start:end]
    if op == "delete":
        return k, source[:start] + source[end:]
    if op == "insert":
        other_start, other_end = rng.choice(spans)
        return k, source[:start] + source[other_start:other_end] + " " + source[start:]
    if op == "duplicate":
        return k, source[:start] + token + " " + source[start:]
    return k, (
        source[:start] + source[next_start:next_end] + source[end:next_start]
        + token + source[next_end:]
    )


def _port_map_mutants(name, source, rng):
    """Every mutation, on a seeded association of every port map."""
    for number, match in enumerate(_PORT_MAP.finditer(source)):
        associations = [part.strip() for part in match.group(1).split(",")]
        k = rng.randrange(len(associations) - 1)
        formal, arrow, actual = associations[k].rpartition("=>")
        before, after = associations[:k], associations[k + 1:]
        variants = {
            "drop": before + after,
            "duplicate": before + [associations[k]] * 2 + after,
            "swap": before + [after[0], associations[k]] + after[1:],
            "open": before + [formal + arrow + (" open" if arrow else "open")] + after,
            "unknown formal": before + [f"no_such_port => {actual.strip()}"] + after,
            "undeclared actual": before
            + [formal + arrow + (" no_such_signal" if arrow else "no_such_signal")]
            + after,
        }
        for mutation, mutated in variants.items():
            text = source[:match.start(1)] + ", ".join(mutated) + source[match.end(1):]
            yield f"{name} port map {number} {mutation} #{k}", text


def _mutants():
    rng = random.Random(20)
    for name, source in SOURCES:
        spans = [match.span() for match in _TOKEN.finditer(source)]
        for round_ in range(20):
            op = _OPS[round_ % len(_OPS)]
            at, text = _char_mutant(source, op, rng)
            yield f"{name} char {op} @{at}", text
            at, text = _token_mutant(source, spans, op, rng)
            yield f"{name} token {op} #{at}", text
    for name, source in workloads.hierarchy_workload_sources():
        yield from _port_map_mutants(name, source, rng)


class TestMutants:
    def test_mutants_raise_only_repro_errors(self):
        failures, runs = [], 0
        for label, text in _mutants():
            for verb in ("analyze", "lint"):
                runs += 1
                try:
                    getattr(Workspace(cache=None), verb)(text)
                except ReproError:
                    pass
                except Exception as error:  # the gate: nothing else may escape
                    failures.append(f"{label} ({verb}): {error!r}")
        assert runs > 1000
        assert not failures, "\n".join(failures[:20])


# ------------------------------------------------------------ deep nesting


def _deep_parentheses(depth):
    expression = "(" * depth + "a" + ")" * depth
    return f"""
entity deep is
  port (a : in std_logic; y : out std_logic);
end deep;

architecture rtl of deep is
begin
  p : process
  begin
    y <= {expression};
    wait on a;
  end process p;
end rtl;
"""


def _elsif_chain(branches):
    arms = "".join("    elsif s = '1' then\n      y <= b;\n" for _ in range(branches))
    return f"""
entity chain is
  port (a : in std_logic; b : in std_logic; s : in std_logic; y : out std_logic);
end chain;

architecture rtl of chain is
begin
  p : process
  begin
    if s = '0' then
      y <= a;
{arms}    end if;
    wait on a, b, s;
  end process p;
end rtl;
"""


#: (source, the stage it fails in) past the recursion limit.
TOO_DEEP = [
    pytest.param(_deep_parentheses(150), "parse", id="parentheses"),
    pytest.param(_elsif_chain(500), "elaborate", id="elsif"),
]


class TestDeepNesting:
    @pytest.mark.parametrize(
        "source",
        [_deep_parentheses(100), _elsif_chain(300)],
        ids=["parentheses", "elsif"],
    )
    def test_shallower_designs_still_analyse(self, tmp_path, capsys, source):
        path = tmp_path / "design.vhd"
        path.write_text(source, encoding="utf-8")
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "analyze"

    @pytest.mark.parametrize("source, stage", TOO_DEEP)
    def test_cli_exits_1_with_one_error_line(self, tmp_path, capsys, source, stage):
        path = tmp_path / "design.vhd"
        path.write_text(source, encoding="utf-8")
        for argv, where in (
            (["analyze", str(path), "--json"], f"the {stage} stage"),
            (["lint", str(path), "--json"], f"the {stage} stage"),
            (["simulate", str(path)], "vhdl-ifa simulate"),
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: the design nests too deeply for {where}")

    @pytest.mark.parametrize("source, stage", TOO_DEEP)
    def test_batch_reports_the_job_and_finishes_the_others(
        self, tmp_path, capsys, source, stage
    ):
        deep = tmp_path / "deep.vhd"
        deep.write_text(source, encoding="utf-8")
        fine = tmp_path / "fine.vhd"
        fine.write_text(workloads.challenge_f_program(), encoding="utf-8")
        for mode in (["--sequential"], ["--jobs", "2"]):
            argv = ["batch", str(deep), str(fine), "--json", *mode]
            assert main(argv) == 1
            document = json.loads(capsys.readouterr().out)
            assert document["parallel"] == (mode != ["--sequential"])
            failed, finished = document["jobs"]
            assert failed["error_kind"] == "analysis"
            assert f"nests too deeply for the {stage} stage" in failed["error"]
            assert finished["ok"] and finished["design"] == "challenge_f"


# ------------------------------------------------------ malformed payloads

_SOURCE = workloads.challenge_f_program()

#: (path, raw body) pairs both serve modes must answer with one 4xx body.
MALFORMED = [
    ("/analyze", {"source": _SOURCE, "entity": 5}),
    ("/analyze", {"source": _SOURCE, "entity": ["x"]}),
    ("/lint", {"source": _SOURCE, "entity": {"name": "x"}}),
    ("/check", {"source": _SOURCE, "secret": [["key"]]}),
    ("/check", {"source": _SOURCE, "secret": [1, 2]}),
    ("/check", {"source": _SOURCE, "secret": ["key"], "output": [1]}),
    ("/check", {"source": _SOURCE, "secret": ["key"], "output": [["leak"]]}),
    ("/analyze", {"source": _SOURCE, "basic": "false"}),
    ("/analyze", {"source": _SOURCE, "collapse": "no"}),
    ("/analyze", {"source": _SOURCE, "self_loops": 1}),
    ("/lint", {"source": _SOURCE, "straight_line": "false"}),
    ("/check", {"source": _SOURCE, "secret": ["key"], "transitive": "yes"}),
    ("/check", {"source": _SOURCE, "secret": ["key"], "ports_only": 0}),
    ("/analyze", "[" * 200_000),
    ("/check", '{"source": ' + "[" * 200_000),
    *(("/analyze", {"source": deep.values[0]}) for deep in TOO_DEEP),
    *(("/check", {"source": deep.values[0], "secret": ["a"]}) for deep in TOO_DEEP),
]


def _post(port, path, payload):
    body = payload if isinstance(payload, str) else json.dumps(payload)
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    connection.request("POST", path, body=body.encode("utf-8"))
    response = connection.getresponse()
    return response.status, response.read().decode("utf-8")


class TestMalformedPayloads:
    def test_inline_and_pool_answer_the_same_4xx(self):
        answers = []
        for workers in (None, 1):
            server = AnalysisServer(port=0, workers=workers, timeout=30.0)
            with ServerThread(server) as running:
                answers.append(
                    [_post(running.port, path, body) for path, body in MALFORMED]
                )
        for (path, body), inline, pooled in zip(MALFORMED, *answers):
            label = f"{path} {str(body)[:80]!r}"
            assert inline == pooled, label
            status, text = inline
            assert 400 <= status < 500, (label, text)
            assert json.loads(text)["error"], label

    def test_a_flag_is_a_json_boolean_and_null_keeps_its_default(self):
        server = AnalysisServer(port=0, timeout=30.0)
        with ServerThread(server) as running:
            status, text = _post(
                running.port, "/analyze", {"source": _SOURCE, "basic": "false"}
            )
            assert status == 400
            assert json.loads(text)["error"] == "'basic' must be true or false"
            defaults = _post(running.port, "/analyze", {"source": _SOURCE})
            nulls = _post(
                running.port,
                "/analyze",
                {"source": _SOURCE, "basic": None, "collapse": None},
            )
            assert nulls[0] == defaults[0] == 200
            nulls, defaults = json.loads(nulls[1]), json.loads(defaults[1])
            assert nulls["options"]["improved"] is True
            assert nulls["graph"] == defaults["graph"]
            # A null list member is absent too.
            checks = [
                _post(running.port, "/check", {"source": _SOURCE, **members})
                for members in ({}, {"output": None}, {"output": None, "secret": None})
            ]
            assert [status for status, _ in checks] == [200, 200, 200]
            documents = [json.loads(text) for _, text in checks]
            for document in documents:
                del document["timings"], document["cached_stages"]
            assert documents[1] == documents[2] == documents[0]
