"""Record the consumer-contract corpus from live surfaces.

``record_corpus`` boots each server profile (see
:mod:`repro.contract.profiles`), plays a fixed inventory of requests
against it — every serve endpoint including the 400/404/405/409/413/429/504
error paths — runs the five JSON CLI subcommands (``cache stats`` over an
empty cache directory, the others over the paper workloads), and captures
each round-trip as a normalised
:class:`repro.contract.model.Interaction`.  Volatile fields are masked
*at record time* using the authoritative matcher tables from
:func:`repro.pipeline.render.volatile_pointers`, so committed files pin
exactly the stable surface.

The inventory asserts the status / exit code of every recording — a
recording that does not reproduce its expected outcome is a bug in the
profile table, and must fail loudly here rather than commit a lie.

CLI argv entries use ``@workloads/…`` and ``@fixtures/…`` placeholders, so
no absolute path reaches a committed file.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import workloads
from repro.pipeline.render import volatile_pointers
from repro.pipeline.serve import interaction_id as serve_interaction_id

from .matchers import normalize
from .model import KIND_CLI, KIND_HTTP, Corpus, Interaction
from .profiles import (
    CONFLICTING_POLICY,
    HANG_MARKER,
    MLS_POLICY,
    PROFILES,
    boot,
    http_request,
    materialize_inputs,
    resolve_argv,
    run_cli,
    saturated,
)

#: The secret input resource of each paper workload (drives /check requests).
WORKLOAD_SECRETS: Dict[str, str] = {
    "paper_program_a": "a",
    "paper_program_b": "a",
    "challenge_f": "key",
    "producer_consumer": "left",
    "conditional": "sel",
    "two_phase": "x",
    "overwriting_loop": "data",
    "synthetic_chain": "chain_in",
}


@dataclass(frozen=True)
class _HttpPlan:
    description: str
    profile: str
    method: str
    path: str
    payload: Optional[Dict[str, Any]]
    expected_status: int
    command: str  # selects the volatile_pointers matcher table


@dataclass(frozen=True)
class _CliPlan:
    description: str
    argv: Tuple[str, ...]  # with @workloads/ / @fixtures/ placeholders
    expected_exit: int
    command: str


def _http_inventory() -> List[_HttpPlan]:
    sources = dict(workloads.batch_workload_sources())
    plans: List[_HttpPlan] = []
    for name, source in sources.items():
        plans.append(
            _HttpPlan(
                f"analyze {name}", "default", "POST", "/analyze",
                {"source": source}, 200, "analyze",
            )
        )
    for name, source in sources.items():
        payload: Dict[str, Any] = {
            "source": source,
            "secret": [WORKLOAD_SECRETS[name]],
        }
        if name == "challenge_f":
            payload["output"] = ["leak"]
        plans.append(
            _HttpPlan(
                f"check {name} secret", "default", "POST", "/check",
                payload, 200, "check",
            )
        )
    for name, source in sources.items():
        plans.append(
            _HttpPlan(
                f"lint {name}", "default", "POST", "/lint",
                {"source": source}, 200, "lint",
            )
        )
    hier = dict(workloads.hierarchy_workload_sources())
    plans.append(
        _HttpPlan(
            "analyze hierarchical mux", "default", "POST", "/analyze",
            {"source": hier["mux_top"]}, 200, "analyze",
        )
    )
    plans.append(
        _HttpPlan(
            "check hierarchical mux secret", "default", "POST", "/check",
            {"source": hier["mux_top"], "secret": ["sel"]}, 200, "check",
        )
    )
    plans.append(
        _HttpPlan(
            "lint hierarchical mux", "default", "POST", "/lint",
            {"source": hier["mux_top"]}, 200, "lint",
        )
    )
    plans.append(
        _HttpPlan(
            "analyze unbound formal port", "default", "POST", "/analyze",
            {
                "source": hier["mux_top"].replace(
                    "port map (lo, sel, n2)", "port map (lo, sel)"
                )
            },
            400, "error",
        )
    )
    plans.extend(
        [
            _HttpPlan(
                "policy register mls", "default", "POST", "/policy",
                dict(MLS_POLICY), 200, "policy",
            ),
            _HttpPlan(
                "policy invalid level rank", "default", "POST", "/policy",
                {"levels": {"public": "zero"}}, 400, "error",
            ),
            _HttpPlan(
                "analyze parse error", "default", "POST", "/analyze",
                {"source": "entity broken"}, 400, "error",
            ),
            _HttpPlan(
                "analyze missing source", "default", "POST", "/analyze",
                {}, 400, "error",
            ),
            _HttpPlan(
                "unknown path", "default", "POST", "/nope", {}, 404, "error",
            ),
            _HttpPlan(
                "analyze wrong method", "default", "GET", "/analyze",
                None, 405, "error",
            ),
            _HttpPlan(
                "version wrong method", "default", "POST", "/version",
                {}, 405, "error",
            ),
            _HttpPlan(
                "analyze oversized body", "limits", "POST", "/analyze",
                {"source": "-- padding\n" + "x" * 4096}, 413, "error",
            ),
            _HttpPlan(
                "policy conflicting redefinition", "conflict", "POST", "/policy",
                dict(CONFLICTING_POLICY), 409, "error",
            ),
            _HttpPlan(
                "stats snapshot", "ops-inline", "GET", "/stats", None, 200, "stats",
            ),
            _HttpPlan(
                "version document", "ops-inline", "GET", "/version",
                None, 200, "version",
            ),
            _HttpPlan(
                "healthz inline", "ops-inline", "GET", "/healthz",
                None, 200, "healthz",
            ),
            _HttpPlan(
                "metrics inline", "ops-inline", "GET", "/metrics",
                None, 200, "metrics",
            ),
            _HttpPlan(
                "healthz pool", "ops-pool", "GET", "/healthz",
                None, 200, "healthz",
            ),
            _HttpPlan(
                "metrics pool", "ops-pool", "GET", "/metrics",
                None, 200, "metrics",
            ),
            _HttpPlan(
                "analyze hung worker times out", "hang", "POST", "/analyze",
                {
                    "source": workloads.challenge_f_program()
                    + f"\n-- {HANG_MARKER}\n"
                },
                504, "error",
            ),
            _HttpPlan(
                "analyze shed at capacity", "shed", "POST", "/analyze",
                {"source": workloads.paper_program_a()}, 429, "error",
            ),
        ]
    )
    return plans


def _cli_inventory() -> List[_CliPlan]:
    return [
        _CliPlan(
            "cli analyze challenge-f",
            ("analyze", "@workloads/challenge_f.vhd", "--json"), 0, "analyze",
        ),
        _CliPlan(
            "cli analyze conditional",
            ("analyze", "@workloads/conditional.vhd", "--json"), 0, "analyze",
        ),
        _CliPlan(
            "cli check challenge-f clean",
            (
                "check", "@workloads/challenge_f.vhd",
                "--secret", "key", "--output", "leak", "--json",
            ),
            0, "check",
        ),
        _CliPlan(
            "cli check producer-consumer violation",
            (
                "check", "@workloads/producer_consumer.vhd",
                "--secret", "left", "--json",
            ),
            3, "check",
        ),
        _CliPlan(
            "cli check challenge-f policy file",
            (
                "check", "@workloads/challenge_f.vhd",
                "--policy", "@fixtures/mls.json", "--json",
            ),
            3, "check",
        ),
        _CliPlan(
            "cli lint overwriting-loop",
            (
                "lint", "@workloads/overwriting_loop.vhd",
                "--json", "--fail-on", "never",
            ),
            0, "lint",
        ),
        _CliPlan(
            "cli lint synthetic-chain",
            (
                "lint", "@workloads/synthetic_chain.vhd",
                "--json", "--fail-on", "never",
            ),
            0, "lint",
        ),
        _CliPlan(
            "cli analyze hierarchical mux",
            ("analyze", "@workloads/mux_top.vhd", "--json"), 0, "analyze",
        ),
        _CliPlan(
            "cli analyze hierarchical mux flattened",
            ("analyze", "@workloads/mux_top.vhd", "--json", "--flatten"),
            0, "analyze",
        ),
        _CliPlan(
            "cli batch sequential",
            (
                "batch", "@workloads/paper_program_a.vhd",
                "@workloads/paper_program_b.vhd", "@workloads/two_phase.vhd",
                "--sequential", "--json",
            ),
            0, "batch",
        ),
        _CliPlan(
            "cli cache stats empty",
            ("cache", "stats", "--cache-dir", "@fixtures/empty-cache", "--json"),
            0, "cache-stats",
        ),
    ]


def _record_http(log: Optional[Callable[[str], None]]) -> List[Interaction]:
    from repro.pipeline.render import SCHEMA_VERSION

    interactions: List[Interaction] = []
    plans = _http_inventory()
    by_profile: Dict[str, List[_HttpPlan]] = {}
    for plan in plans:
        by_profile.setdefault(plan.profile, []).append(plan)
    for profile_name, group in by_profile.items():
        profile = PROFILES[profile_name]
        with boot(profile, mode="inline") as server:
            with saturated(server, profile):
                for plan in group:
                    status, document, headers = http_request(
                        server.port, plan.method, plan.path, plan.payload
                    )
                    if status != plan.expected_status:
                        raise RuntimeError(
                            f"recording {plan.description!r}: expected status "
                            f"{plan.expected_status}, server answered {status}: "
                            f"{document}"
                        )
                    if status != 413:  # a 413 is rejected before the body is read
                        body = (
                            b""
                            if plan.payload is None
                            else json.dumps(plan.payload).encode("utf-8")
                        )
                        expected_header = serve_interaction_id(
                            plan.method, plan.path, body
                        )
                        if headers.get("X-Interaction-Id") != expected_header:
                            raise RuntimeError(
                                f"recording {plan.description!r}: X-Interaction-Id "
                                f"header {headers.get('X-Interaction-Id')!r} does "
                                f"not match the request address {expected_header!r}"
                            )
                    matchers = volatile_pointers(plan.command)
                    interaction = Interaction.build(
                        description=plan.description,
                        schema=str(document.get("schema", SCHEMA_VERSION)),
                        profile=plan.profile,
                        request={
                            "kind": KIND_HTTP,
                            "method": plan.method,
                            "path": plan.path,
                            "body": plan.payload,
                        },
                        response={
                            "status": status,
                            "document": normalize(document, matchers),
                        },
                        matchers=matchers,
                    )
                    interactions.append(interaction)
                    if log:
                        log(
                            f"recorded {interaction.id}  {plan.method} "
                            f"{plan.path} -> {status}  [{plan.profile}] "
                            f"{plan.description}"
                        )
    return interactions


def _record_cli(
    root: Path, log: Optional[Callable[[str], None]]
) -> List[Interaction]:
    from repro.pipeline.render import SCHEMA_VERSION

    interactions: List[Interaction] = []
    for plan in _cli_inventory():
        exit_code, document = run_cli(resolve_argv(plan.argv, root))
        if exit_code != plan.expected_exit:
            raise RuntimeError(
                f"recording {plan.description!r}: expected exit "
                f"{plan.expected_exit}, CLI exited {exit_code}"
            )
        matchers = volatile_pointers(plan.command)
        interaction = Interaction.build(
            description=plan.description,
            schema=str(document.get("schema", SCHEMA_VERSION)),
            profile="cli",
            request={"kind": KIND_CLI, "argv": list(plan.argv)},
            response={
                "exit_code": exit_code,
                "document": normalize(document, matchers),
            },
            matchers=matchers,
        )
        interactions.append(interaction)
        if log:
            log(
                f"recorded {interaction.id}  vhdl-ifa "
                f"{' '.join(plan.argv)} -> exit {exit_code}"
            )
    return interactions


def record_corpus(
    scratch: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Corpus:
    """Record the full corpus; ``scratch`` holds workload/fixture files."""
    if scratch is None:
        with tempfile.TemporaryDirectory(prefix="vhdl-ifa-contract-") as tmp:
            return record_corpus(Path(tmp), log)
    root = materialize_inputs(Path(scratch))
    interactions = _record_http(log)
    interactions.extend(_record_cli(root, log))
    return Corpus(interactions=interactions)
