"""Command-line interface: ``vhdl-ifa``.

Every analysis subcommand is a thin shell over one
:class:`repro.workspace.Workspace`.  ``analyze``, ``check`` and ``lint`` share
one handler, which answers argv as a request on the response path batch jobs
and serve run too (:func:`repro.pipeline.serve.respond`).

Subcommands
-----------
``analyze FILE``
    Run the (improved) Information Flow analysis and print the flow graph as
    an adjacency list or DOT; ``--json`` emits a machine-readable summary
    with per-stage timings instead.  A file with component instantiations is
    analysed hierarchically (per-entity summaries placed into the flat
    design; ``--flatten`` analyses the flattened program instead, the
    oracle — see ``docs/hierarchy.md``).
``kemmerer FILE``
    Run Kemmerer's baseline for comparison.  Takes the same ``--collapse`` /
    ``--self-loops`` graph-shaping flags as ``analyze``.
``check FILE --secret S [--output O]`` / ``check FILE --policy FILE``
    Run the analysis and check a policy: either the two-level policy built
    from ``--secret``/``--output``, or a declarative TOML/JSON policy file
    (clearance levels, resource patterns, permitted flows, checking mode).
    Exits with status 3 when a violation is found (``--fail-on never``
    reports without failing).
``lint FILE``
    Run the static-analysis rule catalog (``docs/lint.md``) over the cached
    pipeline artifacts; ``--policy`` supplies a ``[lint]`` table (rule
    selection, severity overrides), ``--fail-on`` picks the severity that
    trips exit code 3 (default: ``error``), ``--json`` emits the ``lint``
    document.
``batch FILE [FILE ...]``
    Analyse many files (or every entity of each file with ``--all-entities``)
    through the staged pipeline, in parallel by default; per-file output is
    byte-identical to running ``analyze`` on each file.  With ``--policy``
    every job becomes a policy check; ``--lint`` adds the per-file lint
    section.
``simulate FILE --set PORT=VALUE``
    Execute the design with the delta-cycle simulator and print the final
    signal values.  All ``--set`` stimuli are validated before the first
    simulation step, so a malformed setting fails fast.
``cache stats|clear --cache-dir DIR``
    Inspect or empty the persistent artifact store.
``serve``
    Long-lived HTTP service: ``POST /analyze``, ``POST /check``,
    ``POST /lint``, ``POST /policy``, ``GET /healthz``, ``GET /metrics``,
    ``GET /version`` and ``GET /stats`` over one warm two-tier cache;
    responses are byte-identical to ``analyze --json`` / ``check --json`` /
    ``lint --json``.

Exit codes (uniform across subcommands, see ``docs/cli.md``):
``0`` success (and a clean ``check``/``lint``); ``1`` analysis or policy
error (any :class:`~repro.errors.ReproError`: parse, elaboration, analysis,
policy-file validation, bad ``--set``/``--output``); ``2`` unreadable or
undecodable input and usage errors; ``3`` policy violation found (``check``,
``batch --policy``) or lint finding at/above ``--fail-on`` (``lint``,
``batch --lint``); ``141`` broken pipe.

All analysis subcommands accept ``--cache-dir DIR`` (persist artifacts
across invocations in a :class:`repro.pipeline.cache.DiskArtifactCache`) and
``--no-cache`` (bypass every cache tier).  See ``docs/cli.md`` for the full
reference, ``docs/api.md`` for the Workspace API and the policy file format,
and ``docs/cache.md`` for the cache design.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError, nesting_limit
from repro.hier.flatten import flatten_source
from repro.hier.structure import has_instantiations
from repro.pipeline.cache import DiskArtifactCache
from repro.pipeline.render import json_text, render_adjacency, select_graph, stamped
from repro.pipeline.batch import default_workers
from repro.pipeline.serve import respond, serve
from repro.security.policy import TwoLevelPolicy
from repro.semantics.simulator import Simulator
from repro.version import version
from repro.vhdl.elaborate import elaborate
from repro.vhdl.parser import parse_program
from repro.vhdl.stdlogic import value_to_string
from repro.workspace import Workspace

#: The uniform exit-code contract (asserted by the test suite).
EXIT_OK = 0
EXIT_ERROR = 1  # any ReproError: parse/elaboration/analysis/policy errors
EXIT_INPUT = 2  # unreadable or undecodable input, usage errors
EXIT_VIOLATION = 3  # `check` (or `batch --policy`) found a policy violation
EXIT_PIPE = 141  # downstream closed our stdout (conventional SIGPIPE status)


def _read_source(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _print_json(document: dict) -> None:
    print(json_text(document))


def _workspace(args: argparse.Namespace) -> Workspace:
    """The session facade an invocation runs on, from the cache flags."""
    if getattr(args, "no_cache", False):
        return Workspace(cache=None)
    return Workspace(cache_dir=getattr(args, "cache_dir", None))


def _policy_for(args: argparse.Namespace, workspace: Workspace):
    """The policy a ``check``, ``lint`` or ``batch`` invocation names: its
    ``--policy`` file, else a check's two-level ``--secret`` policy."""
    if args.policy:
        return workspace.load_policy(args.policy)
    if args.command == "check":
        return TwoLevelPolicy(secret_resources=args.secret)
    return None


def _profile_document(args: argparse.Namespace, run) -> dict:
    """The ``--profile-json`` sidecar: per-stage timings and hot spots."""
    return stamped(
        {
            "kind": "profile",
            "file": args.file,
            "timings": {
                name: round(seconds, 6) for name, seconds in run.timings.items()
            },
            "cached_stages": run.cached_stages,
            "stages": {
                name: list(entries)
                for name, entries in run.stage_profiles.items()
            },
        }
    )


def _emit_profile(args: argparse.Namespace, run) -> None:
    """Print per-stage cProfile hot spots to stderr / the JSON sidecar."""
    if args.profile:
        for name, entries in run.stage_profiles.items():
            print(f"[profile] stage {name}", file=sys.stderr)
            for entry in entries:
                print(
                    f"[profile]   {entry['tottime']:9.6f}s "
                    f"{entry['calls']:>8} calls  {entry['function']}",
                    file=sys.stderr,
                )
    if args.profile_json:
        Path(args.profile_json).write_text(
            json_text(_profile_document(args, run)) + "\n", encoding="utf-8"
        )


def _cmd_respond(args: argparse.Namespace) -> int:
    """``analyze``, ``check`` and ``lint``: argv as the request serve builds
    from a payload, answered on the response path serve and batch share."""
    source = _read_source(args.file)
    if args.command == "analyze" and args.flatten:
        # The flattening oracle: analyse a hierarchical design's flattened
        # program instead of linking its entity summaries (byte-identical
        # documents; see docs/hierarchy.md).
        with nesting_limit("analyze --flatten"):
            program = parse_program(source)
            if has_instantiations(program):
                source = flatten_source(program, args.entity)
    workspace = _workspace(args)
    request = {
        "source": source,
        "file": args.file,
        "entity": args.entity,
        "improved": not args.basic,
        "loop_processes": not args.straight_line,
    }
    if args.command == "analyze":
        request.update(
            collapse=args.collapse,
            self_loops=args.self_loops,
            dot=args.dot,
            profile=bool(args.profile or args.profile_json),
        )
    else:
        request.update(policy=_policy_for(args, workspace), fail_on=args.fail_on)
    if args.command == "check":
        request.update(
            outputs=args.output or None,
            # None defers to the policy's own mode.
            transitive=True if args.transitive else False if args.direct else None,
            ports_only=args.ports_only,
        )
    response = respond(workspace, args.command, request)
    if request.get("profile"):
        _emit_profile(args, response.run)
    print(json_text(response.document()) if args.json else response.text)
    # Policy violations are all severity "error", so --fail-on warning and
    # the default behave alike for a check; "never" makes a check's and a
    # lint's findings informational.
    return EXIT_OK if getattr(args, "fail_on", None) == "never" else response.exit_code


def _cmd_kemmerer(args: argparse.Namespace) -> int:
    result = (
        _workspace(args)
        .kemmerer_run(
            _read_source(args.file),
            entity=args.entity,
            loop_processes=not args.straight_line,
        )
        .kemmerer
    )
    graph = select_graph(result, args.collapse, args.self_loops)
    print(f"Kemmerer's method: {graph.summary()}")
    if args.dot:
        print(graph.to_dot("kemmerer"))
    else:
        for line in render_adjacency(graph):
            print(line)
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.policy and (args.dot or args.collapse or args.self_loops):
        # Policy jobs render covert-channel reports, not graphs: rejecting
        # the combination beats silently ignoring the flags.
        print(
            "error: --dot/--collapse/--self-loops shape the analyze-style "
            "graph output and do not apply with --policy",
            file=sys.stderr,
        )
        return EXIT_INPUT
    workspace = _workspace(args)
    report = workspace.batch(
        args.files,
        all_entities=args.all_entities,
        parallel=not args.sequential,
        max_workers=args.jobs,
        policy=_policy_for(args, workspace),
        collapse=args.collapse,
        self_loops=args.self_loops,
        dot=args.dot,
        improved=not args.basic,
        loop_processes=not args.straight_line,
        lint=True if args.lint else None,
        fail_on=args.fail_on,
    )
    if args.json:
        _print_json(report.to_json_dict())
        return report.exit_code
    for item in report.items:
        print(f"== {item.job.label} ==")
        if item.ok:
            print(item.text)
        else:
            print(f"error: {item.error}", file=sys.stderr)
    mode = "parallel" if report.parallel else "sequential"
    print(
        f"batch: {len(report.items)} job(s), {len(report.failures)} failed, "
        f"{report.elapsed:.3f}s ({mode}, {report.workers} worker(s))",
        file=sys.stderr,
    )
    return report.exit_code


def _cmd_simulate(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    # Simulation runs outside the pipeline, so it guards its own recursion.
    with nesting_limit("vhdl-ifa simulate"):
        simulator = Simulator(elaborate(parse_program(source), args.entity))
        # Validate the complete stimulus set before the first simulation
        # step: a malformed or unknown --set must fail fast, not after a
        # full run.
        settings = []
        for setting in args.set or []:
            if "=" not in setting:
                raise ReproError(f"--set expects PORT=VALUE, got {setting!r}")
            name, value = setting.split("=", 1)
            name, value = name.strip(), value.strip()
            simulator.validate_drive(name, value)
            settings.append((name, value))
        simulator.run(args.max_deltas)
        for name, value in settings:
            simulator.drive(name, value)
        simulator.run(args.max_deltas)
    print(f"delta cycles: {simulator.delta_cycles}")
    for name, value in sorted(simulator.signal_snapshot().items()):
        print(f"  {name} = {value_to_string(value)}")
    return EXIT_OK


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = DiskArtifactCache(args.cache_dir)
    if args.cache_command == "clear":
        before = cache.stats()
        cache.clear()
        print(
            f"cleared {before['entries']} entries "
            f"({before['bytes']} bytes) from {args.cache_dir}"
        )
        return EXIT_OK
    stats = cache.stats()
    if args.json:
        _print_json(stamped({"command": "cache-stats", **stats}))
        return EXIT_OK
    print(f"cache dir: {stats['path']} (format v{stats['version']})")
    print(
        f"entries: {stats['entries']} ({stats['bytes']} bytes of "
        f"{stats['max_bytes']} budget), universes: {stats['universes']}"
    )
    for stage, count in stats["stages"].items():
        print(f"  {stage}: {count}")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    # The server keeps the in-memory tier for its whole life (that is the
    # point of a long-lived process) unless --no-cache asks for cold runs.
    workspace = _workspace(args)
    for policy_file in args.policy or []:
        workspace.load_policy(policy_file)
    # --workers 0 selects the inline (single-process) mode; the default is
    # a pool sized like the batch driver's.
    workers = default_workers() if args.workers is None else args.workers
    try:
        serve(
            host=args.host,
            port=args.port,
            workspace=workspace,
            workers=workers if workers > 0 else None,
            timeout=args.timeout if args.timeout > 0 else None,
            queue_depth=args.queue_depth,
            announce=lambda url: print(
                f"vhdl-ifa serve: listening on {url}", file=sys.stderr
            ),
        )
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _cmd_contract(args: argparse.Namespace) -> int:
    # Imported here: the contract suite pulls in the serve/pool stack, which
    # plain analysis invocations should not pay for.
    from repro.contract import Corpus, record_corpus, verify_corpus

    pacts = Path(args.pacts)
    record = args.contract_command == "record"
    try:
        corpus = Corpus.load_stimuli(pacts) if record else Corpus.load(pacts)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT
    if record:
        recorded = record_corpus(corpus, log=lambda line: print(line, file=sys.stderr))
        written = recorded.save(pacts)
        print(f"recorded {len(written)} interaction(s) into {pacts}")
        return EXIT_OK
    modes = ("inline", "pool") if args.mode == "both" else (args.mode,)
    failed = False
    for mode in modes:
        report = verify_corpus(
            corpus, mode=mode, log=lambda line: print(line, file=sys.stderr)
        )
        print(report.summary())
        if not report.ok:
            failed = True
            for result in report.failures:
                print(result.describe())
    return EXIT_ERROR if failed else EXIT_OK


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The artifact-cache flags shared by every analysis subcommand."""
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist stage artifacts under DIR and reuse them across runs",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact cache entirely (both tiers)",
    )


def _add_fail_on_flag(parser: argparse.ArgumentParser) -> None:
    """The shared severity → exit-code threshold (``check``/``lint``/``batch``)."""
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help=(
            "lowest finding severity that trips exit code 3 (default: "
            "error; 'never' reports findings without failing)"
        ),
    )


def _add_graph_flags(parser: argparse.ArgumentParser) -> None:
    """The graph-shaping flags shared by ``analyze``, ``kemmerer``, ``batch``."""
    parser.add_argument(
        "--dot", action="store_true", help="emit Graphviz DOT instead of an adjacency list"
    )
    parser.add_argument(
        "--collapse",
        action="store_true",
        help="merge incoming/outgoing nodes into their resources",
    )
    parser.add_argument(
        "--self-loops", action="store_true", help="keep trivial self loops"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="vhdl-ifa",
        description="Information Flow analysis for VHDL1 (Tolstrup/Nielson/Nielson, PaCT 2005)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser("analyze", help="run the information-flow analysis")
    analyze_p.add_argument("file", help="VHDL1 source file")
    analyze_p.add_argument("--entity", help="entity to elaborate", default=None)
    analyze_p.add_argument("--basic", action="store_true", help="disable the improved (Table 9) analysis")
    analyze_p.add_argument("--straight-line", action="store_true", help="analyse process bodies without repetition")
    analyze_p.add_argument(
        "--flatten",
        action="store_true",
        help=(
            "analyse a hierarchical design's flattened program (the test "
            "oracle) instead of linking per-entity summaries (byte-identical "
            "output; no effect on flat designs)"
        ),
    )
    _add_graph_flags(analyze_p)
    analyze_p.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable summary (adjacency, stage timings)",
    )
    analyze_p.add_argument(
        "--profile",
        action="store_true",
        help="run stages under cProfile and print per-stage hot spots to stderr",
    )
    analyze_p.add_argument(
        "--profile-json",
        metavar="PATH",
        default=None,
        help="write the per-stage profile as a JSON sidecar document to PATH",
    )
    _add_cache_flags(analyze_p)
    analyze_p.set_defaults(handler=_cmd_respond)

    kem_p = sub.add_parser("kemmerer", help="run Kemmerer's baseline method")
    kem_p.add_argument("file", help="VHDL1 source file")
    kem_p.add_argument("--entity", default=None)
    kem_p.add_argument("--straight-line", action="store_true")
    _add_graph_flags(kem_p)
    _add_cache_flags(kem_p)
    kem_p.set_defaults(handler=_cmd_kemmerer)

    check_p = sub.add_parser("check", help="check a confidentiality policy")
    check_p.add_argument("file", help="VHDL1 source file")
    check_p.add_argument("--entity", default=None)
    policy_group = check_p.add_mutually_exclusive_group()
    policy_group.add_argument(
        "--secret",
        action="append",
        default=[],
        help="resource holding secret data (repeatable; two-level policy)",
    )
    policy_group.add_argument(
        "--policy",
        default=None,
        metavar="FILE",
        help="declarative TOML/JSON policy file (levels, resources, allowed flows)",
    )
    check_p.add_argument(
        "--output",
        action="append",
        default=[],
        help="restrict reported sinks to this resource (repeatable)",
    )
    check_p.add_argument("--basic", action="store_true", help="disable the improved (Table 9) analysis")
    check_p.add_argument("--straight-line", action="store_true", help="analyse process bodies without repetition")
    mode_group = check_p.add_mutually_exclusive_group()
    mode_group.add_argument(
        "--transitive",
        action="store_true",
        help="check paths instead of direct edges (Kemmerer-style, conservative)",
    )
    mode_group.add_argument(
        "--direct",
        action="store_true",
        help="check direct edges only, overriding a policy file's mode = \"transitive\"",
    )
    check_p.add_argument(
        "--ports-only",
        action="store_true",
        help="only report flows whose endpoints are entity ports",
    )
    check_p.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable verdict (violations, stage timings)",
    )
    _add_fail_on_flag(check_p)
    _add_cache_flags(check_p)
    check_p.set_defaults(handler=_cmd_respond)

    lint_p = sub.add_parser(
        "lint", help="run the static-analysis rule catalog (docs/lint.md)"
    )
    lint_p.add_argument("file", help="VHDL1 source file")
    lint_p.add_argument("--entity", default=None, help="entity to elaborate")
    lint_p.add_argument(
        "--policy",
        default=None,
        metavar="FILE",
        help=(
            "TOML/JSON policy file whose [lint] table selects rules and "
            "overrides severities"
        ),
    )
    lint_p.add_argument("--basic", action="store_true", help="disable the improved (Table 9) analysis")
    lint_p.add_argument("--straight-line", action="store_true", help="analyse process bodies without repetition")
    lint_p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable lint document (findings, timings)",
    )
    _add_fail_on_flag(lint_p)
    _add_cache_flags(lint_p)
    lint_p.set_defaults(handler=_cmd_respond)

    batch_p = sub.add_parser(
        "batch", help="analyse many files through the staged pipeline"
    )
    batch_p.add_argument("files", nargs="+", help="VHDL1 source files")
    batch_p.add_argument(
        "--all-entities",
        action="store_true",
        help="analyse every entity of each file, not just the default one",
    )
    batch_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=f"worker processes (default: the usable CPUs, here {default_workers()})",
    )
    batch_p.add_argument(
        "--sequential",
        action="store_true",
        help="run in-process instead of over a worker pool",
    )
    batch_p.add_argument(
        "--policy",
        default=None,
        metavar="FILE",
        help="check every job against this TOML/JSON policy file",
    )
    batch_p.add_argument(
        "--lint",
        action="store_true",
        help=(
            "add a per-file lint section (the --policy file's [lint] table "
            "configures it)"
        ),
    )
    batch_p.add_argument("--basic", action="store_true", help="disable the improved (Table 9) analysis")
    batch_p.add_argument("--straight-line", action="store_true", help="analyse process bodies without repetition")
    _add_graph_flags(batch_p)
    batch_p.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable document for the whole batch",
    )
    _add_fail_on_flag(batch_p)
    _add_cache_flags(batch_p)
    batch_p.set_defaults(handler=_cmd_batch)

    sim_p = sub.add_parser("simulate", help="run the delta-cycle simulator")
    sim_p.add_argument("file", help="VHDL1 source file")
    sim_p.add_argument("--entity", default=None)
    sim_p.add_argument("--set", action="append", help="drive an input port, e.g. --set a=1010")
    sim_p.add_argument("--max-deltas", type=int, default=1000)
    sim_p.set_defaults(handler=_cmd_simulate)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the on-disk artifact cache"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_stats_p = cache_sub.add_parser("stats", help="entry counts and sizes")
    cache_stats_p.add_argument(
        "--cache-dir", required=True, metavar="DIR", help="the cache directory"
    )
    cache_stats_p.add_argument(
        "--json", action="store_true", help="emit machine-readable statistics"
    )
    cache_stats_p.set_defaults(handler=_cmd_cache)
    cache_clear_p = cache_sub.add_parser("clear", help="remove every entry")
    cache_clear_p.add_argument(
        "--cache-dir", required=True, metavar="DIR", help="the cache directory"
    )
    cache_clear_p.set_defaults(handler=_cmd_cache)

    contract_p = sub.add_parser(
        "contract", help="record or verify the consumer-contract corpus"
    )
    contract_sub = contract_p.add_subparsers(dest="contract_command", required=True)
    contract_record_p = contract_sub.add_parser(
        "record", help="re-record every stimulus of the corpus from live surfaces"
    )
    contract_record_p.add_argument(
        "--pacts",
        default="tests/contract/pacts",
        metavar="DIR",
        help="directory whose interaction files are replayed and rewritten",
    )
    contract_record_p.set_defaults(handler=_cmd_contract)
    contract_verify_p = contract_sub.add_parser(
        "verify", help="replay the corpus and fail on breaking divergences"
    )
    contract_verify_p.add_argument(
        "--pacts",
        default="tests/contract/pacts",
        metavar="DIR",
        help="directory holding the recorded interaction files",
    )
    contract_verify_p.add_argument(
        "--mode",
        choices=("inline", "pool", "both"),
        default="both",
        help="server execution mode(s) to replay under (default: both)",
    )
    contract_verify_p.set_defaults(handler=_cmd_contract)

    serve_p = sub.add_parser(
        "serve", help="run the long-lived HTTP analysis service"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 binds an ephemeral one)"
    )
    serve_p.add_argument(
        "--policy",
        action="append",
        metavar="FILE",
        help="pre-register a named TOML/JSON policy for POST /check (repeatable)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "size of the analysis worker-process pool (default: the usable "
            "CPU count the batch driver uses; 0 runs analyses inline on the "
            "event loop)"
        ),
    )
    serve_p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "per-request wall-clock budget; a request over budget answers "
            "504 and its worker is recycled (default: 60)"
        ),
    )
    serve_p.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help=(
            "max admitted (queued + running) requests before load-shedding "
            "with 429 + Retry-After (default: 64)"
        ),
    )
    _add_cache_flags(serve_p)
    serve_p.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        # Everything the toolchain itself diagnoses — parse, elaboration,
        # analysis, policy-file validation, bad --set/--output — is an
        # analysis error: exit 1.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # Downstream closed our stdout (e.g. `vhdl-ifa ... | head`); exit
        # quietly with the conventional SIGPIPE status.
        return EXIT_PIPE
    except (OSError, UnicodeDecodeError) as error:
        # A missing, unreadable or non-UTF-8 input file is an input error,
        # reported as one line, not a traceback: exit 2, like argparse usage
        # errors.  (UnicodeDecodeError is a ValueError, so the OSError net
        # alone would not catch it.)
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
