"""Server profiles: the reproducible environments interactions replay under.

A recorded response is only meaningful together with the server
configuration that produced it — a ``409`` needs a policy name already
taken, a ``413`` needs a small body limit, a ``504`` needs an armed hang
fault and a short budget.  A :class:`ServerProfile` pins exactly that
configuration, and recording and verification replay through the same
loop over the same table (:func:`repro.contract.verifier.replay`), so a
recording is reproducible by construction.

Profiles whose ``mode`` is ``"auto"`` follow the execution mode the
replay asks for (inline or worker-pool; recording uses inline) —
replaying them in *both* modes is what exercises the repo's byte-identity
invariant (CLI ``--json``, inline serve and pool serve emit the same
documents).  Mode-pinned profiles (``ops-inline``/``ops-pool``, the fault
profiles) always boot their recorded mode, because their responses
mention it.

This module also hosts the plumbing that loop needs: the HTTP client,
deterministic workload/fixture materialisation for CLI interactions (argv
placeholders ``@workloads/…`` / ``@fixtures/…`` resolve against a scratch
directory, so no absolute path is ever committed), and the in-process CLI
runner.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Source markers the fault profiles trigger on (see repro.pipeline.faults).
HANG_MARKER = "contract_hang_marker"
SLOW_MARKER = "contract_slow_marker"

#: The MLS policy the corpus registers via ``POST /policy`` and checks with.
MLS_POLICY: Dict[str, Any] = {
    "name": "mls",
    "description": "two-level confidentiality policy for the contract corpus",
    "levels": {"public": 0, "secret": 1},
    "resources": {"key": "secret"},
    "allow": [{"from": "public", "to": "secret"}],
}

#: Preloaded on the ``conflict`` profile under the name "pinned".
PINNED_POLICY: Dict[str, Any] = {
    "name": "pinned",
    "levels": {"public": 0, "secret": 1},
    "resources": {"key": "secret"},
}

#: Policy files materialised for CLI interactions, name → document.
CONTRACT_FIXTURES: Dict[str, Dict[str, Any]] = {"mls.json": MLS_POLICY}

#: argv placeholder prefixes resolved against the scratch directory.
WORKLOADS_PREFIX = "@workloads/"
FIXTURES_PREFIX = "@fixtures/"


@dataclass(frozen=True)
class ServerProfile:
    """One reproducible server environment interactions are pinned to."""

    name: str
    description: str
    mode: str = "auto"  # "auto" | "inline" | "pool"
    workers: int = 2  # pool size whenever pool mode applies
    timeout: Optional[float] = None  # per-request budget (pool mode)
    queue_depth: Optional[int] = None
    max_body_bytes: Optional[int] = None
    fault_delay: float = 0.0  # FaultPlan(delay_seconds=..., match=fault_match)
    fault_match: Optional[str] = None
    policies: Tuple[Tuple[str, str], ...] = ()  # (name, fixture file) pairs
    saturate: bool = False  # hold a slow request in flight around each replay


PROFILES: Dict[str, ServerProfile] = {
    profile.name: profile
    for profile in (
        ServerProfile(
            name="default",
            description="stock server: analysis, policy and error-path interactions",
        ),
        ServerProfile(
            name="limits",
            description="2 KiB body cap for the 413 oversized-request interaction",
            max_body_bytes=2048,
        ),
        ServerProfile(
            name="conflict",
            description="policy name 'pinned' preloaded, for the 409 interaction",
            policies=(("pinned", "pinned.json"),),
        ),
        ServerProfile(
            name="ops-inline",
            description="inline-mode ops endpoints (healthz/metrics/stats/version)",
            mode="inline",
        ),
        ServerProfile(
            name="ops-pool",
            description="pool-mode ops endpoints (healthz/metrics report workers)",
            mode="pool",
            workers=2,
        ),
        ServerProfile(
            name="hang",
            description="armed hang fault + 1s budget for the 504 interaction",
            mode="pool",
            workers=1,
            timeout=1.0,
            fault_delay=30.0,
            fault_match=HANG_MARKER,
        ),
        ServerProfile(
            name="shed",
            description="single admission slot held busy for the 429 interaction",
            mode="pool",
            workers=1,
            timeout=30.0,
            queue_depth=1,
            fault_delay=3.0,
            fault_match=SLOW_MARKER,
            saturate=True,
        ),
    )
}

#: Fixture documents profile preloads resolve to (name → policy document).
_PROFILE_POLICY_DOCS: Dict[str, Dict[str, Any]] = {"pinned.json": PINNED_POLICY}


def resolve_mode(profile: ServerProfile, requested: str) -> str:
    """The execution mode a profile boots under a verifier-requested mode."""
    if requested not in ("inline", "pool"):
        raise ValueError(f"mode must be 'inline' or 'pool', not {requested!r}")
    return requested if profile.mode == "auto" else profile.mode


@contextlib.contextmanager
def boot(profile: ServerProfile, mode: str = "inline") -> Iterator[Any]:
    """Boot a fresh server for ``profile`` and yield the running instance."""
    from repro.pipeline import AnalysisServer, ServerThread
    from repro.pipeline.faults import FaultPlan
    from repro.workspace import Workspace

    resolved = resolve_mode(profile, mode)
    workspace = Workspace(
        policies={
            name: dict(_PROFILE_POLICY_DOCS[fixture])
            for name, fixture in profile.policies
        }
    )
    kwargs: Dict[str, Any] = {}
    if profile.timeout is not None:
        kwargs["timeout"] = profile.timeout
    if profile.queue_depth is not None:
        kwargs["queue_depth"] = profile.queue_depth
    if profile.max_body_bytes is not None:
        kwargs["max_body_bytes"] = profile.max_body_bytes
    if profile.fault_match is not None:
        kwargs["faults"] = FaultPlan(
            delay_seconds=profile.fault_delay, match=profile.fault_match
        )
    server = AnalysisServer(
        port=0,
        workspace=workspace,
        workers=None if resolved == "inline" else profile.workers,
        **kwargs,
    )
    with ServerThread(server) as running:
        yield running


def http_request(
    port: int,
    method: str,
    path: str,
    payload: Optional[Mapping[str, Any]] = None,
    timeout: float = 60.0,
) -> Tuple[int, Any, Dict[str, str]]:
    """One HTTP round-trip; returns (status, parsed document, headers)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    text = response.read().decode("utf-8")
    headers = {name: value for name, value in response.getheaders()}
    return response.status, json.loads(text), headers


@contextlib.contextmanager
def saturated(server: Any, profile: ServerProfile) -> Iterator[None]:
    """Hold the profile's admission slot busy for the duration of the block.

    A ``saturate`` profile (the 429 recording) posts one slow-marked request
    on a background thread and waits until the server reports it in flight;
    replays inside the block are then shed deterministically.
    """
    if not profile.saturate:
        yield
        return
    from repro import workloads

    source = workloads.challenge_f_program() + f"\n-- {SLOW_MARKER}\n"

    def _occupy() -> None:
        with contextlib.suppress(Exception):
            http_request(
                server.port, "POST", "/analyze", {"source": source}, timeout=60.0
            )

    thread = threading.Thread(target=_occupy, daemon=True)
    thread.start()
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        _, document, _ = http_request(server.port, "GET", "/metrics")
        if document.get("in_flight", 0) >= 1:
            break
        time.sleep(0.02)
    else:
        raise RuntimeError(
            f"profile {profile.name!r}: the saturating request never became "
            "in-flight; cannot reproduce the 429 interaction"
        )
    try:
        yield
    finally:
        thread.join(timeout=60.0)


def materialize_inputs(root: Path) -> Path:
    """Write the paper workloads and policy fixtures under ``root``.

    CLI interactions reference these files through the ``@workloads/`` /
    ``@fixtures/`` argv placeholders, so the committed corpus never contains
    an absolute path; the replay loop calls this with a scratch directory
    and resolves placeholders against it.
    """
    from repro import workloads

    root = Path(root)
    workload_dir = root / "workloads"
    workload_dir.mkdir(parents=True, exist_ok=True)
    for name, source in workloads.batch_workload_sources():
        (workload_dir / f"{name}.vhd").write_text(source, encoding="utf-8")
    for name, source in workloads.hierarchy_workload_sources():
        (workload_dir / f"{name}.vhd").write_text(source, encoding="utf-8")
    fixture_dir = root / "fixtures"
    fixture_dir.mkdir(parents=True, exist_ok=True)
    for name, document in CONTRACT_FIXTURES.items():
        (fixture_dir / name).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
    return root


def resolve_argv(argv: Sequence[str], root: Path) -> List[str]:
    """Expand ``@workloads/…`` / ``@fixtures/…`` placeholders to real paths."""
    resolved = []
    for token in argv:
        if token.startswith(WORKLOADS_PREFIX) or token.startswith(FIXTURES_PREFIX):
            resolved.append(str(Path(root) / token[1:]))
        else:
            resolved.append(token)
    return resolved


def run_cli(argv: Sequence[str]) -> Tuple[int, Any]:
    """Run one ``vhdl-ifa`` invocation in-process, returning (exit, document)."""
    from repro.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main(list(argv))
    text = stdout.getvalue()
    try:
        document = json.loads(text)
    except ValueError as error:
        raise ValueError(
            f"CLI {' '.join(argv)!r} did not print a JSON document: {error}"
        ) from error
    return exit_code, document
