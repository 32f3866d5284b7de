"""Replay the corpus's stimuli against live surfaces: verify and record.

:func:`replay` is the one loop both directions share.  It boots the server
profile of each interaction group once (see :mod:`repro.contract.profiles`),
sends each HTTP request or runs each CLI invocation, and checks that every
routed response carries its request's ``X-Interaction-Id``.

``verify_corpus`` compares each normalised live response against the
recording with :func:`repro.contract.differ.diff_documents`:

* **additive** divergences (new optional fields) pass; each one is logged
  with an ``additive`` line so the growth is visible in CI output;
* **breaking** divergences (removed field, type change, value change,
  status / exit-code change) fail the interaction with a field-level
  JSON-pointer diff naming it.

``record_corpus`` replays the stimuli :meth:`Corpus.load_stimuli` reads
and writes each live response back, masked under the
:func:`repro.pipeline.render.volatile_pointers` rules of its document kind.
It refuses a stimulus whose live status or exit code differs from the
recorded one, rather than commit a changed outcome unnoticed.

**Version wiring.** Before any diff, each interaction's recorded
``schema`` is checked against the live contract version — ``GET /version``
of the very server under test for HTTP interactions,
:data:`repro.pipeline.render.SCHEMA_VERSION` for CLI ones.  A skew fails
with instructions to re-record; a breaking diff at a *matching* version
fails with instructions to either revert or bump to ``vhdl-ifa/v2`` and
re-record.  That makes "breaking change" an explicit, versioned event
rather than a silent drift.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.pipeline.render import SCHEMA_VERSION, volatile_pointers
from repro.pipeline.serve import interaction_id as serve_interaction_id

from .differ import ADDITIVE, BREAKING, Divergence, diff_documents
from .matchers import normalize
from .model import Corpus, Interaction
from .profiles import (
    PROFILES,
    boot,
    http_request,
    materialize_inputs,
    resolve_argv,
    run_cli,
    saturated,
)

#: The advice appended to every breaking failure (the v2 bump procedure).
BUMP_ADVICE = (
    "either revert the producer change, or bump SCHEMA_VERSION to "
    "'vhdl-ifa/v2' and re-record the corpus (vhdl-ifa contract record)"
)


@dataclass
class InteractionResult:
    """The verdict of replaying one interaction."""

    interaction: Interaction
    ok: bool
    breaking: List[Divergence] = field(default_factory=list)
    additive: List[Divergence] = field(default_factory=list)
    failure: Optional[str] = None  # non-diff failure (version skew, transport)

    def describe(self) -> str:
        label = f"{self.interaction.description} ({self.interaction.id})"
        if self.ok:
            suffix = (
                f" [+{len(self.additive)} additive]" if self.additive else ""
            )
            return f"PASS {label}{suffix}"
        if self.failure is not None:
            return f"FAIL {label}: {self.failure}"
        lines = [f"FAIL {label}: {len(self.breaking)} breaking divergence(s)"]
        lines.extend(f"  {divergence}" for divergence in self.breaking)
        lines.append(f"  {BUMP_ADVICE}")
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """The outcome of one full corpus replay in one execution mode."""

    mode: str
    results: List[InteractionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> List[InteractionResult]:
        return [result for result in self.results if not result.ok]

    @property
    def additive_count(self) -> int:
        return sum(len(result.additive) for result in self.results)

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (
            f"contract verify [{self.mode}]: {verdict} — "
            f"{len(self.results)} interaction(s), "
            f"{len(self.failures)} failing, "
            f"{self.additive_count} additive field(s)"
        )


def _check_schema(interaction: Interaction, live_schema: str) -> Optional[str]:
    if interaction.schema != live_schema:
        return (
            f"recorded against contract {interaction.schema!r} but the live "
            f"surface speaks {live_schema!r}; re-record the corpus against "
            "the new contract version (vhdl-ifa contract record)"
        )
    return None


@dataclass(frozen=True)
class Replay:
    """One interaction's stimulus, replayed against its live surface."""

    interaction: Interaction
    schema: str = ""  # the contract version the live surface speaks
    code: int = 0  # the live HTTP status or CLI exit code
    document: Any = None
    failure: Optional[str] = None  # why the stimulus could not be replayed

    @property
    def changed(self) -> Optional[str]:
        """How the live status or exit code differs from the recorded one."""
        key = self.interaction.code_key
        recorded = self.interaction.response[key]
        if self.code == recorded:
            return None
        return f"{key.replace('_', ' ')} changed from {recorded} to {self.code}"


def _send(port: int, interaction: Interaction, schema: str) -> Replay:
    request = interaction.request
    method, path = request["method"], request["path"]
    payload = request.get("body")
    try:
        status, document, headers = http_request(port, method, path, payload)
    except Exception as error:  # transport failure is a replay failure
        return Replay(
            interaction,
            schema,
            failure=f"transport error replaying {method} {path}: {error!r}",
        )
    if status != 413:  # a 413 is rejected before the body is read: no id
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        expected_header = serve_interaction_id(method, path, body)
        if headers.get("X-Interaction-Id") != expected_header:
            return Replay(
                interaction,
                schema,
                failure=(
                    f"X-Interaction-Id header "
                    f"{headers.get('X-Interaction-Id')!r} does not match the "
                    f"request address {expected_header!r}"
                ),
            )
    return Replay(interaction, schema, status, document)


def _invoke(root: Path, interaction: Interaction, schema: str) -> Replay:
    argv = resolve_argv(interaction.request["argv"], root)
    try:
        exit_code, document = run_cli(argv)
    except Exception as error:
        return Replay(
            interaction, schema, failure=f"error replaying CLI {argv!r}: {error!r}"
        )
    return Replay(interaction, schema, exit_code, document)


def replay(corpus: Corpus, mode: str) -> Iterator[Replay]:
    """Replay every stimulus of ``corpus``, booting each profile once.

    Profiles whose mode is ``auto`` boot in ``mode`` (inline/pool); pinned
    ones in their own.  CLI stimuli run in-process against workloads and
    fixtures materialised in a scratch directory.
    """
    by_profile: Dict[str, List[Interaction]] = {}
    for interaction in corpus:
        by_profile.setdefault(interaction.profile, []).append(interaction)
    with tempfile.TemporaryDirectory(prefix="vhdl-ifa-contract-") as tmp:
        root = materialize_inputs(Path(tmp))
        for profile_name, group in by_profile.items():
            profile = PROFILES.get(profile_name)
            if profile_name == "cli":
                for interaction in group:
                    yield _invoke(root, interaction, SCHEMA_VERSION)
            elif profile is None:
                for interaction in group:
                    yield Replay(
                        interaction,
                        failure=(
                            f"unknown server profile {profile_name!r}; the "
                            "corpus and repro.contract.profiles are out of sync"
                        ),
                    )
            else:
                with boot(profile, mode=mode) as server:
                    # The live contract version, asked of the very server under test.
                    _, version_document, _ = http_request(
                        server.port, "GET", "/version"
                    )
                    schema = str(version_document.get("schema"))
                    with saturated(server, profile):
                        for interaction in group:
                            yield _send(server.port, interaction, schema)


def _verdict(live: Replay, log: Optional[Callable[[str], None]]) -> InteractionResult:
    interaction = live.interaction
    failure = live.failure or _check_schema(interaction, live.schema)
    if failure is not None:
        return InteractionResult(interaction=interaction, ok=False, failure=failure)
    divergences = list(
        diff_documents(
            interaction.response["document"],
            normalize(live.document, interaction.matchers),
        )
    )
    if live.changed is not None:
        divergences.insert(0, Divergence("", BREAKING, live.changed))
    breaking = [d for d in divergences if d.kind == BREAKING]
    additive = [d for d in divergences if d.kind == ADDITIVE]
    result = InteractionResult(
        interaction=interaction,
        ok=not breaking,
        breaking=breaking,
        additive=additive,
    )
    if log:
        for divergence in additive:
            log(
                f"additive: {interaction.description} ({interaction.id}) "
                f"{divergence.pointer}: {divergence.detail}"
            )
        if breaking:
            log(result.describe())
    return result


def verify_corpus(
    corpus: Corpus,
    mode: str = "inline",
    log: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Replay every interaction of ``corpus`` in ``mode`` (inline/pool)."""
    report = VerifyReport(mode=mode)
    for live in replay(corpus, mode):
        report.results.append(_verdict(live, log))
    if log:
        log(report.summary())
    return report


def record_corpus(
    stimuli: Corpus, log: Optional[Callable[[str], None]] = None
) -> Corpus:
    """Record each stimulus's live response; auto profiles run inline.

    Raises :class:`~repro.errors.ReproError` on the first stimulus that
    cannot be replayed or whose live status or exit code differs from the
    recorded one.
    """
    interactions: List[Interaction] = []
    with contextlib.closing(replay(stimuli, "inline")) as lives:
        for live in lives:
            stimulus = live.interaction
            failure = live.failure or live.changed
            if failure is not None:
                raise ReproError(f"recording {stimulus.description!r}: {failure}")
            matchers = volatile_pointers(live.document.get("command", "error"))
            interaction = Interaction.build(
                description=stimulus.description,
                schema=live.schema,
                profile=stimulus.profile,
                request=stimulus.request,
                response={
                    stimulus.code_key: live.code,
                    "document": normalize(live.document, matchers),
                },
                matchers=matchers,
            )
            interactions.append(interaction)
            if log:
                log(
                    f"recorded {interaction.id} -> {live.code}  "
                    f"[{interaction.profile}] {interaction.description}"
                )
    return Corpus(interactions=interactions)
