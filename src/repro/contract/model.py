"""The recorded-interaction model: one consumer expectation per JSON file.

An :class:`Interaction` is a single request/response pair captured from a
live surface — an HTTP round-trip against ``vhdl-ifa serve`` or a CLI
``--json`` invocation — together with the **matcher rules** that declare
which response fields are volatile (see :mod:`repro.contract.matchers`)
and the **server profile** the pair was recorded under (see
:mod:`repro.contract.profiles`).  The response document is stored already
normalised, so the file pins exactly what consumers may rely on.

Interactions are **content-addressed**: the id is the first 12 hex chars
of the SHA-256 of the canonical JSON of ``{"profile": ..., "request": ...}``.
The id therefore changes when the *stimulus* changes (a different request
is a different interaction) but not when the recorded *response* drifts —
response drift is precisely what the verifier must catch as a diff, not
silently re-key.  :meth:`Corpus.load` re-derives every id and refuses a
file whose name or ``id`` field disagrees with its request content.

The corpus is also its own inventory: :meth:`Corpus.load_stimuli` reads
only each file's stimulus (description, profile, request and the recorded
status or exit code), which ``vhdl-ifa contract record`` replays and
re-keys.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Tuple

from .matchers import JSON_TYPES

#: Request kinds a corpus may hold.
KIND_HTTP = "http"
KIND_CLI = "cli"

_SLUG = re.compile(r"[^a-z0-9]+")


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, raw unicode."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def interaction_identity(profile: str, request: Mapping[str, Any]) -> str:
    """The content address of a stimulus: sha256 of profile + request."""
    payload = canonical_json({"profile": profile, "request": dict(request)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _require(payload: Mapping[str, Any], keys: Tuple[str, ...], origin: str) -> None:
    """Refuse a file missing a stimulus member or ``keys``, or of no kind."""
    for key in ("description", "profile", "request", "response", *keys):
        if key not in payload:
            raise ValueError(f"{origin}: interaction is missing the {key!r} key")
    request = payload["request"]
    if not isinstance(request, dict) or request.get("kind") not in (KIND_HTTP, KIND_CLI):
        raise ValueError(
            f"{origin}: request.kind must be {KIND_HTTP!r} or {KIND_CLI!r}"
        )


def _slugify(description: str) -> str:
    slug = _SLUG.sub("-", description.lower()).strip("-")
    return slug or "interaction"


@dataclass(frozen=True)
class Interaction:
    """One recorded consumer expectation."""

    id: str
    description: str
    schema: str  # the contract version ("vhdl-ifa/v1") this pair was recorded against
    profile: str  # server profile name the response is reproducible under
    request: Dict[str, Any]
    response: Dict[str, Any]  # normalised: volatile fields already masked
    matchers: Dict[str, str]

    @classmethod
    def build(
        cls,
        *,
        description: str,
        schema: str,
        profile: str,
        request: Mapping[str, Any],
        response: Mapping[str, Any],
        matchers: Mapping[str, str],
    ) -> "Interaction":
        """Construct with the id derived from profile + request."""
        return cls(
            id=interaction_identity(profile, request),
            description=description,
            schema=schema,
            profile=profile,
            request=dict(request),
            response=dict(response),
            matchers=dict(matchers),
        )

    @property
    def kind(self) -> str:
        return str(self.request.get("kind", ""))

    @property
    def code_key(self) -> str:
        """The response member holding the outcome: HTTP status or exit code."""
        return "status" if self.kind == KIND_HTTP else "exit_code"

    @property
    def file_name(self) -> str:
        return f"{_slugify(self.description)}-{self.id}.json"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "description": self.description,
            "schema": self.schema,
            "profile": self.profile,
            "request": self.request,
            "response": self.response,
            "matchers": self.matchers,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], *, origin: str = "<memory>") -> "Interaction":
        _require(payload, ("id", "schema", "matchers"), origin)
        request = payload["request"]
        matchers = payload["matchers"]
        if not isinstance(matchers, dict):
            raise ValueError(f"{origin}: matchers must be an object")
        for pointer, type_name in matchers.items():
            if not pointer.startswith("/") or type_name not in JSON_TYPES:
                raise ValueError(
                    f"{origin}: bad matcher rule {pointer!r}: {type_name!r}"
                )
        expected_id = interaction_identity(payload["profile"], request)
        if payload["id"] != expected_id:
            raise ValueError(
                f"{origin}: id {payload['id']!r} does not match the content "
                f"address {expected_id!r} of its profile + request — the file "
                "was edited by hand; re-record it (vhdl-ifa contract record)"
            )
        return cls(
            id=str(payload["id"]),
            description=str(payload["description"]),
            schema=str(payload["schema"]),
            profile=str(payload["profile"]),
            request=dict(request),
            response=dict(payload["response"]),
            matchers=dict(matchers),
        )


@dataclass
class Corpus:
    """An ordered set of interactions, persisted one file per interaction."""

    interactions: List[Interaction]

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.interactions)

    def __len__(self) -> int:
        return len(self.interactions)

    def http_paths(self) -> List[str]:
        """Every distinct HTTP request path the corpus exercises, sorted."""
        return sorted(
            {
                str(interaction.request["path"])
                for interaction in self.interactions
                if interaction.kind == KIND_HTTP
            }
        )

    def cli_subcommands(self) -> List[str]:
        """Every distinct CLI subcommand the corpus exercises, sorted."""
        return sorted(
            {
                str(interaction.request["argv"][0])
                for interaction in self.interactions
                if interaction.kind == KIND_CLI and interaction.request.get("argv")
            }
        )

    @staticmethod
    def _read(directory: Path) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        """Every ``*.json`` file under ``directory``, parsed, in name order."""
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"no interaction corpus at {directory}")
        for path in sorted(directory.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                raise ValueError(f"{path}: unreadable interaction file: {error}") from error
            if not isinstance(payload, dict):
                raise ValueError(f"{path}: an interaction file holds one JSON object")
            yield path, payload

    @classmethod
    def load(cls, directory: Path) -> "Corpus":
        """The recorded corpus; a hand-edited stimulus or file name fails."""
        interactions: List[Interaction] = []
        for path, payload in cls._read(directory):
            interaction = Interaction.from_dict(payload, origin=str(path))
            if path.name != interaction.file_name:
                raise ValueError(
                    f"{path}: file name does not match the canonical "
                    f"{interaction.file_name!r}"
                )
            interactions.append(interaction)
        return cls(interactions=interactions)

    @classmethod
    def load_stimuli(cls, directory: Path) -> "Corpus":
        """The stimuli of the files under ``directory``, re-keyed.

        Only ``description``, ``profile``, ``request`` and the recorded
        ``response.status`` (HTTP) or ``response.exit_code`` (CLI) are read,
        so a file of any name holding just those is a new interaction.  The
        id is re-derived from the stimulus; each stimulus's response holds
        only its recorded outcome, for ``vhdl-ifa contract record`` to hold
        the live one against.
        """
        stimuli: List[Interaction] = []
        for path, payload in cls._read(directory):
            _require(payload, (), str(path))
            stimulus = Interaction.build(
                description=str(payload["description"]),
                schema="",
                profile=str(payload["profile"]),
                request=payload["request"],
                response={},
                matchers={},
            )
            response = payload["response"]
            code = response.get(stimulus.code_key) if isinstance(response, dict) else None
            if not isinstance(code, int):
                raise ValueError(
                    f"{path}: response.{stimulus.code_key} must be the recorded "
                    "integer outcome"
                )
            stimuli.append(replace(stimulus, response={stimulus.code_key: code}))
        if not stimuli:
            raise ValueError(f"no interaction files under {directory}")
        return cls(interactions=stimuli)

    def save(self, directory: Path) -> List[Path]:
        """Write every interaction under ``directory``, replacing *.json files."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("*.json"):
            stale.unlink()
        written: List[Path] = []
        for interaction in sorted(self.interactions, key=lambda i: i.file_name):
            path = directory / interaction.file_name
            path.write_text(
                json.dumps(interaction.to_dict(), indent=2, ensure_ascii=False) + "\n",
                encoding="utf-8",
            )
            written.append(path)
        return written
