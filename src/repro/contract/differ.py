"""Field-level compatibility diffing between recorded and live documents.

Both sides are compared *after* matcher normalisation (volatile fields are
masks on both sides).  Every divergence carries the RFC 6901 JSON pointer
of the field and a classification:

* **additive** — the live document grew a key the recording does not pin.
  Consumers written against the recording keep working; the verifier
  passes and logs the addition.
* **breaking** — a recorded field disappeared, changed JSON type, changed
  value, an array changed length, or a volatile field stopped matching its
  declared type.  Consumers break; the verifier fails and demands either a
  revert or an explicit ``vhdl-ifa/v2`` schema bump plus re-record.

Status / exit-code changes are classified by the verifier with the same
vocabulary (a changed status is always breaking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from .matchers import is_mask, join_pointer, json_type

ADDITIVE = "additive"
BREAKING = "breaking"


@dataclass(frozen=True)
class Divergence:
    """One field-level difference between recorded and live documents."""

    pointer: str  # JSON pointer into the response document ("" = root)
    kind: str  # ADDITIVE or BREAKING
    detail: str  # human-readable: what was expected, what arrived

    def __str__(self) -> str:
        pointer = self.pointer or "<root>"
        return f"[{self.kind}] {pointer}: {self.detail}"


def _preview(value: Any, limit: int = 64) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def diff_documents(expected: Any, actual: Any) -> List[Divergence]:
    """All divergences of ``actual`` from the recorded ``expected``."""
    divergences: List[Divergence] = []
    _diff(expected, actual, [], divergences)
    return divergences


def _diff(expected: Any, actual: Any, tokens: List[str], out: List[Divergence]) -> None:
    pointer = join_pointer(tokens)
    if is_mask(expected):
        declared = expected["$volatile"]
        if is_mask(actual):
            if actual["$volatile"] != declared:
                out.append(
                    Divergence(
                        pointer,
                        BREAKING,
                        f"volatile field declared {declared!r} but the live "
                        f"matcher produced {actual['$volatile']!r}",
                    )
                )
        else:
            out.append(
                Divergence(
                    pointer,
                    BREAKING,
                    f"volatile field must be of JSON type {declared!r}, got "
                    f"{json_type(actual)} {_preview(actual)}",
                )
            )
        return
    if is_mask(actual):
        out.append(
            Divergence(
                pointer,
                BREAKING,
                f"recorded literal {_preview(expected)} came back masked as "
                f"volatile {actual['$volatile']!r}",
            )
        )
        return
    expected_type = json_type(expected)
    actual_type = json_type(actual)
    if expected_type != actual_type:
        out.append(
            Divergence(
                pointer,
                BREAKING,
                f"type changed from {expected_type} to {actual_type} "
                f"(recorded {_preview(expected)}, got {_preview(actual)})",
            )
        )
        return
    if expected_type == "object":
        for key in expected:
            if key not in actual:
                out.append(
                    Divergence(
                        join_pointer(tokens + [key]),
                        BREAKING,
                        f"field removed (recorded {_preview(expected[key])})",
                    )
                )
            else:
                _diff(expected[key], actual[key], tokens + [key], out)
        for key in actual:
            if key not in expected:
                out.append(
                    Divergence(
                        join_pointer(tokens + [key]),
                        ADDITIVE,
                        f"new optional field {_preview(actual[key])}",
                    )
                )
        return
    if expected_type == "array":
        if len(expected) != len(actual):
            out.append(
                Divergence(
                    pointer,
                    BREAKING,
                    f"array length changed from {len(expected)} to {len(actual)}",
                )
            )
            return
        for index, (left, right) in enumerate(zip(expected, actual)):
            _diff(left, right, tokens + [str(index)], out)
        return
    if expected != actual:
        out.append(
            Divergence(
                pointer,
                BREAKING,
                f"value changed from {_preview(expected)} to {_preview(actual)}",
            )
        )


def breaking(divergences: List[Divergence]) -> List[Divergence]:
    return [d for d in divergences if d.kind == BREAKING]
