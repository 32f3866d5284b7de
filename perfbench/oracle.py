"""Reference documents and the comparison that feeds ``failed``.

Flat designs are checked against an uncached ``Workspace(cache=None)`` run.
Hierarchical designs are checked against ``flatten_source``, the flattening
oracle, run through the plain pipeline, which does not use the linker. Both
sides are masked with the ``repro.contract.matchers`` rules that
``render.volatile_pointers`` declares, so wall-clock timings, cache state and
file paths never count as a difference.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


def build_request(kind: str, source: str, entity: Optional[str], secret: str) -> Dict[str, Any]:
    """The request dict ``repro.pipeline.serve.execute_request`` runs.

    It is the same dict the server builds from an HTTP payload of
    :func:`http_payload`, so in-process ops and serve requests run one path.
    """
    request: Dict[str, Any] = {
        "source": source,
        "file": None,
        "entity": entity,
        "improved": True,
        "loop_processes": True,
    }
    if kind == "analyze":
        request.update(collapse=False, self_loops=False)
    elif kind == "lint":
        request["policy"] = None
    else:
        from repro.security.policy import TwoLevelPolicy

        request.update(
            outputs=None,
            policy=TwoLevelPolicy(secret_resources=[secret]),
            transitive=None,
            ports_only=False,
        )
    return request


def http_payload(kind: str, source: str, entity: Optional[str], secret: str) -> Dict[str, Any]:
    """The ``POST /<kind>`` body equivalent to :func:`build_request`."""
    payload: Dict[str, Any] = {"source": source}
    if entity is not None:
        payload["entity"] = entity
    if kind == "check":
        payload["secret"] = [secret]
    return payload


def masked(document: Any) -> Any:
    """``document`` with its volatile fields replaced by typed masks.

    ``normalize`` deep-copies its input, which costs as much as the op on a
    large graph, so only the top-level members the rules name are copied.
    """
    from repro.contract.matchers import normalize, split_pointer
    from repro.pipeline.render import volatile_pointers

    if not isinstance(document, dict) or "command" not in document:
        return document
    rules = volatile_pointers(document["command"])
    heads = {split_pointer(pointer)[0] for pointer in rules}
    if "*" in heads:
        return normalize(document, rules)
    volatile = normalize({key: document[key] for key in heads if key in document}, rules)
    return {key: volatile.get(key, value) for key, value in document.items()}


def matches(status: int, text: str, reference: Any) -> bool:
    """True when a response is a 200 whose masked document is the reference."""
    if status != 200:
        return False
    try:
        document = json.loads(text)
    except ValueError:
        return False
    return masked(document) == reference


def compute_references(designs: List[Any]) -> Dict[str, Any]:
    """Every reference document of a corpus, masked, keyed by ``ref_id``."""
    from inputs import KINDS, ref_id
    from repro.hier.flatten import flatten_source
    from repro.pipeline import render
    from repro.pipeline.serve import execute_request
    from repro.vhdl.parser import parse_program
    from repro.workspace import Workspace

    references: Dict[str, Any] = {}
    for design in designs:
        for entity in design.entities:
            source = design.source
            if design.hierarchical:
                source = flatten_source(parse_program(source), entity)
            for kind in KINDS:
                status, document = execute_request(
                    Workspace(cache=None),
                    kind,
                    build_request(kind, source, entity, design.secret),
                )
                if status != 200:
                    raise RuntimeError(
                        f"reference {design.id}/{entity}/{kind} failed: {document}"
                    )
                references[ref_id(design.id, entity, kind)] = masked(
                    json.loads(render.json_text(document))
                )
    return references

