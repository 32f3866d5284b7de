"""Consumer-driven contract suite for the ``vhdl-ifa/v1`` API.

The committed corpus under ``tests/contract/pacts/`` pins every serve
endpoint (including the 4xx/5xx error paths) and the five JSON CLI
subcommands as recorded request/response interactions, pact-style:
volatile fields are matcher rules, everything else is literal.  The
corpus is the v1 spec; no separate schema restates it, and no separate
inventory restates its stimuli: recording replays the corpus's own
requests.  The pieces:

:mod:`~repro.contract.model`
    Interaction / Corpus with content-addressed ids.
:mod:`~repro.contract.matchers`
    JSON-pointer volatile-field rules and the idempotent normaliser.
:mod:`~repro.contract.differ`
    Field-level diffing, classifying additive vs breaking divergences.
:mod:`~repro.contract.profiles`
    The reproducible server environments recordings replay under.
:mod:`~repro.contract.verifier`
    The one replay loop behind ``vhdl-ifa contract verify`` (replay and
    enforce compatibility, with ``vhdl-ifa/v2`` bump enforcement against
    ``GET /version``) and ``vhdl-ifa contract record`` (re-record every
    stimulus from its live surface).

See ``docs/contracts.md`` for the workflow.
"""

from .differ import ADDITIVE, BREAKING, Divergence, diff_documents
from .matchers import is_mask, json_type, mask, normalize
from .model import Corpus, Interaction, interaction_identity
from .profiles import PROFILES, ServerProfile
from .verifier import InteractionResult, VerifyReport, record_corpus, verify_corpus

__all__ = [
    "ADDITIVE",
    "BREAKING",
    "Corpus",
    "Divergence",
    "Interaction",
    "InteractionResult",
    "PROFILES",
    "ServerProfile",
    "VerifyReport",
    "diff_documents",
    "interaction_identity",
    "is_mask",
    "json_type",
    "mask",
    "normalize",
    "record_corpus",
    "verify_corpus",
]
