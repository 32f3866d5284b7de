"""Fixtures for the consumer-contract corpus under ``tests/contract/pacts``.

``recorded_corpus`` loads the committed corpus once per session (the load
itself re-derives every content address, so a hand-edited file fails here).
Replaying the corpus against live surfaces is ``tests/test_contracts.py``'s
job; that the committed files are a fixed point of ``vhdl-ifa contract
record`` is checked file by file by ``make contracts``.
"""

from pathlib import Path

import pytest

from repro.contract import Corpus

PACTS_DIR = Path(__file__).resolve().parent / "pacts"


@pytest.fixture(scope="session")
def pacts_dir() -> Path:
    return PACTS_DIR


@pytest.fixture(scope="session")
def recorded_corpus() -> Corpus:
    return Corpus.load(PACTS_DIR)
