"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import workloads
from repro.aes import generator
from repro.vhdl.elaborate import elaborate_source


@pytest.fixture
def parse_calls(monkeypatch):
    """The ``(text, line)`` of every ``parse_program`` call the parse stage
    makes during the test (it looks the name up on its own module)."""
    from repro.pipeline import stages

    calls = []
    parse = stages.parse_program

    def recording(source, line=1):
        calls.append((source, line))
        return parse(source, line)

    monkeypatch.setattr(stages, "parse_program", recording)
    return calls


@pytest.fixture
def program_a_source() -> str:
    """The paper's program (a): ``c := b; b := a``."""
    return workloads.paper_program_a()


@pytest.fixture
def program_b_source() -> str:
    """The paper's program (b): ``b := a; c := b``."""
    return workloads.paper_program_b()


@pytest.fixture
def producer_consumer_source() -> str:
    """Two processes communicating through an internal signal."""
    return workloads.producer_consumer_program()


@pytest.fixture
def conditional_source() -> str:
    """A mux with an implicit flow through its select input."""
    return workloads.conditional_program()


@pytest.fixture
def challenge_f_source() -> str:
    """The overwritten-secret program of Open Challenge F."""
    return workloads.challenge_f_program()


@pytest.fixture
def shift_rows_paper_source() -> str:
    """The Figure 5 ShiftRows workload (variables plus a shared temporary)."""
    return generator.shift_rows_paper_source()


@pytest.fixture
def producer_consumer_design(producer_consumer_source):
    """Elaborated producer/consumer design."""
    return elaborate_source(producer_consumer_source)


@pytest.fixture
def conditional_design(conditional_source):
    """Elaborated mux design."""
    return elaborate_source(conditional_source)
