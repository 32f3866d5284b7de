"""Seeded inputs of the benchmark workloads.

Every design comes from a :mod:`repro.workloads` generator, then gets seeded
perturbations: entity renames, and edits that swap XOR constants of a chain,
a register cell or a hierarchy root. The program only ever sees the
generated source text.

A workload has two parts:

* a *corpus* (:func:`build_corpus`): the base designs. Its shapes are fixed,
  and the seed picks names and constants. Building it imports the generators,
  so it runs in the ``prepare`` step, outside every clock.
* an *op stream* (:func:`op_stream`): the endless, seeded sequence of ops
  drawn from the corpus. It is pure string work with no ``repro`` import, so
  the measured process can make ops without touching the setup clock.

The stream deals ops from shuffled "decks". Each deck holds every
(design, entity, command[, edit]) combination once, so a run of a few decks
sees the same cost mix on every seed. The seed changes content and order,
but not the shape distribution the percentiles are taken over.

Each perturbation is chosen so that it leaves the analysis result unchanged.
Comment nonces and XOR constants are not resources, so each op's reference
document is the reference of its *base* design. A document that changes
under such an edit is a bug, and the oracle catches it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

KINDS = ("analyze", "check", "lint")

#: One sentence per workload on why it is in the benchmark.
WHY = {
    "cold_cli": (
        "First contact on a new commit (vhdl-ifa check --cache-dir in CI): "
        "parse and disk-cache writes dominate here and nowhere else."
    ),
    "warm_cli": (
        "Re-run on an unchanged commit: fresh processes over a populated "
        "cache dir, so disk reads (unpickle + universe adoption) dominate "
        "with no parse at all."
    ),
    "hier_edit": (
        "An editing session on hierarchical designs, half leaf-cell and half "
        "root edits: link dominates analyze, and check/lint take the "
        "flatten detour."
    ),
}

WORKLOADS = tuple(WHY)

#: cold_cli / warm_cli files: one list of (processes, assignments) chain
#: shapes per file, 4-8 entities each, up to 8x32.
CHAIN_FILES: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((2, 8), (3, 16), (2, 24), (4, 8)),
    ((2, 16), (4, 16), (3, 8), (2, 32), (6, 8)),
    ((3, 24), (2, 8), (4, 32), (2, 16), (5, 8), (3, 8)),
    ((8, 32), (2, 8), (3, 16), (2, 8), (4, 8), (2, 16), (3, 8), (2, 24)),
)

#: hier_edit designs: (family, size parameters): 3-level buses of 2x2 and
#: 2x4 cells, and register files of 16, 24 and 32 cells. A leaf edit makes
#: check/lint flatten and re-analyse the whole design (~7 ms per cell), so
#: files of a few hundred cells would leave too few ops per run for a p90,
#: and their larger heap makes the session's full garbage collections both
#: longer and the main source of run-to-run spread. An odd number of
#: designs puts each command's median on one design's cluster of ops.
HIER_DESIGNS: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("bus", (2, 2, 6)),
    ("bus", (2, 4, 6)),
    ("regfile", (16, 12)),
    ("regfile", (24, 12)),
    ("regfile", (32, 12)),
)

#: hier_edit edits per deck: a leaf-body edit recomputes the leaf's summary;
#: a root-only edit recomputes none. Both change the flattened program, so
#: check/lint re-flatten and re-analyse on either. No recorded editing
#: traffic says how often each happens, so they are dealt evenly.
HIER_EDITS = ("leaf", "root")

_NAME_STEMS = (
    "alu", "fifo", "crc", "mac", "sbox", "lfsr", "uart", "spi",
    "dma", "pwm", "timer", "gpio", "arb", "cdc", "dsp", "mux",
)

_CHAIN_CONSTANT = '"00000001"'
_CELL_CONSTANT = re.compile(r'(tmp := tmp xor )"[01]{8}";')

#: The output assignment of a hierarchy root's process (register file, bus).
_ROOT_OUTPUT = re.compile(r"^    (?:dout|merged) <= acc;$", re.M)
#: The two root statements a root edit rewrites (see :func:`_hier_design`).
_ROOT_CONSTANT = re.compile(r'(acc := acc xor )"[01]{8}";')


@dataclass(frozen=True)
class Design:
    """One base design of a corpus."""

    id: str
    source: str
    entities: Tuple[Optional[str], ...]
    secret: str
    hierarchical: bool = False


@dataclass(frozen=True)
class Op:
    """One benchmark op: one command on one (perturbed) source."""

    index: int
    deck: int
    kind: str
    design: str
    entity: Optional[str]
    secret: str
    source: str

    @property
    def ref(self) -> str:
        """The reference-document id this op is checked against."""
        return ref_id(self.design, self.entity, self.kind)


def ref_id(design: str, entity: Optional[str], kind: str) -> str:
    return f"{design}|{entity or ''}|{kind}"


def _bits(rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(8))


def _names(rng: random.Random, count: int) -> List[str]:
    stems = rng.sample(_NAME_STEMS, count)
    return [f"{stem}_{rng.randrange(100)}" for stem in stems]


def _chain_file(rng: random.Random, shapes) -> Tuple[str, Tuple[str, ...]]:
    """A multi-entity chain file with seeded entity names and constants."""
    from repro.workloads import synthetic_chain_program

    names = _names(rng, len(shapes))
    parts = []
    for name, (processes, assignments) in zip(names, shapes):
        text = synthetic_chain_program(processes, assignments, name=name)
        parts.append(text.replace(_CHAIN_CONSTANT, f'"{_bits(rng)}"'))
    return "\n".join(parts), tuple(names)


def _hier_design(rng: random.Random, family: str, sizes: Tuple[int, ...]) -> Tuple[str, str]:
    """A generated hierarchy whose root process carries two XOR constants.

    The generated roots hold no constant, so two ``acc := acc xor`` lines go
    in before the root's output assignment. A root edit rewrites them: the
    flattened program changes while every leaf summary stays valid.
    """
    from repro.workloads import hierarchical_bus_program, hierarchical_register_file

    if family == "regfile":
        cells, depth = sizes
        source = hierarchical_register_file(
            cells=cells, depth=depth, name=_names(rng, 1)[0]
        )
        secret = "din"
    else:
        banks, cells, depth = sizes
        source, secret = hierarchical_bus_program(banks, cells, depth), "data"
    constant = '    acc := acc xor "00000000";\n'
    source, count = _ROOT_OUTPUT.subn(lambda match: constant * 2 + match.group(0), source)
    if count != 1:
        raise ValueError(f"{family}: expected one root output assignment, found {count}")
    return source, secret


def build_corpus(workload: str, seed: int) -> List[Design]:
    """The seeded base designs of ``workload`` (imports the generators)."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}:corpus")
    designs: List[Design] = []
    if workload in ("cold_cli", "warm_cli"):
        for index, shapes in enumerate(CHAIN_FILES):
            source, names = _chain_file(rng, shapes)
            designs.append(Design(f"file{index}", source, names, "chain_in"))
    else:
        for index, (family, sizes) in enumerate(HIER_DESIGNS):
            source, secret = _hier_design(rng, family, sizes)
            designs.append(
                Design(f"{family}{index}", source, (None,), secret, hierarchical=True)
            )
    return designs


def priming_design() -> Design:
    """A small design outside the corpus, used only to warm lazy imports."""
    from repro.workloads import synthetic_chain_program

    return Design("prime", synthetic_chain_program(2, 4, name="prime"), ("prime",), "chain_in")


def design_digest(designs: List[Design]) -> str:
    """One digest over a corpus (what the determinism test compares)."""
    digest = hashlib.sha256()
    for design in designs:
        digest.update(repr((design.id, design.entities, design.secret)).encode())
        digest.update(design.source.encode())
    return digest.hexdigest()


def deck(designs: List[Design], workload: str) -> List[Tuple[Design, Optional[str], str, str]]:
    """Every (design, entity, command, edit) combination of one deck."""
    edits = HIER_EDITS if workload == "hier_edit" else ("none",)
    return [
        (design, entity, kind, edit)
        for design in designs
        for entity in design.entities
        for kind in KINDS
        for edit in edits
    ]


def _leaf_edit(source: str, rng: random.Random) -> str:
    """Swap every XOR constant of the register-cell leaf body."""
    return _CELL_CONSTANT.sub(lambda match: f'{match.group(1)}"{_bits(rng)}";', source)


def _root_edit(source: str, index: int) -> str:
    """Set the two root XOR constants to the 16 bits of a nonzero number
    taken from the op index, so no two root edits of a run flatten alike."""
    bits = format(index % 0xFFFF + 1, "016b")
    halves = iter((bits[:8], bits[8:]))
    return _ROOT_CONSTANT.sub(lambda match: f'{match.group(1)}"{next(halves)}";', source)


def perturb(workload: str, seed: int, index: int, design: Design, edit: str,
            rng: random.Random) -> str:
    """The source of op ``index``: ``design`` plus its seeded edit.

    cold_cli and hier_edit ops carry the op index in a comment, so every op
    has a source digest not seen before in the run. warm_cli ops reuse the
    corpus text unchanged: they measure the cache.
    """
    if workload == "warm_cli":
        return design.source
    nonce = f"-- perfbench {workload} seed {seed} op {index}\n"
    if workload == "cold_cli":
        return design.source + nonce
    if edit == "leaf":
        return _leaf_edit(design.source, rng) + nonce
    return _root_edit(design.source, index) + nonce


def op_stream(designs: List[Design], workload: str, seed: int) -> Iterator[Op]:
    """The endless seeded op sequence of one run (stdlib only)."""
    rng = random.Random(f"perfbench:{workload}:{seed}:ops")
    cards = deck(designs, workload)
    index = 0
    for number in itertools.count():
        order = list(cards)
        rng.shuffle(order)
        for design, entity, kind, edit in order:
            yield Op(
                index=index,
                deck=number,
                kind=kind,
                design=design.id,
                entity=entity,
                secret=design.secret,
                source=perturb(workload, seed, index, design, edit, rng),
            )
            index += 1


def corpus_to_json(designs: List[Design]) -> List[Dict[str, object]]:
    return [asdict(design) for design in designs]


def corpus_from_json(items: List[Dict[str, object]]) -> List[Design]:
    return [Design(**{**item, "entities": tuple(item["entities"])}) for item in items]  # type: ignore[arg-type]
