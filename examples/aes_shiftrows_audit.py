#!/usr/bin/env python3
"""Reproduce the paper's Figure 5: auditing AES ShiftRows.

The NSA AES implementation rotates the three lower rows of the state in place,
reusing the *same* temporary variable for every row.  Kemmerer's Shared
Resource Matrix method is flow-insensitive, so the shared temporary makes every
row element appear to depend on every other element (Figure 5(a)).  The
paper's Reaching-Definitions-driven analysis recovers the exact permutation:
each element depends on precisely the element that is shifted into it
(Figure 5(b)).

The script prints both graphs (restricted to the twelve row-element nodes, with
incoming/outgoing nodes merged exactly as the paper does), reports the
precision gap and writes DOT renderings next to the script.

Run with::

    python examples/aes_shiftrows_audit.py
"""

from pathlib import Path

from repro import analyze, analyze_kemmerer
from repro.aes.generator import (
    shift_rows_expected_sources,
    shift_rows_paper_source,
    shift_rows_row_nodes,
)


def main() -> None:
    source = shift_rows_paper_source()
    nodes = [node for row in shift_rows_row_nodes().values() for node in row]

    print("Analysed program (generated, loops unrolled, shared temporary):")
    print("\n".join("    " + line for line in source.splitlines()[:20]))
    print("    ...")
    print()

    ours = (
        analyze(source, improved=True, loop_processes=False)
        .collapsed_graph()
        .without_self_loops()
        .restricted_to(nodes)
    )
    kemmerer = (
        analyze_kemmerer(source, loop_processes=False)
        .graph.without_self_loops()
        .restricted_to(nodes)
    )

    print("=== Figure 5(b): our analysis ===")
    for target in sorted(nodes):
        sources = ", ".join(sorted(ours.predecessors(target))) or "(none)"
        print(f"  {target} <- {sources}")
    print(f"  total edges: {ours.edge_count()}")
    print()

    print("=== Figure 5(a): Kemmerer's method ===")
    sample = sorted(nodes)[0]
    print(f"  e.g. {sample} <- {', '.join(sorted(kemmerer.predecessors(sample)))}")
    print(f"  total edges: {kemmerer.edge_count()}")
    print()

    expected = shift_rows_expected_sources()
    exact = all(
        ours.predecessors(target) == frozenset({source})
        for target, source in expected.items()
    )
    cross_row = [
        edge for edge in kemmerer.edges if edge[0].split("_")[1] != edge[1].split("_")[1]
    ]
    print("=== Comparison ===")
    print(f"  our graph matches the true ShiftRows permutation exactly: {exact}")
    print(f"  Kemmerer cross-row (false) edges: {len(cross_row)}")
    print(
        f"  false positives eliminated by the analysis: "
        f"{kemmerer.edge_count() - ours.edge_count()}"
    )

    out_dir = Path(__file__).resolve().parent
    (out_dir / "shiftrows_ours.dot").write_text(ours.to_dot("ours"), encoding="utf-8")
    (out_dir / "shiftrows_kemmerer.dot").write_text(
        kemmerer.to_dot("kemmerer"), encoding="utf-8"
    )
    print()
    print(f"DOT files written to {out_dir}/shiftrows_ours.dot and shiftrows_kemmerer.dot")


if __name__ == "__main__":
    main()
