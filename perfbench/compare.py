"""Compare the results of two benchmark runs, metric by metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a record from ``.perfbench/results/`` or a directory
of them. Records are grouped by workload and trace flag, and each side's
median over its seeds is compared. A comparison that mixes machines with
different CPU counts prints a warning: every workload competes for cores
with the host, and warm_cli's traced run sizes its server's worker pool by
the CPU count.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

Key = Tuple[str, int]


def load(path: str) -> Dict[Key, List[dict]]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    groups: Dict[Key, List[dict]] = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            record = json.load(handle)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    cpus = {side: {r["machine"]["nproc"] for rs in groups.values() for r in rs}
            for side, groups in (("old", old), ("new", new))}
    if cpus["old"] != cpus["new"] or len(cpus["old"]) > 1:
        print(f"warning: CPU counts differ (old {sorted(cpus['old'])}, new {sorted(cpus['new'])}); "
              "the numbers are not comparable", file=sys.stderr)
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(old[key])} old vs {len(new[key])} new runs")
        units = new[key][0]["units"]
        for metric in new[key][0]["metrics"]:
            before = statistics.median(r["metrics"][metric] for r in old[key])
            after = statistics.median(r["metrics"][metric] for r in new[key])
            change = f"{(after - before) / before:+.1%}" if before else "n/a"
            print(f"  {metric:<24} {before:>12.4f} -> {after:>12.4f} {units[metric]:<6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
