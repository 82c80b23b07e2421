"""``python -m benchmarks.e2e.compare A.json B.json``

Two files written by ``python -m benchmarks.e2e --repeat K --out FILE``.  For
every (workload, metric): both medians, the ratio B/A **with A as its base**,
the bound, and a verdict:

* ``better`` / ``worse`` — B's median is better / worse than A's by more
  than the metric's bound;
* ``within`` — it is not;
* ``unresolved`` — the spread recorded in either file (distance between the
  quartiles over its passes as a share of their median; the full range when
  a file has fewer than four passes) exceeds the bound, so a difference of
  that size cannot be told from noise.  One pass per file records no
  spread, and is marked ``(no spread)``.

Per-layer metrics carry no bound: they are printed with ``gated: false`` and
only say whether the two medians are identical, which is what the exact
counters must be between two runs of one commit.  Exit code 1 if any gated
metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence


def spread(values: Sequence[float]) -> Optional[float]:
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def verdict(metric: Dict[str, Any], a: Sequence[float], b: Sequence[float]) -> str:
    base, other = statistics.median(a), statistics.median(b)
    bound = metric["bound"]
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    worse_by = (other - base) / base if metric["better"] == "lower" else (base - other) / base
    label = "worse" if worse_by > bound else "better" if worse_by < -bound else "within"
    return label if spreads else label + " (no spread)"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    spec = a["spec"]
    worse = 0
    print(f"A: commit {a['header']['commit']} seeds {a['header']['seeds']}    "
          f"B: commit {b['header']['commit']} seeds {b['header']['seeds']}")
    for workload, kept in a["results"].items():
        print(f"\n== {workload}")
        print(f"   {'metric':<46} {'median A':>14} {'median B':>14} {'B/A (base A)':>13} {'bound':>6}  verdict")
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                name = metric["name"]
                ours: List[float] = kept[kind].get(name, [])
                theirs: List[float] = b["results"].get(workload, {}).get(kind, {}).get(name, [])
                if not ours or not theirs:
                    continue
                base, other = statistics.median(ours), statistics.median(theirs)
                ratio = f"{other / base:.4f}" if base else "-"
                if kind == "end_to_end":
                    outcome = verdict(metric, ours, theirs)
                    worse += outcome.startswith("worse")
                    bound = f"{metric['bound']:.0%}"
                else:
                    outcome = "gated: false" + (", identical" if base == other else "")
                    bound = "-"
                print(f"   {name:<46} {base:>14.6g} {other:>14.6g} {ratio:>13} {bound:>6}  {outcome}")
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    loaded = []
    for path in paths:
        with open(path) as handle:
            loaded.append(json.load(handle))
    return compare(*loaded)


if __name__ == "__main__":
    sys.exit(main())
