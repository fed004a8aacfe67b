"""Compare benchmark result records of two commits.

Usage: python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are result records written by run.py
(`.perfbench/results/<workload>-seed<seed>-trace<t>.json`) or directories of
them. Records are grouped by workload and trace flag. For every metric the
table gives each side's median over its records, the change as a share of
the before median, and, for end-to-end metrics, the bound from
BENCHMARK.json; `WORSE` marks a change past the bound in the metric's bad
direction. Records of the same workload and seed on both sides must have
identical output digests and identical values of every metric whose unit is
`count`; any difference is listed, since a speed-up that changes a byte or a
count is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def same_seed_differences(before: list[dict], after: list[dict]) -> int:
    """Print the output digests and count metrics that differ between records of
    the same seed, and return how many records differ."""
    by_seed = {r["seed"]: r for r in before}
    differ = 0
    for record in after:
        other = by_seed.get(record["seed"])
        if other is None:
            continue
        old, new = other["iterations"][0]["digests"], record["iterations"][0]["digests"]
        changed = sorted(f for f in old.keys() | new.keys() if old.get(f) != new.get(f))
        counts = sorted(
            f"{name} {other['metrics'][name][0]} -> {value}"
            for name, (value, unit) in record["metrics"].items()
            if unit == "count" and name in other["metrics"]
            and other["metrics"][name][0] != value)
        if changed:
            print(f"  seed {record['seed']}: outputs differ: {', '.join(changed)}")
        if counts:
            print(f"  seed {record['seed']}: counts differ: {', '.join(counts)}")
        differ += bool(changed or counts)
    return differ


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before, after = load(Path(argv[0])), load(Path(argv[1]))
    worse = 0
    for key in sorted(before.keys() & after.keys()):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): {len(before[key])} before, {len(after[key])} after")
        for name, (_, unit) in before[key][0]["metrics"].items():
            a = statistics.median(r["metrics"][name][0] for r in before[key])
            b = statistics.median(r["metrics"][name][0] for r in after[key])
            change = (b - a) / a if a else 0.0
            limit = bound.get(name)
            flag = ""
            if limit is not None:
                bad = change if better[name] == "lower" else -change
                if bad > limit:
                    flag = "WORSE"
                    worse += 1
            shown = "" if limit is None else f"{limit:.2f}"
            print(f"  {name:32s} {a:>14.6g} {b:>14.6g} {unit:6s} {change:+8.2%} "
                  f"{shown:>5s} {flag}")
        worse += same_seed_differences(before[key], after[key])
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
