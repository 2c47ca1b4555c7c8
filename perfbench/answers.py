"""Answer records for comparing two commits' outputs.

Each benchmark run writes ``perfbench/out/answers/<workload>_seed<S>_trace<T>.json``:
the outputs a later change must reproduce, plus the SHA-256 of every output
file.  A solver change may legitimately move the numbers inside its
tolerance, so these are records to compare, not regression metrics.

Print the largest difference between two records, or between the records
of the same name in two directories::

    python3 perfbench/answers.py OLD NEW
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def write_record(path: Path, workload: str, seed: int, values: dict, digests: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "values": values,
                   "sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def flatten(value, prefix: str = "") -> dict[str, float]:
    """Numeric leaves keyed by path, e.g. ``columns.total_revenue[3]``."""
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            out.update(flatten(sub, f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(value, list):
        out = {}
        for i, sub in enumerate(value):
            out.update(flatten(sub, f"{prefix}[{i}]"))
        return out
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return {}
    return {prefix: float(value)}


def compare(old: dict, new: dict) -> dict:
    """Largest absolute and relative difference over the shared numeric
    leaves, the leaves only one side has, and which file digests differ."""
    a, b = flatten(old["values"]), flatten(new["values"])
    worst_abs = worst_rel = 0.0
    at_abs = at_rel = None
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        if math.isnan(x) and math.isnan(y):
            continue
        diff = abs(x - y) if not (math.isnan(x) or math.isnan(y)) else math.inf
        rel = diff / max(abs(x), abs(y)) if diff else 0.0
        if diff > worst_abs or at_abs is None:
            worst_abs, at_abs = diff, key
        if rel > worst_rel or at_rel is None:
            worst_rel, at_rel = rel, key
    digests = sorted(k for k in old["sha256"].keys() | new["sha256"].keys()
                     if old["sha256"].get(k) != new["sha256"].get(k))
    return {"max_abs": worst_abs, "max_abs_at": at_abs,
            "max_rel": worst_rel, "max_rel_at": at_rel,
            "only_one_side": sorted(a.keys() ^ b.keys()),
            "digests_differ": digests}


def _pairs(old: Path, new: Path):
    if old.is_dir():
        for path in sorted(old.glob("*.json")):
            if (new / path.name).exists():
                yield path.name, path, new / path.name
    else:
        yield new.name, old, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="answer record or directory of records")
    parser.add_argument("new", type=Path, help="answer record or directory of records")
    args = parser.parse_args(argv)
    found = False
    for label, old_path, new_path in _pairs(args.old, args.new):
        found = True
        with open(old_path) as fh, open(new_path) as gh:
            result = compare(json.load(fh), json.load(gh))
        print(f"{label}: max abs diff {result['max_abs']:.3e} at {result['max_abs_at']}; "
              f"max rel diff {result['max_rel']:.3e} at {result['max_rel_at']}; "
              f"files differing: {', '.join(result['digests_differ']) or 'none'}"
              + (f"; {len(result['only_one_side'])} values on one side only"
                 if result["only_one_side"] else ""))
    if not found:
        print("no records to compare", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
