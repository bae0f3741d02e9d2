#!/usr/bin/env python3
"""Merge energies from benchmark results into reference.json.

    python3 perfbench/record_reference.py .perfbench/*/results.json

Every op outcome that has a reference key and was not ``wrong`` is recorded
as ``{E, converged, c, iterations}``. An entry already in the file is kept;
a new result that disagrees with it by more than the check tolerance is
reported and the script exits with code 1, because the reference must come
from one version of the program.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def main(paths: list[str]) -> int:
    doc = {"tolerance_rel": checks.REL_TOL, "entries": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            doc = json.load(fh)
    entries = doc["entries"]
    conflicts = added = 0
    for path in paths:
        with open(path) as fh:
            results = json.load(fh)
        if results.get("smoke"):
            continue
        for op in results["ops"]:
            key = op.get("key")
            if not key or op["status"] == "wrong" or "E" not in op:
                continue
            entry = {"E": op["E"], "converged": op["converged"],
                     "c": None if op.get("c") is None or math.isnan(op["c"]) else op["c"],
                     "iterations": op.get("iterations")}
            old = entries.get(key)
            if old is None:
                entries[key] = entry
                added += 1
            elif checks.rel_gap(entry["E"], old["E"]) > checks.REL_TOL:
                print(f"conflict {key}: E={entry['E']!r} vs recorded {old['E']!r}", file=sys.stderr)
                conflicts += 1
    doc["entries"] = dict(sorted(entries.items()))
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{added} entries added, {len(entries)} in {REFERENCE}, {conflicts} conflicts")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
