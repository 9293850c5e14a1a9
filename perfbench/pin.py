"""Regenerate ``pins.json``: simulated time and counters of every cell.

Run from the repository root, only when a change is meant to move
simulated cost (the committed pins are what ``cells_failed`` checks)::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import PINS_PATH, ReferenceChecker, cell_pin
    from workloads import WORKLOADS, run_cell

    out = os.path.join(ROOT, ".perfbench_out")
    pins: dict[str, dict] = {}
    for w in WORKLOADS.values():
        ref = ReferenceChecker(w.config)
        pins[w.name] = {}
        for cell in w.cells:
            rt, _, result = run_cell(w, cell, out)
            problems = ref.check(cell, result)
            if problems:
                print(f"{w.name} {cell.name}: " + "; ".join(problems),
                      file=sys.stderr)
                return 1
            pins[w.name][cell.name] = cell_pin(rt)
            print(f"pinned {w.name} {cell.name}: {rt.time:,.1f} mtu")
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
