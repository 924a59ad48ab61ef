"""Paired timing of two checkouts: the verify suites in process, then the
end-to-end benchmark.

    python3 bench/verify_suites.py --base PARENT_ROOT --change CHANGE_ROOT \\
        --out BENCH_verify.json

Each root is the root of a git checkout (``src/`` and ``perfbench/``).
One interpreter imports both roots' ``srrb`` under their own names and,
pair by pair, times each side's ``identities_suite()``,
``lemmas_suite()`` and ``windows_suite()`` in process, each reading
scaled to perfbench's reference speed by the calibration loop read just
before and just after it (``round_loop.at_reference_speed``).  Then each
pair of each workload runs ``python3 perfbench/run.py --workload W --seed
17 --seconds 38 --trace 0`` in each root.  Both parts take ten pairs, the
sides alternating as in ``round_loop.py``: the base first in even pairs,
the change first in odd ones.  The output gives every reading, each
side's quartiles (the middle one is the median) and the change's wins per
metric.
"""

from __future__ import annotations

import argparse
import importlib
from pathlib import Path

from round_loop import E2E, at_reference_speed, header, load_srrb, paired, run_e2e, write

SUITES = ("identities", "lemmas", "windows")
SEED = 17


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    doc = header(roots)
    suites = {}
    for side, root in roots.items():
        verify = importlib.import_module(f"{load_srrb(root, f'srrb_{side}').__name__}.verify")
        suites[side] = verify.SUITES
    doc["suites"] = paired(
        [f"{name}_s" for name in SUITES],
        lambda side, metric: {metric: at_reference_speed(suites[side][metric[:-2]])},
    )
    for workload in E2E:
        doc[f"e2e.{workload}"] = {
            "seed": SEED,
            **paired([workload], lambda side, wl: run_e2e(roots[side], wl, SEED)),
        }
    write(doc, args.out)


if __name__ == "__main__":
    main()
