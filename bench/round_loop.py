"""Paired timing of two checkouts: the simulation round loop in process,
then the end-to-end benchmark.

    python3 bench/round_loop.py --base PARENT_ROOT --change CHANGE_ROOT \\
        --out BENCH_round_loop.json

Each root is the root of a git checkout (``src/`` and ``perfbench/``),
labelled by ``git describe --always --dirty``.  One interpreter imports
both roots' ``srrb`` under their own names and, pair by pair, times each
side in process: ``run_single`` per policy kind and arm count (K = 2, 15,
100 on ``random_rising_instance(10_000, K, seed=3)``, runs seeded 0 and
1, the policies of the ``run_k15`` workload) and ``windows_suite()``.
Each reading is scaled to perfbench's reference speed by the calibration
loop of ``perfbench/timed.py``, read just before and just after it, as
``perfbench/run.py`` scales its times.  The base goes first in even
pairs and the change first in odd ones, reading by reading, so drift of
the machine's speed cannot favour a side.
Then each pair of each workload runs ``python3 perfbench/run.py
--workload W --seed 6 --seconds 38 --trace 0`` in each root, alternating
the same way.  Both parts take ten pairs.  The output gives every
reading, each side's quartiles (the middle one is the median) and the
change's wins per metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import REFERENCE_LOOP_S  # noqa: E402
from timed import reading  # noqa: E402

HORIZON = 10_000
ARMS = (2, 15, 100)
RUNS = 2
POLICIES = [
    {"kind": "beta_swts", "window": 1000},
    {"kind": "gauss_swgts", "forced_pulls": 1, "window": 2000},
    {"kind": "ucb1"},
    {"kind": "sw_ucb"},
]
HIGHER_IS_BETTER = {"rounds_per_s"}
PAIRS = 10
SEED = 6
E2E = ("run_k15", "sweep_k2", "numerics")


def load_srrb(root: Path, name: str):
    """The ``srrb`` package of ``root`` imported as ``name``."""
    package = root / "src" / "srrb"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def scaled(wall: float, before: dict, after: dict) -> float:
    """``wall`` seconds at perfbench's reference speed, given the
    calibration readings taken just before and just after them."""
    return wall * REFERENCE_LOOP_S / ((before["loop_s"] + after["loop_s"]) / 2)


def at_reference_speed(work) -> float:
    """Seconds ``work()`` takes, scaled to perfbench's reference speed."""
    before = reading()
    start = perf_counter()
    work()
    wall = perf_counter() - start
    return scaled(wall, before, reading())


def round_loop_timer(srrb):
    """A function taking one reading of a round-loop metric by its name."""
    instances = {f"k{k}": srrb.random_rising_instance(HORIZON, num_arms=k, seed=3) for k in ARMS}
    configs = {spec["kind"]: srrb.PolicyConfig(**spec) for spec in POLICIES}
    windows_suite = importlib.import_module(f"{srrb.__name__}.verify").windows_suite

    def one(name: str) -> float:
        if name == "windows_s":
            return at_reference_speed(windows_suite)
        _, kind, k = name.split(".")

        def runs():
            for seed in range(RUNS):
                srrb.run_single(instances[k], configs[kind], seed=seed, record_pulls=False)

        return at_reference_speed(runs) / RUNS / HORIZON * 1e6

    return one


ROUND_METRICS = [f"round_us.{spec['kind']}.k{k}" for k in ARMS for spec in POLICIES]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            return next(line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def describe(root: Path) -> str:
    return subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_e2e(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "38", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {workload} reported {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def paired(steps, measure, pairs: int = PAIRS) -> dict:
    """``pairs`` readings per side of every metric: ``measure(side, step)``
    returns a dict of metrics, and the sides alternate step by step, the
    base first in even pairs.  Per metric: each side's quartiles, the
    ratio of the medians and the change's wins."""
    readings = {"base": {}, "change": {}}
    for i in range(pairs):
        for step in steps:
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                for name, value in measure(side, step).items():
                    readings[side].setdefault(name, []).append(value)
        print(f"pair {i} done", file=sys.stderr)
    summary = {}
    for name, base in readings["base"].items():
        change = readings["change"][name]
        higher = name in HIGHER_IS_BETTER
        base_q = statistics.quantiles(base, n=4, method="inclusive")
        change_q = statistics.quantiles(change, n=4, method="inclusive")
        summary[name] = {
            "base_quartiles": base_q,
            "change_quartiles": change_q,
            "median_ratio": change_q[1] / base_q[1],
            "median_gap_over_base_iqr": abs(change_q[1] - base_q[1]) / (base_q[2] - base_q[0])
            if base_q[2] > base_q[0] else None,
            "change_wins": sum((c > b) if higher else (c < b) for b, c in zip(base, change)),
            "pairs": pairs,
        }
    return {"summary": summary, "readings": readings}


def header(roots: dict) -> dict:
    """The box, both commits and the command line of a paired run."""
    return {
        "box": {"cpu": cpu_model(), "cpus": os.cpu_count(), "platform": platform.platform(),
                "python": platform.python_version(), "numpy": np.__version__},
        "commits": {side: describe(root) for side, root in roots.items()},
        "command": shlex.join(["python3", *sys.argv]),
    }


def write(doc: dict, out: Path | None) -> None:
    text = json.dumps(doc, indent=1)
    if out:
        out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    doc = header(roots)
    timers = {side: round_loop_timer(load_srrb(root, f"srrb_{side}"))
              for side, root in roots.items()}
    doc["round_loop"] = paired([*ROUND_METRICS, "windows_s"],
                               lambda side, name: {name: timers[side](name)})
    for workload in E2E:
        doc[f"e2e.{workload}"] = {
            "seed": SEED,
            **paired([workload], lambda side, wl: run_e2e(roots[side], wl, SEED)),
        }
    write(doc, args.out)


if __name__ == "__main__":
    main()
