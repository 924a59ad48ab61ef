"""Paired timing of two checkouts: in process, by import, end to end.

    python3 bench/paired.py --base PARENT_ROOT --change CHANGE_ROOT \\
        --out BENCH_paired.json [--seed 6]

Each root is a git checkout (``src/`` and ``perfbench/``), labelled by
``git describe --always --dirty``.  Every reading is scaled to
perfbench's reference speed by ``perfbench/timed.py``'s calibration loop,
read just before and just after it, as ``perfbench/run.py`` scales its
times.  The sides alternate reading by reading, the base first in even
pairs and the change first in odd ones, so drift of the machine's speed
cannot favour a side.  In order:

- ``in_process`` (``PAIRS`` pairs): one interpreter imports both roots'
  ``srrb`` under their own names and reads each metric of ``IN_PROCESS``:
  ``round_us.<kind>.k<K>``, microseconds per round of ``run_single`` on
  ``random_rising_instance(HORIZON, K, seed=3)`` for each K of ``ARMS``
  (runs seeded 0 and 1, the ``run_k15`` workload's policies), and
  ``<suite>_s``, one verify suite's seconds.  A ``gc.collect()`` precedes
  every reading.
- ``imports.<setting>`` (``IMPORT_PAIRS`` pairs): one fresh interpreter
  per reading, in the root with ``PYTHONPATH=src``, runs a statement of
  ``IMPORTS`` inside ``timed.run_timed``: ``<name>_wall_s`` are the
  statement's wall seconds, ``<name>_cpu_s`` the interpreter's CPU
  seconds less its calibration loops' (see ``import_times``).
  ``compiled_each_call`` sets ``PYTHONDONTWRITEBYTECODE=1``
  (``bytecode_under_src`` records whether a root holds bytecode of this
  Python that would be read instead);
  ``bytecode_cached`` uses a temporary ``PYTHONPYCACHEPREFIX`` filled by
  one warm-up interpreter per statement and root.
- ``e2e.<workload>`` (``PAIRS`` pairs): ``python3 perfbench/run.py
  --workload W --seed SEED --seconds 38 --trace 0`` in each root, SEED
  being ``--seed`` (6 by default; check a claim at a seed that was not
  used while writing the change).

Per metric: every reading, each side's quartiles (the middle one is the
median), the ratio of the medians, their gap over the base's IQR and the
change's wins.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import REFERENCE_LOOP_S  # noqa: E402
from timed import reading  # noqa: E402

# the in-process part writes no bytecode under src/ for the imports part to read
sys.dont_write_bytecode = True

PAIRS = 10
HORIZON = 10_000
# 13 and 14 sit either side of the largest K at which the policies keep
# list index inputs and Beta-TS draws per arm (``srrb.policies._LIST_ARMS``)
ARMS = (2, 13, 14, 15, 100)
RUNS = 2
# kind -> the rest of its PolicyConfig, as in the run_k15 workload
POLICIES = {
    "beta_swts": {"window": 1000},
    "gauss_swgts": {"forced_pulls": 1, "window": 2000},
    "ucb1": {},
    "sw_ucb": {},
}
SUITES = ("identities", "lemmas", "windows")
IN_PROCESS = (*(f"round_us.{kind}.k{k}" for k in ARMS for kind in POLICIES),
              *(f"{suite}_s" for suite in SUITES))
IMPORTS = {
    "numpy": "import numpy",
    "cli": "import srrb.cli",
    "analyze": "import srrb.cli, srrb.analytics",
    "run_sweep": "import srrb.cli, srrb.harness",
    "verify": "import srrb.cli, srrb.verify",
    "lower_bound": "import srrb.cli, srrb.constructions",
    "setup_probe": "from srrb import Instance, PolicyConfig, random_rising_instance",
}
IMPORT_PAIRS = 15
E2E = ("run_k15", "sweep_k2", "numerics")
HIGHER_IS_BETTER = {"rounds_per_s"}

# argv: TIMES_JSON PERFBENCH_DIR STATEMENT
CHILD = ("import sys; sys.path.insert(0, sys.argv[2]); from timed import run_timed; "
         "run_timed(sys.argv[1], lambda: exec(sys.argv[3], {}))")


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
    """Seconds ``work()`` takes, scaled to perfbench's reference speed.

    Both roots run in this one interpreter, so a full collection comes
    first: no reading pays for the garbage the previous one left."""
    gc.collect()
    before = reading()
    start = perf_counter()
    work()
    wall = perf_counter() - start
    return scaled(wall, before, reading())


def in_process_timer(srrb):
    """A function taking one reading of an ``IN_PROCESS`` metric by its name."""
    instances = {f"k{k}": srrb.random_rising_instance(HORIZON, num_arms=k, seed=3) for k in ARMS}
    configs = {kind: srrb.PolicyConfig(kind=kind, **rest) for kind, rest in POLICIES.items()}
    suites = importlib.import_module(f"{srrb.__name__}.verify").SUITES

    def one(name: str) -> float:
        if name.endswith("_s"):
            return at_reference_speed(suites[name[: -len("_s")]])
        _, kind, k = name.split(".")

        def runs():
            for seed in range(RUNS):
                srrb.run_single(instances[k], configs[kind], seed=seed)

        return at_reference_speed(runs) / RUNS / HORIZON * 1e6

    return one


def import_times(root: Path, statement: str, cache: Path | None, scratch: Path) -> dict:
    """One fresh interpreter running ``statement``, bytecode cached under
    ``cache`` or never written if it is None: ``wall_s``, the seconds of
    the statement, and ``cpu_s``, the user + system seconds of the whole
    process (start-up included) less those of its calibration loops, as
    ``perfbench/run.py`` counts them; both at the reference speed."""
    times = scratch / "times.json"
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(root / "src")
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    argv = [sys.executable, "-c", CHILD, str(times), str(root / "perfbench"), statement]
    proc = subprocess.Popen(argv, cwd=root, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    t = json.loads(times.read_text(encoding="utf-8"))
    before, after = t["before"], t["after"]
    cpu = usage.ru_utime + usage.ru_stime - before["cpu_s"] - after["cpu_s"]
    return {"wall_s": scaled(t["wall_s"], before, after), "cpu_s": scaled(cpu, before, after)}


def run_e2e(root: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one ``perfbench/run.py`` run in ``root``."""
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
    ratio of the medians, their gap over the base's interquartile range
    (None if that is 0) and the change's wins."""
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


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            return next(line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def header(roots: dict) -> dict:
    """The box, both commits, the command line, and whether each root
    holds bytecode under ``src/``."""
    def describe(root: Path) -> str:
        return subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                              check=True, capture_output=True, text=True).stdout.strip()

    return {
        "box": {"cpu": cpu_model(), "cpus": os.cpu_count(), "platform": platform.platform(),
                "python": platform.python_version(), "numpy": np.__version__},
        "commits": {side: describe(root) for side, root in roots.items()},
        "command": shlex.join(["python3", *sys.argv]),
        "bytecode_under_src": {
            side: any((root / "src").rglob(f"*.{sys.implementation.cache_tag}.pyc"))
            for side, root in roots.items()
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=6, help="the end-to-end workloads' seed")
    args = parser.parse_args()
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    doc = header(roots)

    timers = {side: in_process_timer(load_srrb(root, f"srrb_{side}"))
              for side, root in roots.items()}
    doc["in_process"] = paired(IN_PROCESS, lambda side, name: {name: timers[side](name)})

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        caches = {side: scratch / f"pycache-{side}" for side in roots}
        for side, root in roots.items():
            for statement in IMPORTS.values():
                import_times(root, statement, caches[side], scratch)
        for setting in ("compiled_each_call", "bytecode_cached"):
            def measure(side, name):
                cache = caches[side] if setting == "bytecode_cached" else None
                times = import_times(roots[side], IMPORTS[name], cache, scratch)
                return {f"{name}_{metric}": value for metric, value in times.items()}

            doc[f"imports.{setting}"] = paired(list(IMPORTS), measure, IMPORT_PAIRS)

    for workload in E2E:
        doc[f"e2e.{workload}"] = {
            "seed": args.seed,
            **paired([workload], lambda side, wl: run_e2e(roots[side], wl, args.seed))}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
