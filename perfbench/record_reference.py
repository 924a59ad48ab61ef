"""Record the references the benchmark checks outputs against.

    PYTHONPATH=src python3 perfbench/record_reference.py [SECTION ...]

Writes ``perfbench/reference.json``; naming sections records only those
and keeps the others:

- ``verify_checks``: the check names each verify suite prints, by suite;
- ``<workload>.analyze``: the ``srrb analyze`` documents of every analyze
  invocation the benchmark makes, ``version`` removed;
- ``<workload>.band``: mean and population std of the final regret of each
  policy (per instance for run_k15, per sweep point for sweep_k2) over
  REFERENCE_RUNS runs on master seeds the benchmark does not use.

Re-record only when the program's results are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from srrb import Instance, PolicyConfig, random_rising_instance, run_batch
from srrb.verify import SUITES, run_suites

from workloads import (
    BOUND_FLAVORS,
    BOUND_SIGMA,
    INSTANCE_POOL,
    K15_ARMS,
    K15_HORIZON,
    K15_POLICIES,
    NUMERICS_INSTANCE,
    REFERENCE_FILE,
    ROOT,
    SWEEP_CONFIG,
    TAU_LIST,
)

REFERENCE_SEED = 1_000_000
REFERENCE_RUNS = 60
THREADS = 2


def analyze(path: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "srrb.cli", "analyze", str(path), "--tau-list", TAU_LIST, *extra],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True,
    ).stdout
    doc = json.loads(out)
    doc.pop("version", None)
    return doc


def cell(instance, config, seed) -> dict:
    agg = run_batch(instance, config, runs=REFERENCE_RUNS, master_seed=seed, parallelism=THREADS)
    return {"mean": float(agg.mean_regret[-1]), "std": float(agg.std_regret[-1]),
            "runs": REFERENCE_RUNS}


def verify_checks() -> dict:
    return {name: [c.name for s in run_suites([name]) for c in s.checks] for name in SUITES}


def run_k15() -> dict:
    k15 = {"analyze": {}, "band": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for inst_seed in range(INSTANCE_POOL):
            instance = random_rising_instance(K15_HORIZON, num_arms=K15_ARMS, seed=inst_seed)
            path = Path(tmp) / f"instance{inst_seed}.json"
            path.write_text(json.dumps(instance.to_dict()), encoding="utf-8")
            k15["analyze"][str(inst_seed)] = analyze(path)
            k15["band"][str(inst_seed)] = {
                spec["label"]: cell(instance, PolicyConfig(**spec), REFERENCE_SEED + inst_seed)
                for spec in K15_POLICIES
            }
            print(f"run_k15 instance {inst_seed} recorded", file=sys.stderr)
    return k15


def sweep_k2() -> dict:
    config = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    instance = Instance.from_dict(json.loads(NUMERICS_INSTANCE.read_text(encoding="utf-8")))
    band = {}
    for spec in config["policies"]:
        base = PolicyConfig(**spec)
        band[spec["label"]] = [
            cell(instance, replace(base, forced_pulls=int(v)), REFERENCE_SEED + j)
            for j, v in enumerate(config["sweep"]["grid"])
        ]
        print(f"sweep_k2 {spec['label']} recorded", file=sys.stderr)
    return {"analyze": {"instance": analyze(NUMERICS_INSTANCE)}, "band": band}


def numerics() -> dict:
    return {"analyze": {
        flavor: analyze(NUMERICS_INSTANCE, "--bound-sigma", str(BOUND_SIGMA),
                        "--bound-flavor", flavor)
        for flavor in BOUND_FLAVORS
    }}


SECTIONS = {f.__name__: f for f in (verify_checks, run_k15, sweep_k2, numerics)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*",
                        help=f"sections to record, of {', '.join(SECTIONS)} (default: all)")
    names = parser.parse_args().sections or list(SECTIONS)
    if set(names) - set(SECTIONS):
        parser.error(f"unknown sections {sorted(set(names) - set(SECTIONS))}")
    reference = {}
    if REFERENCE_FILE.is_file():
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    for name in names:
        reference[name] = SECTIONS[name]()
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
