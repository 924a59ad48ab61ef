"""Paired timing of two checkouts: what each CLI subcommand imports before
it does any work, then the end-to-end benchmark.

    python3 bench/startup.py --base PARENT_ROOT --change CHANGE_ROOT \\
        --out BENCH_startup.json

Each root is the root of a git checkout (``src/`` and ``perfbench/``).
Each reading is one fresh interpreter, started in the root with
``PYTHONPATH=src``, that runs one import statement between two readings
of ``perfbench/timed.py``'s calibration loop (``timed.run_timed``; the
interpreter loads ``json`` and ``time`` for it before the timed window).
The seconds are scaled to perfbench's reference speed as
``perfbench/run.py`` scales its times.  The statements are the imports
of ``IMPORTS``: ``srrb.cli`` alone, the library layer each subcommand
imports on top of it, the set-up probe's names, and numpy as the floor.

Both bytecode settings are timed:

- ``compiled_each_call``: ``PYTHONDONTWRITEBYTECODE=1``, so an
  interpreter compiles every srrb source it imports (a root should hold
  no bytecode of this Python under ``src/``; the output records whether
  it does);
- ``bytecode_cached``: bytecode written to and read from a temporary
  ``PYTHONPYCACHEPREFIX``, filled by one warm-up interpreter per
  statement and root.

Each setting takes ``IMPORT_PAIRS`` pairs, the sides alternating as in
``round_loop.py``: the base first in even pairs, the change first in odd
ones.  Then each of ``PAIRS`` pairs runs ``python3 perfbench/run.py
--workload W --seed 11 --seconds 38 --trace 0`` for every workload in
each root, alternating the same way.  The output gives every reading,
each side's quartiles (the middle one is the median) and the change's
wins per metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from round_loop import E2E, PAIRS, header, paired, run_e2e, scaled, write

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
SEED = 11

# argv: TIMES_JSON PERFBENCH_DIR STATEMENT
CHILD = """
import sys
sys.path.insert(0, sys.argv[2])
from timed import run_timed
run_timed(sys.argv[1], lambda: exec(sys.argv[3], {}))
"""


def child_env(root: Path, cache: Path | None) -> dict:
    """The environment of one timed interpreter: bytecode cached under
    ``cache``, or never written if it is None."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def import_s(root: Path, statement: str, cache: Path | None, scratch: Path) -> float:
    """Seconds one fresh interpreter takes to run ``statement``, at the
    reference speed."""
    times = scratch / "times.json"
    subprocess.run(
        [sys.executable, "-c", CHILD, str(times), str(root / "perfbench"), statement],
        cwd=root, env=child_env(root, cache), check=True,
    )
    t = json.loads(times.read_text(encoding="utf-8"))
    return scaled(t["wall_s"], t["before"], t["after"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    doc = header(roots)
    doc["bytecode_under_src"] = {
        side: any((root / "src").rglob(f"*.{sys.implementation.cache_tag}.pyc"))
        for side, root in roots.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        caches = {side: scratch / f"pycache-{side}" for side in roots}
        for side, root in roots.items():
            for statement in IMPORTS.values():
                import_s(root, statement, caches[side], scratch)
        for mode in ("compiled_each_call", "bytecode_cached"):
            doc[f"imports.{mode}"] = paired(
                list(IMPORTS),
                lambda side, name: {f"{name}_s": import_s(
                    roots[side], IMPORTS[name],
                    caches[side] if mode == "bytecode_cached" else None, scratch)},
                IMPORT_PAIRS,
            )
    for workload in E2E:
        doc[f"e2e.{workload}"] = {
            "seed": SEED,
            **paired([workload], lambda side, wl: run_e2e(roots[side], wl, SEED)),
        }
    write(doc, args.out)


if __name__ == "__main__":
    main()
