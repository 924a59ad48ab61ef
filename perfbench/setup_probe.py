"""Set-up probe: the work a fresh interpreter does before it can simulate.

Imports srrb, optionally draws the random rising instance, loads and
validates the experiment config (or instance document) and builds the
``Instance``.  The time of this work goes to TIMES_JSON (see ``timed.py``),
and ``run.py`` reports it as ``setup_s``.

    python3 perfbench/setup_probe.py TIMES_JSON --config PATH [--generate T K SEED]
    python3 perfbench/setup_probe.py TIMES_JSON --instance PATH
"""

import argparse
import json
from pathlib import Path

from timed import run_timed


def set_up(args) -> None:
    from srrb import Instance, PolicyConfig, random_rising_instance

    if args.generate:
        horizon, arms, seed = args.generate
        random_rising_instance(horizon, num_arms=arms, seed=seed)
    if args.instance:
        Instance.from_dict(json.loads(Path(args.instance).read_text(encoding="utf-8")))
        return
    path = Path(args.config)
    config = json.loads(path.read_text(encoding="utf-8"))
    spec = config["instance"]
    if set(spec) == {"file"}:
        spec = json.loads((path.parent / spec["file"]).read_text(encoding="utf-8"))
    instance = Instance.from_dict(spec)
    horizon = config.get("horizon", instance.horizon)
    for entry in config["policies"]:
        PolicyConfig(**entry).resolve(horizon, instance.arms[0].law)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("times")
    parser.add_argument("--config")
    parser.add_argument("--instance")
    parser.add_argument("--generate", nargs=3, type=int, metavar=("T", "K", "SEED"))
    args = parser.parse_args()
    run_timed(args.times, lambda: set_up(args))


if __name__ == "__main__":
    main()
