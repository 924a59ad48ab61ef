"""Command-line front end.

Subcommands: analyze, run, sweep, verify, lower-bound.  The CLI stays a
thin shell over the library; outputs are CSV (regret trajectories, 12
significant digits) and JSON (full metadata).  Exit codes: 0 success,
1 property violation, 2 config or schema error, 3 invalid instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analytics import build_report
from .constructions import lower_bound_instances
from .harness import run_batch, sweep, sweep_point
from .instance import Instance, InvalidInstanceError, dump_instance
from .policies import PolicyConfig, _count
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INSTANCE = 3


class ConfigError(Exception):
    pass


@contextmanager
def _config_errors(prefix: str = ""):
    """Report a ValueError or TypeError raised while checking an input as
    a ConfigError; an InvalidInstanceError stays one."""
    try:
        yield
    except InvalidInstanceError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def _instance_from_spec(spec, base_dir: Path = Path()) -> tuple[Instance, dict]:
    """Inline instance document or {"file": path} reference, the path
    relative to ``base_dir``; returns the instance and its document."""
    if isinstance(spec, dict) and set(spec) == {"file"} and isinstance(spec["file"], str):
        spec = _load_json(base_dir / spec["file"])
    with _config_errors("bad instance document: "):
        return Instance.from_dict(spec), spec


def _canonical_hash(document: dict) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _format_float(x: float) -> str:
    return f"{x:.12g}"


def cmd_analyze(args) -> int:
    instance, _ = _instance_from_spec({"file": args.instance})
    try:
        tau_list = [int(v) for v in args.tau_list.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("--tau-list must be comma-separated integers") from None
    with _config_errors():
        report = build_report(
            instance,
            tau_list=tau_list,
            bound_sigma=args.bound_sigma,
            bound_flavor=args.bound_flavor,
            bound_forced=args.bound_forced,
            bound_eps=args.bound_eps,
            bound_precision_scale=args.bound_precision_scale,
        )
    document = {"version": __version__, "instance_hash": _canonical_hash(instance.to_dict())}
    document.update(report.to_dict())
    payload = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return EXIT_OK


def _parse_experiment(args):
    """Check the whole experiment config before anything runs.

    Returns the instance anchored at the run horizon, the JSON header, the
    (label, resolved config) pairs, the ``run_batch`` keywords and the
    config's sweep section.
    """
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise ConfigError("experiment config must be a JSON object")
    if "instance" not in config:
        raise ConfigError("experiment config needs an 'instance'")
    base_dir = Path(args.config).resolve().parent
    instance, instance_doc = _instance_from_spec(config["instance"], base_dir)
    runs = args.runs if args.runs is not None else config.get("runs", 1)
    master_seed = args.seed if args.seed is not None else config.get("master_seed", 0)
    stride = args.stride if args.stride is not None else config.get("stride")
    with _config_errors():
        horizon = _count("horizon", config.get("horizon", instance.horizon), 1)
        runs = _count("runs", runs, 1)
        # the seed is SeedSequence entropy, which must be >= 0
        master_seed = _count("master_seed", master_seed, 0)
        stride = None if stride is None else _count("stride", stride, 1)
        _count("--threads", args.threads, 1)
    if horizon > instance.horizon:
        raise ConfigError(f"horizon {horizon} exceeds the instance horizon {instance.horizon}")
    if horizon < instance.horizon:
        # the optimal arm and its uniqueness depend on the horizon
        instance = Instance(instance.arms, horizon)
    policy_specs = config.get("policies", [])
    if not policy_specs:
        raise ConfigError("experiment config needs at least one policy")
    laws = [arm.law for arm in instance.arms]
    policies = []
    labels = set()
    for spec in policy_specs:
        with _config_errors(f"bad policy entry {spec!r}: "):
            cfg = PolicyConfig(**spec)
        label = cfg.label or cfg.kind
        if label in labels:
            raise ConfigError(f"duplicate policy label {label!r}")
        labels.add(label)
        # every arm's law, so a mismatch cannot surface mid-run
        with _config_errors(f"policy {label!r}: "):
            policies.append((label, cfg.resolve(horizon, laws)))
    header = {
        "instance_hash": _canonical_hash(instance_doc),
        "horizon": horizon,
        "runs": runs,
        "master_seed": master_seed,
    }
    batch = {"runs": runs, "master_seed": master_seed, "parallelism": args.threads, "stride": stride}
    return instance, header, policies, batch, config.get("sweep")


def _write_outputs(out_dir: Path, header: dict, policies, simulate, json_name: str) -> int:
    """Simulate each policy, write its CSV, then one JSON document of
    ``header`` plus every policy's entry.

    ``simulate(label, cfg)`` returns (CSV name, CSV lines, JSON entry).
    On any failure the files written so far are removed and the error
    propagates.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    combined = {"version": __version__, **header, "results": {}}
    try:
        for label, cfg in policies:
            csv_name, lines, entry = simulate(label, cfg)
            csv_path = out_dir / csv_name
            csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(csv_path)
            combined["results"][label] = entry
        json_path = out_dir / json_name
        json_path.write_text(
            json.dumps(combined, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        written.append(json_path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return EXIT_OK


def cmd_run(args) -> int:
    instance, header, policies, batch, _ = _parse_experiment(args)

    def simulate(label, cfg):
        aggregate = run_batch(instance, cfg, **batch)
        lines = ["grid_t,mean_regret,std_regret"] + [
            f"{int(t)},{_format_float(float(m))},{_format_float(float(s))}"
            for t, m, s in zip(aggregate.grid, aggregate.mean_regret, aggregate.std_regret)
        ]
        entry = {"config": cfg.to_dict(), "aggregate": aggregate.to_dict()}
        return f"{label}.csv", lines, entry

    return _write_outputs(Path(args.out), header, policies, simulate, "results.json")


def cmd_sweep(args) -> int:
    instance, header, policies, batch, sweep_spec = _parse_experiment(args)
    if not sweep_spec:
        raise ConfigError("sweep requires a 'sweep' section in the config")
    if not isinstance(sweep_spec, dict) or "axis" not in sweep_spec or "grid" not in sweep_spec:
        raise ConfigError("sweep section needs 'axis' and 'grid'")
    axis = sweep_spec["axis"]
    grid = sweep_spec["grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep grid must be a non-empty list")
    with _config_errors("bad sweep section: "):
        for _, cfg in policies:
            for value in grid:
                sweep_point(cfg, axis, value, instance.horizon)

    def simulate(label, cfg):
        result = sweep(instance, cfg, axis=axis, grid=grid, **batch)
        lines = ["axis_value,resolved,mean_final_regret,std_final_regret"] + [
            f"{_format_float(p.axis_value)},{p.resolved},"
            f"{_format_float(p.mean_final_regret)},{_format_float(p.std_final_regret)}"
            for p in result.points
        ]
        points = [asdict(p) for p in result.points]
        return f"{label}_sweep.csv", lines, {"config": cfg.to_dict(), "points": points}

    header = {**header, "axis": axis, "grid": grid}
    return _write_outputs(Path(args.out), header, policies, simulate, "sweep.json")


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for suite in run_suites(names):
        for check in suite.checks:
            print(f"{suite.name}: {check.line()}")
            all_ok &= check.passed
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_lower_bound(args) -> int:
    out_dir = Path(args.out)
    with _config_errors():
        pair = lower_bound_instances(args.arms, args.sigma_bar, args.horizon)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_path = out_dir / "instance_base.json"
    boosted_path = out_dir / "instance_boosted.json"
    dump_instance(pair.base, base_path)
    dump_instance(pair.boosted, boosted_path)
    summary = {
        "version": __version__,
        "arms": args.arms,
        "sigma_bar": args.sigma_bar,
        "horizon": args.horizon,
        "regret_bound": pair.bound,
        "boosted_arm": pair.boosted_arm,
        "base_final_gap": str(pair.base_gap),
        "boosted_final_gap": str(pair.boosted_gap),
        "gap_constants_ok": True,
        "files": {"base": base_path.name, "boosted": boosted_path.name},
    }
    (out_dir / "lower_bound.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"regret bound {pair.bound} written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srrb",
        description="Analytics, simulation and verification for rising rested bandits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="instance analytics report (JSON)")
    p.add_argument("instance", help="instance document (JSON)")
    p.add_argument("--tau-list", default="", help="comma-separated window sizes")
    p.add_argument("--out", default=None, help="output file (defaults to stdout)")
    p.add_argument("--bound-sigma", type=int, default=None, help="reference pulls for bound terms")
    p.add_argument("--bound-flavor", choices=("beta", "gauss"), default="beta")
    p.add_argument("--bound-forced", type=int, default=0)
    p.add_argument("--bound-eps", type=float, default=1.0)
    p.add_argument("--bound-precision-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_analyze)

    for name, fn, desc in (
        ("run", cmd_run, "run the configured experiment"),
        ("sweep", cmd_sweep, "sensitivity sweep along one axis"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--runs", type=int, default=None, help="override run count")
        p.add_argument("--threads", type=int, default=1, help="parallel workers")
        p.add_argument("--stride", type=int, default=None, help="trajectory grid stride")
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(SUITES) + ["all"],
        help="which suite to run",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lower-bound", help="emit the hard instance pair and its regret bound")
    p.add_argument("--arms", type=int, required=True)
    p.add_argument("--sigma-bar", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_lower_bound)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place that maps errors to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
