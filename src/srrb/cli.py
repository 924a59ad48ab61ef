"""Command-line front end.

Subcommands: analyze, run, sweep, verify, lower-bound.  The CLI stays a
thin shell over the library; outputs are CSV (regret trajectories, 12
significant digits) and JSON (full metadata).  Exit codes: 0 success,
1 property violation, 2 config or schema error, 3 invalid instance.
Each subcommand imports only the library layers it runs.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import InvalidInstanceError, __version__

# numpy's bundled OpenBLAS starts a pool of busy-waiting threads when numpy
# loads, yet srrb makes no multi-threaded BLAS call, so in every CLI process
# the pool only burns a second core.  Set before any subcommand imports
# numpy; the workers that ``run``, ``sweep`` and ``verify`` fork inherit
# the one-thread library.  A value the caller set wins; ``import srrb``
# leaves the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# At exit the interpreter's final full collections walk every object that
# numpy and srrb left tracked, for memory the ending process hands back
# anyway: about 15 of the 20-22 ms a CLI process took to exit on a 2-vCPU
# Xeon.  Atexit handlers run before those collections, so freezing there
# keeps the objects out of them.
# ``main()`` returns with the collector untouched; ``import srrb`` registers
# nothing.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INSTANCE = 3
# the sorted keys of verify.SUITES, so that building the parser does not
# import the suites
SUITE_NAMES = ("identities", "lemmas", "windows")


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


def _instance_from_spec(spec, base_dir: Path = Path()) -> tuple:
    """Inline instance document or {"file": path} reference, the path
    relative to ``base_dir``; returns the ``Instance`` and its document."""
    from .instance import Instance
    if isinstance(spec, dict) and set(spec) == {"file"} and isinstance(spec["file"], str):
        spec = _load_json(base_dir / spec["file"])
    with _config_errors("bad instance document: "):
        return Instance.from_dict(spec), spec


def _canonical_hash(document: dict) -> str:
    # only analyze, run and sweep take a hash: verify, lower-bound and
    # --version skip the ~5 ms import
    import hashlib

    blob = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _format_float(x: float) -> str:
    return f"{x:.12g}"


def _checked_out(out: str, is_dir: bool = True) -> Path:
    """The ``--out`` path, checked before any work: nothing above it may
    be a file, and if it exists it must be a directory (``is_dir``) or
    not one (an output file)."""
    path = Path(out)
    for parent in path.parents:
        if parent.exists() and not parent.is_dir():
            raise ConfigError(f"--out {out}: {parent} is not a directory")
    if path.exists() and path.is_dir() != is_dir:
        raise ConfigError(f"--out {out}: {'not' if is_dir else 'is'} a directory")
    return path


def cmd_analyze(args) -> int:
    from .analytics import build_report

    out = None if args.out is None else _checked_out(args.out, is_dir=False)
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
    text = _json_text(document)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_outputs(out.parent, {out.name: text})
    return EXIT_OK


def _parse_experiment(args):
    """Check the whole experiment config before anything runs.

    Returns the instance anchored at the run horizon, the JSON header
    (which holds ``runs`` and ``master_seed``), the (label, resolved
    config) pairs, the grid stride and the config's sweep section.
    """
    from .policies import PolicyConfig, _count

    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise ConfigError("experiment config must be a JSON object")
    if "instance" not in config:
        raise ConfigError("experiment config needs an 'instance'")
    base_dir = Path(args.config).resolve().parent
    instance, instance_doc = _instance_from_spec(config["instance"], base_dir)
    runs = args.runs if args.runs is not None else config.get("runs", 1)
    master_seed = args.seed if args.seed is not None else config.get("master_seed", 0)
    stride = config.get("stride")
    with _config_errors():
        horizon = _count("horizon", config.get("horizon", instance.horizon), 1)
        runs = _count("runs", runs, 1)
        # the seed is SeedSequence entropy, which must be >= 0
        master_seed = _count("master_seed", master_seed, 0)
        stride = None if stride is None else _count("stride", stride, 1)
        _count("--threads", args.threads, 1)
        instance = instance.at_horizon(horizon)
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
    return instance, header, policies, stride, config.get("sweep")


def _csv_text(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _json_text(document: dict, sort_keys: bool = True) -> str:
    return json.dumps(document, indent=2, sort_keys=sort_keys, allow_nan=False) + "\n"


def _write_outputs(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each file of ``texts`` (name to text) in order.  On any
    failure the files written so far are removed and the error
    propagates."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, text in texts.items():
            path = out_dir / name
            written.append(path)
            path.write_text(text, encoding="utf-8")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def cmd_run(args) -> int:
    from .harness import run_batches

    out_dir = _checked_out(args.out)
    instance, header, policies, stride, _ = _parse_experiment(args)
    batches = [(cfg, header["runs"], header["master_seed"]) for _, cfg in policies]
    aggregates = run_batches(instance, batches, args.threads, stride)
    files, results = {}, {}
    for (label, cfg), aggregate in zip(policies, aggregates):
        rows = (
            f"{int(t)},{_format_float(float(m))},{_format_float(float(s))}"
            for t, m, s in zip(aggregate.grid, aggregate.mean_regret, aggregate.std_regret)
        )
        files[f"{label}.csv"] = _csv_text("grid_t,mean_regret,std_regret", rows)
        results[label] = {"config": cfg.to_dict(), "aggregate": aggregate.to_dict()}
    files["results.json"] = _json_text({"version": __version__, **header, "results": results})
    _write_outputs(out_dir, files)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .harness import SWEEP_AXES, run_batches, sweep_batches

    out_dir = _checked_out(args.out)
    instance, header, policies, stride, sweep_spec = _parse_experiment(args)
    if not sweep_spec:
        raise ConfigError("sweep requires a 'sweep' section in the config")
    if not isinstance(sweep_spec, dict) or "axis" not in sweep_spec or "grid" not in sweep_spec:
        raise ConfigError("sweep section needs 'axis' and 'grid'")
    axis, grid = sweep_spec["axis"], sweep_spec["grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep grid must be a non-empty list")
    # planning resolves every point of every policy before any run starts
    with _config_errors("bad sweep section: "):
        plans = [
            sweep_batches(instance, cfg, axis, grid, header["runs"], header["master_seed"])
            for _, cfg in policies
        ]
    aggregates = iter(
        run_batches(instance, [b for plan in plans for b in plan], args.threads, stride)
    )

    files, results = {}, {}
    for (label, cfg), plan in zip(policies, plans):
        points = [
            {
                "axis_value": float(value),
                "resolved": getattr(point, SWEEP_AXES[axis]),
                "mean_final_regret": float(agg.mean_regret[-1]),
                "std_final_regret": float(agg.std_regret[-1]),
            }
            for value, (point, _, _), agg in zip(grid, plan, aggregates)
        ]
        rows = (
            f"{_format_float(p['axis_value'])},{p['resolved']},"
            f"{_format_float(p['mean_final_regret'])},{_format_float(p['std_final_regret'])}"
            for p in points
        )
        files[f"{label}_sweep.csv"] = _csv_text(
            "axis_value,resolved,mean_final_regret,std_final_regret", rows
        )
        results[label] = {"config": cfg.to_dict(), "points": points}
    document = {"version": __version__, **header, "axis": axis, "grid": grid, "results": results}
    files["sweep.json"] = _json_text(document)
    _write_outputs(out_dir, files)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites
    from .workers import usable_cores

    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    # the output does not depend on the worker count
    for suite in run_suites(names, usable_cores()):
        for check in suite.checks:
            print(f"{suite.name}: {check.line()}")
            all_ok &= check.passed
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_lower_bound(args) -> int:
    from .constructions import lower_bound_instances

    out_dir = _checked_out(args.out)
    with _config_errors():
        pair = lower_bound_instances(args.arms, args.sigma_bar, args.horizon)
    files = {
        # instance documents keep the key order of Instance.to_dict
        "instance_base.json": _json_text(pair.base.to_dict(), sort_keys=False),
        "instance_boosted.json": _json_text(pair.boosted.to_dict(), sort_keys=False),
    }
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
        "files": {"base": "instance_base.json", "boosted": "instance_boosted.json"},
    }
    files["lower_bound.json"] = _json_text(summary)
    _write_outputs(out_dir, files)
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
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=[*SUITE_NAMES, "all"],
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
