"""srrb benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {run_k15,sweep_k2,numerics} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout; it imports srrb from ``src/`` of that
checkout and runs the CLI through ``timed.py``, which calls the same
``srrb.cli.main`` as ``python3 -m srrb.cli``.  ``workloads.py``
describes the workloads.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; progress goes to
standard error, and ``perfbench/out/`` receives a results file with
provenance and every raw sample (plus the spans of a traced run).

``--trace 0`` measures the end-to-end metrics with tracing off.  Every
timed process is a script of ``timed.py``'s kind: it times its own work
and reads a fixed calibration loop just before and just after it, in the
same process.  The host lends the benchmark a share of cores that other
tenants also load, and its speed swings by up to 1.8x for seconds to
minutes at a time; the loop meets the same swings (their readings
correlate above 0.8), so each time is scaled by ``REFERENCE_LOOP_S`` over
the loop's seconds and reported at one reference speed.

A run first times ``setup_s`` (a fresh interpreter that imports srrb,
loads and validates the config and builds the instance; see
``setup_probe.py``) and reports the median of several interpreters.  It
then repeats the workload's CLI invocations, each a second or less but
for the windows suite, as long as the next repetition ends within
``--seconds`` of the run's start, set-up included (at least twice, so
that outputs can be compared across repetitions).  Each invocation counts with its median over the
repetitions, and a metric sums the invocations it covers:

- ``wall_s``, ``cpu_s``: wall and user + sys CPU seconds of the workload's
  own invocations, worker processes included;
- ``rounds_per_s``: policy rounds per second of the invocations that
  perform them (the simulations, or ``srrb verify`` replaying the windows
  suite's 200k updates on ``numerics``);
- ``analyze_s``, ``verify_s``: seconds of the analyze and verify
  invocations;
- ``peak_rss_mb``: the largest resident set of any process of a
  repetition, workers included; the median over repetitions.

An operation is one CLI invocation (or set-up interpreter); it fails on a
non-zero exit, on a failed output check, or when its output differs from
the first repetition's.  ``failed`` / ``attempted`` is the failure share.

``--trace 1`` runs one repetition through the CLI, then the traced
library replay of ``layers.py``, and reports the per-layer metrics; its
work is fixed, so ``--seconds`` does not apply to it.

``--smoke`` shrinks every size and skips the recorded references; it is
for ``test_smoke.py`` only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_REPS = 9
MIN_REPS = 2
# a run ends within 180 s, whatever the program under test does
RUN_BUDGET_S = 170.0
# Seconds the calibration loop of timed.py takes on the machine the
# benchmark was written on (2 vCPUs of a Xeon Sapphire Rapids KVM host)
# while no other tenant loads its cores.  Every time is reported at that
# speed: scaled by this over the loop's seconds around the timed work.
REFERENCE_LOOP_S = 0.006


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(argv: list, stdout_path: Path, deadline: float) -> dict:
    """Run ``python3 argv`` from the checkout root; kill its process group
    at the deadline.  Returns wall, CPU, peak RSS and exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.1), kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def timed_invoke(argv: list, stdout_path: Path, deadline: float) -> dict:
    """``invoke`` a script that times its work with ``timed.run_timed``.

    Adds the work's own wall seconds, its wall and CPU seconds scaled to
    the reference speed, and the loop seconds read around it.
    """
    times_path = stdout_path.with_suffix(".times")
    r = invoke([argv[0], str(times_path), *argv[1:]], stdout_path, deadline)
    if r["code"] == 0 and times_path.is_file():
        times = json.loads(times_path.read_text(encoding="utf-8"))
        before, after = times["before"], times["after"]
        r["loop_s"] = (before["loop_s"] + after["loop_s"]) / 2
        scale = REFERENCE_LOOP_S / r["loop_s"]
        r["work_wall"] = times["wall_s"]
        r["time"] = times["wall_s"] * scale
        r["cpu_time"] = (r["cpu"] - before["cpu_s"] - after["cpu_s"]) * scale
    return r


def run_rep(wl, rep_dir: Path, deadline: float) -> list:
    """One repetition of the workload's CLI invocations, each checked."""
    from workloads import dir_bytes, dir_fingerprint

    rep_dir.mkdir(parents=True)
    results = []
    for i, inv in enumerate(wl.invocations(rep_dir)):
        stdout_path = rep_dir / f"{i}-{inv.role}.out"
        r = timed_invoke([str(BENCH / "timed.py"), *inv.argv], stdout_path, deadline)
        stdout = stdout_path.read_bytes()
        if r["code"] != 0:
            errors = [f"{inv.role}: exit code {r['code']}"]
        elif "time" not in r:
            errors = [f"{inv.role}: no times written"]
        else:
            try:
                errors = wl.check(inv, stdout.decode())
            except Exception:  # a malformed output is a failed check, not a crash
                errors = [f"{inv.role}: output check raised\n{traceback.format_exc()}"]
        r.update(inv=inv, errors=errors, output_bytes=len(stdout))
        if inv.out_dir is not None and inv.out_dir.is_dir():
            r["fingerprint"] = dir_fingerprint(inv.out_dir)
            r["output_bytes"] += dir_bytes(inv.out_dir)
        else:
            r["fingerprint"] = hashlib.sha256(stdout).hexdigest()
        results.append(r)
    return results


def summarize(wl, runs: list) -> dict:
    """End-to-end metrics from the repetitions of one run.

    ``runs[k]`` holds every repetition's result of invocation ``k``.  The
    time of an invocation is the median over its repetitions of its time
    at the reference speed, and a metric sums the invocations it covers.
    A metric some invocation has no time for is left out.
    """

    def total(key, pred):
        chosen = [[r[key] for r in rs if key in r] for rs in runs if pred(rs[0]["inv"])]
        if all(chosen):
            return sum(statistics.median(v) for v in chosen)
        return None

    rounds_time = total("time", lambda inv: inv.rounds)
    metrics = {
        "wall_s": total("time", lambda inv: inv.in_wall),
        "cpu_s": total("cpu_time", lambda inv: inv.in_wall),
        "rounds_per_s": wl.rounds / rounds_time if rounds_time else None,
        "analyze_s": total("time", lambda inv: inv.role == "analyze"),
        "verify_s": total("time", lambda inv: inv.role == "verify"),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in rep) for rep in zip(*runs)),
    }
    return {k: v for k, v in metrics.items() if v is not None}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            for e in errors:
                log(f"  FAILED: {e}")


def measure_end_to_end(wl, seconds: float, deadline: float, tally: Tally, raw: dict) -> dict:
    end = time.monotonic() + seconds
    setup = []
    setup_argv = [str(BENCH / "setup_probe.py"), *wl.setup_args()]
    for i in range(SETUP_REPS + 1):  # the first interpreter warms the caches
        r = timed_invoke(setup_argv, wl.work_dir / f"setup{i}.out", deadline)
        tally.record([] if "time" in r else [f"setup probe: exit code {r['code']}"])
        if i and "time" in r:
            setup.append(r["time"])
    raw["setup_s"] = setup

    # repetitions until the next one would end past --seconds (at least MIN_REPS)
    runs, reps = None, 0
    start = time.monotonic()
    while True:
        now = time.monotonic()
        per_rep = (now - start) / reps if reps else 0.0
        if reps >= MIN_REPS and now + per_rep > end:
            break
        if reps and now + 1.5 * per_rep > deadline:
            log("stopping early: the run budget is spent")
            break
        results = run_rep(wl, wl.work_dir / f"rep{reps}", deadline)
        if runs is None:
            runs = [[] for _ in results]
        for k, r in enumerate(results):
            if runs[k] and r["fingerprint"] != runs[k][0]["fingerprint"]:
                r["errors"].append(f"{r['inv'].role}: output differs from repetition 0")
            tally.record(r["errors"])
            runs[k].append(r)
        reps += 1
        log(f"rep {reps}: " + ", ".join(f"{r['inv'].role}={r['wall']:.3f}s" for r in results))
    keys = ("wall", "cpu", "work_wall", "loop_s", "time", "cpu_time", "rss_mb")
    raw["reps"] = [[dict({k: r[k] for k in keys if k in r}, role=r["inv"].role) for r in rep]
                   for rep in zip(*runs)]
    metrics = summarize(wl, runs)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    return metrics


def measure_per_layer(wl, deadline: float, tally: Tally, raw: dict, out_tag: str) -> dict:
    from layers import traced_run_metrics

    results = run_rep(wl, wl.work_dir / "cli", deadline)
    for r in results:
        tally.record(r["errors"])
    cli = {
        "wall_s": sum(r.get("work_wall", r["wall"]) for r in results if r["inv"].in_wall),
        "output_bytes": sum(r["output_bytes"] for r in results),
    }
    errors = []
    metrics, tracer, extras = traced_run_metrics(wl, cli, errors)
    tally.record(errors)
    raw["cli"] = cli
    raw.update(extras)
    trace_path = OUT / f"trace-{out_tag}.json"
    trace_path.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    log(f"spans written to {trace_path.relative_to(ROOT)}")
    for section, layers in tracer.self_times().items():
        log(f"self time in {section}: " + ", ".join(f"{k}={v:.3f}s" for k, v in layers.items()))
    return metrics


def provenance() -> dict:
    import numpy
    import srrb

    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, timeout=10, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "dirty": dirty,
        "srrb": srrb.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="srrb benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no references")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "srrb" / "__init__.py").is_file() or not spec_path.is_file():
        fail(f"run from a checkout of the repository: {SRC / 'srrb'} is missing")
    sys.path.insert(0, str(SRC))
    import srrb

    if Path(srrb.__file__).resolve().parent != (SRC / "srrb").resolve():
        fail(f"srrb was imported from {srrb.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    wl = WORKLOADS[args.workload](args.seed, OUT / tag, smoke=args.smoke)
    wl.prepare()
    tally, raw = Tally(), {}
    if args.trace:
        measured = measure_per_layer(wl, deadline, tally, raw, tag)
    else:
        measured = measure_end_to_end(wl, args.seconds, deadline, tally, raw)

    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            tally.record([f"metric {m['name']} was not measured"])
            continue
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(),
        "inputs": {"seed": args.seed, **wl.provenance()},
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
        "raw": raw,
        "result": result,
    }
    (OUT / f"results-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                             encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
