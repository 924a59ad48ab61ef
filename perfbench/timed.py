"""Time a piece of work between two readings of the host's speed.

    python3 perfbench/timed.py TIMES_JSON ARGV...

runs ``srrb ARGV...`` as ``python3 -m srrb.cli`` would, with its exit
code, and writes to TIMES_JSON the wall and CPU seconds from before
``import srrb.cli`` until the command returns, with a reading of a fixed
loop taken just before and just after.  The loop runs in the same process
as the work, so it meets the same state of the host's cores; ``run.py``
scales each time by it (see ``REFERENCE_LOOP_S`` there).
"""

import json
import sys
import time


def calibration_loop() -> float:
    """Seconds one fixed stretch of interpreter work takes."""
    t0 = time.perf_counter()
    total, table = 0, [0] * 16
    for i in range(50_000):
        table[i & 15] += i
        total += table[(i * 7) & 15] & 255
    return time.perf_counter() - t0


def reading() -> dict:
    """Median seconds of three loops, and the CPU seconds they took."""
    cpu0 = time.process_time()
    loops = sorted(calibration_loop() for _ in range(3))
    return {"loop_s": loops[1], "cpu_s": time.process_time() - cpu0}


def run_timed(times_path: str, work):
    """Call ``work()`` between two readings; write the times; return its result."""
    before = reading()
    t0 = time.perf_counter()
    try:
        result = work()
    finally:
        wall = time.perf_counter() - t0
        after = reading()
        with open(times_path, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": wall, "before": before, "after": after}, fh)
    return result


def cli(argv: list) -> int:
    from srrb.cli import main

    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(run_timed(sys.argv[1], lambda: cli(sys.argv[2:])))
