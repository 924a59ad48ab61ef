"""Start-up cost: the package exports its names lazily, and each CLI
subcommand loads only the layers it runs.

The import checks run in fresh interpreters, since this process has
already imported every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srrb


def _fresh(code: str, *argv: str, openblas_threads: str | None = None):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    srrb, with ``OPENBLAS_NUM_THREADS`` set to ``openblas_threads`` or
    unset (this process may have set it by importing ``srrb.cli``);
    returns the JSON its last line of standard output prints."""
    src = str(Path(srrb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyExports:
    def test_every_export_is_its_submodules_object(self):
        for module, names in srrb._EXPORTS.items():
            owner = importlib.import_module(f"srrb.{module}")
            for name in names:
                assert getattr(srrb, name) is getattr(owner, name), name

    def test_invalid_instance_error_is_the_instance_modules(self):
        instance = importlib.import_module("srrb.instance")
        assert srrb.InvalidInstanceError is instance.InvalidInstanceError

    def test_bare_import_loads_no_submodule(self):
        loaded = _fresh("import json, sys, srrb; print(json.dumps(sorted(sys.modules)))")
        assert [m for m in loaded if m.startswith("srrb.")] == []

    def test_dir_covers_all(self):
        listed = _fresh("import json, srrb; print(json.dumps(dir(srrb)))")
        assert set(srrb.__all__) <= set(listed)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            srrb.no_such_name

    def test_star_import(self):
        namespace = {}
        exec("from srrb import *", namespace)
        assert all(namespace[name] is getattr(srrb, name) for name in srrb.__all__)


# runs srrb.cli.main on its arguments, then prints the exit code and the
# loaded modules
_CLI_PROBE = """
import json, sys
from srrb.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version and --help
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

_INSTANCE = {
    "horizon": 50,
    "arms": [
        {"family": "constant", "params": {"value": 0.6}, "law": "bernoulli"},
        {"family": "constant", "params": {"value": 0.5}, "law": "bernoulli"},
    ],
}


class TestSubcommandImports:
    @pytest.mark.parametrize("command, runs, absent", [
        ("analyze", "srrb.analytics",
         ["srrb.harness", "srrb.policies", "srrb.verify", "srrb.constructions", "multiprocessing",
          "srrb.distmath", "fractions", "decimal"]),
        ("run", "srrb.harness",
         ["srrb.analytics", "srrb.verify", "srrb.constructions", "concurrent.futures.process",
          "multiprocessing", "srrb.distmath", "fractions", "decimal"]),
        ("sweep", "srrb.harness",
         ["srrb.analytics", "concurrent.futures", "multiprocessing", "srrb.verify",
          "srrb.distmath"]),
        ("verify", "srrb.verify",
         ["srrb.harness", "srrb.analytics", "srrb.constructions", "srrb.policies",
          "srrb.instance", "srrb.curves", "fractions", "decimal"]),
        ("verify-windows", "srrb.verify",
         ["srrb.distmath", "numpy.polynomial", "fractions", "decimal"]),
        ("--version", "srrb.cli", ["numpy", "srrb.instance"]),
        ("--help", "srrb.cli", ["numpy", "srrb.instance"]),
    ])
    def test_loads_only_its_layers(self, tmp_path, command, runs, absent):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(_INSTANCE))
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({"instance": _INSTANCE, "runs": 2,
                                      "policies": [{"kind": "beta_swts"}],
                                      "sweep": {"axis": "forced_pulls", "grid": [0, 1]}}))
        argv = {
            "analyze": ["analyze", str(instance)],
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "o"),
                    "--threads", "1"],
            "sweep": ["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                      "--threads", "2"],
            "verify": ["verify", "--suite", "identities"],
            "verify-windows": ["verify", "--suite", "windows"],
        }.get(command, [command])
        result = _fresh(_CLI_PROBE, *argv)
        assert result["code"] == 0
        assert runs in result["modules"]
        assert [m for m in absent if m in result["modules"]] == []


class TestBlasThreads:
    """The CLI runs numpy's OpenBLAS on one thread unless the caller set
    ``OPENBLAS_NUM_THREADS``; the library leaves the environment alone."""

    def test_cli_import_pins_one_thread_before_numpy_loads(self):
        result = _fresh("import json, os, sys, srrb.cli; print(json.dumps("
                        "[os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules]))")
        assert result == ["1", False]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_cli_process_runs_one_thread(self):
        result = _fresh("import json, os, sys; from srrb.cli import main; "
                        "code = main(['verify', '--suite', 'identities']); "
                        "print(json.dumps([code, 'numpy' in sys.modules, "
                        "len(os.listdir('/proc/self/task'))]))")
        assert result == [0, True, 1]

    def test_callers_value_is_kept(self):
        result = _fresh("import json, os, srrb.cli; "
                        "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))",
                        openblas_threads="3")
        assert result == "3"

    def test_library_import_leaves_the_environment_alone(self):
        result = _fresh("import json, os; before = dict(os.environ); import srrb; srrb.Instance; "
                        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), "
                        "dict(os.environ) == before]))")
        assert result == [None, True]


# registered before the code under test, so it runs after that code's own
# atexit handlers (last in, first out) and prints the freeze count then
_FREEZE_PROBE = ("import atexit, gc, json; "
                 "atexit.register(lambda: print(json.dumps(gc.get_freeze_count()))); ")


class TestExitFreeze:
    """A CLI process freezes the collector at exit, so finalization's
    collections skip what numpy and srrb loaded; in-process ``main()``
    calls and the library leave the collector alone."""

    def test_cli_process_exits_frozen(self):
        assert _fresh(_FREEZE_PROBE + "import srrb.cli") > 0

    def test_in_process_main_returns_unfrozen(self):
        result = _fresh("import gc, json; from srrb.cli import main; "
                        "code = main(['verify', '--suite', 'identities']); "
                        "print(json.dumps([code, gc.get_freeze_count()]))")
        assert result == [0, 0]

    def test_library_process_exits_unfrozen(self):
        assert _fresh(_FREEZE_PROBE + "import srrb; srrb.Instance") == 0
