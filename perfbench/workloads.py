"""The benchmark's three workloads.

Each workload makes its inputs from the seed, names the `srrb` CLI
invocations of one repetition, and checks their outputs.  Every
invocation is short, so that a run holds many repetitions of each:

- ``run_k15``: ``srrb run --threads 1`` on a random 15-arm rising instance
  (T = 10^4), one invocation per policy (4), 2 runs each.  The per-round
  select/update/sample loop does nearly all the work; K = 15 with short
  windows evicts every round.
- ``sweep_k2``: ``srrb sweep --threads 2`` over three forced-exploration
  points of the two-arm input (T = 5000, 2 runs per point), one
  invocation per policy (3).  Nine tiny batches, each starting its own
  2-worker pool, so harness overhead shows.
- ``numerics``: ``srrb analyze`` with Gaussian and Beta bound terms at
  sigma = 1200, then ``srrb verify`` of the identities and windows
  suites.  The analytics, distribution numerics and verify replays do the
  work; the simulation harness is bypassed.  The lemmas suite (about 5 s
  in one call) is left to the traced run.

The simulation workloads also run two small companion invocations,
``srrb analyze`` of the simulated instance and ``srrb verify --suite
identities``, so that ``analyze_s`` and ``verify_s`` are measured on every
workload.

Outputs are checked against ``reference.json``, recorded with
``record_reference.py``: analyze documents must equal the reference (the
``version`` field aside), verify must pass every expected check, and each
policy's mean final regret must lie within a statistical band around the
reference mean, so that a change of random streams passes while a change
of results does not.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from srrb import Instance, PolicyConfig, child_seed, random_rising_instance, sigma_complexity

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
INPUTS = BENCH / "inputs"
REFERENCE_FILE = BENCH / "reference.json"

# run_k15 draws its instance with seed % INSTANCE_POOL: the regret band
# needs a reference recorded per instance.  Its runs use the full seed.
INSTANCE_POOL = 8
K15_HORIZON = 10_000
K15_ARMS = 15
K15_RUNS = 2
K15_STRIDE = 100
K15_POLICIES = [
    {"kind": "beta_swts", "label": "beta_swts", "window": 1000},
    {"kind": "gauss_swgts", "label": "gauss_swgts", "forced_pulls": 1, "window": 2000},
    {"kind": "ucb1", "label": "ucb1"},
    {"kind": "sw_ucb", "label": "sw_ucb"},
]

SWEEP_CONFIG = INPUTS / "experiment.json"
# the forced-pull points of the input's grid that the sweep runs
SWEEP_POINTS = (0, 300, 1200)
# the input's policies that the sweep runs: a Beta, a Gaussian and a UCB policy
SWEEP_POLICIES = ("beta_swts", "gauss_ts", "sw_ucb")
SWEEP_RUNS = 2
SWEEP_THREADS = 2

NUMERICS_INSTANCE = INPUTS / "instance.json"
TAU_LIST = "200,1000"
BOUND_SIGMA = 1200
BOUND_FLAVORS = ("gauss", "beta")
# the verify suites numerics runs; the lemmas suite is left to the traced run
NUMERICS_SUITES = ("identities", "windows")
# windows_suite replays 100 traces of 2000 policy updates each
WINDOWS_SUITE_ROUNDS = 100 * 2000

# Band half-width in standard errors of the difference of two means.
BAND_Z = 6.0


def canonical_hash(document) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Invocation:
    """One CLI call of a repetition.

    ``role`` is the subcommand; ``in_wall`` marks the workload's own
    invocations, whose time makes ``wall_s`` and ``cpu_s`` (companions are
    left out); ``key`` names the reference an analyze output must equal,
    or the suite a verify runs; ``out_dir`` is where run or sweep write;
    ``rounds`` marks the invocation that performs the policy rounds.
    """

    role: str
    argv: list
    in_wall: bool
    key: str = ""
    out_dir: Path | None = None
    rounds: bool = False


def band_error(label: str, mean: float, cells: list, runs: int) -> str | None:
    """Check a mean over ``len(cells)`` reference cells of ``runs`` runs each.

    Each cell is ``{"mean", "std", "runs"}`` of final regret at one
    configuration; the check compares the average of the observed cell
    means with the average of the reference means.
    """
    ref = sum(c["mean"] for c in cells) / len(cells)
    var = sum(c["std"] ** 2 * (1.0 / runs + 1.0 / c["runs"]) for c in cells)
    half = BAND_Z * math.sqrt(var) / len(cells) + 1e-9
    if not math.isfinite(mean) or abs(mean - ref) > half:
        return f"{label}: mean final regret {mean:.6g} outside {ref:.6g} +- {half:.3g}"
    return None


def check_verify_lines(text: str, expected: list) -> list:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    errors = [f"verify: {ln}" for ln in lines if "[PASS]" not in ln]
    names = [ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines if "] " in ln]
    if names != expected:
        errors.append(f"verify: checks {names} differ from {expected}")
    return errors


def check_analyze(text: str, reference: dict | None) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"analyze: output is not JSON ({exc})"]
    doc.pop("version", None)
    if reference is not None and doc != reference:
        return ["analyze: report differs from the recorded reference"]
    return []


def dir_fingerprint(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(path.iterdir()):
        digest.update(item.name.encode() + b"\0" + item.read_bytes())
    return digest.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.iterdir())


class Workload:
    """Inputs, invocations and output checks of one workload.

    ``smoke`` shrinks every size so the plumbing can be tested in seconds;
    the recorded references do not apply then and are skipped.
    """

    name = ""
    threads = 1

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        reference = load_reference()
        self.verify_names = reference["verify_checks"]
        self.reference = reference[self.name]

    def prepare(self) -> None:
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        self.work_dir.mkdir(parents=True)

    def invocations(self, rep_dir: Path) -> list:
        raise NotImplementedError

    def check(self, inv: Invocation, stdout: str) -> list:
        """Output check of one successful invocation; returns error strings."""
        if inv.role == "analyze":
            ref = None if self.smoke else self.reference["analyze"][inv.key]
            return check_analyze(stdout, ref)
        if inv.role == "verify":
            return check_verify_lines(stdout, self.verify_names[inv.key])
        return self.check_main(inv)

    def check_main(self, inv: Invocation) -> list:
        raise NotImplementedError

    def verify(self, suite: str = "identities", in_wall: bool = False, rounds: bool = False):
        return Invocation("verify", ["verify", "--suite", suite], in_wall, key=suite,
                          rounds=rounds)

    def provenance(self) -> dict:
        return {"instance_hash": canonical_hash(self.instance_doc), "sigma_complexity": self.sigma}


class RunK15(Workload):
    name = "run_k15"

    def __init__(self, seed, work_dir, smoke=False):
        super().__init__(seed, work_dir, smoke)
        self.instance_seed = seed % INSTANCE_POOL
        self.horizon = 1000 if smoke else K15_HORIZON
        self.runs = 2 if smoke else K15_RUNS
        self.policies = K15_POLICIES if not smoke else [
            dict(p, window=min(p.get("window", self.horizon), self.horizon)) for p in K15_POLICIES
        ]
        self.stride = K15_STRIDE
        self.rounds = len(self.policies) * self.runs * self.horizon
        self.batches = len(self.policies)
        self.pools = 0
        self.config_path = work_dir / "experiment.json"
        self.instance_path = work_dir / "instance.json"

    def prepare(self) -> None:
        super().prepare()
        instance = random_rising_instance(self.horizon, num_arms=K15_ARMS, seed=self.instance_seed)
        self.instance_doc = instance.to_dict()
        self.sigma = sigma_complexity(instance).overall
        self.instance_path.write_text(json.dumps(self.instance_doc), encoding="utf-8")
        config = {
            "instance": {"file": self.instance_path.name},
            "runs": self.runs,
            "master_seed": self.seed,
            "stride": self.stride,
            "policies": self.policies,
        }
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        for spec in self.policies:
            self.policy_config(spec["label"]).write_text(
                json.dumps(dict(config, policies=[spec]), indent=2), encoding="utf-8")

    def policy_config(self, label: str) -> Path:
        return self.work_dir / f"experiment-{label}.json"

    def setup_args(self) -> list:
        return ["--config", str(self.config_path), "--generate",
                str(self.horizon), str(K15_ARMS), str(self.instance_seed)]

    def invocations(self, rep_dir):
        calls = [
            Invocation("main", ["run", "--config", str(self.policy_config(label)), "--out",
                                str(rep_dir / label), "--threads", "1"], True, key=label,
                       out_dir=rep_dir / label, rounds=True)
            for label in (spec["label"] for spec in self.policies)
        ]
        return calls + [
            Invocation("analyze", ["analyze", str(self.instance_path), "--tau-list", TAU_LIST],
                       False, key=str(self.instance_seed)),
            self.verify(),
        ]

    def check_main(self, inv):
        label = inv.key
        if not (inv.out_dir / f"{label}.csv").is_file():
            return [f"{label}: no CSV written"]
        doc = json.loads((inv.out_dir / "results.json").read_text(encoding="utf-8"))
        mean = doc["results"][label]["aggregate"]["mean_regret"][-1]
        if self.smoke:
            return []
        cell = self.reference["band"][str(self.instance_seed)][label]
        err = band_error(label, mean, [cell], self.runs)
        return [err] if err else []

    def batch_list(self) -> list:
        """(key, PolicyConfig, master seed) of each run_batch call of the CLI."""
        return [(spec["label"], PolicyConfig(**spec), self.seed) for spec in self.policies]

    def provenance(self):
        return {"instance_seed": self.instance_seed, **super().provenance()}


class SweepK2(Workload):
    name = "sweep_k2"
    threads = SWEEP_THREADS

    def __init__(self, seed, work_dir, smoke=False):
        super().__init__(seed, work_dir, smoke)
        base = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
        self.config_path = work_dir / "experiment.json"
        self.instance_path = work_dir / "instance.json"
        self.instance_doc = json.loads(NUMERICS_INSTANCE.read_text(encoding="utf-8"))
        # reference cells are recorded at each point of the input's grid
        self.cell_index = {int(v): j for j, v in enumerate(base["sweep"]["grid"])}
        base["sweep"]["grid"] = list(SWEEP_POINTS)
        base["policies"] = [p for p in base["policies"] if p["label"] in SWEEP_POLICIES]
        if smoke:
            base["horizon"] = 1000
            base["sweep"]["grid"] = [0, 100]
        self.config = base
        self.horizon = base.get("horizon", self.instance_doc["horizon"])
        self.grid = base["sweep"]["grid"]
        self.stride = base.get("stride")
        self.runs = SWEEP_RUNS
        self.batches = len(base["policies"]) * len(self.grid)
        self.pools = self.batches if min(self.threads, self.runs) > 1 else 0
        self.rounds = self.batches * self.runs * self.horizon

    def prepare(self):
        super().prepare()
        self.sigma = sigma_complexity(Instance.from_dict(self.instance_doc)).overall
        self.instance_path.write_text(json.dumps(self.instance_doc), encoding="utf-8")
        self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")
        for spec in self.config["policies"]:
            self.policy_config(spec["label"]).write_text(
                json.dumps(dict(self.config, policies=[spec]), indent=2), encoding="utf-8")

    def policy_config(self, label: str) -> Path:
        return self.work_dir / f"experiment-{label}.json"

    def setup_args(self):
        return ["--config", str(self.config_path)]

    def invocations(self, rep_dir):
        calls = [
            Invocation("main", ["sweep", "--config", str(self.policy_config(label)), "--out",
                                str(rep_dir / label), "--runs", str(self.runs), "--threads",
                                str(self.threads), "--seed", str(self.seed)], True, key=label,
                       out_dir=rep_dir / label, rounds=True)
            for label in (spec["label"] for spec in self.config["policies"])
        ]
        return calls + [
            Invocation("analyze", ["analyze", str(self.instance_path), "--tau-list", TAU_LIST],
                       False, key="instance"),
            self.verify(),
        ]

    def check_main(self, inv):
        label = inv.key
        if not (inv.out_dir / f"{label}_sweep.csv").is_file():
            return [f"{label}: no CSV written"]
        doc = json.loads((inv.out_dir / "sweep.json").read_text(encoding="utf-8"))
        points = doc["results"][label]["points"]
        if [p["resolved"] for p in points] != [int(v) for v in self.grid]:
            return [f"{label}: sweep points {points} do not follow the grid"]
        if self.smoke:
            return []
        mean = sum(p["mean_final_regret"] for p in points) / len(points)
        cells = [self.reference["band"][label][self.cell_index[int(v)]] for v in self.grid]
        err = band_error(label, mean, cells, self.runs)
        return [err] if err else []

    def batch_list(self) -> list:
        """(key, PolicyConfig, master seed) of each run_batch call of the CLI,
        with the point seeds ``sweep`` derives."""
        return [
            (f"{spec['label']}@{v}", replace(PolicyConfig(**spec), forced_pulls=int(v)),
             child_seed(self.seed, j))
            for spec in self.config["policies"]
            for j, v in enumerate(self.grid)
        ]


class Numerics(Workload):
    name = "numerics"
    batches = 0
    pools = 0

    def __init__(self, seed, work_dir, smoke=False):
        super().__init__(seed, work_dir, smoke)
        self.instance_doc = json.loads(NUMERICS_INSTANCE.read_text(encoding="utf-8"))
        self.rounds = WINDOWS_SUITE_ROUNDS

    def prepare(self):
        super().prepare()
        self.sigma = sigma_complexity(Instance.from_dict(self.instance_doc)).overall
        # the smallest admissible reference pull count keeps smoke runs short
        self.bound_sigma = self.sigma if self.smoke else BOUND_SIGMA

    def setup_args(self):
        return ["--instance", str(NUMERICS_INSTANCE)]

    def invocations(self, rep_dir):
        calls = [
            Invocation("analyze", ["analyze", str(NUMERICS_INSTANCE), "--tau-list", TAU_LIST,
                                   "--bound-sigma", str(self.bound_sigma),
                                   "--bound-flavor", flavor], True, key=flavor)
            for flavor in BOUND_FLAVORS
        ]
        calls += [self.verify(suite, True, rounds=suite == "windows") for suite in NUMERICS_SUITES]
        return calls


WORKLOADS = {w.name: w for w in (RunK15, SweepK2, Numerics)}
