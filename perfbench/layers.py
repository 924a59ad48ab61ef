"""Traced run: per-layer metrics from spans around calls into srrb's modules.

The traced run re-executes a workload through srrb's public library entry
points, from the benchmark's own files; nothing under ``src/`` is touched.

- ``run_single`` gets a timing proxy around the ``Policy`` that
  ``make_policy`` builds, and an ``Instance`` whose arms carry a timing
  proxy ``RewardLaw``; run seeds come from ``child_seed`` exactly as
  ``run_batch`` derives them.  The traced aggregates must equal the
  untraced ``run_batch`` aggregates bit for bit.
- Each verify suite and each analytics function is called separately.
- Layers a workload does not reach are filled by small fixed probes, so
  every per-layer metric is defined on every workload; the policy
  micro-sweep, the distmath kernels and the parallel record always run.

Spans (name, start, end, parent) stay in memory.  Calls made every round
are aggregated into counts and totals per (name, parent span).  A layer is
the first component of a span name; ``Tracer.self_times`` gives each
layer's self time within each top-level ``bench.*`` section.
"""

from __future__ import annotations

import json
import resource
import statistics
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

from srrb import (
    Arm,
    Instance,
    PolicyConfig,
    build_report,
    child_seed,
    make_policy,
    pull_bound_terms,
    random_rising_instance,
    run_batch,
    run_single,
    wald_regret_bound,
)
from srrb.curves import RewardLaw
from srrb.distmath import beta_tail, binomial_cdf, binomial_pmf, pb_pmf, tv_distance
from srrb.verify import SUITES, lemmas_suite, windows_suite

from workloads import (
    BOUND_FLAVORS,
    BOUND_SIGMA,
    INSTANCE_POOL,
    K15_ARMS,
    K15_HORIZON,
    K15_POLICIES,
    NUMERICS_INSTANCE,
    NUMERICS_SUITES,
    SWEEP_CONFIG,
    TAU_LIST,
)

POLICY_KINDS = [spec["kind"] for spec in K15_POLICIES]
MICRO_ARMS = (2, 15, 100)
MICRO_HORIZON = 1500
MICRO_REPS = 3
PROBE_HORIZON = 2000
PROBE_SIGMA = 1000  # smallest round number above the input's complexity index
PARALLEL_REPS = 3
TAUS = [int(v) for v in TAU_LIST.split(",")]


class Tracer:
    """In-memory spans plus per-call counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = [-1]
        self.counters = {}  # (name, parent index) -> [count, seconds]
        self.forced = [0, 0]  # forced selections, all selections
        self.checks_failed = 0

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._open[-1]]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def add(self, name, seconds):
        key = (name, self._open[-1])
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = [0, 0.0]
        counter[0] += 1
        counter[1] += seconds

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, perf_counter() - t0)
        return out

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def stats(self, name):
        """(count, seconds) over the spans and counted calls of ``name``."""
        d = self.durations(name)
        count, total = len(d), sum(d)
        for (n, _), (c, s) in self.counters.items():
            if n == name:
                count, total = count + c, total + s
        return count, total

    def count(self, name):
        return self.stats(name)[0]

    def mean(self, name):
        count, total = self.stats(name)
        if count == 0:
            raise RuntimeError(f"no calls traced for {name}")
        return total / count

    def self_times(self) -> dict:
        """Seconds of self time per layer within each top-level section."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (_, parent), (_, seconds) in self.counters.items():
            if parent >= 0:
                covered[parent] += seconds

        def section(i):
            if i < 0:
                return "outside"
            while self.spans[i][3] >= 0:
                i = self.spans[i][3]
            return self.spans[i][0]

        table: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(section(i), {})
            layer = name.split(".")[0]
            row[layer] = row.get(layer, 0.0) + (end - start) - covered[i]
        for (name, parent), (_, seconds) in self.counters.items():
            row = table.setdefault(section(parent), {})
            layer = name.split(".")[0]
            row[layer] = row.get(layer, 0.0) + seconds
        return table

    def dump(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
            "calls": [[n, p, c, s] for (n, p), (c, s) in sorted(self.counters.items())],
            "self_time_s": self.self_times(),
        }


class TimedLaw(RewardLaw):
    """Reward law proxy that times every ``sample`` call."""

    def __init__(self, law: RewardLaw, tracer: Tracer):
        self._law = law
        self._add = tracer.add
        self.kind = law.kind

    def sample(self, rng, mean):
        t0 = perf_counter()
        reward = self._law.sample(rng, mean)
        self._add("curves.sample", perf_counter() - t0)
        return reward

    def subgaussian_scale_sq(self):
        return self._law.subgaussian_scale_sq()

    def mean_bounds(self):
        return self._law.mean_bounds()

    def params(self):
        return self._law.params()


class TimedInstance(Instance):
    """The same instance with timed laws and a timed ``expected_reward``."""

    def __init__(self, instance: Instance, tracer: Tracer):
        self._add = tracer.add
        arms = [Arm(arm.curve, TimedLaw(arm.law, tracer)) for arm in instance.arms]
        super().__init__(arms, instance.horizon)

    def expected_reward(self, i, n):
        t0 = perf_counter()
        value = super().expected_reward(i, n)
        self._add("instance.expected_reward", perf_counter() - t0)
        return value


class TimedPolicy:
    """Policy proxy that times ``select_arm`` and ``update`` and counts
    selections answered by forced round-robin."""

    def __init__(self, policy, kind: str, tracer: Tracer):
        self._policy = policy
        self._add = tracer.add
        self._forced = tracer.forced
        self._forced_until = policy.num_arms * policy.forced_pulls
        self._select = f"policies.select_arm.{kind}"
        self._update = f"policies.update.{kind}"

    def select_arm(self, t):
        t0 = perf_counter()
        arm = self._policy.select_arm(t)
        self._add(self._select, perf_counter() - t0)
        self._forced[1] += 1
        if t <= self._forced_until:
            self._forced[0] += 1
        return arm

    def update(self, arm, reward, t):
        t0 = perf_counter()
        self._policy.update(arm, reward, t)
        self._add(self._update, perf_counter() - t0)


def capped(spec: dict, horizon: int) -> PolicyConfig:
    """The policy of ``spec`` with its window cut to ``horizon``."""
    config = PolicyConfig(**spec)
    if config.window is not None and config.window > horizon:
        config = replace(config, window=horizon)
    return config


def traced_run(tracer, instance, timed, config, horizon, seed, stride, errors):
    """One run as ``run_batch`` makes it, with every layer call timed."""
    policy_ss, _ = np.random.SeedSequence(seed).spawn(2)
    with tracer.span("harness.run_single.traced"):
        policy = tracer.call(
            "policies.make_policy", make_policy, config, instance.num_arms, horizon,
            np.random.default_rng(policy_ss), instance.arms[0].law,
        )
        proxy = TimedPolicy(policy, config.kind, tracer)
        record = run_single(timed, proxy, horizon, seed=seed, record_pulls=False, stride=stride)
    bound = tracer.call("analytics.wald_regret_bound", wald_regret_bound, instance,
                        record.pull_counts)
    if record.final_regret > bound + 1e-9:
        errors.append(f"traced run: regret {record.final_regret} above its bound {bound}")
    return record


def same_aggregate(a, mean, std) -> bool:
    return a.mean_regret.tobytes() == mean.tobytes() and a.std_regret.tobytes() == std.tobytes()


def replay_simulation(tracer: Tracer, wl, errors: list) -> dict:
    """Untraced, per-run and traced replays of a simulation workload."""
    batches = wl.batch_list()
    with tracer.span("bench.setup"):
        if wl.name == "run_k15":
            tracer.call("constructions.random_rising_instance", random_rising_instance,
                        wl.horizon, num_arms=K15_ARMS, seed=wl.instance_seed)
        with tracer.span("instance.build"):
            full = Instance.from_dict(wl.instance_doc)
        for arm in full.arms:
            tracer.call("curves.mu_array", arm.curve.mu_array, full.horizon)
        instance = full if wl.horizon == full.horizon else Instance(full.arms, wl.horizon)
        timed = TimedInstance(instance, tracer)

    # The replays alternate batch by batch, so drift of the machine's speed
    # during the run cannot bias one replay against another.
    kw = dict(horizon=wl.horizon, runs=wl.runs, stride=wl.stride)
    for key, config, seed in batches:
        with tracer.span("bench.untraced"), tracer.span("harness.run_batch"):
            reference = run_batch(instance, config, master_seed=seed, parallelism=1, **kw)
        if wl.threads > 1:
            with tracer.span("bench.untraced_cli"), tracer.span("harness.run_batch.cli"):
                agg = run_batch(instance, config, master_seed=seed, parallelism=wl.threads, **kw)
            if not same_aggregate(agg, reference.mean_regret, reference.std_regret):
                errors.append(f"{key}: parallelism {wl.threads} changed the aggregate")

        regrets = []
        with tracer.span("bench.plain"):
            for r in range(wl.runs):
                with tracer.span("harness.run_single"):
                    rec = run_single(instance, config, wl.horizon, seed=child_seed(seed, r),
                                     record_pulls=False, stride=wl.stride)
                regrets.append(rec.regret)
        stacked = np.stack(regrets)
        if not same_aggregate(reference, stacked.mean(axis=0), stacked.std(axis=0)):
            errors.append(f"{key}: per-run replay differs from run_batch")

        with tracer.span("bench.traced"):
            records = [
                traced_run(tracer, instance, timed, config, wl.horizon, child_seed(seed, r),
                           wl.stride, errors)
                for r in range(wl.runs)
            ]
        stacked = np.stack([rec.regret for rec in records])
        if not same_aggregate(reference, stacked.mean(axis=0), stacked.std(axis=0)):
            errors.append(f"{key}: traced aggregate differs from run_batch")

    with tracer.span("bench.companions"):
        with tracer.span("analytics.build_report"):
            build_report(full, tau_list=TAUS)
        run_suite(tracer, "identities", SUITES["identities"])
    untraced_s = tracer.stats("bench.untraced")[1]
    return {
        "library_s": tracer.stats("bench.untraced_cli")[1] if wl.threads > 1 else untraced_s,
        "untraced_s": untraced_s,
        "traced_s": tracer.stats("bench.traced")[1],
    }


def run_suite(tracer, name, fn):
    with tracer.span(f"verify.{name}"):
        result = fn()
    tracer.checks_failed += sum(not c.passed for c in result.checks)
    return [(c.name, c.passed, c.worst) for c in result.checks]


def replay_numerics(tracer: Tracer, wl, errors: list) -> dict:
    report_args = dict(tau_list=TAUS, bound_sigma=wl.bound_sigma)
    with tracer.span("bench.setup"):
        with tracer.span("instance.build"):
            instance = Instance.from_dict(wl.instance_doc)
        for arm in instance.arms:
            tracer.call("curves.mu_array", arm.curve.mu_array, instance.horizon)

    for flavor in BOUND_FLAVORS:
        with tracer.span("bench.untraced"):
            report = build_report(instance, bound_flavor=flavor, **report_args).to_dict()
        with tracer.span("bench.traced"), tracer.span("analytics.build_report"):
            traced = build_report(instance, bound_flavor=flavor, **report_args).to_dict()
        if traced != report:
            errors.append(f"traced {flavor} report differs from the untraced one")
    for name in NUMERICS_SUITES:
        with tracer.span("bench.untraced"):
            checks = [(c.name, c.passed, c.worst) for c in SUITES[name]().checks]
        with tracer.span("bench.traced"):
            if run_suite(tracer, name, SUITES[name]) != checks:
                errors.append(f"traced {name} suite differs from the untraced one")

    with tracer.span("bench.analytics"):
        for flavor in BOUND_FLAVORS:
            with tracer.span(f"analytics.pull_bound_terms.{flavor}"):
                pull_bound_terms(instance, sigma=wl.bound_sigma, flavor=flavor)
    untraced_s = tracer.stats("bench.untraced")[1]
    return {"library_s": untraced_s, "untraced_s": untraced_s,
            "traced_s": tracer.stats("bench.traced")[1]}


def probe_policies(tracer, wl, kinds, errors):
    """Traced runs of the given policy kinds, and one small batch if the
    workload ran none, on a K = 15 instance: fills the simulation layers
    that the workload bypasses."""
    instance = random_rising_instance(PROBE_HORIZON, num_arms=K15_ARMS,
                                      seed=wl.seed % INSTANCE_POOL)
    timed = TimedInstance(instance, tracer)
    configs = [capped(spec, PROBE_HORIZON) for spec in K15_POLICIES]
    for i, config in enumerate(configs):
        if config.kind in kinds:
            traced_run(tracer, instance, timed, config, PROBE_HORIZON, child_seed(wl.seed, i),
                       None, errors)
    if tracer.count("harness.run_batch"):
        return
    with tracer.span("harness.run_batch"):
        run_batch(instance, configs[0], runs=2, master_seed=wl.seed, parallelism=1)
    for r in range(2):
        with tracer.span("harness.run_single"):
            run_single(instance, configs[0], seed=child_seed(wl.seed, r), record_pulls=False)


def fill_probes(tracer, wl, probe_instance, errors):
    with tracer.span("bench.probe"):
        missing = [k for k in POLICY_KINDS if tracer.count(f"policies.select_arm.{k}") == 0]
        if missing:
            probe_policies(tracer, wl, missing, errors)
        for flavor in BOUND_FLAVORS:
            if tracer.count(f"analytics.pull_bound_terms.{flavor}") == 0:
                with tracer.span(f"analytics.pull_bound_terms.{flavor}"):
                    pull_bound_terms(probe_instance, sigma=PROBE_SIGMA, flavor=flavor)
        if tracer.count("verify.lemmas") == 0:
            run_suite(tracer, "lemmas", lambda: lemmas_suite(vectors_per_j=20, roos_cases=50))
        if tracer.count("verify.windows") == 0:
            run_suite(tracer, "windows", lambda: windows_suite(traces=12))
        if tracer.count("constructions.random_rising_instance") == 0:
            tracer.call("constructions.random_rising_instance", random_rising_instance,
                        K15_HORIZON, num_arms=K15_ARMS, seed=wl.seed % INSTANCE_POOL)


def probe_distmath(tracer, instance):
    """The distmath kernels at the sizes the analytics use."""
    y_ref = instance.avg_expected_reward(instance.optimal_arm, PROBE_SIGMA)
    mus = instance.expected_rewards(instance.optimal_arm)
    with tracer.span("bench.distmath"):
        for _ in range(3):
            for n in (10, 100, 1000):
                for p in (0.1, 0.5, 0.9):
                    tracer.call("distmath.binomial_pmf", binomial_pmf, n, p)
            for n in (5, 17, 40, 200):
                for p in (0.05, 0.35, 0.65, 0.95):
                    for k in (0, n // 2, n - 1):
                        tracer.call("distmath.binomial_cdf", binomial_cdf, n, p, k)
            for a in range(1, 51, 7):
                for b in range(1, 51, 7):
                    for y in (0.05, 0.35, 0.65, 0.95):
                        tracer.call("distmath.beta_tail", beta_tail, a, b, y)
            for sigma in (200, 1000, 2000):
                pb = tracer.call("distmath.pb_pmf", pb_pmf, mus[:sigma])
                binom = binomial_pmf(sigma, y_ref)
                tracer.call("distmath.tv_distance", tv_distance, pb, binom)


def micro_sweep(tracer, wl) -> dict:
    """Wall time per round of untraced ``run_single`` by policy kind and K."""
    out = {}
    with tracer.span("bench.microsweep"):
        for k in MICRO_ARMS:
            instance = random_rising_instance(MICRO_HORIZON, num_arms=k,
                                              seed=wl.seed % INSTANCE_POOL)
            for spec in K15_POLICIES:
                config = capped(spec, MICRO_HORIZON)
                name = f"probe.round.{config.kind}.k{k}"
                for rep in range(MICRO_REPS):
                    with tracer.span(name):
                        run_single(instance, config, seed=child_seed(wl.seed, rep),
                                   record_pulls=False)
                seconds = statistics.median(tracer.durations(name))
                out[f"policies.round_us.{config.kind}.k{k}"] = seconds / MICRO_HORIZON * 1e6
    return out


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def parallel_record(tracer, wl, sweep_instance, sweep_config, errors) -> dict:
    """One sweep_k2 point at parallelism 1 and 2: wall, CPU, identity."""
    config = replace(PolicyConfig(**sweep_config["policies"][0]),
                     forced_pulls=int(sweep_config["sweep"]["grid"][0]))
    seed = child_seed(wl.seed, 0)
    samples = {1: [], 2: []}
    aggregates = {}
    with tracer.span("bench.parallel"):
        for _ in range(PARALLEL_REPS):
            for p in (1, 2):
                cpu0 = cpu_seconds()
                with tracer.span(f"harness.run_batch.parallel{p}") as rec:
                    aggregates[p] = run_batch(sweep_instance, config, runs=2, master_seed=seed,
                                              parallelism=p, stride=sweep_config.get("stride"))
                samples[p].append((rec[2] - rec[1], cpu_seconds() - cpu0))
    if not same_aggregate(aggregates[1], aggregates[2].mean_regret, aggregates[2].std_regret):
        errors.append("parallel record: aggregates differ between parallelism 1 and 2")
    wall = {p: statistics.median(w for w, _ in s) for p, s in samples.items()}
    cpu = {p: statistics.median(c for _, c in s) for p, s in samples.items()}
    return {"speedup": wall[1] / wall[2], "wall_s": wall, "cpu_s": cpu, "samples": samples}


def tv_term_ops(sigma: int) -> int:
    """Array entries the Gaussian TV term touches, computed from sizes:
    per j < sigma one convolution step, one binomial pmf and one TV sum,
    each over j + 1 entries."""
    return sum(3 * (j + 1) for j in range(1, sigma))


def traced_run_metrics(wl, cli: dict, errors: list):
    """Run the traced replay and probes; return (metrics, tracer, extras).

    ``cli`` holds the wall seconds and output bytes of one repetition of
    the workload's CLI invocations.
    """
    sweep_instance = Instance.from_dict(json.loads(NUMERICS_INSTANCE.read_text(encoding="utf-8")))
    sweep_config = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    tracer = Tracer()
    if wl.name == "numerics":
        replay = replay_numerics(tracer, wl, errors)
    else:
        replay = replay_simulation(tracer, wl, errors)
    fill_probes(tracer, wl, sweep_instance, errors)
    probe_distmath(tracer, sweep_instance)
    rounds = micro_sweep(tracer, wl)
    parallel = parallel_record(tracer, wl, sweep_instance, sweep_config, errors)

    us, ms = 1e6, 1e3
    m = {}
    for kind in POLICY_KINDS:
        m[f"policies.select_us.{kind}"] = tracer.mean(f"policies.select_arm.{kind}") * us
        m[f"policies.update_us.{kind}"] = tracer.mean(f"policies.update.{kind}") * us
    m["policies.forced_share"] = tracer.forced[0] / tracer.forced[1]
    m.update(rounds)
    m["curves.sample_us"] = tracer.mean("curves.sample") * us
    m["curves.mu_array_ms"] = tracer.mean("curves.mu_array") * ms
    m["instance.build_ms"] = tracer.mean("instance.build") * ms
    m["instance.expected_reward_us"] = tracer.mean("instance.expected_reward") * us
    m["harness.run_batch_s"] = tracer.mean("harness.run_batch")
    m["harness.run_single_s"] = tracer.mean("harness.run_single")
    m["harness.batches"] = wl.batches
    m["harness.overhead_share"] = 1.0 - tracer.stats("harness.run_single")[1] / tracer.stats(
        "harness.run_batch")[1]
    m["harness.parallel_speedup"] = parallel["speedup"]
    m["harness.pools_started"] = wl.pools
    m["analytics.build_report_s"] = tracer.mean("analytics.build_report")
    for flavor in BOUND_FLAVORS:
        m[f"analytics.pull_bound_terms_s.{flavor}"] = tracer.mean(
            f"analytics.pull_bound_terms.{flavor}")
    m["analytics.wald_bound_us"] = tracer.mean("analytics.wald_regret_bound") * us
    for kernel in ("binomial_pmf", "binomial_cdf", "beta_tail", "tv_distance"):
        m[f"distmath.{kernel}_us"] = tracer.mean(f"distmath.{kernel}") * us
    m["distmath.pb_pmf_ms"] = tracer.mean("distmath.pb_pmf") * ms
    m["distmath.tv_term_ops"] = tv_term_ops(getattr(wl, "bound_sigma", BOUND_SIGMA))
    for name in ("identities", "lemmas", "windows"):
        m[f"verify.{name}_s"] = tracer.mean(f"verify.{name}")
    m["verify.checks_failed"] = tracer.checks_failed
    m["constructions.random_instance_ms"] = tracer.mean("constructions.random_rising_instance") * ms
    m["cli.overhead_s"] = cli["wall_s"] - replay["library_s"]
    m["cli.output_bytes"] = cli["output_bytes"]
    m["trace.overhead_share"] = replay["traced_s"] / replay["untraced_s"] - 1.0
    if m["verify.checks_failed"]:
        errors.append(f"{m['verify.checks_failed']} verify checks failed in the traced run")
    extras = {
        "parallel_record": parallel,
        "replay_s": replay,
        "tv_term_ops": "computed from array sizes, not counted",
    }
    return m, tracer, extras
