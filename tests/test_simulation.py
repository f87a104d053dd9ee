import json

import numpy as np
import pytest

from indirect_erm import (
    ConfigurationError,
    DataError,
    RateConfig,
    Scenario,
    SimulationError,
    SpectralOperator,
    dirac_noise,
    laplace_noise,
    make_margin_scenario,
    minimize,
)
from indirect_erm import simulation
from indirect_erm.hypotheses import true_risks
from indirect_erm.cli import run
from indirect_erm.simulation import (
    ExperimentPlan,
    build_backend,
    generate_sample,
    run_rate_experiment,
    rule_smoothing,
    trial_seed_sequence,
)

from oracles import labelled_sample, reference_interleaved_sample


def small_plan(grid, noise=None, **kw):
    noise = noise or dirac_noise()
    sc = make_margin_scenario(1, noise, family="smooth", gamma=2.0, grid=grid,
                              sharpness=1.3)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=2.0, beta_bar=noise.beta, dim=1,
                     bias_variant="squared_loss")
    defaults = dict(scenario=sc, rate_config=cfg, n_grid=(128, 512, 2048),
                    replications=10, base_seed=5, theory_mode="hard_loss",
                    base_kernel="order_m_flat_top", n_thresholds=51)
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def _fields(report):
    """A report's rows and summary as text, so that nan equals nan."""
    return json.dumps([report.rows, report.summary_json()], sort_keys=True)


def _same_groups(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.groups, b.groups, strict=True))


def test_generate_sample_determinism(grid, linear_scenario):
    # an integer seed, a seed sequence and a generator seeded from either
    # give the same draws
    a = generate_sample(linear_scenario, 500, 99)
    assert _same_groups(a, generate_sample(linear_scenario, 500, 99))
    seq = np.random.SeedSequence(99)
    b = generate_sample(linear_scenario, 500, seq)
    assert _same_groups(a, b)
    assert _same_groups(b, generate_sample(linear_scenario, 500, np.random.default_rng(seq)))


@pytest.mark.parametrize("contamination", [laplace_noise(2.0), laplace_noise(4.0), dirac_noise(),
                                           SpectralOperator(1.0, 64)],
                         ids=["laplace2", "laplace4", "dirac", "svd"])
@pytest.mark.parametrize("n", [1, 2, 500])
def test_generate_sample_matches_interleaved_reference(grid, contamination, n):
    # the sample's label groups are the masked scatter's draws split by
    # its labels, bit for bit
    scenario = make_margin_scenario(1, contamination, grid=grid)
    for seed in range(4):
        sample = generate_sample(scenario, n, seed)
        z, y = reference_interleaved_sample(scenario, n, seed)
        assert all(a.dtype == z.dtype for a in sample.groups)
        assert _same_groups(sample, labelled_sample(z, y))
        assert sample.n == n and sample.counts() == {0: n - y.sum(), 1: y.sum()}


@pytest.mark.parametrize("contamination", [SpectralOperator(1.0, 64), laplace_noise(2.0)])
def test_sampling_density_built_once_per_scenario(grid, monkeypatch, contamination):
    calls, tables = [], []

    def counting(name, log):
        original = getattr(simulation, name)

        def wrapped(*args):
            log.append(args)
            return original(*args)

        monkeypatch.setattr(simulation, name, wrapped)

    counting("apply_operator", calls)
    counting("sampler_table", tables)

    def scenario():
        return Scenario(priors=(0.5, 0.5), densities="linear", contamination=contamination,
                        domain=grid)

    sampled = scenario()
    samples = [generate_sample(sampled, 300, seed) for seed in range(20)]
    spectral = isinstance(contamination, SpectralOperator)
    assert len(calls) == (2 if spectral else 0)  # one image per label, not per draw
    assert len(tables) == 2  # one sampler table per label, not per draw
    assert sampled == scenario()  # the cache takes no part in equality
    for seed, sample in enumerate(samples):
        assert _same_groups(sample, generate_sample(scenario(), 300, seed))


def test_generate_sample_label_frequencies(grid):
    sc = make_margin_scenario(1, dirac_noise(), x_star=0.3, grid=grid)
    sample = generate_sample(sc, 40_000, 3)
    p1 = sample.counts()[1] / sample.n
    se = np.sqrt(sc.priors[1] * sc.priors[0] / sample.n)
    assert abs(p1 - sc.priors[1]) < 3.0 * se


def test_generate_sample_operator_route(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    sample = generate_sample(sc, 2000, 7)
    assert all(np.all((z >= 0.0) & (z <= 1.0)) for z in sample.groups)


def test_rate_rows_are_means_of_seeded_trials(grid):
    # each trial is the exact excess risk, over the class's smallest, of the
    # fit to the sample drawn from its own seed sequence, whatever ran before
    plan = small_plan(grid, laplace_noise(2.0), replications=3, n_grid=(128, 512))
    hclass = plan.hypothesis_class()
    risks = true_risks(hclass, plan.scenario)
    for n, mean, _, count in run_rate_experiment(plan).rows:
        backend = plan.backend_at(n)
        excess = np.array([
            risks[minimize(hclass, generate_sample(
                plan.scenario, n, trial_seed_sequence(plan.base_seed, n, rep)), backend).index]
            - risks.min() for rep in range(plan.replications)])
        assert np.all(excess >= 0.0)
        assert (mean, count) == (excess.mean(), plan.replications)


def test_rate_experiment_singleton_class_zero_excess(grid):
    # every row is zero, so no point is left for the slope fit
    plan = small_plan(grid, n_thresholds=1, replications=2)
    rows = []
    with pytest.raises(DataError):
        run_rate_experiment(plan, progress=rows.append)
    assert rows == [(n, 0.0, 0.0, 2) for n in plan.n_grid]


def test_plan_validation(grid):
    with pytest.raises(ConfigurationError):
        small_plan(grid, n_grid=(128,))
    with pytest.raises(ConfigurationError):
        small_plan(grid, n_grid=(512, 128))
    with pytest.raises(ConfigurationError):
        small_plan(grid, replications=0)
    with pytest.raises(ConfigurationError):
        small_plan(grid, backend="restricted")  # needs a window
    with pytest.raises(ConfigurationError):
        small_plan(grid, window=(0.2, 0.8))  # only the restricted backend takes one
    with pytest.raises(ConfigurationError):
        small_plan(grid, backend="svd")  # additive-noise scenario
    with pytest.raises(ConfigurationError):
        small_plan(grid, theory_mode="hardloss")


def test_minimal_report_two_points(grid):
    plan = small_plan(grid, n_grid=(128, 256), replications=1)
    report = run_rate_experiment(plan)
    assert len(report.rows) == 2
    assert np.isfinite(report.slope)


def test_report_reproducible_and_csv(tmp_path, grid):
    plan = small_plan(grid, laplace_noise(2.0), replications=5)
    r1 = run_rate_experiment(plan)
    r2 = run_rate_experiment(plan)
    assert _fields(r1) == _fields(r2)
    # the same experiment as a config: the command's rates.csv holds the
    # report's rows, one line each, every line ending in a bare newline
    doc = {
        "version": 1, "command": "rates", "seed": plan.base_seed,
        "scenario": {"family": "smooth", "alpha": 1, "gamma": 2.0, "sharpness": 1.3,
                     "contamination": {"kind": "laplace", "beta": 2},
                     "grid": {"points": grid.points_per_dim}},
        "hypotheses": {"kind": "thresholds", "count": plan.n_thresholds},
        "rate_config": {"kappa": 2.0, "rho": 0.5, "gamma": 2.0, "beta_bar": 2.0, "dim": 1,
                        "bias_variant": "squared_loss"},
        "n_grid": list(plan.n_grid), "replications": plan.replications,
        "base_kernel": plan.base_kernel, "theory_mode": plan.theory_mode,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert run(str(config), out_dir=str(tmp_path / "out"), threads=1) == 0
    data = (tmp_path / "out" / "rates.csv").read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert lines[0] == "n,mean_excess,standard_error,replications"
    assert len(lines) == 1 + len(plan.n_grid)
    assert lines[1:] == [f"{n},{m!r},{s!r},{c}" for n, m, s, c in r1.rows]


def test_parallel_matches_sequential(grid):
    plan = small_plan(grid, replications=4, n_grid=(128, 512))
    seq = run_rate_experiment(plan, threads=1)
    par = run_rate_experiment(plan, threads=2)
    assert _fields(seq) == _fields(par)


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that runs the blocks in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize("threads, cores, expected", [
    (64, 8, [2]),      # capped at the two n-blocks
    (64, 1, []),       # one core: no pool at all
    (2, 8, [2]),
    (1, 8, []),
])
def test_pool_capped_at_blocks_and_cores(grid, monkeypatch, threads, cores, expected):
    import concurrent.futures

    import indirect_erm.simulation as sim

    _RecordingPool.sizes = []
    # ``_iter_blocks`` imports the pool class only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cores)
    plan = small_plan(grid, replications=2, n_grid=(128, 256))
    report = run_rate_experiment(plan, threads=threads)
    assert _RecordingPool.sizes == expected
    assert _fields(report) == _fields(run_rate_experiment(plan, threads=1))


def test_progress_rows_stream_in_order(grid):
    plan = small_plan(grid, replications=3)
    seen = []
    run_rate_experiment(plan, progress=seen.append)
    assert [row[0] for row in seen] == list(plan.n_grid)


def test_partial_results_on_failure(grid, monkeypatch):
    import indirect_erm.simulation as sim

    plan = small_plan(grid, replications=2)
    original = sim.minimize

    def failing(hclass, sample, backend):
        if sample.n == 512:
            raise ValueError("synthetic failure")
        return original(hclass, sample, backend)

    monkeypatch.setattr(sim, "minimize", failing)
    with pytest.raises(SimulationError) as err:
        sim.run_rate_experiment(plan)
    assert [row[0] for row in err.value.partial_rows] == [128]


def test_svd_plan_runs(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=1.0, beta_bar=1.0, dim=1)
    plan = ExperimentPlan(scenario=sc, rate_config=cfg, n_grid=(256, 1024),
                          replications=5, base_seed=2, backend="svd",
                          theory_mode="svd")
    report = run_rate_experiment(plan)
    assert len(report.rows) == 2
    assert report.theory_exponent == pytest.approx(2.0 / 6.5)


def test_rule_cutoff_capped_explicit_cutoff_checked(grid):
    op = SpectralOperator(decay=1.0, k_max=4)
    sc = make_margin_scenario(1, op, grid=grid)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=1.0, beta_bar=1.0, dim=1)
    assert rule_smoothing("svd", sc, cfg, 10**6) == 4  # the rule asks for 24
    assert build_backend("svd", sc, 4).cutoff == 4
    with pytest.raises(ConfigurationError):
        build_backend("svd", sc, 24)
    with pytest.raises(ConfigurationError):
        rule_smoothing("svd", make_margin_scenario(1, dirac_noise(), grid=grid), cfg, 100)


def test_mean_excess_roughly_decreasing(grid):
    plan = small_plan(grid, laplace_noise(2.0), n_grid=(256, 2048, 16384),
                      replications=25)
    report = run_rate_experiment(plan)
    rows = report.rows
    for (n0, m0, s0, _), (n1, m1, s1, _) in zip(rows, rows[1:]):
        assert m1 <= m0 + 2.0 * (s0 + s1)


def test_theory_exponent_hard_loss(grid):
    plan = small_plan(grid, laplace_noise(2.0))
    assert plan.theory_exponent() == pytest.approx(4.0 / 11.0)
