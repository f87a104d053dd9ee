import numpy as np
import pytest

from indirect_erm import (
    ConfigurationError,
    RateConfig,
    SimulationError,
    SpectralOperator,
    dirac_noise,
    laplace_noise,
    make_margin_scenario,
)
from indirect_erm.simulation import (
    ExperimentPlan,
    build_backend,
    generate_sample,
    run_rate_experiment,
    rule_smoothing,
    run_trial,
    trial_seed_sequence,
)


def small_plan(grid, noise=None, **kw):
    noise = noise or dirac_noise()
    sc = make_margin_scenario(1, noise, family="smooth", gamma=2.0, grid=grid,
                              sharpness=1.3)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=2.0, beta_bar=sc.beta_bar, dim=1,
                     bias_variant="squared_loss")
    defaults = dict(scenario=sc, rate_config=cfg, n_grid=(128, 512, 2048),
                    replications=10, base_seed=5, theory_mode="hard_loss",
                    base_kernel="order_m_flat_top", n_thresholds=51)
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def test_generate_sample_determinism(grid, linear_scenario):
    a = generate_sample(linear_scenario, 500, 99)
    b = generate_sample(linear_scenario, 500, 99)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.y, b.y)


def test_generate_sample_label_frequencies(grid):
    sc = make_margin_scenario(1, dirac_noise(), x_star=0.3, grid=grid)
    sample = generate_sample(sc, 40_000, 3)
    p1 = sample.label_fractions()[1]
    se = np.sqrt(sc.priors[1] * sc.priors[0] / sample.n)
    assert abs(p1 - sc.priors[1]) < 3.0 * se


def test_generate_sample_operator_route(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    sample = generate_sample(sc, 2000, 7)
    assert np.all((sample.z >= 0.0) & (sample.z <= 1.0))


def test_run_trial_reproducible(grid):
    plan = small_plan(grid, laplace_noise(2.0))
    seed = trial_seed_sequence(plan.base_seed, 512, 0)
    a = run_trial(plan, 512, seed)
    b = run_trial(plan, 512, trial_seed_sequence(plan.base_seed, 512, 0))
    assert a == b
    assert a >= 0.0


def test_run_trial_singleton_class_zero_excess(grid):
    plan = small_plan(grid, n_thresholds=1)
    seed = trial_seed_sequence(plan.base_seed, 128, 0)
    assert run_trial(plan, 128, seed) == 0.0


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
    assert r1.dumps() == r2.dumps()
    path = tmp_path / "rates.csv"
    r1.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,mean_excess,standard_error,replications"
    assert len(lines) == 1 + len(plan.n_grid)


def test_parallel_matches_sequential(grid):
    plan = small_plan(grid, replications=4, n_grid=(128, 512))
    seq = run_rate_experiment(plan, threads=1)
    par = run_rate_experiment(plan, threads=2)
    assert seq.dumps() == par.dumps()


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
    import indirect_erm.simulation as sim

    _RecordingPool.sizes = []
    monkeypatch.setattr(sim, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cores)
    plan = small_plan(grid, replications=2, n_grid=(128, 256))
    report = run_rate_experiment(plan, threads=threads)
    assert _RecordingPool.sizes == expected
    assert report.dumps() == run_rate_experiment(plan, threads=1).dumps()


def test_progress_rows_stream_in_order(grid):
    plan = small_plan(grid, replications=3)
    seen = []
    run_rate_experiment(plan, progress=seen.append)
    assert [row[0] for row in seen] == list(plan.n_grid)


def test_partial_results_on_failure(grid, monkeypatch):
    import indirect_erm.simulation as sim

    plan = small_plan(grid, replications=2)
    original = sim.run_trial

    def failing(plan_, n, seed, **kw):
        if n == 512:
            raise ValueError("synthetic failure")
        return original(plan_, n, seed, **kw)

    monkeypatch.setattr(sim, "run_trial", failing)
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


def test_rule_cutoff_capped_explicit_cutoff_checked(grid, hard_loss):
    op = SpectralOperator(decay=1.0, k_max=4)
    sc = make_margin_scenario(1, op, grid=grid)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=1.0, beta_bar=1.0, dim=1)
    assert rule_smoothing("svd", sc, cfg, 10**6) == 4  # the rule asks for 24
    assert build_backend("svd", sc, hard_loss, 4).cutoff == 4
    with pytest.raises(ConfigurationError):
        build_backend("svd", sc, hard_loss, 24)
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
