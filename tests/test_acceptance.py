"""Acceptance suite: ten end-to-end criteria with quantitative oracles.

Each test prints one [PASS] line (on success) with the measured numbers;
run with ``pytest tests/test_acceptance.py -v -s`` to see them inline.
All runs are seeded, so the suite is deterministic on a given platform.

Criteria:
  A1  terminal quadratic variation of Brownian paths concentrates at 1
  A2  wealth-recursion residual shrinks under grid refinement
  A3  drift density recovered bin-wise; recentred paths pass martingale
      diagnostics; raw drifted paths fail them
  A4  growth-optimal value matches mu^2/(2 sigma^2); no strategy beats it
  A5  fitted drift reproduces expected simple integrals (exactly on its
      own bins, statistically off them)
  A6  flipped Poisson pair is again an independent Poisson pair
  A7  leaving the admissibility band is punished by ruin; staying inside
      never ruins
  A8  expected log utility over insider strategies stays bounded as the
      singular-time truncation refines
  A9  insider drift variation grows like |log eps|^(1/3), matching the
      closed form
  A10 every artifact is byte-reproducible from its manifest
"""

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import note_criterion

from qvmart.cli import main as cli_main
from qvmart.counterexample import (
    beta_prefix_sign,
    default_sweep_family,
    insider_drift_divergence,
    negative_wealth_probability,
    poisson_flip_test,
    utility_bound_terms_family,
    utility_sweep,
)
from qvmart.inference import (
    BinSpec,
    cell_alpha,
    choose_truncation_level,
    decompose,
    estimate_alpha,
    estimate_lambda,
    growth_optimal_value,
    optimality_gap,
)
from qvmart.path_core import TimeGrid, qv_matrix
from qvmart.simulate import (
    BrownianModel,
    DriftedDiffusion,
    SeedStream,
    gen_bundles,
    gen_ensemble,
    make_insider_grid,
)
from qvmart.strategy import (
    GridRuleStrategy,
    const_strategy,
    pi_for_ensemble,
    sign_at_time_strategy,
    truncation_strategy,
    window_strategy,
)
from qvmart.wealth import dd_residual, stoch_exp_ensemble

MU, SIGMA = 0.1, 0.2
ALPHA = MU / SIGMA**2  # 2.5
GROWTH = MU**2 / (2 * SIGMA**2)  # 0.125


def report(line: str) -> None:
    # inline for -s runs; the conftest summary block reprints it for plain runs
    print(f"\n[PASS] {line}")
    note_criterion(f"[PASS] {line}")


@pytest.fixture(scope="module")
def bs():
    """10^5 drifted-diffusion paths shared by A3, A4, A5."""
    ens = gen_ensemble(
        DriftedDiffusion(MU, SIGMA), SeedStream(20250811), 100_000, TimeGrid.uniform(256)
    )
    return ens


@pytest.fixture(scope="module")
def bs_alpha(bs):
    return estimate_alpha(bs, BinSpec(32))


def test_a1_qv_consistency():
    # 1000 Brownian paths at 2^20 steps: QV_1 in [0.98, 1.02] for >= 95%
    # (chi-square oracle: sd of QV_1 is sqrt(2)/2^10, so the band is ~14 sd)
    t0 = time.time()
    stream = SeedStream(1001)
    model = BrownianModel()
    qvs = np.empty(1000)
    for i in range(1000):
        qvs[i] = qv_matrix(model.path_at_level(stream, i, 20))[0, -1]
    elapsed = time.time() - t0
    frac = float(np.mean(np.abs(qvs - 1.0) <= 0.02))
    assert frac >= 0.95
    assert elapsed <= 120.0
    report(f"A1 qv-consistency: {frac:.1%} of 1000 paths within [0.98, 1.02] "
           f"({elapsed:.0f}s <= 120s)")


def test_a2_wealth_recursion_residual():
    # median residual shrink factor >= 2 between 2^10 and 2^14 over 100 seeds
    t0 = time.time()
    stream = SeedStream(2002)
    res = {}
    for level in (10, 14):  # path i is row i at both levels
        ens = gen_ensemble(BrownianModel(), stream, 100, TimeGrid.dyadic(level))
        pi = np.ones(ens.grid.n_steps)
        res[level] = dd_residual(pi, ens, stoch_exp_ensemble(pi, ens)[0])
    ratios = res[10] / res[14]
    elapsed = time.time() - t0
    med = float(np.median(ratios))
    assert med >= 2.0
    assert elapsed <= 60.0
    report(f"A2 dd-residual: median shrink factor {med:.1f} >= 2 over 100 seeds "
           f"({elapsed:.1f}s <= 60s)")


def test_a3_empirical_decomposition(bs, bs_alpha):
    t0 = time.time()
    ens = bs
    est = bs_alpha
    assert est.estimated.all()
    z_bins = (est.alpha - ALPHA) / est.stderr
    assert float(np.max(np.abs(z_bins))) <= 3.0

    result = decompose(ens, est)
    stop_n = choose_truncation_level(result.s_hat)
    tests = [
        const_strategy(1.0),
        const_strategy(-1.0),
        window_strategy(1.0, 0.0, 0.5),
        sign_at_time_strategy(0.5, 1.0),
        truncation_strategy(stop_n),
    ]
    diags = estimate_lambda(tests, result.s_hat, stop_n)
    assert len(diags) >= 5
    assert all(abs(d.z) <= 3.0 for d in diags)

    [raw] = estimate_lambda([const_strategy(1.0)], ens, stop_n=stop_n)
    assert abs(raw.z) > 3.0
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    report(
        f"A3 decomposition: max bin |z| = {np.max(np.abs(z_bins)):.2f} vs 2.5; "
        f"{len(diags)} diagnostics max |z| = {max(abs(d.z) for d in diags):.2f}; "
        f"raw-path control |z| = {abs(raw.z):.0f} > 3 ({elapsed:.0f}s <= 300s)"
    )


def test_a4_growth_optimal(bs, bs_alpha):
    t0 = time.time()
    ens = bs
    growth = growth_optimal_value(bs_alpha, ens)
    assert abs(growth.value - GROWTH) <= 3.0 * growth.stderr
    assert growth.direct.estimate == pytest.approx(growth.value, rel=1e-10)

    strategies = [const_strategy(c) for c in np.linspace(0.5, 4.5, 9)] + [
        window_strategy(ALPHA, 0.0, 0.5),
        sign_at_time_strategy(0.5, ALPHA),
        truncation_strategy(1.0),
    ]
    gaps = optimality_gap(strategies, growth, ens)
    assert all(g.gap <= 3.0 * g.stderr for g in gaps)
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    report(
        f"A4 growth-optimal: value {growth.value:.4f} vs {GROWTH} "
        f"(z = {(growth.value - GROWTH) / growth.stderr:+.2f}); "
        f"12 optimality gaps all <= 3 stderr ({elapsed:.0f}s <= 300s)"
    )


def test_a5_riesz_identity(bs, bs_alpha):
    ens = bs
    a_cells, _ = cell_alpha(bs_alpha, ens)
    dqv = ens.variation_increments()  # the fit's own d[S]

    # bin-measurable test strategy: window aligned with the 32-bin edges
    aligned = window_strategy(1.0, 0.0, 0.25)
    [lam] = estimate_lambda([aligned], ens)
    pi = pi_for_ensemble(aligned, ens)
    rhs = float(np.mean(np.sum(pi * a_cells * dqv, axis=1)))
    exact_gap = abs(lam.value - rhs)
    assert lam.value == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    # off-bin strategy: window starting strictly inside a bin
    off = window_strategy(1.0, 0.25 / 32, 0.25)
    [lam_off] = estimate_lambda([off], ens)
    pi_off = pi_for_ensemble(off, ens)
    per_path = np.sum(pi_off * a_cells * dqv, axis=1)
    rhs_off = float(np.mean(per_path))
    se_off = float(np.std(per_path, ddof=1) / np.sqrt(ens.n_paths))
    tol = 3.0 * float(np.hypot(lam_off.stderr, se_off))
    assert abs(lam_off.value - rhs_off) <= tol
    report(
        f"A5 riesz-identity: on-bin gap {exact_gap:.2e} (construction-exact); "
        f"off-bin gap {abs(lam_off.value - rhs_off):.2e} <= {tol:.2e}"
    )


def test_a6_poisson_flip():
    t0 = time.time()
    rep = poisson_flip_test(SeedStream(606), 10_000, beta_prefix_sign(), rate=1.0, eps=1e-2)
    elapsed = time.time() - t0
    assert rep.chi2_p_plus > 0.01 and rep.chi2_p_minus > 0.01
    assert abs(rep.count_correlation) <= 0.03
    assert abs(rep.p_exactly_one_minus - np.exp(-1.0)) <= 0.015
    assert elapsed <= 120.0
    report(
        f"A6 poisson-flip: chi2 p = ({rep.chi2_p_plus:.2f}, {rep.chi2_p_minus:.2f}) > 0.01; "
        f"|corr| = {abs(rep.count_correlation):.4f} <= 0.03; "
        f"P(one minus-jump) = {rep.p_exactly_one_minus:.4f} vs e^-1 = {np.exp(-1):.4f} "
        f"({elapsed:.1f}s <= 120s)"
    )


@pytest.fixture(scope="module")
def band_bundles():
    grid = make_insider_grid(1e-2, n_uniform=256, n_log=512)
    return gen_bundles(SeedStream(707), 10_000, grid, 1e-2, 1.0)


def test_a7_jump_band(band_bundles):
    t0 = time.time()

    def tail_fn(path, ctx):
        t = path.grid.points[:-1]
        return np.where(t >= 0.9, 1.0 - t, 0.0)

    tail = GridRuleStrategy("tail", 1.0, tail_fn, path_independent=True)
    nw = negative_wealth_probability(tail, band_bundles)
    target = 0.1 * np.exp(-0.1)
    binom_se = float(np.sqrt(nw.p_hat * (1 - nw.p_hat) / nw.n_paths))
    assert nw.p_hat >= target - 3.0 * binom_se

    sweep = utility_sweep(default_sweep_family(), band_bundles, 1e-2)
    assert all(r.n_nonpositive == 0 for _, r in sweep.entries)
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    report(
        f"A7 jump-band: violating strategy ruined with p = {nw.p_hat:.4f} "
        f">= {target:.4f} - 3 x {binom_se:.4f}; all {len(sweep.entries)} admissible "
        f"strategies ruin-free ({elapsed:.0f}s <= 120s)"
    )


def test_a8_bounded_utility_sweep():
    t0 = time.time()
    stream = SeedStream(808)
    family = default_sweep_family()
    assert len(family) >= 25
    maxes = {}
    for eps in (1e-1, 1e-2, 1e-3):
        grid = make_insider_grid(eps, n_uniform=256, n_log=512)
        bundles = gen_bundles(stream, 10_000, grid, eps, 1.0)
        rep = utility_sweep(family, bundles, eps)
        assert rep.n_ruined_strategies == 0
        assert all(np.isfinite(r.estimate) for _, r in rep.entries)
        terms = utility_bound_terms_family(family, bundles)
        assert all(bt.jump_term_within_noise for bt in terms)
        maxes[eps] = (rep.running_max, rep.running_max_stderr)
    pairs = [(1e-1, 1e-2), (1e-2, 1e-3)]
    drifts = []
    for a, b in pairs:
        (ma, sa), (mb, sb) = maxes[a], maxes[b]
        tol = 3.0 * float(np.hypot(sa, sb))
        assert abs(ma - mb) <= tol
        drifts.append(abs(ma - mb))
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    report(
        f"A8 bounded-utility: {len(family)} insider strategies finite at all eps; "
        f"running max {maxes[1e-1][0]:+.4f} / {maxes[1e-2][0]:+.4f} / {maxes[1e-3][0]:+.4f}, "
        f"decade drifts {drifts[0]:.4f}, {drifts[1]:.4f} within noise; all jump terms "
        f"<= 3 stderr ({elapsed:.0f}s <= 600s)"
    )


def test_a9_insider_drift_divergence():
    t0 = time.time()
    grid = make_insider_grid(1e-4, n_uniform=256, n_log=3072)
    bundles = gen_bundles(SeedStream(910), 6000, grid, 1e-4, 1.0)
    rows = insider_drift_divergence(bundles, [1e-1, 1e-2, 1e-3, 1e-4])
    for r in rows:
        assert abs(r.mc_tv - r.closed_form) <= 3.0 * r.stderr
    vals = [r.mc_tv for r in rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    zmax = max(abs(r.mc_tv - r.closed_form) / r.stderr for r in rows)
    report(
        f"A9 drift-divergence: strictly increasing "
        f"{' < '.join(f'{v:.3f}' for v in vals)}, max |z| vs closed form "
        f"{zmax:.2f} <= 3 ({elapsed:.0f}s <= 300s)"
    )


def test_a10_determinism(tmp_path):
    def dir_bytes(d: Path) -> dict:
        return {p.relative_to(d).as_posix(): p.read_bytes()
                for p in sorted(d.rglob("*")) if p.is_file()}

    checked = []

    sim_args = ["simulate", "--model", "drifted", "--mu", "0.1", "--sigma", "0.2",
                "--paths", "500", "--steps", "128", "--seed", "44", "--format", "json"]
    a, b = tmp_path / "sim_a", tmp_path / "sim_b"
    assert cli_main(sim_args + ["--out", str(a)]) == 0
    assert cli_main(sim_args + ["--out", str(b)]) == 0
    assert dir_bytes(a) == dir_bytes(b)
    checked.append("simulate")

    dec_a, dec_b = tmp_path / "dec_a", tmp_path / "dec_b"
    dec_args = ["decompose", "--in", str(a), "--bins", "8", "--min-count", "50"]
    assert cli_main(dec_args + ["--out", str(dec_a)]) == 0
    assert cli_main(dec_args + ["--out", str(dec_b)]) == 0
    assert dir_bytes(dec_a) == dir_bytes(dec_b)
    checked.append("decompose")

    div_args = ["counterexample", "divergence", "--bundles", "300",
                "--eps-list", "0.1,0.01", "--steps", "64", "--log-steps", "256",
                "--seed", "5"]
    div_a, div_b = tmp_path / "div_a", tmp_path / "div_b"
    assert cli_main(div_args + ["--out", str(div_a)]) == 0
    assert cli_main(div_args + ["--out", str(div_b)]) == 0
    assert dir_bytes(div_a) == dir_bytes(div_b)
    checked.append("counterexample")

    replayed = tmp_path / "replayed"
    assert cli_main(["replay", str(a / "manifest.json"), "--out", str(replayed)]) == 0
    assert dir_bytes(a) == dir_bytes(replayed)
    checked.append("replay")

    report(f"A10 determinism: byte-identical reruns for {', '.join(checked)}")
