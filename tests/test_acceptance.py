"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (visible under ``pytest -s``).

Heavy shared objects (N=4096 kernel tables and convolution powers per
stability index) are built once at module scope.
"""

import json
import math
import time

import numpy as np
import pytest

from genfrac import (
    BernsteinFunction,
    Grid,
    GridFunction,
    McConfig,
    ParamFamily,
    build_kernel_table,
    check_inversion_identity,
    continuity_experiment_initial,
    continuity_experiment_parameter,
    convolution_powers,
    estimate_moments,
    estimate_phi_exp_mc,
    laplace_exponent_check,
    make_problem,
    mittag_leffler,
    phi_exp_laplace_curve,
    phi_exp_grid_curve,
    picard_solve,
    rhs_affine,
    rhs_linear,
    rhs_logistic,
    run_random_harness,
    sample_inverse_values,
    saturated_instance,
    select_horizon,
    series_bound,
    solve_to_horizon,
    suggest_power_count,
    tail_bound_check,
    verify_holder,
)
from genfrac.gronwall import apply_B
from genfrac.solver import _theoretical_contraction

ALPHAS = (0.3, 0.5, 0.7)
LAMBDAS = (-2.0, -1.0, 1.0)
N = 4096


def _report(name, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) {detail}")


@pytest.fixture(scope="module")
def stable_tables():
    out = {}
    for alpha in ALPHAS:
        phi = BernsteinFunction.stable(alpha)
        kt = build_kernel_table(phi, Grid(1.0, N))
        out[alpha] = (phi, kt, convolution_powers(kt, 8))
    return out


@pytest.fixture(scope="module")
def catalog_tables():
    phis = [
        BernsteinFunction.stable(0.5),
        BernsteinFunction.tempered(0.5, 1.0),
        BernsteinFunction.mixture([0.3, 0.7], [0.4, 0.8]),
    ]
    return [(phi, build_kernel_table(phi, Grid(1.0, N))) for phi in phis]


def test_c01_stable_eigenfunction_closure(stable_tables):
    """Series, Laplace, and solver routes all match E_alpha(lam t^alpha).

    Evaluation grid: sixteenths of (0, 1].  The first grid cells sit in the
    boundary layer of the product-integration scheme (node-1 relative error
    is O(h^(2 beta)), ~1e-2 for beta = 0.3 at N = 4096), so the comparison
    grid starts clear of it.
    """
    start = time.time()
    eval_idx = np.arange(1, 17) * (N // 16)
    worst = {"series": 0.0, "laplace": 0.0, "solver": 0.0}
    for alpha, (phi, kt, cp) in stable_tables.items():
        ts = kt.grid.nodes[eval_idx]
        for lam in LAMBDAS:
            oracle = np.array([mittag_leffler(alpha, lam * t ** alpha) for t in ts])
            scale = 1.0 / np.abs(oracle)

            series = phi_exp_grid_curve(kt, lam)[eval_idx]
            err = float((np.abs(series - oracle) * scale).max())
            worst["series"] = max(worst["series"], err)
            assert err <= 1e-3, f"series alpha={alpha} lam={lam}: {err:.2e}"

            laplace = phi_exp_laplace_curve(phi, lam, ts)
            err = float((np.abs(laplace - oracle) * scale).max())
            worst["laplace"] = max(worst["laplace"], err)
            assert err <= 1e-3, f"laplace alpha={alpha} lam={lam}: {err:.2e}"

            problem = make_problem(rhs_linear([[lam]]), [1.0], 1.0)
            sol, _ = solve_to_horizon(problem, kt, R=50.0, tol=1e-8)
            err = float((np.abs(sol.scalar()[eval_idx] - oracle) * scale).max())
            worst["solver"] = max(worst["solver"], err)
            assert err <= 1e-2, f"solver alpha={alpha} lam={lam}: {err:.2e}"
    elapsed = time.time() - start
    assert elapsed <= 60.0
    _report(
        "1 (eigenfunction closure)",
        elapsed,
        60,
        f"max rel err series {worst['series']:.1e}, laplace {worst['laplace']:.1e}, "
        f"solver {worst['solver']:.1e}",
    )


def test_c02_inversion_identity(catalog_tables):
    """Integral of the derivative reproduces f - f0 for every catalog kind,
    with first-order-or-better refinement."""
    start = time.time()
    for phi, kt in catalog_tables:
        f = GridFunction(kt.grid, 1.0 + kt.grid.nodes ** 2)
        err_fine = check_inversion_identity(kt, f).err_int_deriv
        assert err_fine <= 1e-2, f"{phi.label}: {err_fine:.2e}"
        kt_half = build_kernel_table(phi, Grid(1.0, N // 2))
        f_half = GridFunction(kt_half.grid, 1.0 + kt_half.grid.nodes ** 2)
        err_coarse = check_inversion_identity(kt_half, f_half).err_int_deriv
        ratio = err_coarse / err_fine
        assert ratio >= 1.5, f"{phi.label}: refinement ratio {ratio:.2f}"
    elapsed = time.time() - start
    assert elapsed <= 30.0
    _report("2 (inversion identity)", elapsed, 30)


def test_c03_convolution_power_series(stable_tables):
    """Stable powers match t^(k a)/Gamma(k a + 1), and the grid sum of
    their series matches E_a(lam t^a)."""
    start = time.time()
    _, kt, cp = stable_tables[0.5]
    for k in range(1, 9):
        ref = 1.0 / math.gamma(0.5 * k + 1.0)
        got = cp.u_star[k, -1]
        assert abs(got - ref) / ref <= 5e-3, f"k={k}: {got} vs {ref}"
    # the grid sum of the series at lam = 1 matches the closed form
    val = phi_exp_grid_curve(kt, 1.0)[N]
    assert val == pytest.approx(mittag_leffler(0.5, 1.0), rel=1e-3)
    elapsed = time.time() - start
    assert elapsed <= 20.0
    _report("3 (convolution powers)", elapsed, 20)


def test_c04_gronwall_bound_chain():
    """100 random valid instances per catalog kind violate nothing; the
    saturated instance achieves equality with the series bound."""
    start = time.time()
    harness_n = Grid(1.0, 256)
    for spec in ("stable:0.5", "tempered:0.5,1.0", "mixture:0.3@0.4+0.7@0.8"):
        from genfrac import parse_phi_spec

        phi = parse_phi_spec(spec)
        kt = build_kernel_table(phi, harness_n)
        rep = run_random_harness(kt, 100, master_seed=2026)
        assert rep.ok, f"{spec}: {rep}"

    phi = BernsteinFunction.stable(0.5)
    kt = build_kernel_table(phi, Grid(1.0, 512))
    one = GridFunction.constant(kt.grid, 1.0)
    inst = saturated_instance(kt, one, one)
    sb = series_bound(kt, one, one).scalar()
    x = inst.x.scalar()
    rel_gap = float((np.abs(x[1:] - sb[1:]) / np.abs(sb[1:])).max())
    assert rel_gap <= 1e-3
    elapsed = time.time() - start
    assert elapsed <= 120.0
    _report("4 (Gronwall chain)", elapsed, 120, f"saturated gap {rel_gap:.1e}")


def test_c05_operator_power_lemmas():
    """Envelope, power, and product inequalities for the iteration
    operator, randomized, k <= 6, 50 seeds each."""
    start = time.time()
    phi = BernsteinFunction.stable(0.5)
    kt = build_kernel_table(phi, Grid(1.0, 256))
    cp = convolution_powers(kt, 8)
    beta = kt.beta
    t = kt.grid.nodes
    seeds = np.random.SeedSequence(314).spawn(50)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        n = kt.grid.cells + 1
        knots = np.linspace(0.0, 1.0, 8)
        fv = np.interp(t, knots, rng.uniform(0.0, 2.0, 8))
        gk = np.cumsum(rng.uniform(0.0, 1.0, 8))
        gv = np.interp(t, knots, gk / gk[-1] * rng.uniform(0.2, 1.5))
        g = GridFunction(kt.grid, gv)

        # envelope: B^k f <= (c G(b) g(t))^k / G(k b) * I^(k b)[f](t)
        term = GridFunction(kt.grid, fv)
        for k in range(1, 7):
            term = apply_B(kt, g, term)
            kb = k * beta
            wcell = np.zeros((n, kt.grid.cells))
            rhs = np.zeros(n)
            mid = 0.5 * (fv[:-1] + fv[1:])
            for i in range(1, n):
                w = ((t[i] - t[:i]) ** kb - (t[i] - t[1 : i + 1]) ** kb) / kb
                rhs[i] = float(np.dot(w, mid[:i]))
            env = (kt.c_fit * math.gamma(beta) * gv) ** k / math.gamma(kb) * rhs
            slack = 1e-8 + 0.05 * (kt.grid.step ** beta) * float(np.abs(env).max())
            assert np.all(term.scalar() <= env + slack), f"envelope k={k}"

        # power bound: B^k 1 <= g^k u_k
        term = GridFunction.constant(kt.grid, 1.0)
        for k in range(1, 7):
            term = apply_B(kt, g, term)
            assert np.all(
                term.scalar() <= gv ** k * cp.u_star[k] * (1 + 1e-9) + 1e-15
            ), f"power k={k}"

        # product bound: B^k(f1 f2) <= f1 B^k f2 for nondecreasing f1
        f1 = np.interp(t, knots, np.cumsum(rng.uniform(0.0, 0.5, 8)))
        f2 = np.interp(t, knots, rng.uniform(0.0, 2.0, 8))
        lhs = GridFunction(kt.grid, f1 * f2)
        rhs_f = GridFunction(kt.grid, f2)
        for _k in range(1, 5):
            lhs = apply_B(kt, g, lhs)
            rhs_f = apply_B(kt, g, rhs_f)
            assert np.all(lhs.scalar() <= f1 * rhs_f.scalar() + 1e-12), "product"
    elapsed = time.time() - start
    assert elapsed <= 60.0
    _report("5 (operator power lemmas)", elapsed, 60)


def test_c06_monte_carlo_closure():
    """10^5 paths close the loop against the analytic targets."""
    start = time.time()
    phi = BernsteinFunction.stable(0.5)
    cfg = McConfig(phi=phi, n_paths=100_000, dt=1e-3, t_max=1.0, seed=2026)

    for row in laplace_exponent_check(cfg, [0.5, 1.0, 2.0, 5.0]):
        gap = abs(row["empirical"] - row["target"])
        assert gap <= 3 * row["std_error"], f"laplace exponent at {row['lam']}"

    L = sample_inverse_values(cfg, [1.0])[:, 0]
    n = cfg.n_paths
    u_ref = 1.0 / math.gamma(1.5)
    se = L.std(ddof=1) / math.sqrt(n)
    assert abs(L.mean() - u_ref) <= 3 * se + cfg.dt

    moments = estimate_moments(cfg, 1.0, 2)
    assert abs(moments[1].value - u_ref) <= 3 * moments[1].std_error + cfg.dt
    assert abs(moments[2].value - 1.0) <= 3 * moments[2].std_error + 3 * cfg.dt

    for lam in (-1.0, 1.0):
        ref = mittag_leffler(0.5, lam)
        est = estimate_phi_exp_mc(cfg, lam, 1.0)
        bias = abs(lam) * cfg.dt * ref * math.exp(abs(lam) * cfg.dt) * 3.0
        assert abs(est.value - ref) <= 3 * est.std_error + bias, f"e(1;{lam})"

    for row in tail_bound_check(cfg, 1.0, [1.0, 2.0, 3.0], x=4.0):
        assert row["empirical"] <= row["bound"] + 1e-12

    elapsed = time.time() - start
    assert elapsed <= 300.0
    _report("6 (Monte Carlo closure)", elapsed, 300, f"{n} paths")


def test_c07_picard_machinery():
    """Contraction ratios below theory, uniqueness probe, confinement."""
    start = time.time()
    phi = BernsteinFunction.stable(0.5)
    kt = build_kernel_table(phi, Grid(1.0, 2048))
    problem = make_problem(rhs_logistic(1.0), [0.5], 1.0)
    R = 0.6
    tol = 1e-11

    sol, state = picard_solve(problem, kt, R, tol=tol)
    assert state.horizon_index == select_horizon(problem, kt, R)
    assert state.t_prime == kt.grid.nodes[state.horizon_index]
    kappa = _theoretical_contraction(
        kt, problem.spec.lip_l(state.r_tilde), state.t_prime, state.bielecki_tau
    )
    assert kappa == pytest.approx(0.5, rel=1e-12)
    assert state.contraction_ratio_estimates, "need at least one ratio"
    for ratio in state.contraction_ratio_estimates[1:]:
        assert ratio < kappa

    # confinement: the selected horizon keeps every iterate (hence the
    # fixed point) strictly inside the ball
    drift = float(np.abs(sol.values - problem.f0).max())
    assert drift < R

    rng = np.random.default_rng(17)
    shift = 0.5 * R * rng.choice([-1.0, 1.0])
    other, _ = picard_solve(
        problem, kt, R, tol=tol, initial=np.array([0.5 + shift])
    )
    assert float(np.abs(sol.values - other.values).max()) <= 2 * tol

    elapsed = time.time() - start
    assert elapsed <= 30.0
    _report("7 (Picard machinery)", elapsed, 30, f"T'={state.t_prime:.4f}")


def test_c08_holder_regularity():
    """The Holder-quotient estimate stabilizes under refinement."""
    start = time.time()
    phi = BernsteinFunction.stable(0.5)
    for spec, f0, radius in (
        (rhs_linear([[-1.0]]), [1.0], 2.0),
        (rhs_logistic(1.0), [0.5], 0.6),
    ):
        ests = []
        for n in (1024, 2048, 4096):
            kt = build_kernel_table(phi, Grid(1.0, n))
            problem = make_problem(spec, f0, 1.0)
            sol, _ = solve_to_horizon(problem, kt, radius, tol=1e-10)
            l_est, _ = verify_holder(sol, kt.beta)
            ests.append(l_est)
        mean = sum(ests) / len(ests)
        for e in ests:
            assert abs(e - mean) / mean <= 0.25, f"{spec}: {ests}"
    elapsed = time.time() - start
    assert elapsed <= 30.0
    _report("8 (Holder regularity)", elapsed, 30)


def test_c09_continuity_experiments():
    """Deviations stay under the analytic continuity bounds."""
    start = time.time()
    phi = BernsteinFunction.stable(0.5)
    kt = build_kernel_table(phi, Grid(1.0, 512))
    cp = convolution_powers(kt, suggest_power_count(kt, 5.0))

    for spec, f0, radius in (
        (rhs_linear([[-1.0]]), [1.0], 2.0),
        (rhs_logistic(1.0), [0.4], 0.5),
    ):
        problem = make_problem(spec, f0, 1.0)
        rep = continuity_experiment_initial(
            problem, kt, cp, R=radius, deltas=[0.01, -0.02, 0.04, 0.1]
        )
        assert rep.ok, rep.rows

    def make_eigen(v):
        return make_problem(rhs_linear([[float(v[0])]]), [1.0], 1.0)

    family = ParamFamily(make=make_eigen, lip_param=1.0, lip_state=1.5)
    rep = continuity_experiment_parameter(
        family, kt, v0=[-1.0], deltas=[0.1, -0.1, 0.05], R=2.0
    )
    assert rep.ok, rep.rows

    def make_affine(v):
        return make_problem(rhs_affine([[-1.0]], [float(v[0])]), [0.5], 1.0)

    family = ParamFamily(make=make_affine, lip_param=1.0, lip_state=1.0)
    rep = continuity_experiment_parameter(
        family, kt, v0=[0.0], deltas=[0.05, -0.05], R=2.0
    )
    assert rep.ok, rep.rows

    elapsed = time.time() - start
    assert elapsed <= 60.0
    _report("9 (continuity experiments)", elapsed, 60)


def test_c10_reproducibility(tmp_path):
    """Re-running a command with the same manifest gives identical bytes."""
    start = time.time()
    from genfrac.cli import main

    prob = tmp_path / "p.kv"
    prob.write_text("d = 1\nf0 = 1.0\nT = 1.0\nR = 2.0\nrhs = linear\nmatrix = -1.0\n")
    commands = [
        ["eigen", "--phi", "stable:0.5", "--lambda", "1", "--T", "1", "--N", "256",
         "--method", "all", "--paths", "1000", "--dt", "2e-3", "--seed", "7"],
        ["solve", "--phi", "tempered:0.5,1.0", "--problem", str(prob), "--N", "128"],
        ["mc", "--phi", "stable:0.5", "--paths", "400", "--dt", "2e-3", "--seed", "5",
         "--estimate", "phiexp:-1,1.0"],
    ]
    for idx, cmd in enumerate(commands):
        a = tmp_path / f"a{idx}"
        b = tmp_path / f"b{idx}"
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        csv_name = f"{cmd[0]}.csv"
        assert (a / csv_name).read_bytes() == (b / csv_name).read_bytes(), cmd[0]
        ma = json.loads((a / f"{cmd[0]}_manifest.json").read_text())
        mb = json.loads((b / f"{cmd[0]}_manifest.json").read_text())
        assert ma["config_hash"] == mb["config_hash"]
    elapsed = time.time() - start
    _report("10 (reproducibility)", elapsed, 30)
