"""Inputs follow the seed, and the checks reject wrong results."""

import numpy as np

import genfrac as gf
from bench import workloads as wl


def test_inputs_repeat_for_a_seed_and_change_with_it():
    f0 = lambda seed, r: [c.f0 for c in wl.march_cases(wl._rng(seed, r))]  # noqa: E731
    assert f0(3, 0) == f0(3, 0)
    assert f0(3, 0) != f0(4, 0) and f0(3, 0) != f0(3, 1)
    labels = lambda seed: [op.label for op in wl.eigen_round(seed, 0)]  # noqa: E731
    assert labels(1) == labels(2)


def test_every_round_has_the_same_operations():
    tables = wl.gronwall_tables()
    a = sorted(op.label for op in wl.gronwall_round(0, 0, tables))
    b = sorted(op.label for op in wl.gronwall_round(5, 3, tables))
    assert a == b and len(a) == sum(wl.GRONWALL_RANDOM.values()) + len(wl.SATURATED) + 1


def test_eigen_check_passes_and_rejects_an_offset_curve():
    phi = gf.parse_phi_spec("stable:0.5")
    grid = gf.Grid(1.0, 256)
    kt, series, laplace = wl.eigen_curves(phi, -1.0, grid)
    good = wl.Checks()
    wl.check_eigen(phi, -1.0, grid, (kt, series, laplace), good)
    assert good.failures == []
    tol = wl.grid_tolerance(wl.fit_key(phi, -1.0), grid.step)
    bad = wl.Checks()
    series[1:] += 2.0 * tol
    wl.check_eigen(phi, -1.0, grid, (kt, series, laplace * (1 + 1e-5)), bad)
    assert len(bad.failures) == 3


def test_march_check_rejects_a_perturbed_solution():
    case = wl.MarchCase("logistic", gf.parse_phi_spec("stable:0.5"), gf.rhs_logistic(1.0),
                        0.4, 0.5, 512)
    kt, sol = wl.march_solve(case)
    good = wl.Checks()
    wl.check_march(case, (kt, sol), good)
    wl.check_holder(case, sol, gf.verify_holder(sol, 0.5)[0], good)
    assert good.failures == []
    bumped = gf.GridFunction(sol.grid, sol.values + 1e-8 * np.sin(sol.grid.nodes)[:, None])
    bad = wl.Checks()
    wl.check_march(case, (kt, bumped), bad)
    wl.check_holder(case, sol, 10.0, bad)
    assert any("fixed-point residual" in f for f in bad.failures)
    assert any("Hoelder" in f for f in bad.failures)


def test_mc_check_rejects_an_estimate_off_by_five_standard_errors():
    phi = gf.parse_phi_spec("stable:0.5")
    u = wl.mc_moment(phi, 1, 1.0)
    checks = wl.Checks()
    est = gf.McEstimate(value=u + 5.0 * 0.01 + wl.MC_DT, std_error=0.01, n_effective=2000)
    wl._within_se(checks, "U", est, u, wl.MC_DT)
    assert len(checks.failures) == 1
