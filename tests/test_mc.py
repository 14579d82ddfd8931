import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from genfrac import (
    BernsteinFunction,
    ConditioningWarning,
    McConfig,
    NumericalError,
    PathExhaustedError,
    estimate_moments,
    estimate_phi_exp_mc,
    estimate_potential_mc,
    inverse_passage,
    laplace_exponent_check,
    sample_inverse_values,
    sample_stable_increment,
    sample_tempered_increment,
    tail_bound_check,
)
from genfrac import mc
from genfrac.mc import _inverse_values, _path_streams

from conftest import INV_GAMMA_1_5, ML_ORACLE


@pytest.fixture(scope="module")
def stable_cfg(stable_half):
    return McConfig(phi=stable_half, n_paths=8000, dt=1e-3, t_max=1.0, seed=42)


@pytest.fixture(scope="module")
def inverse_samples(stable_cfg):
    return sample_inverse_values(stable_cfg, [0.25, 0.5, 1.0])


@pytest.fixture
def path_streams(monkeypatch):
    """Indices of the per-path streams yielded, one per path drawn."""
    opened = []

    def counting(seed, n_paths):
        for index, rng in enumerate(_path_streams(seed, n_paths)):
            opened.append(index)
            yield rng

    monkeypatch.setattr(mc, "_path_streams", counting)
    return opened


class TestStableSampler:
    def test_laplace_transform_match(self):
        rng = np.random.default_rng(1)
        x = sample_stable_increment(0.5, 1.0, rng, size=100000)
        assert np.all(x > 0)
        for lam in (0.5, 1.0, 2.0, 5.0):
            vals = np.exp(-lam * x)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - math.exp(-(lam ** 0.5))) <= 4 * se

    def test_small_dt_scaling(self):
        rng = np.random.default_rng(2)
        x = sample_stable_increment(0.5, 0.01, rng, size=100000)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        # E[exp(-sigma(dt))] = exp(-dt * 1^alpha)
        assert abs(vals.mean() - math.exp(-0.01)) <= 4 * se

    def test_scalar_draw(self):
        rng = np.random.default_rng(3)
        assert sample_stable_increment(0.5, 1.0, rng) > 0


class TestTemperedSampler:
    def test_laplace_transform_match(self):
        rng = np.random.default_rng(4)
        alpha, theta, dt = 0.5, 1.0, 0.01
        x = sample_tempered_increment(alpha, theta, dt, rng, size=100000)
        assert np.all(x > 0)
        for lam in (0.5, 1.0, 2.0):
            target = math.exp(-dt * ((lam + theta) ** alpha - theta ** alpha))
            vals = np.exp(-lam * x)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - target) <= 4 * se

    def test_target_value_at_unit_rate(self):
        # dt=0.01, theta=1, lam=1: exp(-0.01 (sqrt(2) - 1))
        target = math.exp(-0.01 * (math.sqrt(2.0) - 1.0))
        rng = np.random.default_rng(5)
        x = sample_tempered_increment(0.5, 1.0, 0.01, rng, size=200000)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 4 * se

    def test_vanishing_tilt_recovers_stable_law(self):
        # theta -> 0 removes the tilt; the accepted draws follow the stable
        # law (stream positions differ, so compare distributions, not draws)
        rng = np.random.default_rng(6)
        x = sample_tempered_increment(0.5, 1e-9, 1.0, rng, size=100000)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(-1.0)) <= 4 * se

    def test_dt_too_large_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="acceptance rate"):
            sample_tempered_increment(0.5, 1.0, 60.0, rng, size=10)


def _full_batch_tempered(alpha, theta, dt, rng, size=None):
    """Reference tempered sampler: every proposal of every batch is mapped
    and tested, in the draw order of the library sampler."""
    rate = math.exp(-dt * theta ** alpha)
    n = 1 if size is None else int(size)
    out = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(16, int((n - filled) / rate * 1.2) + 8)
        x = sample_stable_increment(alpha, dt, rng, size=batch)
        accept = rng.random(batch) < np.exp(-theta * x)
        got = x[accept]
        take = min(n - filled, got.shape[0])
        out[filled : filled + take] = got[:take]
        filled += take
    return float(out[0]) if size is None else out


def _keyed(seed, i):
    return np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))


#: (alpha, theta, dt); the last accepts at rate exp(-3), so heads fall short
#: and single-path batches accept nothing
TILTS = [(0.5, 1.0, 1e-3), (0.3, 2.0, 1e-3), (0.9, 2.0, 1e-3), (0.5, 9e4, 0.01)]


class TestTemperedDrawBytes:
    """The tempered sampler and check evaluate only part of what they draw;
    what they return is bit for bit the full-batch reference."""

    @pytest.mark.parametrize("tilt", TILTS)
    @pytest.mark.parametrize("size", [None, 1, 7, 2048, 5000])
    def test_sampler_matches_full_batch(self, tilt, size):
        for key in range(3):
            got = sample_tempered_increment(*tilt, _keyed(key, 1), size=size)
            ref = _full_batch_tempered(*tilt, _keyed(key, 1), size=size)
            assert type(got) is type(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_low_rate_evaluates_the_rest_of_a_batch(self, monkeypatch):
        rests = []
        accepted = mc._accepted

        def spy(alpha, theta, dt, block, lo, hi, stable):
            rests.append(lo > 0)
            return accepted(alpha, theta, dt, block, lo, hi, stable)

        monkeypatch.setattr(mc, "_accepted", spy)
        got = sample_tempered_increment(*TILTS[-1], _keyed(0, 0), size=2048)
        assert any(rests)
        assert got.tobytes() == _full_batch_tempered(*TILTS[-1], _keyed(0, 0), size=2048).tobytes()

    def test_sampler_maps_proposals_by_the_public_stable_sampler(self, monkeypatch):
        calls = []
        stable = mc.sample_stable_increment

        def spy(alpha, dt, rng, size=None):
            calls.append(size)
            return stable(alpha, dt, rng, size)

        monkeypatch.setattr(mc, "sample_stable_increment", spy)
        got = sample_tempered_increment(*TILTS[0], _keyed(0, 0), size=64)
        assert calls == [(80,)]  # the head of an 84-proposal batch
        assert got.tobytes() == _full_batch_tempered(*TILTS[0], _keyed(0, 0), size=64).tobytes()

    @pytest.mark.parametrize("tilt", TILTS)
    def test_laplace_exponent_rows_match_per_path_loop(self, tilt, monkeypatch):
        alpha, theta, dt = tilt
        cfg = McConfig(phi=BernsteinFunction.tempered(alpha, theta), n_paths=600, dt=dt,
                       t_max=1.0, seed=11)
        ref = np.array([_full_batch_tempered(alpha, theta, dt, _keyed(cfg.seed, i))
                        for i in range(cfg.n_paths)])
        redrawn = []
        scalar = mc.sample_tempered_increment

        def spy(*args, **kwargs):
            redrawn.append(args)
            return scalar(*args, **kwargs)

        monkeypatch.setattr(mc, "sample_tempered_increment", spy)
        got = mc._first_tempered_increments(cfg, _path_streams(cfg.seed, cfg.n_paths))
        assert got.tobytes() == ref.tobytes()
        if theta > 1e3:
            assert redrawn  # rows whose first batch accepts nothing
        lams = [0.5, 1.0, 2.0]
        rows = laplace_exponent_check(cfg, lams)
        assert [row["empirical"] for row in rows] == [
            float(np.mean(np.exp(-lam * ref))) for lam in lams
        ]

    @pytest.mark.parametrize("tilt, targets", [
        ((0.5, 1.0, 1e-3), (3.0, 0.5, 1.0)),  # about three blocks per path
        ((0.5, 1e4, 0.01), (0.05, 0.2, 0.1)),  # rate exp(-1), two blocks
    ])
    def test_inverse_values_match_per_path_loop(self, tilt, targets):
        alpha, theta, dt = tilt
        cfg = McConfig(phi=BernsteinFunction.tempered(alpha, theta), n_paths=100, dt=dt,
                       t_max=max(targets + (1.0,)), seed=4)
        ref = np.empty((cfg.n_paths, len(targets)))
        blocks = 0
        for i in range(cfg.n_paths):
            rng = _keyed(cfg.seed, i)
            chunks, total = [], 0.0
            while total <= max(targets):
                chunks.append(_full_batch_tempered(alpha, theta, dt, rng, size=mc._BLOCK))
                total += float(chunks[-1].sum())
            blocks += len(chunks)
            ref[i] = inverse_passage(np.concatenate(chunks), np.array(targets), dt)
        assert blocks >= 2 * cfg.n_paths
        assert sample_inverse_values(cfg, targets).tobytes() == ref.tobytes()

    def test_laplace_exponent_check_memory(self, tempered_half):
        cfg = McConfig(phi=tempered_half, n_paths=5000, dt=1e-3, t_max=1.0, seed=0)
        tracemalloc.start()
        try:
            laplace_exponent_check(cfg, [0.5, 1.0, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestInversePassage:
    def test_zero_level_first_step(self):
        inc = np.array([0.3, 0.5, 0.9])
        assert inverse_passage(inc, 0.0, dt=0.1) == pytest.approx(0.1)

    def test_passage_index(self):
        inc = np.array([0.3, 0.5, 0.9])  # cum: 0.3, 0.8, 1.7
        assert inverse_passage(inc, 0.7, dt=0.1) == pytest.approx(0.2)
        assert inverse_passage(inc, 1.0, dt=0.1) == pytest.approx(0.3)

    def test_exhausted_path(self):
        with pytest.raises(PathExhaustedError):
            inverse_passage(np.array([0.1, 0.1]), 5.0, dt=0.1)

    def test_array_of_levels_in_any_order(self):
        inc = np.array([0.3, 0.5, 0.9])  # cum: 0.3, 0.8, 1.7
        got = inverse_passage(inc, [1.0, 0.0, 0.7], dt=0.1)
        assert got == pytest.approx([0.3, 0.1, 0.2])
        with pytest.raises(PathExhaustedError, match="t=5"):
            inverse_passage(inc, [0.0, 5.0], dt=0.1)

    def test_monotone_along_shared_paths(self, inverse_samples):
        assert np.all(np.diff(inverse_samples, axis=1) >= 0)

    def test_shuffled_targets_permute_the_columns(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=200, dt=1e-3, t_max=1.0, seed=3)
        targets = [0.25, 0.5, 1.0, 0.0]
        base = sample_inverse_values(cfg, targets)
        perm = [2, 0, 3, 1]
        shuffled = sample_inverse_values(cfg, [targets[k] for k in perm])
        assert np.array_equal(shuffled, base[:, perm])


class TestExactStableMarginals:
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_moments_exact_at_every_target(self, alpha):
        # E[L(t)^k]/k! = t^(k alpha) / Gamma(1 + k alpha), with no dt allowance
        cfg = McConfig(
            phi=BernsteinFunction.stable(alpha), n_paths=20000, dt=1e-3, t_max=1.0, seed=17
        )
        targets = [0.25, 0.5, 1.0]
        L = sample_inverse_values(cfg, targets)
        for j, t in enumerate(targets):
            for k in (1, 2):
                vals = L[:, j] ** k / math.factorial(k)
                se = vals.std(ddof=1) / math.sqrt(cfg.n_paths)
                exact = t ** (k * alpha) / math.gamma(1.0 + k * alpha)
                assert abs(vals.mean() - exact) <= 4 * se, (t, k)

    def test_first_passage_over_stable_paths_agrees(self, stable_half):
        # first passage, the tempered reading, over stable increments: above
        # the exact marginals by at most its dt allowance
        cfg = McConfig(phi=stable_half, n_paths=1000, dt=2e-3, t_max=1.0, seed=23)
        targets = [0.25, 0.5, 1.0]
        exact = sample_inverse_values(cfg, targets)
        passage = np.empty_like(exact)
        for i, rng in enumerate(_path_streams(cfg.seed + 1, cfg.n_paths)):
            inc = sample_stable_increment(0.5, cfg.dt, rng, size=4096)
            passage[i] = inverse_passage(inc, targets, cfg.dt)
        mean_exact = exact.mean(axis=0)
        for k, allowance in ((1, cfg.dt * np.ones(3)), (2, cfg.dt * mean_exact + 0.5 * cfg.dt ** 2)):
            a, b = passage ** k / math.factorial(k), exact ** k / math.factorial(k)
            se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / cfg.n_paths)
            gap = a.mean(axis=0) - b.mean(axis=0)
            assert np.all(gap >= -4 * se) and np.all(gap <= 4 * se + allowance), k

    def test_tempered_step_cap_names_the_path(self, tempered_half, monkeypatch):
        monkeypatch.setattr(mc, "_MAX_STEPS_PER_PATH", 2048)
        cfg = McConfig(phi=tempered_half, n_paths=100, dt=1e-3, t_max=1.0, seed=4)
        first = next(
            i
            for i, rng in enumerate(_path_streams(cfg.seed, cfg.n_paths))
            if sample_tempered_increment(0.5, 1.0, cfg.dt, rng, size=2048).sum() <= 1.0
        )
        with pytest.raises(PathExhaustedError, match=rf"path {first} exceeded 2048 steps"):
            sample_inverse_values(cfg, [1.0])


class TestEstimates:
    def test_potential_estimate(self, stable_cfg, inverse_samples):
        L = inverse_samples[:, 2]
        se = L.std(ddof=1) / math.sqrt(len(L))
        assert abs(L.mean() - INV_GAMMA_1_5) <= 3 * se + stable_cfg.dt

    def test_potential_via_api(self, stable_cfg):
        est = estimate_potential_mc(stable_cfg, 1.0)
        assert abs(est.value - INV_GAMMA_1_5) <= 3 * est.std_error + stable_cfg.dt
        assert est.n_effective == stable_cfg.n_paths

    def test_phi_exp_zero_eigenvalue(self, stable_cfg):
        est = estimate_phi_exp_mc(stable_cfg, 0.0, 1.0)
        assert est.value == 1.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_phi_exp_against_oracle(self, stable_cfg, lam):
        est = estimate_phi_exp_mc(stable_cfg, lam, 1.0)
        bias = abs(lam) * stable_cfg.dt * ML_ORACLE[(0.5, lam)] * 3.0
        assert abs(est.value - ML_ORACLE[(0.5, lam)]) <= 3 * est.std_error + bias

    def test_moments_match_power_law(self, stable_cfg):
        ests = estimate_moments(stable_cfg, 1.0, 2)
        assert ests[0].value == 1.0 and ests[0].std_error == 0.0
        # E[L^k]/k! = t^(k alpha) / Gamma(k alpha + 1)
        assert abs(ests[1].value - INV_GAMMA_1_5) <= 3 * ests[1].std_error + 2e-3
        assert abs(ests[2].value - 1.0) <= 3 * ests[2].std_error + 4e-3

    def test_moment_order_validation(self, stable_cfg):
        with pytest.raises(ValueError):
            estimate_moments(stable_cfg, 1.0, 7)

    def test_heavy_tail_warning(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=400, dt=5e-3, t_max=1.0, seed=11)
        with pytest.warns(ConditioningWarning):
            estimate_phi_exp_mc(cfg, 5.0, 1.0)

    def test_phi_exp_overflow_is_numerical_error(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=200, dt=1e-3, t_max=1.0, seed=42)
        with pytest.raises(NumericalError, match="overflowed"):
            estimate_phi_exp_mc(cfg, 2000.0, 1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_phi_exp_non_finite_lambda_rejected(self, stable_cfg, lam):
        with pytest.raises(ValueError, match="finite"):
            estimate_phi_exp_mc(stable_cfg, lam, 1.0)

    def test_determinism(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=500, dt=2e-3, t_max=0.5, seed=99)
        a = estimate_phi_exp_mc(cfg, -1.0, 0.5)
        _inverse_values.cache_clear()  # compare two fresh draws, not the kept one
        b = estimate_phi_exp_mc(cfg, -1.0, 0.5)
        assert a.value == b.value and a.std_error == b.std_error

    def test_cross_route_against_series(self, stable_cfg, cp_stable_512):
        ests = estimate_moments(stable_cfg, 1.0, 3)
        for k in (1, 2, 3):
            ref = cp_stable_512.u_star[k, -1]
            bias = 2.0 * k * stable_cfg.dt
            assert abs(ests[k].value - ref) <= 3 * ests[k].std_error + bias


class TestSharedDraw:
    @pytest.mark.parametrize("spec", ["stable_half", "tempered_half"])
    def test_hit_equals_a_fresh_draw(self, spec, request, path_streams):
        cfg = McConfig(phi=request.getfixturevalue(spec), n_paths=200, dt=1e-3, t_max=1.0, seed=8)
        sample_inverse_values(cfg, [0.5, 1.0])
        hit = sample_inverse_values(cfg, [0.5, 1.0])
        assert len(path_streams) == 200
        _inverse_values.cache_clear()
        fresh = sample_inverse_values(cfg, [0.5, 1.0])
        assert len(path_streams) == 400
        assert hit.tobytes() == fresh.tobytes()

    def test_writing_to_a_returned_array_changes_no_later_result(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=200, dt=1e-3, t_max=1.0, seed=8)
        first = sample_inverse_values(cfg, [1.0])
        kept = first.copy()
        first[:] = -1.0
        assert np.array_equal(sample_inverse_values(cfg, [1.0]), kept)
        assert estimate_potential_mc(cfg, 1.0).value == float(np.mean(kept[:, 0]))

    @pytest.mark.parametrize(
        "change, targets",
        [
            ({"seed": 9}, [1.0]),
            ({"n_paths": 201}, [1.0]),
            ({"dt": 2e-3}, [1.0]),
            ({"phi": BernsteinFunction.tempered(0.5, 1.0)}, [1.0]),
            ({}, [0.5]),
            ({}, [1.0, 0.5]),
        ],
    )
    def test_another_key_draws_again(self, stable_half, path_streams, change, targets):
        cfg = McConfig(phi=stable_half, n_paths=200, dt=1e-3, t_max=1.0, seed=8)
        sample_inverse_values(cfg, [1.0])
        other = dataclasses.replace(cfg, **change)
        sample_inverse_values(other, targets)
        assert len(path_streams) == 200 + other.n_paths

    def test_one_draw_serves_every_estimate(self, stable_half, path_streams):
        # the c06 sequence: a direct draw, the moments, e(1; -1), e(1; 1)
        # and the tail check, each equal to its answer from a fresh draw
        cfg = McConfig(phi=stable_half, n_paths=200, dt=1e-3, t_max=1.0, seed=2026)
        calls = [
            lambda: sample_inverse_values(cfg, [1.0]),
            lambda: estimate_moments(cfg, 1.0, 2),
            lambda: estimate_phi_exp_mc(cfg, -1.0, 1.0),
            lambda: estimate_phi_exp_mc(cfg, 1.0, 1.0),
            lambda: tail_bound_check(cfg, 1.0, [1.0, 2.0, 3.0], x=4.0),
        ]
        shared = [call() for call in calls]
        assert len(path_streams) == 200
        for call, got in zip(calls, shared):
            _inverse_values.cache_clear()
            fresh = call()
            if isinstance(got, np.ndarray):
                assert got.tobytes() == fresh.tobytes()
            else:
                assert got == fresh
        assert len(path_streams) == 200 * (1 + len(calls))


class TestChecks:
    def test_laplace_exponent_rows(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=30000, dt=1e-3, t_max=1.0, seed=5)
        for row in laplace_exponent_check(cfg, [0.5, 1.0, 2.0, 5.0]):
            assert abs(row["empirical"] - row["target"]) <= 4 * row["std_error"]

    def test_laplace_exponent_std_error_bounds_the_spread(self, stable_half):
        # a few rare large increments carry the whole deviation from 1, so
        # the sample standard error of exp(-lam sigma(dt)) understates it
        cfg = McConfig(phi=stable_half, n_paths=5000, dt=1e-3, t_max=1.0, seed=3285388380)
        rows = laplace_exponent_check(cfg, [0.5])
        m = rows[0]["empirical"]
        assert rows[0]["std_error"] == math.sqrt(m * (1.0 - m) / cfg.n_paths)
        assert abs(m - rows[0]["target"]) <= 4 * rows[0]["std_error"]

    @pytest.mark.parametrize("spec", ["stable_half", "tempered_half"])
    def test_laplace_exponent_rejects_negative_lambda(self, spec, request):
        # exp(-lam sigma) leaves [0, 1] for lam < 0, and stable phi(lam) is complex
        cfg = McConfig(phi=request.getfixturevalue(spec), n_paths=100, dt=1e-3, t_max=1.0, seed=0)
        with pytest.raises(ValueError):
            laplace_exponent_check(cfg, [0.5, -1.0])

    def test_tail_bound_never_violated(self, stable_cfg, inverse_samples):
        rows = tail_bound_check(stable_cfg, 1.0, [1.0, 2.0, 3.0], x=4.0)
        for row in rows:
            assert row["empirical"] <= row["bound"] + 1e-12

    def test_tail_bound_needs_positive_x(self, stable_cfg):
        with pytest.raises(ValueError):
            tail_bound_check(stable_cfg, 1.0, [1.0], x=0.0)


class TestConfig:
    def test_validation(self, stable_half, mixture_phi):
        with pytest.raises(ValueError):
            McConfig(phi=stable_half, n_paths=10, dt=1e-3, t_max=1.0, seed=0)
        with pytest.raises(ValueError):
            McConfig(phi=stable_half, n_paths=1000, dt=0.5, t_max=1.0, seed=0)
        with pytest.raises(ValueError):
            McConfig(phi=mixture_phi, n_paths=1000, dt=1e-3, t_max=1.0, seed=0)
        for field, bad in [
            ("seed", 7.9),
            ("seed", math.nan),
            ("seed", 7.0),
            ("n_paths", 150.5),
            ("n_paths", math.inf),
        ]:
            with pytest.raises(ValueError, match=field):
                McConfig(phi=stable_half, dt=1e-3, t_max=1.0, **{"n_paths": 1000, field: bad})
        cfg = McConfig(phi=stable_half, n_paths=np.int64(150), dt=1e-3, t_max=1.0, seed=np.uint32(7))
        assert sample_inverse_values(cfg, [1.0]).shape == (150, 1)

    def test_targets_validated(self, stable_cfg):
        with pytest.raises(ValueError):
            sample_inverse_values(stable_cfg, [2.0])  # beyond t_max
        with pytest.raises(ValueError):
            sample_inverse_values(stable_cfg, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_target_outside_the_range_is_named(self, stable_cfg, bad):
        with pytest.raises(ValueError, match=f"target {bad}"):
            sample_inverse_values(stable_cfg, [0.5, bad])

    def test_path_streams_match_fresh_keyed_generators(self):
        # a re-keyed stream restarts at key [seed, i], whatever its
        # predecessor drew, half-used 32-bit words included
        seed = 7
        skips = np.random.default_rng(0).integers(0, 300, size=(50, 2))
        for i, rng in enumerate(_path_streams(seed, 50)):
            fresh = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            assert rng.random(64).tobytes() == fresh.random(64).tobytes()
            rng.random(skips[i, 0])
            rng.random(2 * skips[i, 1] + 1, dtype=np.float32)
