import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_round_equal, round_params, round_stack

from fedgames.errors import SolveError
from fedgames.model import GameParams, TargetSeries, exact_moments_deterministic
from fedgames.nash_full import full_action, full_backward_pass
from fedgames.nash_reduced import block_inverse, reduced_action, reduced_backward_pass


def build_scenario(rng, N, d, T):
    params = GameParams(
        theta=0.8 * np.eye(d) + 0.05 * rng.standard_normal((d, d)),
        theta_bar=0.1 * np.eye(d) + 0.05 * rng.standard_normal((d, d)),
        kappa=1.3,
        kappa_bar=0.7,
        gamma=0.9,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d,
        dim_z=d,
    )
    zs = [rng.standard_normal((d, d)) for _ in range(T)]
    targets = TargetSeries(values=rng.standard_normal((T + 1, d)))
    return params, zs, targets


class TestBlockInverse:
    def test_scalar_n2(self):
        M, E = block_inverse(np.array([[2.0]]), np.array([[1.0]]), 2)
        assert M[0, 0] == pytest.approx(2 / 3)
        assert E[0, 0] == pytest.approx(-1 / 3)

    def test_scalar_n3(self):
        M, E = block_inverse(np.array([[2.0]]), np.array([[1.0]]), 3)
        assert M[0, 0] == pytest.approx(3 / 4)
        assert E[0, 0] == pytest.approx(-1 / 4)

    def test_zero_coupling(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        M, E = block_inverse(F, np.zeros((3, 3)), 5)
        np.testing.assert_allclose(M, np.linalg.inv(F), atol=1e-12)
        np.testing.assert_allclose(E, 0.0, atol=1e-14)

    @pytest.mark.parametrize("N", [2, 3, 6])
    def test_identities_random(self, N):
        rng = np.random.default_rng(N)
        F = rng.standard_normal((2, 2)) + 4 * np.eye(2)
        K = 0.3 * rng.standard_normal((2, 2))
        M, E = block_inverse(F, K, N)
        np.testing.assert_allclose(F @ M + (N - 1) * K @ E, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(K @ M + (F + (N - 2) * K) @ E, 0.0, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SolveError):
            block_inverse(np.array([[1.0]]), np.array([[1.0]]), 2)  # F - K singular


def test_zero_weights_zero_everything():
    rng = np.random.default_rng(1)
    params, zs, targets = build_scenario(rng, 3, 2, 4)
    params = GameParams(
        **{**params.__dict__, "kappa": 0.0, "kappa_bar": 0.0}
    )
    red = reduced_backward_pass(params, exact_moments_deterministic(zs), targets)
    for arr in (red.Pi1, red.Pi2, red.Pi3, red.Pi4, red.Xi1, red.Xi2, red.G1N, red.G2N, red.HN):
        assert np.all(arr == 0.0)


def test_terminal_and_symmetry():
    rng = np.random.default_rng(2)
    params, zs, targets = build_scenario(rng, 4, 2, 5)
    red = reduced_backward_pass(params, exact_moments_deterministic(zs), targets)
    for arr in (red.Pi1, red.Pi2, red.Pi3, red.Pi4):
        assert np.all(arr[-1] == 0.0)
    assert np.all(red.Xi1[-1] == 0.0) and np.all(red.Xi2[-1] == 0.0)
    assert red.max_asymmetry <= 1e-9


def test_terminal_step_drops_pi_terms():
    # with Pi(T) = 0 the t = T-1 scalars carry only the stage weights
    rng = np.random.default_rng(3)
    params, zs, targets = build_scenario(rng, 3, 2, 4)
    moments = exact_moments_deterministic(zs)
    red = reduced_backward_pass(params, moments, targets)
    N, t = params.population_N, params.horizon_T - 1
    disc = params.discount(t)
    M2 = moments.m2[t]
    A2 = moments.m1[t].T @ moments.m1[t]
    f_exp = disc * (
        (params.kappa + params.kappa_bar * (1 - 1 / N) ** 2) * M2
        + params.gamma * np.eye(params.dim_z)
    )
    k_exp = -disc * params.kappa_bar * (1 - 1 / N) / N * A2
    np.testing.assert_allclose(red.FN[t], f_exp, atol=1e-12)
    np.testing.assert_allclose(red.KN[t], k_exp, atol=1e-12)


@pytest.mark.parametrize("N,d,T,seed", [(2, 1, 3, 10), (3, 1, 4, 11), (3, 2, 3, 12), (5, 2, 4, 13)])
def test_blocks_match_full_solver(N, d, T, seed):
    rng = np.random.default_rng(seed)
    params, zs, targets = build_scenario(rng, N, d, T)
    moments = exact_moments_deterministic(zs)
    full = full_backward_pass(params, moments, targets)
    red = reduced_backward_pass(params, moments, targets)
    for t in range(T + 1):
        p1 = full.P[0, t]
        np.testing.assert_allclose(red.Pi1[t], p1[:d, :d], atol=1e-8)
        np.testing.assert_allclose(red.Pi2[t], p1[:d, d : 2 * d], atol=1e-8)
        np.testing.assert_allclose(red.Pi3[t], p1[d : 2 * d, d : 2 * d], atol=1e-8)
        if N >= 3:
            np.testing.assert_allclose(red.Pi4[t], p1[d : 2 * d, 2 * d : 3 * d], atol=1e-8)
        np.testing.assert_allclose(red.Xi1[t], full.S[0, t][:d], atol=1e-8)
        np.testing.assert_allclose(red.Xi2[t], full.S[0, t][d : 2 * d], atol=1e-8)
    for t in range(T):
        np.testing.assert_allclose(red.G1N[t], full.G[t][:d, :d], atol=1e-8)
        np.testing.assert_allclose(red.G2N[t], full.G[t][:d, d : 2 * d], atol=1e-8)
        np.testing.assert_allclose(red.HN[t], full.H[t][:d], atol=1e-8)


@pytest.mark.parametrize("N,d,T,seed", [(3, 1, 4, 20), (2, 2, 3, 21)])
def test_actions_match_full_solver(N, d, T, seed):
    rng = np.random.default_rng(seed)
    params, zs, targets = build_scenario(rng, N, d, T)
    moments = exact_moments_deterministic(zs)
    full = full_backward_pass(params, moments, targets)
    red = reduced_backward_pass(params, moments, targets)
    for t in range(T):
        yhat = rng.standard_normal((N, d))
        stacked = full_action(t, yhat.reshape(-1), full)
        for n in range(N):
            others = yhat.sum(axis=0) - yhat[n]
            mine = reduced_action(t, yhat[n], others, red)
            np.testing.assert_allclose(mine, stacked[n * d : (n + 1) * d], atol=1e-8)


def test_identical_predictions_identical_actions():
    rng = np.random.default_rng(30)
    params, zs, targets = build_scenario(rng, 4, 2, 3)
    red = reduced_backward_pass(params, exact_moments_deterministic(zs), targets)
    y = rng.standard_normal(2)
    a = reduced_action(1, y, 3 * y, red)
    for _ in range(3):
        np.testing.assert_array_equal(a, reduced_action(1, y, 3 * y, red))


def test_block_inverse_identities_along_pass():
    rng = np.random.default_rng(31)
    params, zs, targets = build_scenario(rng, 5, 2, 6)
    red = reduced_backward_pass(params, exact_moments_deterministic(zs), targets)
    N = params.population_N
    eye = np.eye(params.dim_z)
    for t in range(params.horizon_T):
        F, K, M, E = red.FN[t], red.KN[t], red.MN[t], red.EN[t]
        np.testing.assert_allclose(F @ M + (N - 1) * K @ E, eye, atol=1e-10)
        np.testing.assert_allclose(K @ M + (F + (N - 2) * K) @ E, 0.0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_blocks_match_full_solver(N, d_y, d_z, T, seed):
    rng = np.random.default_rng(seed)
    params = GameParams(
        theta=0.7 * np.eye(d_y) + 0.1 * rng.standard_normal((d_y, d_y)),
        theta_bar=0.1 * np.eye(d_y) + 0.1 * rng.standard_normal((d_y, d_y)),
        kappa=float(rng.uniform(0, 2)),
        kappa_bar=float(rng.uniform(0, 2)),
        gamma=float(rng.uniform(0.2, 2)),
        alpha=float(rng.uniform(0, 0.3)),
        horizon_T=T,
        population_N=N,
        dim_y=d_y,
        dim_z=d_z,
    )
    zs = [rng.standard_normal((d_y, d_z)) for _ in range(T)]
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    moments = exact_moments_deterministic(zs)
    full = full_backward_pass(params, moments, targets)
    red = reduced_backward_pass(params, moments, targets)
    for t in range(T):
        np.testing.assert_allclose(red.G1N[t], full.G[t][:d_z, :d_y], atol=1e-8)
        np.testing.assert_allclose(
            red.G2N[t], full.G[t][:d_z, d_y : 2 * d_y], atol=1e-8
        )
        np.testing.assert_allclose(red.HN[t], full.H[t][:d_z], atol=1e-8)
    for t in range(T + 1):
        np.testing.assert_allclose(red.Pi1[t], full.P[0, t][:d_y, :d_y], atol=1e-8)
        np.testing.assert_allclose(red.Xi1[t], full.S[0, t][:d_y], atol=1e-8)


def test_pi3_pi4_gap_diagnostic():
    rng = np.random.default_rng(34)
    params, zs, targets = build_scenario(rng, 4, 1, 4)
    red = reduced_backward_pass(params, exact_moments_deterministic(zs), targets)
    gap = red.pi3_pi4_gap()
    assert gap.shape == (5,)
    assert gap[-1] == 0.0  # both terminal blocks are zero
    assert np.all(np.isfinite(gap))


def test_n1_routes_to_full():
    rng = np.random.default_rng(32)
    params, zs, targets = build_scenario(rng, 1, 1, 2)
    with pytest.raises(ValueError):
        reduced_backward_pass(params, exact_moments_deterministic(zs), targets)


def test_coefficient_shapes_independent_of_n():
    # same wall-clock order for N = 8 and N = 512: verify by shape and a
    # coarse timing ratio rather than absolute time
    import time

    rng = np.random.default_rng(33)
    times = {}
    for N in (8, 512):
        params, zs, targets = build_scenario(rng, N, 2, 10)
        moments = exact_moments_deterministic(zs)
        start = time.perf_counter()
        red = reduced_backward_pass(params, moments, targets)
        times[N] = time.perf_counter() - start
        assert red.Pi1.shape == (11, 2, 2)
    assert times[512] < 50 * max(times[8], 1e-4)


@pytest.mark.parametrize(
    "N,d_y,d_z,T,rounds,kappa_bar",
    [
        (4, 1, 4, 4, 1, 0.7),
        (2, 2, 3, 4, 5, 0.7),  # N = 2: the e-block is zero
        (3, 2, 3, 4, 5, 0.7),
        (1024, 1, 4, 4, 3, 0.7),
        (3, 2, 3, 3, 4, 0.0),
    ],
)
def test_round_batched_pass_matches_each_round(N, d_y, d_z, T, rounds, kappa_bar):
    rng = np.random.default_rng(200 + N + rounds)
    params = round_params(rng, N, d_y, d_z, T, kappa_bar)
    (moments, targets), singles = round_stack(rng, params, rounds)
    batched = reduced_backward_pass(params, moments, targets)
    assert batched.G1N.shape == (T, rounds, d_z, d_y)
    assert batched.max_asymmetry.shape == (rounds,)
    assert batched.pi3_pi4_gap().shape == (T + 1, rounds)
    for r, (mom_r, tgt_r) in enumerate(singles):
        assert_round_equal(batched, r, reduced_backward_pass(params, mom_r, tgt_r))


def test_round_batched_failure_names_round():
    # round 1's M2 cancels gamma at t = T-1 (kappa + kappa_bar / 4 = 2, so
    # exactly), and its F is singular there
    T, R, d_z, N = 3, 3, 2, 2
    params = replace(round_params(np.random.default_rng(0), N, 1, d_z, T), kappa=1.0, kappa_bar=4.0)
    m2 = np.tile(np.eye(d_z), (T, R, 1, 1))
    m2[T - 1, 1] *= -params.gamma / 2
    moments = types.SimpleNamespace(
        m1=np.zeros((T, R, 1, d_z)),
        m2=m2,
        horizon=T,
        weighted_m2=lambda t, w: np.zeros((R, d_z, d_z)),
    )
    targets = TargetSeries(values=np.zeros((T + 1, R, 1)))
    with pytest.raises(SolveError, match="round 1, t=2"):
        reduced_backward_pass(params, moments, targets)
