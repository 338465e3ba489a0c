import logging
import math
import re
import types
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from oracles import (
    assert_round_equal,
    exchangeable_dense,
    round_params,
    round_stack,
    symmetric_basis,
)

from fedgames.config import SYMMETRY_RTOL, check_symmetry
from fedgames.diagnostics import ConvergenceScenario, coefficient_gaps
from fedgames.errors import FedGamesError, SolveError
from fedgames.model import (
    GameParams,
    IidEntryLatents,
    TargetSeries,
    estimate_moments,
    exact_moments_deterministic,
)
from fedgames.nash_full import full_action, full_backward_pass
from fedgames.nash_meanfield import decentralized_backward_pass, limit_coeffs
from fedgames.nash_reduced import (
    LimitScaledPass,
    block_inverse,
    exchangeable_form,
    exchangeable_map,
    game_units,
    reduced_action,
    reduced_backward_pass,
    structured_pass,
)


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


def blocks_of(dense, N, p, q):
    """(a, b, c, d, e) read off an exchangeable dense matrix of p x q blocks;
    e is zero for N = 2, which has no off-diagonal tail block."""
    e = dense[p : 2 * p, 2 * q : 3 * q] if N >= 3 else np.zeros((p, q))
    return (
        dense[:p, :q],
        dense[:p, q : 2 * q],
        dense[p : 2 * p, :q],
        dense[p : 2 * p, q : 2 * q],
        e,
    )


def uniform_embedding(N, p):
    """(u; v) -> (u; v; ...; v): the (own, mean of others) coordinates of
    the uniform states, as a dense N p x 2 p matrix."""
    out = np.zeros((N * p, 2 * p))
    out[:p, :p] = np.eye(p)
    out[p:, p:] = np.kron(np.ones((N - 1, 1)), np.eye(p))
    return out


def map_dense(N, a, b, c, d, e):
    # a map's blocks in limit scaling: its off-agent blocks are O(1/N)
    return exchangeable_dense(N, a, b / N, c / N, d, e / N)


def form_dense(N, a, b, c, d, e):
    # a form's blocks in limit scaling: Pi2 = B / N, Pi3 = Lam3 / N^2, ...
    return exchangeable_dense(N, a, b / N, c / N, d / N**2, e / N**2)


class TestSymmetricCoordinates:
    """On the uniform states (u; v; ...; v) = U (u; v) an exchangeable map
    X acts as X U = U map and a form as U'XU = form, with map and form the
    2 x 2 images ``exchangeable_map`` and ``exchangeable_form`` of its
    limit-scaled blocks; on the orthogonal complement (Helmert directions
    of ``symmetric_basis``) both act as their tails. The structured pass
    updates its blocks on these images and tails alone."""

    @pytest.mark.parametrize("N", range(2, 8))
    def test_basis_block_diagonalizes(self, N):
        rng = np.random.default_rng(40 + N)
        eps = 1 / N
        for p, q in ((1, 1), (2, 3), (3, 2)):
            blocks = rng.standard_normal((5, p, q))
            d, e = blocks[3], blocks[4]
            x_map = map_dense(N, *blocks)
            got = x_map @ uniform_embedding(N, q)
            want = uniform_embedding(N, p) @ exchangeable_map(eps, *blocks)
            np.testing.assert_allclose(got, want, atol=1e-13)
            u_p, u_q = symmetric_basis(N, p), symmetric_basis(N, q)
            np.testing.assert_allclose(u_p.T @ u_p, np.eye(N * p), atol=1e-14)
            rotated = u_p.T @ x_map @ u_q
            # the uniform and the zero-sum directions do not mix
            np.testing.assert_allclose(rotated[: 2 * p, 2 * q :], 0.0, atol=1e-13)
            np.testing.assert_allclose(rotated[2 * p :, : 2 * q], 0.0, atol=1e-13)
            np.testing.assert_allclose(
                rotated[2 * p :, 2 * q :], np.kron(np.eye(N - 2), d - eps * e), atol=1e-13
            )
            if p == q:
                x_form = form_dense(N, *blocks)
                u_n = uniform_embedding(N, p)
                np.testing.assert_allclose(u_n.T @ x_form @ u_n, exchangeable_form(eps, *blocks), atol=1e-13)
                np.testing.assert_allclose(
                    (u_p.T @ x_form @ u_p)[2 * p :, 2 * p :],
                    np.kron(np.eye(N - 2), (d - e) / N**2),
                    atol=1e-13,
                )

    @pytest.mark.parametrize("N", range(2, 8))
    def test_products_and_transposes(self, N):
        # the value update's congruence G'PG on dense matrices: its blocks,
        # read back in limit scaling, have the image map' form map and the
        # tail (g1 - eps g2)' (d - e) (g1 - eps g2), as the pass reads them
        rng = np.random.default_rng(50 + N)
        eps, p, q = 1 / N, 2, 3
        gb, pb = rng.standard_normal((5, p, q)), rng.standard_normal((5, p, p))
        pb = (pb + pb.transpose(0, 2, 1)) / 2
        prod = map_dense(N, *gb).T @ form_dense(N, *pb) @ map_dense(N, *gb)
        a, b, c, d, e = blocks_of(prod, N, q, q)
        scaled = (a, N * b, N * c, N**2 * d, N**2 * e)
        want = exchangeable_map(eps, *gb).T @ exchangeable_form(eps, *pb) @ exchangeable_map(eps, *gb)
        if N >= 3:
            np.testing.assert_allclose(exchangeable_form(eps, *scaled), want, atol=1e-12)
            g_til = gb[3] - eps * gb[4]
            np.testing.assert_allclose(scaled[3] - scaled[4], g_til.T @ (pb[3] - pb[4]) @ g_til, atol=1e-11)
        else:
            # N = 2 has no tail: the mean block is the one other agent's
            np.testing.assert_allclose(exchangeable_form(eps, *scaled[:4], 0.0), want, atol=1e-12)
        # transposes: a non-symmetric form's transpose has the transposed image
        xb = rng.standard_normal((5, p, p))
        tb = blocks_of(form_dense(N, *xb).T, N, p, p)
        t_scaled = (tb[0], N * tb[1], N * tb[2], N**2 * tb[3], N**2 * tb[4] if N >= 3 else xb[4].T)
        np.testing.assert_allclose(exchangeable_form(eps, *t_scaled), exchangeable_form(eps, *xb).T, atol=1e-12)

    @pytest.mark.parametrize("N", range(2, 8))
    def test_uniform_column(self, N):
        # a uniform linear form (u; v; ...; v) -> U'(u; v; ...) = (u; q N v):
        # the pass's forcing column (chi1; q chi2) with chi2 = N Xi2
        rng = np.random.default_rng(60 + N)
        u, v = rng.standard_normal((2, 3, 1))
        got = uniform_embedding(N, 3).T @ np.concatenate([u] + [v] * (N - 1))
        np.testing.assert_allclose(got, np.concatenate([u, (1 - 1 / N) * (N * v)]), atol=1e-13)


class TestBlockInverse:
    """``block_inverse(F, K, eps)`` inverts the N-block matrix with F on the
    diagonal and K/N off it; its inverse has M on the diagonal and E/N off."""

    def test_scalar_n2(self):
        # F = 2, K/N = 1: the inverse of [[2, 1], [1, 2]]
        M, E, _ = block_inverse(np.array([[2.0]]), np.array([[2.0]]), 1 / 2)
        assert M[0, 0] == pytest.approx(2 / 3)
        assert E[0, 0] / 2 == pytest.approx(-1 / 3)

    def test_scalar_n3(self):
        M, E, _ = block_inverse(np.array([[2.0]]), np.array([[3.0]]), 1 / 3)
        assert M[0, 0] == pytest.approx(3 / 4)
        assert E[0, 0] / 3 == pytest.approx(-1 / 4)

    def test_zero_coupling(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        for eps in (1 / 5, 0.0):
            M, E, _ = block_inverse(F, np.zeros((3, 3)), eps)
            np.testing.assert_allclose(M, np.linalg.inv(F), atol=1e-12)
            np.testing.assert_allclose(E, 0.0, atol=1e-14)

    @pytest.mark.parametrize("N", [2, 3, 6])
    def test_identities_random(self, N):
        rng = np.random.default_rng(N)
        d = 2
        F = rng.standard_normal((d, d)) + 4 * np.eye(d)
        K = 0.3 * N * rng.standard_normal((d, d))
        M, E, core = block_inverse(F, K, 1 / N)
        dense = np.linalg.inv(exchangeable_dense(N, F, K / N, K / N, F, K / N))
        np.testing.assert_allclose(M, dense[:d, :d], atol=1e-12)
        np.testing.assert_allclose(E / N, dense[:d, d : 2 * d], atol=1e-12)
        np.testing.assert_allclose(core, F + (N - 2) * K / N - (N - 1) * K @ np.linalg.solve(F, K) / N**2, atol=1e-12)
        # the limit N -> oo: F M = I and K M + (F + K) E = 0
        M, E, core = block_inverse(F, K, 0.0)
        np.testing.assert_allclose(F @ M, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(K @ M + (F + K) @ E, 0.0, atol=1e-12)
        np.testing.assert_array_equal(core, F + K)

    def test_singular_raises(self):
        with pytest.raises(SolveError):
            block_inverse(np.array([[1.0]]), np.array([[2.0]]), 1 / 2)  # F - K/N singular


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
    # the structured pass reads Pi2 and Xi2 back through a division by
    # q = 1 - 1/N and one by N, Pi3 and Pi4 through two by q and one by N^2
    y1, y2, y3 = slice(0, d_y), slice(d_y, 2 * d_y), slice(2 * d_y, 3 * d_y)
    for t in range(T + 1):
        p1, s1 = full.P[0, t], full.S[0, t]
        np.testing.assert_allclose(red.Pi1[t], p1[y1, y1], atol=1e-8)
        np.testing.assert_allclose(red.Pi2[t], p1[y1, y2], atol=1e-8)
        np.testing.assert_allclose(red.Pi3[t], p1[y2, y2], atol=1e-8)
        if N >= 3:
            np.testing.assert_allclose(red.Pi4[t], p1[y2, y3], atol=1e-8)
        np.testing.assert_allclose(red.Xi1[t], s1[y1], atol=1e-8)
        np.testing.assert_allclose(red.Xi2[t], s1[y2], atol=1e-8)
    assert red.max_asymmetry <= 1e-9


class SkewedPi3Moments:
    """Closed-form moments whose weighted moment gains the skew matrix
    ``skew`` on the Pi3 weight only. The reduced pass reads weighted_m2
    twice per step, for the Pi1 weight (in F) and then for the Pi3 weight
    (in Q3)."""

    def __init__(self, base, skew):
        self.base, self.skew, self.calls = base, skew, 0
        self.m1, self.m2, self.horizon = base.m1, base.m2, base.horizon

    def weighted_m2(self, t, w):
        self.calls += 1
        out = self.base.weighted_m2(t, w)
        return out + self.skew if self.calls % 2 == 0 else out


def test_max_asymmetry_reads_every_block():
    # with kappa_bar 0 and theta_bar 0 the off-agent gain G2 is zero, so a
    # skew S in Q3 reaches only the Pi3 block: its update picks up
    # g1' S g1, whose asymmetry is 2 g1' S g1, while Pi1 stays symmetric.
    # The pass weighs the moments with Lam3 = N^2 Pi3, so S reaches Pi3
    # divided by N^2
    rng = np.random.default_rng(40)
    T, d_y, d_z = 4, 2, 2
    params = replace(round_params(rng, 3, d_y, d_z, T), kappa_bar=0.0, theta_bar=0.0)
    base = IidEntryLatents(mean=rng.standard_normal((T, d_y, d_z)), half_width=0.5).exact_moments()
    skew = np.array([[0.0, 0.3], [-0.3, 0.0]])
    moments = SkewedPi3Moments(base, skew)
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    red = reduced_backward_pass(params, moments, targets)
    assert moments.calls == 2 * T
    assert np.all(red.G2N == 0.0)
    want = max(float(np.max(np.abs(2 * g.T @ skew @ g))) for g in red.G1N)
    assert want > 1e-3
    assert red.max_asymmetry == pytest.approx(want / params.population_N**2, rel=1e-9)


def test_population_stack_warns_as_its_lone_passes(caplog):
    # the skewed Pi3 weight leaves every entry's blocks asymmetric far
    # above rounding: the stack of (3, 5) and the limit warns once in Pi
    # units, as the lone pass at its worst N does, and once in Lambda
    # units, as the lone decentralized pass does
    rng = np.random.default_rng(40)
    T, d_y, d_z = 4, 2, 2
    params = replace(round_params(rng, 3, d_y, d_z, T), kappa_bar=0.0, theta_bar=0.0)
    base = IidEntryLatents(mean=rng.standard_normal((T, d_y, d_z)), half_width=0.5).exact_moments()
    skew = np.array([[0.0, 0.3], [-0.3, 0.0]])
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))

    def warnings(solve):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fedgames.nash_reduced"):
            solve(SkewedPi3Moments(base, skew))
        return [record.getMessage() for record in caplog.records]

    lone = [warnings(lambda m: reduced_backward_pass(replace(params, population_N=n), m, targets)) for n in (3, 5)]
    limit = warnings(lambda m: decentralized_backward_pass(params, m, targets))
    stack = warnings(lambda m: coefficient_gaps(params, m, targets, (3, 5)))
    assert [len(w) for w in (*lone, limit)] == [1, 1, 1]
    assert stack[0].startswith("Pi asymmetry") and stack[0] in (lone[0][0], lone[1][0])
    assert limit[0].startswith("Lambda asymmetry") and stack[1:] == limit


def test_check_symmetry_judges_each_entry_on_its_own_iterates(caplog):
    # entry 0: asymmetry 1e-6 on entries of 1e6 is rounding; entry 1: the
    # same asymmetry on entries of 1 is not, and the warning names it
    iterates = np.zeros((4, 3, 2, 2, 2))
    iterates[:, :, 0] = 1e6
    iterates[:, :, 1] = 1.0
    with caplog.at_level(logging.WARNING):
        check_symmetry(logging.getLogger("test"), "Pi", np.array([1e-6, 0.0]), iterates)
        assert not caplog.records
        check_symmetry(logging.getLogger("test"), "Pi", np.array([1e-6, 1e-6]), iterates)
    [record] = caplog.records
    assert record.getMessage() == (
        f"Pi asymmetry 1.000e-06 exceeds {SYMMETRY_RTOL:.1e} of the largest entry 1.000e+00"
    )


def test_lost_digits_still_warn(caplog):
    # a one-sample bank (m2 of rank 1 with d_z 2), theta of spectral radius
    # 1e18 and kappa_bar 800: Pi reaches ~1e137 and its asymmetry is of
    # the same order, so the pass has lost its digits and says so
    rng = np.random.default_rng(3)
    T, d_y, d_z = 6, 2, 2
    theta = rng.standard_normal((d_y, d_y))
    theta[0, 1] += 2.0
    theta_bar = 0.3 * rng.standard_normal((d_y, d_y))
    scale = 1e18 / max(abs(np.linalg.eigvals(theta + theta_bar)))
    params = GameParams(
        theta=scale * theta,
        theta_bar=scale * theta_bar,
        kappa=1.0,
        kappa_bar=800.0,
        gamma=1.0,
        alpha=3.0,
        horizon_T=T,
        population_N=4,
        dim_y=d_y,
        dim_z=d_z,
    )
    moments = estimate_moments(rng.standard_normal((T, 1, d_y, d_z)))
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    with caplog.at_level(logging.WARNING, logger="fedgames.nash_reduced"):
        red = reduced_backward_pass(params, moments, targets)
    largest = max(float(np.max(np.abs(b))) for b in (red.Pi1, red.Pi2, red.Pi3, red.Pi4))
    assert red.max_asymmetry > 1e-3 * largest
    assert "Pi asymmetry" in caplog.text


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
    "N,d_y,d_z,T,rounds,kappa_bar,count",
    [
        pytest.param(4, 1, 4, 4, 1, 0.7, 7, id="4-1-4-4-1-0.7"),
        # N = 2: the e-block is zero
        pytest.param(2, 2, 3, 4, 5, 0.7, 7, id="2-2-3-4-5-0.7"),
        pytest.param(3, 2, 3, 4, 5, 0.7, 7, id="3-2-3-4-5-0.7"),
        pytest.param(1024, 1, 4, 4, 3, 0.7, 7, id="1024-1-4-4-3-0.7"),
        pytest.param(3, 2, 3, 3, 4, 0.0, 7, id="3-2-3-3-4-0.0"),
        # one-sample banks with d_y 2, d_z 1: the shape where an einsum over
        # the round stack summed E[Z'WZ] in another order than one round
        (5, 2, 1, 6, 3, 0.7, 1),
    ],
)
def test_round_batched_pass_matches_each_round(N, d_y, d_z, T, rounds, kappa_bar, count):
    rng = np.random.default_rng(200 + N + rounds)
    params = round_params(rng, N, d_y, d_z, T, kappa_bar)
    (moments, targets), singles = round_stack(rng, params, rounds, count)
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


@pytest.mark.parametrize(
    "solve, name", [(reduced_backward_pass, "reduced"), (decentralized_backward_pass, "decentralized")]
)
def test_overflowing_pass_raises(solve, name):
    # theta 1e12 (d_y 2, d_z 6, T 32): the value-function iterates grow by
    # ~1e24 a step and overflow; the pass raises instead of returning NaN
    rng = np.random.default_rng(80)
    params = replace(round_params(rng, 4, 2, 6, 32), theta=1e12)
    _, [(moments, targets)] = round_stack(rng, params, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolveError, match=rf"^{name} pass produced non-finite coefficients at t=\d+$"):
            solve(params, moments, targets)


@pytest.mark.parametrize(
    "solve, name", [(reduced_backward_pass, "reduced"), (decentralized_backward_pass, "decentralized")]
)
def test_overflow_in_one_round_names_it(solve, name):
    # only round 1's targets are huge, so only its forcing terms overflow;
    # the round stack names round 1 and the step its lone solve names
    T, rounds = 8, 3
    rng = np.random.default_rng(81)
    params = replace(round_params(rng, 4, 2, 3, T), theta=1e3)
    (moments, targets), singles = round_stack(rng, params, rounds)
    values = targets.values.copy()
    values[:, 1] *= 1e290
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolveError) as stacked:
            solve(params, moments, TargetSeries(values=values))
        with pytest.raises(SolveError) as alone:
            solve(params, singles[1][0], TargetSeries(values=values[:, 1]))
    prefix = f"{name} pass produced non-finite coefficients at "
    assert str(alone.value).startswith(prefix + "t=")
    assert str(stacked.value) == prefix + "round 1, " + str(alone.value)[len(prefix) :]
    for r in (0, 2):
        solve(params, *singles[r])


# ---------------------------------------------------------------------------
# Population stacks: one pass over an N grid
# ---------------------------------------------------------------------------

MIXED_GRID = (2, 3, 4, 5, 64, 4096, 2**20, 2**29)


def population_case(rng, d_y, d_z, T, moments_kind):
    """Non-symmetric theta and theta_bar with closed-form (i.i.d.-entry)
    moments or those of a 9-sample or a 1-sample bank, and targets without
    a round axis."""
    params = round_params(rng, 7, d_y, d_z, T)
    if moments_kind == "closed":
        mean = 0.8 + 0.1 * rng.standard_normal((T, d_y, d_z))
        moments = IidEntryLatents(mean=mean, half_width=0.5).exact_moments()
    else:
        count = 9 if moments_kind == "bank" else 1
        moments = estimate_moments(rng.standard_normal((T, count, d_y, d_z)))
    return params, moments, TargetSeries(values=rng.standard_normal((T + 1, d_y)))


def population_pass(params, moments, targets, ns):
    """The population stack of ``diagnostics.coefficient_gaps``: one
    structured pass at eps = 1/N for each N of ``ns`` (inf: the limit),
    a failing entry named N=<n>."""
    eps = 1 / np.array(ns, dtype=float)[:, None, None]
    return structured_pass(params, moments, targets, eps, "reduced", lambda p: f"N={ns[p]}")


def assert_fields_equal(have, want):
    for f in fields(want):
        a, b = getattr(have, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert type(a) is type(b) and a == b, f.name


def assert_stack_equals_singles(params, moments, targets, grid):
    """Entry p of the population stack over the grid and the limit is the
    pass at its N alone, bit for bit on every field; read back in its own
    game's units it is the lone reduced pass at that N (Pi blocks and
    ``max_asymmetry``), or the lone decentralized pass."""
    ns = (*grid, math.inf)
    stack = population_pass(params, moments, targets, ns)
    assert stack.g1.shape == (params.horizon_T, len(ns), params.dim_z, params.dim_y)
    assert stack.asymmetry.shape == (4, len(ns))
    pis, max_asym = game_units(stack, np.array(ns))
    for p, n in enumerate(ns):
        entry = stack.entry(p)
        single = structured_pass(params, moments, targets, 1 / n, "reduced")
        for name, have, want in zip(LimitScaledPass._fields, entry, single):
            np.testing.assert_array_equal(have, want, err_msg=f"{name} at N={n}")
        if math.isinf(n):
            lone = decentralized_backward_pass(params, moments, targets)
            assert_fields_equal(limit_coeffs(params, entry, max_asym[p]), lone)
            continue
        lone = reduced_backward_pass(replace(params, population_N=n), moments, targets)
        assert lone.dims[0] == n
        np.testing.assert_array_equal(pis[:, :, p], np.stack([lone.Pi1, lone.Pi2, lone.Pi3, lone.Pi4]))
        assert float(max_asym[p]) == lone.max_asymmetry


@pytest.mark.parametrize(
    "d_y,d_z,moments_kind",
    [
        *((d_y, d_z, kind) for d_y, d_z in ((1, 1), (2, 3), (2, 6)) for kind in ("closed", "bank")),
        # one sample with d_y 2, d_z 1: the shape where an einsum over the
        # weight stack summed E[Z'WZ] in another order than a lone weight
        (2, 1, "one-sample bank"),
    ],
)
def test_population_stack_matches_each_n(d_y, d_z, moments_kind):
    rng = np.random.default_rng(300 + 10 * d_y + d_z)
    params, moments, targets = population_case(rng, d_y, d_z, 12, moments_kind)
    assert_stack_equals_singles(params, moments, targets, MIXED_GRID)


def test_population_stack_keeps_grid_order_and_repeats():
    # params.population_N is not read; an N may repeat, in any order. At
    # N = 795 and 9594, (1 - 1/N)**2 on a Python float (pow) and on a numpy
    # array (a square) round apart, so the stack must take Python's
    rng = np.random.default_rng(310)
    params, moments, targets = population_case(rng, 2, 3, 6, "closed")
    assert_stack_equals_singles(params, moments, targets, (4096, 2, 795, 4096, 3, 9594))


@pytest.mark.parametrize("grid", [(1, 4), (4, 0), (2, 1), ()])
def test_population_stack_rejects_n_below_two(grid):
    rng = np.random.default_rng(320)
    params, _, targets = population_case(rng, 2, 3, 4, "closed")
    with pytest.raises(ValueError, match="N >= 2"):
        ConvergenceScenario(params=params, targets=targets, latent_mean=np.full((4, 2, 3), 0.8), paths=2, n_grid=grid)


def test_population_stack_rejects_round_stack():
    rng = np.random.default_rng(321)
    params = round_params(rng, 4, 2, 3, 4)
    (moments, targets), _ = round_stack(rng, params, 3)
    with pytest.raises(ValueError, match="without a round axis"):
        population_pass(params, moments, targets, (4, 16, 64, math.inf))


def test_overflowing_population_stack_names_n():
    # theta 1e12 (d_y 2, d_z 6, T 32) overflows every entry of a (4, 16)
    # stack and its limit; the error names the first N in grid order among
    # those non-finite at the first bad t in backward order
    rng = np.random.default_rng(80)
    params = replace(round_params(rng, 4, 2, 6, 32), theta=1e12)
    _, [(moments, targets)] = round_stack(rng, params, 1)
    grid = (4, 16)
    bad_t = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for n in grid:
            with pytest.raises(SolveError) as alone:
                reduced_backward_pass(replace(params, population_N=n), moments, targets)
            bad_t[n] = int(re.search(r"at t=(\d+)$", str(alone.value))[1])
        with pytest.raises(SolveError) as stacked:
            coefficient_gaps(params, moments, targets, grid)
    t = max(bad_t.values())
    named = next(n for n in grid if bad_t[n] == t)
    assert named == 4
    assert str(stacked.value) == f"reduced pass produced non-finite coefficients at N={named}, t={t}"


def test_singular_population_entry_names_n():
    # kappa 1, kappa_bar 4: kappa + kappa_bar (1 - 1/N)^2 is 2 at N = 2 and
    # 25/9 at N = 3, so an M2 of -gamma/2 I at t = T-1 makes F exactly zero
    # for N = 2 only
    T, d_z = 3, 2
    params = replace(round_params(np.random.default_rng(0), 3, 1, d_z, T), kappa=1.0, kappa_bar=4.0)
    m2 = np.tile(np.eye(d_z), (T, 1, 1))
    m2[T - 1] *= -params.gamma / 2
    moments = types.SimpleNamespace(
        m1=np.zeros((T, 1, d_z)),
        m2=m2,
        horizon=T,
        weighted_m2=lambda t, w: np.zeros((*np.shape(w)[:-2], d_z, d_z)),
    )
    targets = TargetSeries(values=np.zeros((T + 1, 1)))
    with pytest.raises(SolveError, match="^reduced pass failed at N=2, t=2: "):
        coefficient_gaps(params, moments, targets, (3, 2, 5))


@st.composite
def harsh_population_case(draw):
    """Valid but harsh parameters: kappa_bar and alpha up to 1e3 and 5,
    d_y = 2 with non-symmetric theta, the spectral radius of theta +
    theta_bar above 1 (at times far above), latent moments from a tiny bank (m2 near singular)
    or in closed form, and an N grid anywhere from 2 to 2^20."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    d_y, d_z = 2, draw(st.integers(min_value=1, max_value=3))
    T = draw(st.integers(min_value=1, max_value=10))
    # just above 1, or up to 1e40, where the value iterates overflow
    exponent = st.floats(min_value=1.0, max_value=40.0)
    rho = draw(st.one_of(st.floats(min_value=1.01, max_value=4.0), exponent.map(lambda x: 10**x)))
    theta = rng.standard_normal((d_y, d_y))
    theta[0, 1] += draw(st.floats(min_value=0.5, max_value=3.0))  # non-symmetric
    theta_bar = 0.3 * rng.standard_normal((d_y, d_y))
    scale = rho / max(abs(np.linalg.eigvals(theta + theta_bar)))
    params = GameParams(
        theta=scale * theta,
        theta_bar=scale * theta_bar,
        kappa=draw(st.floats(min_value=0.0, max_value=10.0)),
        kappa_bar=draw(st.floats(min_value=1.0, max_value=1e3)),
        gamma=draw(st.floats(min_value=1e-3, max_value=2.0)),
        alpha=draw(st.floats(min_value=0.0, max_value=5.0)),
        horizon_T=T,
        population_N=2,
        dim_y=d_y,
        dim_z=d_z,
    )
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=3))
        moments = estimate_moments(rng.standard_normal((T, count, d_y, d_z)))
    else:
        moments = IidEntryLatents(mean=rng.standard_normal((T, d_y, d_z)), half_width=0.5).exact_moments()
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    n = st.one_of(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=2**20))
    grid = tuple(draw(st.lists(n, min_size=1, max_size=5)))
    return params, moments, targets, grid


@settings(max_examples=60, deadline=None)
@given(harsh_population_case())
def test_property_harsh_population_stack(case):
    # every entry is finite or raises SolveError, never NaN; the stack of
    # the grid and the limit equals the per-N passes (the limit's: the
    # decentralized pass) bit for bit, and fails exactly when one of them
    # does, with that N's own error
    params, moments, targets, grid = case
    ns = (*grid, math.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        singles = {}
        for n in ns:
            try:
                singles[n] = structured_pass(params, moments, targets, 1 / n, "reduced")
            except SolveError as exc:
                singles[n] = exc
                continue
            for name, value in zip(LimitScaledPass._fields[:-1], singles[n]):
                assert np.all(np.isfinite(value)), (n, name)
        try:
            stack = population_pass(params, moments, targets, ns)
        except SolveError as exc:
            named = re.search(r" at N=(\d+|inf), ", str(exc))[1]
            named = math.inf if named == "inf" else int(named)
            assert isinstance(singles[named], SolveError)
            assert str(exc).replace(f"N={named}, ", "", 1) == str(singles[named])
            return
    for p, n in enumerate(ns):
        single = singles[n]
        assert not isinstance(single, SolveError), n
        for name, have, want in zip(LimitScaledPass._fields, stack.entry(p), single):
            np.testing.assert_array_equal(have, want, err_msg=f"{name} at N={n}")


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=harsh_population_case())
def test_property_harsh_rounding_logs_nothing(caplog, case):
    # Pi entries far above 1 carry rounding far above the old absolute
    # bound 1e-9; a finite stack whose every entry's asymmetry is below
    # 1e-12 of that entry's largest |Pi| (the limit: |Lambda|) logs no
    # asymmetry warning
    params, moments, targets, grid = case
    ns = (*grid, math.inf)
    caplog.clear()
    with (
        caplog.at_level(logging.WARNING, logger="fedgames.nash_reduced"),
        np.errstate(over="ignore", invalid="ignore", divide="ignore"),
    ):
        try:
            stack = population_pass(params, moments, targets, ns)
        except SolveError:
            return
        pis, max_asymmetry = game_units(stack, np.array(ns))
        relative = max_asymmetry / np.abs(pis).max(axis=(0, 1, 3, 4))
    if np.all(relative < 1e-12):
        assert not caplog.records


@pytest.mark.xfail(
    reason="harsh draws break the contract: finite gains of the full and reduced passes "
    "can differ by up to ~1 of the largest |entry| (see CHANGES.md, FOUND)",
    strict=False,
)
# no shrinking: a failing draw ends the test as its expected failure
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(harsh_population_case(), st.integers(min_value=2, max_value=8))
def test_property_harsh_full_against_reduced(case, N):
    # either both passes raise a typed error, or both give finite gains
    # that agree within 1e-8 of their largest |entry|
    params, moments, targets, _ = case
    params = replace(params, population_N=N)
    d_y, d_z = params.dim_y, params.dim_z
    solved = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for solve in (full_backward_pass, reduced_backward_pass):
            try:
                solved.append(solve(params, moments, targets))
            except FedGamesError:
                solved.append(None)
    full, red = solved
    assert (full is None) == (red is None), (full, red)
    if full is None:
        return
    want = np.concatenate([full.G[:, :d_z, : 2 * d_y].ravel(), full.H[:, :d_z].ravel()])
    have = np.concatenate([np.concatenate([red.G1N, red.G2N], axis=-1).ravel(), red.HN.ravel()])
    assert np.all(np.isfinite(want)) and np.all(np.isfinite(have))
    scale = max(np.abs(want).max(), np.abs(have).max())
    np.testing.assert_allclose(have, want, rtol=0, atol=1e-8 * scale)
