import types
from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import assert_round_equal, reference_decentralized_pass, round_params, round_stack

from fedgames.errors import SolveError

from fedgames.model import GameParams, IidEntryLatents, TargetSeries, exact_moments_deterministic
from fedgames.diagnostics import coefficient_gaps
from fedgames.nash_meanfield import decentralized_action, decentralized_backward_pass, meanfield_forward
from fedgames.nash_reduced import reduced_backward_pass


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


def test_scalar_one_step_hand_values():
    params = GameParams(
        theta=1.0,
        theta_bar=0.0,
        kappa=1.0,
        kappa_bar=0.0,
        gamma=1.0,
        alpha=0.0,
        horizon_T=1,
        population_N=10,
        dim_y=1,
        dim_z=1,
    )
    y1 = 0.4
    targets = TargetSeries(values=np.array([[0.0], [y1]]))
    moments = exact_moments_deterministic([np.array([[1.0]])])
    dec = decentralized_backward_pass(params, moments, targets)
    assert dec.F[0][0, 0] == pytest.approx(2.0)
    assert dec.K[0][0, 0] == pytest.approx(0.0)
    assert dec.M[0][0, 0] == pytest.approx(0.5)
    assert dec.E[0][0, 0] == pytest.approx(0.0)
    assert dec.G1[0][0, 0] == pytest.approx(-0.5)
    assert dec.G2[0][0, 0] == pytest.approx(0.0)
    assert dec.H[0][0] == pytest.approx(y1 / 2)
    # action at own = ybar = 0: beta = y1 / 2; spec case y1 = 1 -> 0.5
    assert decentralized_action(0, [0.0], [0.0], dec)[0] == pytest.approx(y1 / 2)
    # one-step mean field: Ybar_1 = (1 - 1/2) * 0 + y1 / 2
    ybar = meanfield_forward(dec, moments, np.array([0.0]))
    assert ybar[1, 0] == pytest.approx(y1 / 2)


def test_zero_weights_zero_policy():
    rng = np.random.default_rng(0)
    params, zs, targets = build_scenario(rng, 8, 2, 4)
    params = GameParams(**{**params.__dict__, "kappa": 0.0, "kappa_bar": 0.0})
    dec = decentralized_backward_pass(params, exact_moments_deterministic(zs), targets)
    for arr in (dec.G1, dec.G2, dec.H, dec.L1, dec.L2, dec.L3, dec.L4, dec.chi1, dec.chi2):
        assert np.all(arr == 0.0)


@pytest.mark.parametrize("d,T,seed", [(1, 4, 1), (2, 3, 2), (2, 5, 3)])
def test_limit_agrees_with_huge_n_reduced(d, T, seed):
    # The rescaled reduced blocks converge to the limit blocks at O(1/N);
    # at N = 1e6 any wrong term of O(1) magnitude would dominate.
    rng = np.random.default_rng(seed)
    params, zs, targets = build_scenario(rng, 1_000_000, d, T)
    moments = exact_moments_deterministic(zs)
    red = reduced_backward_pass(params, moments, targets)
    dec = decentralized_backward_pass(params, moments, targets)
    N = params.population_N
    np.testing.assert_allclose(red.Pi1, dec.L1, atol=2e-4)
    np.testing.assert_allclose(N * red.Pi2, dec.L2, atol=2e-4)
    np.testing.assert_allclose(N**2 * red.Pi3, dec.L3, atol=2e-4)
    np.testing.assert_allclose(N**2 * red.Pi4, dec.L4, atol=2e-4)
    np.testing.assert_allclose(red.Xi1, dec.chi1, atol=2e-4)
    np.testing.assert_allclose(N * red.Xi2, dec.chi2, atol=2e-4)
    np.testing.assert_allclose(red.G1N, dec.G1, atol=2e-4)
    np.testing.assert_allclose(1_000_000 * red.G2N, dec.G2, atol=2e-4)
    np.testing.assert_allclose(red.HN, dec.H, atol=2e-4)


def assert_matches_reference(dec, ref):
    """Every array field of the eps = 0 pass equals the reference limit
    recursion's at rtol 1e-12, with atol 1e-14 of the array's largest
    |entry|; ``dims`` is equal and ``max_asymmetry`` has its shape."""
    for f in fields(ref):
        want, have = getattr(ref, f.name), getattr(dec, f.name)
        if f.name == "max_asymmetry":  # rounding, in the blocks' units
            assert np.shape(have) == np.shape(want) and type(have) is type(want)
        elif isinstance(want, np.ndarray):
            atol = 1e-14 * float(np.max(np.abs(want)))
            np.testing.assert_allclose(have, want, rtol=1e-12, atol=atol, err_msg=f.name)
        else:
            assert have == want, f.name


@pytest.mark.parametrize(
    "d,T,seed,kappa_bar",
    [(1, 4, 1, 0.7), (2, 3, 2, 0.7), (2, 5, 3, 0.7), (2, 4, 0, 0.7), (1, 4, 6, 0.7), (2, 5, 8, 0.7), (2, 4, 9, 0.0)],
)
def test_limit_pass_matches_reference_recursion(d, T, seed, kappa_bar):
    # the decentralized pass is the structured pass at eps = 0; the limit
    # recursion it replaced, written out by hand, is the referee
    rng = np.random.default_rng(seed)
    params, zs, targets = build_scenario(rng, 16, d, T)
    params = replace(params, kappa_bar=kappa_bar)
    for moments in (
        exact_moments_deterministic(zs),
        IidEntryLatents(mean=np.stack(zs), half_width=0.5).exact_moments(),
    ):
        dec = decentralized_backward_pass(params, moments, targets)
        assert_matches_reference(dec, reference_decentralized_pass(params, moments, targets))


def test_limit_pass_matches_reference_recursion_on_round_stack():
    rng = np.random.default_rng(107)
    params = round_params(rng, 16, 2, 3, 5)
    (moments, targets), _ = round_stack(rng, params, 6)
    dec = decentralized_backward_pass(params, moments, targets)
    assert dec.G1.shape == (5, 6, 3, 2)
    assert_matches_reference(dec, reference_decentralized_pass(params, moments, targets))


def test_lambda_gap_shrinks_at_one_over_n():
    rng = np.random.default_rng(4)
    grid = (4, 16, 64, 256)
    params, zs, targets = build_scenario(rng.__class__(np.random.PCG64(77)), 2, 1, 4)
    per_t, _ = coefficient_gaps(params, exact_moments_deterministic(zs), targets, grid)
    gaps = dict(zip(grid, map(float, per_t.max(axis=0))))
    assert gaps[4] > gaps[16] > gaps[64] > gaps[256]
    # O(1/N): N * gap roughly stable across the grid
    scaled = [N * gaps[N] for N in (16, 64, 256)]
    assert max(scaled) < 4 * min(scaled)


def test_action_affine_in_ybar():
    rng = np.random.default_rng(5)
    params, zs, targets = build_scenario(rng, 16, 2, 3)
    dec = decentralized_backward_pass(params, exact_moments_deterministic(zs), targets)
    own = rng.standard_normal(2)
    ybar = rng.standard_normal(2)
    delta = rng.standard_normal(2)
    base = decentralized_action(1, own, ybar, dec)
    shifted = decentralized_action(1, own, ybar + delta, dec)
    np.testing.assert_allclose(shifted - base, dec.G2[1] @ delta, atol=1e-12)
    with pytest.raises(IndexError):
        decentralized_action(3, own, ybar, dec)


def test_meanfield_constant_when_uncontrolled():
    # G1 = G2 = H = 0 and theta + theta_bar = I freeze the mean field
    params = GameParams(
        theta=0.6,
        theta_bar=0.4,
        kappa=0.0,
        kappa_bar=0.0,
        gamma=1.0,
        alpha=0.0,
        horizon_T=3,
        population_N=4,
        dim_y=1,
        dim_z=1,
    )
    targets = TargetSeries(values=np.zeros((4, 1)))
    moments = exact_moments_deterministic([np.array([[1.0]])] * 3)
    dec = decentralized_backward_pass(params, moments, targets)
    ybar = meanfield_forward(dec, moments, np.array([0.7]))
    np.testing.assert_allclose(ybar[:, 0], 0.7)


def test_identical_moments_identical_coefficients():
    # homogeneity without interchangeability: two banks with different
    # sample distributions but identical first/second moments produce
    # the same coefficients and the same mean field
    from fedgames.model import estimate_moments

    params = GameParams(
        theta=0.7,
        theta_bar=0.2,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.05,
        horizon_T=3,
        population_N=16,
        dim_y=1,
        dim_z=1,
    )
    targets = TargetSeries(values=np.array([[0.1], [0.4], [-0.2], [0.3]]))
    two_point = np.tile(np.array([[[1.0]], [[-1.0]]]), (3, 1, 1, 1))
    four_point = np.tile(np.array([[[1.0]], [[1.0]], [[-1.0]], [[-1.0]]]), (3, 1, 1, 1))
    a = decentralized_backward_pass(params, estimate_moments(two_point), targets)
    b = decentralized_backward_pass(params, estimate_moments(four_point), targets)
    np.testing.assert_array_equal(a.G1, b.G1)
    np.testing.assert_array_equal(a.H, b.H)
    ya = meanfield_forward(a, estimate_moments(two_point), np.array([0.1]))
    yb = meanfield_forward(b, estimate_moments(four_point), np.array([0.1]))
    np.testing.assert_array_equal(ya, yb)


def test_meanfield_pure_function():
    rng = np.random.default_rng(6)
    params, zs, targets = build_scenario(rng, 32, 1, 4)
    moments = exact_moments_deterministic(zs)
    dec = decentralized_backward_pass(params, moments, targets)
    a = meanfield_forward(dec, moments, np.array([0.3]))
    b = meanfield_forward(dec, moments, np.array([0.3]))
    np.testing.assert_array_equal(a, b)


def test_terminal_conditions_and_symmetry():
    rng = np.random.default_rng(8)
    params, zs, targets = build_scenario(rng, 16, 2, 5)
    dec = decentralized_backward_pass(params, exact_moments_deterministic(zs), targets)
    for arr in (dec.L1, dec.L2, dec.L3, dec.L4):
        assert np.all(arr[-1] == 0.0)
    assert dec.max_asymmetry <= 1e-9
    for t in range(6):
        np.testing.assert_allclose(dec.L1[t], dec.L1[t].T, atol=1e-12)
        np.testing.assert_allclose(dec.L4[t], dec.L4[t].T, atol=1e-12)


@pytest.mark.parametrize(
    "d_y,d_z,T,rounds,kappa_bar,count",
    [
        pytest.param(1, 4, 4, 1, 0.7, 7, id="1-4-4-1-0.7"),
        pytest.param(2, 3, 4, 5, 0.7, 7, id="2-3-4-5-0.7"),
        pytest.param(1, 4, 4, 50, 0.7, 7, id="1-4-4-50-0.7"),
        pytest.param(2, 3, 3, 4, 0.0, 7, id="2-3-3-4-0.0"),
        # one-sample banks with d_y 2, d_z 1: the shape where an einsum over
        # the round stack summed E[Z'WZ] in another order than one round
        (2, 1, 6, 4, 0.7, 1),
    ],
)
def test_round_batched_pass_matches_each_round(d_y, d_z, T, rounds, kappa_bar, count):
    rng = np.random.default_rng(100 + rounds)
    params = round_params(rng, 16, d_y, d_z, T, kappa_bar)
    (moments, targets), singles = round_stack(rng, params, rounds, count)
    batched = decentralized_backward_pass(params, moments, targets)
    assert batched.G1.shape == (T, rounds, d_z, d_y)
    assert batched.max_asymmetry.shape == (rounds,)
    ybar = meanfield_forward(batched, moments, targets.values[0])
    assert ybar.shape == (T + 1, rounds, d_y)
    for r, (mom_r, tgt_r) in enumerate(singles):
        single = decentralized_backward_pass(params, mom_r, tgt_r)
        assert_round_equal(batched, r, single)
        np.testing.assert_array_equal(
            ybar[:, r], meanfield_forward(single, mom_r, tgt_r.values[0])
        )


def test_round_batched_failure_names_round():
    # the last round's M2 cancels gamma at t = T-1 (kappa + kappa_bar = 2, so
    # exactly), and its F is singular there
    T, R, d_z = 3, 4, 2
    params = replace(round_params(np.random.default_rng(0), 8, 1, d_z, T), kappa=1.0, kappa_bar=1.0)
    m2 = np.tile(np.eye(d_z), (T, R, 1, 1))
    m2[T - 1, R - 1] *= -params.gamma / 2
    moments = types.SimpleNamespace(
        m1=np.zeros((T, R, 1, d_z)),
        m2=m2,
        horizon=T,
        weighted_m2=lambda t, w: np.zeros((R, d_z, d_z)),
    )
    targets = TargetSeries(values=np.zeros((T + 1, R, 1)))
    with pytest.raises(SolveError, match="round 3, t=2"):
        decentralized_backward_pass(params, moments, targets)
