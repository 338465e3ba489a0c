import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    alternating_best_response,
    assert_round_equal,
    lift,
    realized_cost,
    reference_full_backward_pass,
    round_params,
    round_stack,
    simulate_affine_policies,
)

from fedgames.errors import SolveError

from fedgames.model import (
    GameParams,
    IidEntryLatents,
    TargetSeries,
    estimate_moments,
    exact_moments_deterministic,
)
from fedgames.nash_full import (
    HARD_N_CEILING,
    check_block_structure,
    full_action,
    full_backward_pass,
    rounds_per_pass,
)
from fedgames.nash_reduced import take_round


def scalar_params(**over):
    base = dict(
        theta=1.0,
        theta_bar=0.0,
        kappa=1.0,
        kappa_bar=0.0,
        gamma=1.0,
        alpha=0.0,
        horizon_T=1,
        population_N=1,
        dim_y=1,
        dim_z=1,
    )
    base.update(over)
    return GameParams(**base)


def build_scenario(rng, N, d, T, theta_scale=0.8):
    params = GameParams(
        theta=theta_scale * np.eye(d) + 0.05 * rng.standard_normal((d, d)),
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


def test_single_agent_scalar_closed_form():
    # one agent, one step: minimize (y1 - Y0 - beta)^2 + beta^2
    params = scalar_params()
    y1 = 0.7
    targets = TargetSeries(values=np.array([[0.0], [y1]]))
    moments = exact_moments_deterministic([np.array([[1.0]])])
    coeffs = full_backward_pass(params, moments, targets)
    assert coeffs.G[0][0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert coeffs.H[0][0] == pytest.approx(y1 / 2, abs=1e-12)
    assert full_action(0, np.array([0.0]), coeffs)[0] == pytest.approx(y1 / 2)
    # spec case y1 = 1, Y0 = 0 gives beta = 0.5
    targets1 = TargetSeries(values=np.array([[0.0], [1.0]]))
    coeffs1 = full_backward_pass(params, moments, targets1)
    assert full_action(0, np.array([0.0]), coeffs1)[0] == pytest.approx(0.5)


def test_zero_cost_weights_give_zero_policy():
    rng = np.random.default_rng(0)
    params, zs, targets = build_scenario(rng, N=3, d=2, T=4)
    params = GameParams(
        **{
            **params.__dict__,
            "kappa": 0.0,
            "kappa_bar": 0.0,
            "theta": params.theta,
            "theta_bar": params.theta_bar,
        }
    )
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    assert np.all(coeffs.G == 0.0)
    assert np.all(coeffs.H == 0.0)
    assert np.all(coeffs.P == 0.0)
    assert np.all(coeffs.S == 0.0)


@pytest.mark.parametrize("N,d,T,seed", [(2, 1, 3, 1), (2, 2, 3, 2), (3, 1, 4, 3)])
def test_best_response_fixed_point_matches_solver(N, d, T, seed):
    rng = np.random.default_rng(seed)
    params, zs, targets = build_scenario(rng, N, d, T)
    moments = exact_moments_deterministic(zs)
    coeffs = full_backward_pass(params, moments, targets)

    br_gains, br_icpts = alternating_best_response(params, zs, targets)
    x0 = rng.standard_normal(N * d)
    xs_br, us_br = simulate_affine_policies(params, zs, targets, br_gains, br_icpts, x0)

    solver_gains = [coeffs.G[:, n * d : (n + 1) * d, :] for n in range(N)]
    solver_icpts = [coeffs.H[:, n * d : (n + 1) * d] for n in range(N)]
    xs_s, us_s = simulate_affine_policies(
        params, zs, targets, solver_gains, solver_icpts, x0
    )
    np.testing.assert_allclose(us_s, us_br, atol=1e-6)
    np.testing.assert_allclose(xs_s, xs_br, atol=1e-6)


def test_unilateral_deviation_never_helps():
    rng = np.random.default_rng(4)
    N, d, T = 3, 1, 4
    params, zs, targets = build_scenario(rng, N, d, T)
    moments = exact_moments_deterministic(zs)
    coeffs = full_backward_pass(params, moments, targets)
    gains = [coeffs.G[:, n * d : (n + 1) * d, :] for n in range(N)]
    icpts = [coeffs.H[:, n * d : (n + 1) * d] for n in range(N)]
    x0 = rng.standard_normal(N * d)
    xs0, us0 = simulate_affine_policies(params, zs, targets, gains, icpts, x0)
    for trial in range(40):
        n = trial % N
        delta = rng.standard_normal((T, d))
        delta *= rng.uniform(0, 0.1) / max(np.linalg.norm(delta), 1e-12)
        dev_icpts = [ic.copy() for ic in icpts]
        dev_icpts[n] = dev_icpts[n] + delta
        xs, us = simulate_affine_policies(params, zs, targets, gains, dev_icpts, x0)
        j_dev = realized_cost(params, targets, xs, us, n)
        j_eq = realized_cost(params, targets, xs0, us0, n)
        assert j_dev >= j_eq - 1e-6


def test_regret_ordering_on_symmetric_start():
    # interchangeable agents starting from a common prediction all incur
    # the same equilibrium cost, so any unilateral deviation can only
    # push the worst-agent cost up
    rng = np.random.default_rng(12)
    N, d, T = 3, 1, 4
    params, zs, targets = build_scenario(rng, N, d, T)
    moments = exact_moments_deterministic(zs)
    coeffs = full_backward_pass(params, moments, targets)
    gains = [coeffs.G[:, n * d : (n + 1) * d, :] for n in range(N)]
    icpts = [coeffs.H[:, n * d : (n + 1) * d] for n in range(N)]
    x0 = np.tile(rng.standard_normal(d), N)
    xs0, us0 = simulate_affine_policies(params, zs, targets, gains, icpts, x0)
    base = max(realized_cost(params, targets, xs0, us0, n) for n in range(N))
    for trial in range(30):
        n = trial % N
        delta = rng.standard_normal((T, d))
        delta *= rng.uniform(0, 0.1) / max(np.linalg.norm(delta), 1e-12)
        dev = [ic.copy() for ic in icpts]
        dev[n] = dev[n] + delta
        xs, us = simulate_affine_policies(params, zs, targets, gains, dev, x0)
        regret_dev = max(realized_cost(params, targets, xs, us, m) for m in range(N))
        assert base <= regret_dev + 1e-6


def test_symmetry_and_terminal_conditions():
    rng = np.random.default_rng(5)
    params, zs, targets = build_scenario(rng, N=3, d=2, T=5)
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    assert coeffs.max_asymmetry <= 1e-9
    assert np.all(coeffs.P[:, -1] == 0.0)
    assert np.all(coeffs.S[:, -1] == 0.0)
    for n in range(3):
        for t in range(6):
            np.testing.assert_allclose(
                coeffs.P[n, t], coeffs.P[n, t].T, atol=1e-12
            )


def test_action_block_slicing():
    rng = np.random.default_rng(6)
    N, d = 3, 2
    params, zs, targets = build_scenario(rng, N, d, 3)
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    yhat = rng.standard_normal(N * d)
    beta = full_action(1, yhat, coeffs)
    for n in range(N):
        sel = lift(N, n, d).T
        np.testing.assert_allclose(
            beta[n * d : (n + 1) * d], sel @ (coeffs.G[1] @ yhat + coeffs.H[1])
        )
    with pytest.raises(IndexError):
        full_action(3, yhat, coeffs)


def test_block_structure_homogeneous():
    rng = np.random.default_rng(7)
    params, zs, targets = build_scenario(rng, N=3, d=1, T=4)
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    assert check_block_structure(coeffs) <= 1e-9


def test_block_structure_n2_flagged():
    rng = np.random.default_rng(8)
    params, zs, targets = build_scenario(rng, N=2, d=1, T=3)
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    # the pattern degenerates to (Pi1, Pi2; Pi2', Pi3): no Pi4 blocks
    assert check_block_structure(coeffs) <= 1e-9


def test_block_structure_zero_weights():
    rng = np.random.default_rng(9)
    params, zs, targets = build_scenario(rng, N=3, d=1, T=3)
    params = GameParams(
        **{
            **params.__dict__,
            "kappa": 0.0,
            "kappa_bar": 0.0,
            "theta": params.theta,
            "theta_bar": params.theta_bar,
        }
    )
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    assert check_block_structure(coeffs) == 0.0


@pytest.mark.parametrize("N,n", [(2, 1), (4, 2), (4, 3)])
def test_block_structure_reads_an_offset_block(N, n, caplog):
    # delta added to one off-diagonal block of P_n (n >= 1) breaks only
    # the relabeling P_n = J' P_1 J, by delta, and logs one warning
    rng = np.random.default_rng(10)
    d, delta = 2, 1e-3
    params, zs, targets = build_scenario(rng, N=N, d=d, T=3)
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    P = coeffs.P.copy()
    P[n, 1, :d, (N - 1) * d :] += delta  # block (0, N - 1) of P_n(1)
    with caplog.at_level("WARNING", logger="fedgames.nash_full"):
        assert check_block_structure(replace(coeffs, P=P)) == pytest.approx(delta, rel=1e-9)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "block deviation" in caplog.text


@pytest.mark.parametrize(
    "N,d_y,d_z,latents,kappa_bar",
    [
        (1, 1, 2, "bank", 0.7),
        (2, 1, 1, "deterministic", 0.7),
        (3, 2, 3, "bank", 0.7),
        (8, 1, 4, "bank", 0.7),
        (4, 2, 3, "closed_form", 0.7),
        (5, 1, 3, "bank", 0.0),
        (12, 2, 4, "bank", 0.7),
    ],
)
def test_matches_per_block_reference(N, d_y, d_z, latents, kappa_bar):
    # the batched assembly reassociates sums, so it matches the per-block
    # loop to rounding; exact zeros (terminal P, S) get an absolute floor
    rng = np.random.default_rng(100 + N)
    T = 4
    params = GameParams(
        theta=0.8 * np.eye(d_y) + 0.1 * rng.standard_normal((d_y, d_y)),
        theta_bar=0.2 * rng.standard_normal((d_y, d_y)),
        kappa=1.3,
        kappa_bar=kappa_bar,
        gamma=0.9,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d_y,
        dim_z=d_z,
    )
    if latents == "bank":
        samples = rng.standard_normal((T, 100, d_y, d_z))
        moments = estimate_moments(samples)
    elif latents == "deterministic":
        moments = exact_moments_deterministic([rng.standard_normal((d_y, d_z)) for _ in range(T)])
    else:
        mean = rng.uniform(0.0, 1.0, (T, d_y, d_z))
        moments = IidEntryLatents(mean=mean, half_width=0.3).exact_moments()
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))

    coeffs = full_backward_pass(params, moments, targets)
    ref = reference_full_backward_pass(params, moments, targets)
    for name in ("P", "S", "G", "H", "condition_numbers"):
        want = ref[name]
        np.testing.assert_allclose(
            getattr(coeffs, name), want, rtol=1e-12, atol=1e-15 * np.max(np.abs(want)), err_msg=name
        )
    assert abs(coeffs.max_asymmetry - ref["max_asymmetry"]) <= 1e-15


def test_peak_memory_stays_near_output_size():
    # the value updates work in prediction space: an (N, N, N, d_z, d_z)
    # coupling array or a dense per-agent Q_n would lift the peak to about
    # 12x the outputs at this size
    rng = np.random.default_rng(132)
    N, d_y, d_z, T = 32, 1, 4, 4
    params = GameParams(
        theta=0.8 * np.eye(d_y) + 0.1 * rng.standard_normal((d_y, d_y)),
        theta_bar=0.2 * rng.standard_normal((d_y, d_y)),
        kappa=1.3,
        kappa_bar=0.7,
        gamma=0.9,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d_y,
        dim_z=d_z,
    )
    samples = rng.standard_normal((T, 100, d_y, d_z))
    moments = estimate_moments(samples)
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    full_backward_pass(params, moments, targets)  # warm

    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        coeffs = full_backward_pass(params, moments, targets)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    outputs = (coeffs.P, coeffs.S, coeffs.G, coeffs.H, coeffs.condition_numbers)
    out_bytes = sum(a.nbytes for a in outputs)
    assert peak < 8 * out_bytes, f"peak {peak} B vs outputs {out_bytes} B"


@pytest.mark.parametrize("count", [7, 1])
@pytest.mark.parametrize("N", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("d_y,d_z", [(1, 4), (2, 3)])
def test_round_stacked_pass_matches_each_round(d_y, d_z, N, count):
    # every product of a stacked pass acts on one round's matrices with a
    # lone pass's shapes, so each round is the lone pass bit for bit,
    # condition numbers included
    T = 4
    for rounds in (1, 3, 5):
        rng = np.random.default_rng(300 + 10 * N + rounds)
        params = round_params(rng, N, d_y, d_z, T)
        (moments, targets), singles = round_stack(rng, params, rounds, count)
        stacked = full_backward_pass(params, moments, targets)
        assert stacked.P.shape == (N, rounds, T + 1, N * d_y, N * d_y)
        assert stacked.G.shape == (T, rounds, N * d_z, N * d_y)
        assert stacked.max_asymmetry.shape == (rounds,)
        for r, (mom_r, tgt_r) in enumerate(singles):
            single = full_backward_pass(params, mom_r, tgt_r)
            assert_round_equal(stacked, r, single)
            np.testing.assert_array_equal(
                take_round(stacked, r).condition_numbers, single.condition_numbers
            )


def singular_round_moments(T, R, d_z, gamma):
    """Zero-mean moments with zero unit moments whose round 1 has
    M2 = -gamma I at t = T-1: with kappa 0, kappa_bar 4 and N = 2 the
    system matrix there is M2 + gamma I = 0. R None: round 1 alone."""
    rounds = (R,) if R else ()
    m2 = np.tile(np.eye(d_z), (T, R or 1, 1, 1))
    m2[T - 1, 1 if R else 0] *= -gamma
    return types.SimpleNamespace(
        m1=np.zeros((T, *rounds, 1, d_z)),
        m2=m2.reshape(T, *rounds, d_z, d_z),
        horizon=T,
        units=np.zeros((T, *rounds, 1, d_z * d_z)),
    )


def test_singular_round_is_named():
    T, R, d_z = 3, 3, 2
    params = replace(round_params(np.random.default_rng(0), 2, 1, d_z, T), kappa=0.0, kappa_bar=4.0)
    moments = singular_round_moments(T, R, d_z, params.gamma)
    with pytest.raises(SolveError) as stacked:
        full_backward_pass(params, moments, TargetSeries(values=np.zeros((T + 1, R, 1))))
    with pytest.raises(SolveError) as alone:
        full_backward_pass(
            params, singular_round_moments(T, None, d_z, params.gamma), TargetSeries(values=np.zeros((T + 1, 1)))
        )
    assert str(alone.value) == f"singular system matrix at t={T - 1}"
    assert str(stacked.value) == f"singular system matrix at round 1, t={T - 1}"
    # rounds 0 and 2 still solve alone
    for r in (0, 2):
        lone = types.SimpleNamespace(
            m1=moments.m1[:, r],
            m2=moments.m2[:, r],
            horizon=T,
            units=moments.units[:, r],
        )
        full_backward_pass(params, lone, TargetSeries(values=np.zeros((T + 1, 1))))



def test_overflowing_pass_raises():
    # theta 1e40 overflows the value iterates within a few steps; the pass
    # returned NaN and inf in G, H, P and S without raising, where the
    # reduced and decentralized passes raise
    T, N = 20, 3
    rng = np.random.default_rng(0)
    params = GameParams(
        theta=1e40, theta_bar=0.2, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.0,
        horizon_T=T, population_N=N, dim_y=1, dim_z=1,
    )
    moments = exact_moments_deterministic([rng.standard_normal((1, 1)) for _ in range(T)])
    targets = TargetSeries(values=rng.standard_normal((T + 1, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolveError, match=r"^full pass produced non-finite coefficients at t=\d+$"):
            full_backward_pass(params, moments, targets)

def _peak_bytes(solve):
    solve()  # warm
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solve()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_stacked_chunk_peaks_below_a_lone_pass_at_the_ceiling():
    # rounds_per_pass sizes a chunk so that its peak memory stays at or
    # below one lone pass at HARD_N_CEILING with the same T, d_y, d_z,
    # whatever the Monte-Carlo sample count
    T, d_y, d_z = 4, 1, 4
    rng = np.random.default_rng(140)

    def stacked_peak(N, rounds, count):
        params = round_params(rng, N, d_y, d_z, T)
        (moments, targets), _ = round_stack(rng, params, rounds, count=count)
        return _peak_bytes(lambda: full_backward_pass(params, moments, targets))

    assert rounds_per_pass(HARD_N_CEILING) == 1
    for count in (100, 1000):
        ceiling = stacked_peak(HARD_N_CEILING, 1, count)
        for N in (1, 2, 4, 8, 16):
            assert rounds_per_pass(N) == (HARD_N_CEILING // N) ** 2
            peak = stacked_peak(N, rounds_per_pass(N), count)
            assert peak <= ceiling, (count, N, peak, ceiling)
