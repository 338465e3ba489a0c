"""Sphere-constrained feature-steering QP: KKT, oracles, resolvent."""

import tracemalloc

import numpy as np
import pytest
from oracles import reference_ortho_solve

from fedgames.spawner import (
    OrthoProblem,
    build_ortho_problem,
    ortho_objective,
    ortho_solve,
    resolvent_check,
    unvec,
    vec,
)


def random_problem(rng, d_z, n_retained=3, n_respawned=2, zeta1=None):
    retained = [rng.standard_normal((2, d_z)) for _ in range(n_retained)]
    respawned = [rng.standard_normal((2, d_z)) for _ in range(n_respawned)]
    beta = rng.standard_normal(d_z)
    y = rng.standard_normal(2)
    z1 = float(rng.uniform(0.1, 2.0)) if zeta1 is None else zeta1
    return build_ortho_problem(retained, respawned, beta, y, z1)


def sphere_samples(rng, prob, zeta2, count):
    dim = prob.xi_I.shape[0]
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return prob.xi_I[None, :] + zeta2 * g


def test_kronecker_vec_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d_y, d_z = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        z = rng.standard_normal((d_y, d_z))
        a = rng.standard_normal((d_z, d_z))
        beta = rng.standard_normal(d_z)
        lhs = z @ a @ beta
        rhs = np.kron(beta[None, :], z) @ vec(a)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_build_examples():
    # zeta1 = 0, single scalar pair Z = 1 on both sides: Q = [1], c = [0]
    prob = build_ortho_problem([np.array([[1.0]])], [np.array([[1.0]])], [1.0], [0.0], 0.0)
    assert prob.Q[0, 0] == pytest.approx(1.0)
    assert prob.c[0] == pytest.approx(0.0)
    zero = build_ortho_problem(
        [np.zeros((2, 2))], [np.zeros((2, 2))], np.ones(2), np.ones(2), 1.0
    )
    assert np.all(zero.Q == 0.0) and np.all(zero.c == 0.0)


def test_q_psd_and_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(5):
        prob = random_problem(rng, 3)
        assert np.max(np.abs(prob.Q - prob.Q.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(prob.Q)) >= -1e-10


def test_zeta2_zero_returns_identity():
    rng = np.random.default_rng(2)
    prob = random_problem(rng, 3)
    sol = ortho_solve(prob, 0.0)
    np.testing.assert_array_equal(sol.A_star, np.eye(3))
    assert sol.kkt_residual == 0.0


def test_scalar_two_point_feasible_set():
    # objective a^2 over |a - 1| = 0.5: minimizer a = 0.5
    prob = build_ortho_problem([np.array([[1.0]])], [np.array([[1.0]])], [1.0], [0.0], 0.0)
    sol = ortho_solve(prob, 0.5)
    assert sol.A_star[0, 0] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_kkt_and_beats_sphere_sampling(seed):
    rng = np.random.default_rng(seed)
    d_z = int(rng.integers(1, 5))
    prob = random_problem(rng, d_z)
    zeta2 = float(rng.uniform(0.05, 1.5))
    sol = ortho_solve(prob, zeta2)
    assert sol.kkt_residual <= 1e-8
    assert sol.constraint_residual <= 1e-8
    best = ortho_objective(prob, vec(sol.A_star))
    samples = sphere_samples(rng, prob, zeta2, 10_000)
    sampled = np.array([ortho_objective(prob, s) for s in samples])
    assert best <= sampled.min() + 1e-8


def test_lambda_bound_along_grid():
    rng = np.random.default_rng(42)
    prob = random_problem(rng, 3)
    zeta2 = 0.8
    sol = ortho_solve(prob, zeta2)
    Q = 0.5 * (prob.Q + prob.Q.T)
    lam_min = float(np.linalg.eigvalsh(Q)[0])
    g = Q @ prob.xi_I + 0.5 * prob.c
    xi_star = vec(sol.A_star)
    for lam in np.linspace(-lam_min + 0.1, sol.lambda_star + 5.0, 25):
        xi_lam = np.linalg.solve(Q + lam * np.eye(Q.shape[0]), lam * prob.xi_I - 0.5 * prob.c)
        bound = (
            abs(lam - sol.lambda_star)
            / ((lam + lam_min) * (sol.lambda_star + lam_min))
            * np.linalg.norm(g)
        )
        assert np.linalg.norm(xi_star - xi_lam) <= bound + 1e-9


def test_hard_case_detected_and_valid():
    # forcing orthogonal to the bottom eigenspace, radius exceeding the
    # interior limit: multiplier pins at -lambda_min and the leftover
    # radius goes along the bottom eigenvector
    Q = np.diag([0.0, 1.0, 2.0, 3.0])
    xi_I = vec(np.eye(2))
    g = np.array([0.0, 1.0, 1.0, 1.0])
    c = 2.0 * (g - Q @ xi_I)
    prob = OrthoProblem(Q=Q, c=c, xi_I=xi_I, d_z=2, zeta1=0.0)
    zeta2 = 2.0
    sol = ortho_solve(prob, zeta2)
    assert sol.hard_case
    assert sol.lambda_star == pytest.approx(0.0, abs=1e-12)
    assert sol.kkt_residual <= 1e-8
    assert sol.constraint_residual <= 1e-8
    rng = np.random.default_rng(3)
    best = ortho_objective(prob, vec(sol.A_star))
    sampled = [ortho_objective(prob, s) for s in sphere_samples(rng, prob, zeta2, 10_000)]
    assert best <= min(sampled) + 1e-8


def test_near_hard_case_root():
    # tiny forcing on the bottom direction: the secular root sits just
    # right of -lambda_min; the solver must not blow up
    Q = np.diag([0.0, 1.0, 2.0, 3.0])
    xi_I = vec(np.eye(2))
    g = np.array([1e-9, 1.0, 1.0, 1.0])
    c = 2.0 * (g - Q @ xi_I)
    prob = OrthoProblem(Q=Q, c=c, xi_I=xi_I, d_z=2, zeta1=0.0)
    sol = ortho_solve(prob, 2.0)
    assert sol.kkt_residual <= 1e-8
    assert sol.constraint_residual <= 1e-8


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(unvec(vec(a), 3), a)


class TestResolvent:
    def test_equal_shifts(self):
        rng = np.random.default_rng(5)
        root = rng.standard_normal((4, 4))
        assert resolvent_check(root @ root.T, 1.3, 1.3) == pytest.approx(0.0, abs=1e-13)

    def test_scalar_arithmetic(self):
        # Q = 1: 1/2 - 1/4 = (3 - 1) * (1/4) * (1/2)
        assert resolvent_check(np.array([[1.0]]), 1.0, 3.0) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_random_psd(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 17))
        root = rng.standard_normal((d, d))
        q = root @ root.T / d
        l1, l2 = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
        assert resolvent_check(q, l1, l2) <= 1e-11


def pairwise_problem(retained, respawned, beta, y, zeta1):
    """Q, c from the pairwise sums of the definition, one (m, n) at a time."""
    d_z = beta.shape[0]
    Q = np.zeros((d_z * d_z, d_z * d_z))
    c = np.zeros(d_z * d_z)
    for zm in respawned:
        for zn in retained:
            v = vec(zm.T @ zn)
            Q += np.outer(v, v)
        hm = np.kron(beta[None, :], zm)
        Q += zeta1 * hm.T @ hm
        c += -2.0 * zeta1 * hm.T @ y
    return Q, c


def test_problem_matches_pairwise_loop():
    rng = np.random.default_rng(12)
    d_y, d_z, zeta1 = 3, 4, 0.7
    retained = rng.standard_normal((5, d_y, d_z))
    respawned = rng.standard_normal((2, d_y, d_z))
    beta, y = rng.standard_normal(d_z), rng.standard_normal(d_y)
    Q, c = pairwise_problem(retained, respawned, beta, y, zeta1)
    prob = build_ortho_problem(retained, respawned, beta, y, zeta1)
    np.testing.assert_allclose(prob.Q, Q, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(prob.c, c, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d_y", [1, 3])
def test_problem_matches_pairwise_loop_at_scale(d_y):
    # 300 retained x 40 respawned: 12 000 pairs summed through the Gram
    # tensors, at the same tolerance as the small case
    rng = np.random.default_rng(13 + d_y)
    d_z, zeta1 = 4, 0.7
    retained = rng.standard_normal((300, d_y, d_z))
    respawned = rng.standard_normal((40, d_y, d_z))
    beta, y = rng.standard_normal(d_z), rng.standard_normal(d_y)
    Q, c = pairwise_problem(retained, respawned, beta, y, zeta1)
    prob = build_ortho_problem(retained, respawned, beta, y, zeta1)
    np.testing.assert_allclose(prob.Q, Q, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(prob.c, c, rtol=1e-12, atol=1e-12)


def test_problem_memory_does_not_grow_with_pairs():
    # N = 4096, K = 410: the (K (N - K), d_z^2) pair array would take
    # ~194 MB; the Gram tensors take a few hundred bytes
    rng = np.random.default_rng(14)
    retained = rng.uniform(0.0, 1.0, (4096 - 410, 1, 4))
    respawned = rng.uniform(0.0, 1.0, (410, 1, 4))
    beta, y = rng.standard_normal(4), rng.standard_normal(1)
    tracemalloc.start()
    try:
        build_ortho_problem(retained, respawned, beta, y, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


def near_hard_problem(bottom_force):
    Q = np.diag([0.0, 1.0, 2.0, 3.0])
    xi_I = vec(np.eye(2))
    g = np.array([bottom_force, 1.0, 1.0, 1.0])
    return OrthoProblem(Q=Q, c=2.0 * (g - Q @ xi_I), xi_I=xi_I, d_z=2, zeta1=0.0)


SECULAR_CASES = [("random", seed) for seed in range(12)] + [
    ("near_hard", force) for force in (1e-9, 1e-6, 1e-3, 1e-1)
]


@pytest.mark.parametrize("kind, arg", SECULAR_CASES)
def test_solve_matches_reference_secular_root(kind, arg):
    # the multiplier is found to 1e-15 absolute below 1, hence the atol
    if kind == "random":
        rng = np.random.default_rng(arg)
        prob = random_problem(rng, int(rng.integers(1, 5)), n_retained=int(rng.integers(1, 6)))
        radii = rng.uniform(0.05, 1.5, 3)
    else:
        prob = near_hard_problem(arg)
        radii = (1.0, 2.0, 3.0)
    for zeta2 in radii:
        sol = ortho_solve(prob, float(zeta2))
        A_ref, lam_ref, hard_ref = reference_ortho_solve(prob, float(zeta2))
        assert sol.hard_case == hard_ref
        np.testing.assert_allclose(sol.lambda_star, lam_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sol.A_star, A_ref, rtol=1e-12, atol=1e-12)
