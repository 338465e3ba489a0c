import numpy as np
import pytest
from oracles import reference_resample

from fedgames.errors import DegenerateError
from fedgames.spawner import (
    gibbs_reweigh,
    rank_ascending,
    resample_parameters,
    score_agents,
)


def simplex_project(v):
    """Euclidean projection onto the probability simplex."""
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.max(np.flatnonzero(u - css / (np.arange(n) + 1) > 0))
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def projected_gradient_simplex(objective, gradient, n, steps=20000):
    """Independent variational oracle: projected gradient descent with
    Armijo backtracking on the objective."""
    w = np.full(n, 1.0 / n)
    lr = 1.0
    for _ in range(steps):
        g = gradient(w)
        f0 = objective(w)
        lr = min(lr * 2.0, 1.0)
        while lr > 1e-18:
            cand = simplex_project(w - lr * g)
            if objective(cand) <= f0 - 1e-4 * float(g @ (w - cand)):
                break
            lr *= 0.5
        if np.max(np.abs(cand - w)) < 1e-14:
            return cand
        w = cand
    return w


def variational_pieces(scores, prior, lam):
    def objective(w):
        safe = np.clip(w, 1e-300, None)
        return float(w @ scores + (w @ np.log(safe / prior)) / lam)

    def gradient(w):
        safe = np.clip(w, 1e-300, None)
        return scores + (np.log(safe / prior) + 1.0) / lam

    return objective, gradient


class TestScoring:
    def test_perfect_prediction(self):
        assert score_agents([1.0, 2.0], [[1.0, 2.0]])[0] == 0.0

    def test_unit_error(self):
        assert score_agents([1.0], [[0.0]])[0] == 1.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(3)
        preds = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            score_agents(2 * y, 2 * preds), 4 * score_agents(y, preds), atol=1e-12
        )


class TestGibbs:
    def test_zero_lambda_keeps_prior(self):
        prior = np.array([0.2, 0.3, 0.5])
        scores = np.array([3.0, 1.0, 2.0])
        np.testing.assert_allclose(gibbs_reweigh(np.log(prior), scores, 0.0)[0], prior, atol=1e-15)

    def test_equal_scores_keep_prior(self):
        prior = np.array([0.6, 0.4])
        np.testing.assert_allclose(
            gibbs_reweigh(np.log(prior), np.array([2.0, 2.0]), 3.0)[0], prior, atol=1e-15
        )

    def test_closed_form_example(self):
        w, _ = gibbs_reweigh(np.log(np.array([0.5, 0.5])), np.array([0.0, np.log(2.0)]), 1.0)
        np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-12)

    def test_zero_prior_rejected(self):
        with np.errstate(divide="ignore"):
            log_prior = np.log(np.array([0.0, 1.0]))
        with pytest.raises(DegenerateError):
            gibbs_reweigh(log_prior, np.array([1.0, 2.0]), 1.0)

    def test_monotone_under_uniform_prior(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 3, size=6)
        w, _ = gibbs_reweigh(np.log(np.full(6, 1 / 6)), scores, 2.0)
        order_scores = np.argsort(scores)
        assert np.all(np.diff(w[order_scores]) <= 1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_projected_gradient_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        prior = rng.dirichlet(np.ones(n) * 2.0)
        prior = np.clip(prior, 1e-3, None)
        prior /= prior.sum()
        scores = rng.uniform(0, 2, size=n)
        lam = float(rng.uniform(0.5, 3.0))
        closed, _ = gibbs_reweigh(np.log(prior), scores, lam)
        obj, grad = variational_pieces(scores, prior, lam)
        oracle = projected_gradient_simplex(obj, grad, n)
        np.testing.assert_allclose(closed, oracle, atol=1e-6)

    def test_simplex_output(self):
        rng = np.random.default_rng(2)
        w, _ = gibbs_reweigh(np.log(rng.dirichlet(np.ones(9)) + 1e-6), rng.uniform(0, 5, 9), 1.5)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12


def resampled(params, *args):
    """``resample_parameters`` with its K new rows written over a copy of
    the (N, dim) ``params`` at the retired slots."""
    rows, retained, retired, post, log_post = resample_parameters(params, *args)
    assert rows.shape == (retired.shape[0], params.shape[1])
    new = params.copy()
    new[retired] = rows
    return new, retained, retired, post, log_post


class TestResample:
    def test_rank_ties_by_index(self):
        order = rank_ascending(np.array([1.0, 0.5, 0.5, 2.0]))
        np.testing.assert_array_equal(order, [1, 2, 0, 3])

    def test_zero_dispersion_copies_retained(self):
        rng = np.random.default_rng(3)
        params = rng.standard_normal((5, 4))
        scores = np.array([0.1, 0.2, 0.3, 5.0, 9.0])
        new, retained, retired, _, _ = resampled(
            params, scores, np.log(np.full(5, 0.2)), 1.0, 0.0, 2, rng
        )
        np.testing.assert_array_equal(retired, [3, 4])
        for slot in retired:
            assert any(np.array_equal(new[slot], params[i]) for i in retained)
        for i in retained:
            np.testing.assert_array_equal(new[i], params[i])

    def test_retire_all_but_best(self):
        rng = np.random.default_rng(4)
        params = rng.standard_normal((4, 3))
        scores = np.array([0.5, 1.0, 2.0, 3.0])
        new, retained, retired, post, _ = resampled(
            params, scores, np.log(np.full(4, 0.25)), 1.0, 0.7, 3, rng
        )
        np.testing.assert_array_equal(retained, [0])
        assert post[0] == 1.0
        # single retained agent has weight 1 -> zero mixture variance
        for slot in retired:
            np.testing.assert_array_equal(new[slot], params[0])

    def test_mixture_mean_matches(self):
        rng = np.random.default_rng(5)
        params = np.array([[0.0], [1.0], [4.0]])
        scores = np.array([0.1, 0.4, 9.0])
        prior = np.full(3, 1 / 3)
        lam, sigma_t = 1.3, 0.5
        draws = []
        for k in range(20000):
            new, retained, retired, post, _ = resampled(
                params, scores, np.log(prior), lam, sigma_t, 1, np.random.default_rng(k)
            )
            draws.append(new[retired[0], 0])
        want = float(post @ params[retained, 0])
        var_mix = float(
            post @ ((sigma_t * (1 - post) / 2) + (params[retained, 0] - want) ** 2)
        )
        se = np.sqrt(var_mix / len(draws))
        assert abs(np.mean(draws) - want) <= 3 * se

    def test_pool_size_preserved(self):
        rng = np.random.default_rng(6)
        params = rng.standard_normal((7, 2))
        new, retained, retired, _, _ = resampled(
            params, rng.uniform(0, 1, 7), np.log(np.full(7, 1 / 7)), 1.0, 0.3, 3, rng
        )
        assert new.shape == params.shape
        assert sorted(list(retained) + list(retired)) == list(range(7))


# (N, K, dim, lam, score spread): K = N - 1 leaves a one-hot posterior; a
# spread of 1e4 at lam 1 puts most of the retained mass far below the
# smallest double
SAME_STREAM_CASES = [
    (5, 2, 3, 1.0, 1.0),
    (64, 8, 17, 1.0, 1.0),
    (10, 9, 4, 2.0, 1.0),
    (7, 3, 1, 0.5, 1.0),
    (40, 12, 6, 1.0, 1e4),
]


@pytest.mark.parametrize("n, k, dim, lam, spread", SAME_STREAM_CASES)
def test_resample_draws_the_per_slot_choice_stream(n, k, dim, lam, spread):
    # the batched draw must reproduce the per-slot rng.choice loop exactly,
    # and leave the generator in the same state
    rng = np.random.default_rng([n, k, dim])
    params = rng.standard_normal((n, dim))
    scores = spread * rng.uniform(0.0, 1.0, n)
    log_prior = np.log(rng.dirichlet(np.ones(n)))
    got_rng, want_rng = np.random.default_rng([7, n]), np.random.default_rng([7, n])
    new, retained, retired, post, log_post = resampled(params, scores, log_prior, lam, 0.3, k, got_rng)
    want = reference_resample(params, scores, log_prior, lam, 0.3, k, want_rng)
    for have, expect in zip((new, retained, retired, post), want):
        np.testing.assert_array_equal(have, expect)
    assert got_rng.random() == want_rng.random()
    assert np.all(np.isfinite(log_post))
    np.testing.assert_allclose(np.exp(log_post), post, rtol=1e-12, atol=1e-300)
    if spread > 1.0:
        assert np.min(post) == 0.0  # linear weights underflow, log weights do not
