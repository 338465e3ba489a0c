import numpy as np
import pytest

from fedgames.ridge import RidgeConfig, ridge_action, ridge_design


def stack_pairs(pairs):
    """(k, d_y, d_z) latents and (k, d_y) residuals of a list of pairs."""
    return np.stack([z for z, _ in pairs]), np.stack([r for _, r in pairs])


def test_single_sample_scalar():
    cfg = RidgeConfig(window_T=4, alpha=0.0, gamma=1.0)
    beta = ridge_action(np.array([[[1.0]]]), np.array([[1.0]]), cfg)
    assert beta[0] == pytest.approx(0.5)  # (1 + 1)^-1 * 1


def test_zero_residuals_zero_action():
    rng = np.random.default_rng(0)
    cfg = RidgeConfig(window_T=8, alpha=0.3, gamma=0.5)
    hist = stack_pairs([(rng.standard_normal((2, 3)), np.zeros(2)) for _ in range(5)])
    np.testing.assert_allclose(ridge_action(*hist, cfg), 0.0, atol=1e-14)


def test_normal_equation_identity():
    # first-order optimality: X'(ybar - X beta) = gamma beta
    rng = np.random.default_rng(1)
    cfg = RidgeConfig(window_T=16, alpha=0.2, gamma=0.7)
    hist = stack_pairs([(rng.standard_normal((2, 4)), rng.standard_normal(2)) for _ in range(6)])
    beta = ridge_action(*hist, cfg)
    X, ybar = ridge_design(*hist, cfg)
    np.testing.assert_allclose(X.T @ (ybar - X @ beta), cfg.gamma * beta, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_matches_augmented_least_squares(seed):
    # independent oracle: lstsq on [X; sqrt(gamma) I] b ~ [ybar; 0]
    rng = np.random.default_rng(seed)
    d_z = int(rng.integers(1, 9))
    window = int(rng.integers(1, 17))
    cfg = RidgeConfig(window_T=window, alpha=float(rng.uniform(0, 0.5)), gamma=float(rng.uniform(0.1, 2)))
    hist = stack_pairs([(rng.standard_normal((3, d_z)), rng.standard_normal(3)) for _ in range(window)])
    beta = ridge_action(*hist, cfg)
    X, ybar = ridge_design(*hist, cfg)
    aug = np.vstack([X, np.sqrt(cfg.gamma) * np.eye(d_z)])
    rhs = np.concatenate([ybar, np.zeros(d_z)])
    oracle = np.linalg.lstsq(aug, rhs, rcond=None)[0]
    np.testing.assert_allclose(beta, oracle, atol=1e-8)


def test_discount_weights_on_both_sides():
    cfg = RidgeConfig(window_T=3, alpha=0.8, gamma=1.0)
    X, ybar = ridge_design(np.ones((2, 1, 1)), np.full((2, 1), 2.0), cfg)
    w = np.exp(-0.8 / 2)
    np.testing.assert_allclose(X[:, 0], [w, 1.0])
    np.testing.assert_allclose(ybar, [2 * w, 2.0])


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        ridge_action(np.zeros((0, 1, 1)), np.zeros((0, 1)), RidgeConfig(window_T=1, alpha=0.0, gamma=1.0))


def test_batched_matches_one_solve_per_agent():
    rng = np.random.default_rng(7)
    cfg = RidgeConfig(window_T=4, alpha=0.3, gamma=0.6)
    Z, R = rng.standard_normal((5, 4, 2, 3)), rng.standard_normal((5, 4, 2))
    batched = ridge_action(Z, R, cfg)
    for n in range(5):
        np.testing.assert_allclose(batched[n], ridge_action(Z[n], R[n], cfg), rtol=1e-12, atol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        RidgeConfig(window_T=0, alpha=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        RidgeConfig(window_T=1, alpha=0.0, gamma=0.0)
