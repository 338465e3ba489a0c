import numpy as np
import pytest

from fedgames.encoders import (
    EncoderConfig,
    EncoderParams,
    esn_encode,
    hard_sigmoid,
    rfn_encode,
    sample_encoders,
)
from fedgames.errors import EncodeError


def scalar_rfn(a, b, sigma):
    return EncoderParams(A=np.array([[a]]), B=None, b=np.array([[b]]), sigma=np.array([sigma]))


def test_rfn_zero_params():
    p = scalar_rfn(0.0, 0.0, 0.0)
    assert rfn_encode([1.0], p, [0.3])[0, 0] == 0.0


def test_rfn_hand_examples():
    p = scalar_rfn(1.0, -2.0, 0.0)
    assert rfn_encode([1.0], p, [0.0])[0, 0] == 0.0  # relu(-1)
    p = scalar_rfn(1.0, 0.0, 1.0)
    assert rfn_encode([1.0], p, [0.5])[0, 0] == pytest.approx(1.5)


def test_rfn_shape_mismatch():
    p = EncoderParams(A=np.zeros((2, 3)), B=None, b=np.zeros((2, 4)), sigma=np.zeros(2))
    with pytest.raises(EncodeError):
        rfn_encode(np.zeros(2), p, np.zeros(4))
    with pytest.raises(EncodeError):
        rfn_encode(np.zeros(3), p, np.zeros(5))


def test_esn_zero_params_hits_half():
    p = EncoderParams(
        A=np.zeros((1, 1)), B=np.zeros((1, 1)), b=np.zeros((1, 1)), sigma=np.zeros(1)
    )
    # hard sigmoid convention clamp((x+3)/6, 0, 1) evaluates to 0.5 at 0
    assert esn_encode([0.0], np.zeros((1, 1)), p, [0.0])[0, 0] == 0.5


def test_esn_reduces_to_rfn_without_recurrence():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 4))
    sig = np.abs(rng.standard_normal(2))
    x = rng.standard_normal(3)
    noise = rng.standard_normal(4)
    esn = EncoderParams(A=A, B=np.zeros((2, 2)), b=b, sigma=sig)
    rfn = EncoderParams(A=A, B=None, b=b, sigma=sig)
    pre = A @ np.tile(x[:, None], (1, 4)) + b + sig[:, None] @ noise[None, :]
    np.testing.assert_allclose(esn_encode(x, np.zeros((2, 4)), esn, noise), hard_sigmoid(pre))
    np.testing.assert_allclose(rfn_encode(x, rfn, noise), np.maximum(pre, 0.0))


def test_esn_deterministic_given_noise():
    rng = np.random.default_rng(1)
    p = sample_encoders(EncoderConfig("esn", 0.5), None, 2, 3, 2, rng)
    x, z, noise = rng.standard_normal(2), rng.standard_normal((2, 3)), rng.standard_normal(3)
    np.testing.assert_array_equal(esn_encode(x, z, p, noise), esn_encode(x, z, p, noise))


def test_esn_tanh_option_bounded():
    rng = np.random.default_rng(2)
    p = sample_encoders(EncoderConfig("esn", 1.0, "tanh"), None, 2, 3, 2, rng)
    z = esn_encode(rng.standard_normal(2), rng.standard_normal((2, 3)), p, rng.standard_normal(3))
    assert np.all(z >= -1.0) and np.all(z <= 1.0)


def test_sampled_params_finite():
    rng = np.random.default_rng(3)
    p = sample_encoders(EncoderConfig("rfn", 0.1), None, 3, 4, 2, rng)
    z = rfn_encode(rng.standard_normal(2), p, rng.standard_normal(4))
    assert z.shape == (3, 4) and np.all(np.isfinite(z))


@pytest.mark.parametrize("activation", ["hard_sigmoid", "tanh"])
def test_encoders_keep_the_order_of_their_sums(activation):
    # the in-place kernel sums A[x..x] + b + sigma W (+ B Z) left to right,
    # as the one expression below does
    rng = np.random.default_rng(4)
    n, d_y, d_z, d_x = 6, 2, 3, 2
    esn = sample_encoders(EncoderConfig("esn", 0.7, activation), n, d_y, d_z, d_x, rng)
    rfn = EncoderParams(A=esn.A, B=None, b=esn.b, sigma=esn.sigma)
    x, noise, z_prev = rng.standard_normal(d_x), rng.standard_normal((n, d_z)), rng.uniform(0, 1, (n, d_y, d_z))
    pre = (esn.A @ x)[..., None] + esn.b + esn.sigma[..., None] * noise[..., None, :]
    np.testing.assert_array_equal(rfn_encode(x, rfn, noise), np.maximum(pre, 0.0))
    pre = pre + esn.B @ z_prev
    want = np.tanh(pre) if activation == "tanh" else np.clip((pre + 3.0) / 6.0, 0.0, 1.0)
    np.testing.assert_array_equal(esn_encode(x, z_prev, esn, noise), want)


def test_esn_checks_its_carry():
    rng = np.random.default_rng(5)
    p = sample_encoders(EncoderConfig("esn", 0.5), 4, 2, 3, 2, rng)
    x, noise = rng.standard_normal(2), rng.standard_normal((4, 3))
    z_prev = rng.uniform(0, 1, (4, 2, 3))
    z_prev[2, 1, 0] = np.nan
    with pytest.raises(EncodeError, match="z_prev contains non-finite entries"):
        esn_encode(x, z_prev, p, noise)
    with pytest.raises(EncodeError, match="z_prev has shape"):
        esn_encode(x, z_prev[:3], p, noise)
    # a finite carry whose sum overflows is searched entry by entry, and passes
    with np.errstate(over="ignore", invalid="ignore"):
        z = esn_encode(x, np.full((4, 2, 3), 1e308), p, noise)
    assert z.shape == (4, 2, 3)


ENCODER_RULES = [
    ("A", np.inf, "A contains non-finite entries"),
    ("B", np.nan, "B contains non-finite entries"),
    ("b", -np.inf, "b contains non-finite entries"),
    ("sigma", np.nan, "sigma contains non-finite entries"),
    ("sigma", -0.1, "sigma must be nonnegative"),
    ("activation", "relu", "unknown activation 'relu'"),
]


@pytest.mark.parametrize(
    "kind, field, value, match",
    [
        pytest.param(kind, field, value, match, id=f"{kind}-{field}-{value}")
        for kind in ("rfn", "esn")
        for field, value, match in ENCODER_RULES
        if (kind, field) != ("rfn", "B")
    ],
)
def test_encoder_rules(kind, field, value, match):
    # every encoder, feed-forward (no B) or recurrent, checks each array it
    # holds for finiteness, its sigma for sign and its activation by name
    p = sample_encoders(EncoderConfig(kind, 0.5), 3, 2, 4, 2, np.random.default_rng(6))
    fields = {"A": p.A, "B": p.B, "b": p.b, "sigma": p.sigma, "activation": p.activation}
    if field == "activation":
        fields[field] = value
    else:
        fields[field] = fields[field].copy()
        fields[field][1, 0] = value
    with pytest.raises(EncodeError, match=match):
        EncoderParams(**fields)
