import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgames.errors import MomentError
from fedgames.model import (
    IidEntryLatents,
    MomentSet,
    estimate_moments,
    exact_moments_deterministic,
)


def test_constant_scalar_bank():
    mom = estimate_moments(np.full((1, 5, 1, 1), 2.0))
    assert mom.m1[0] == pytest.approx(2.0)
    assert mom.m2[0] == pytest.approx(4.0)
    assert mom.weighted_m2(0, np.array([[3.0]])) == pytest.approx(12.0)


def test_pm1_monte_carlo():
    # i.i.d. +/-1 scalars: mean within 1/sqrt(n) band, second moment exact.
    rng = np.random.default_rng(7)
    draws = rng.choice([-1.0, 1.0], size=(100_000, 1, 1))
    mom = estimate_moments(draws[None])
    assert -0.02 <= mom.m1[0, 0, 0] <= 0.02
    assert mom.m2[0, 0, 0] == 1.0


def test_weighted_identity_bit_for_bit():
    rng = np.random.default_rng(3)
    mom = estimate_moments(rng.standard_normal((4, 17, 3, 2)))
    for t in range(4):
        w = mom.weighted_m2(t, np.eye(3))
        assert np.array_equal(w, mom.m2[t])


def test_single_sample_equals_deterministic():
    # a one-sample bank and the closed form at zero width are the same
    # degenerate distribution, and both constructors build the same arrays
    rng = np.random.default_rng(11)
    zs = [rng.standard_normal((2, 3)) for _ in range(3)]
    b = exact_moments_deterministic(zs)
    w = rng.standard_normal((2, 2))
    for a in (
        estimate_moments(np.stack(zs)[:, None]),
        IidEntryLatents(mean=np.stack(zs), half_width=0.0).exact_moments(),
    ):
        np.testing.assert_array_equal(a.m1, b.m1)
        np.testing.assert_array_equal(a.m2, b.m2)
        np.testing.assert_array_equal(a.units, b.units)
        np.testing.assert_array_equal(a.weighted_m2(1, w), b.weighted_m2(1, w))


def test_deterministic_examples():
    zero = exact_moments_deterministic([np.zeros((2, 2))])
    assert np.all(zero.m1 == 0) and np.all(zero.m2 == 0)
    one = exact_moments_deterministic([np.array([[1.0]])])
    assert one.m1[0] == pytest.approx(1.0)
    assert one.m2[0] == pytest.approx(1.0)
    # d_y=2, d_z=1, z = [1, 1]': weighted second moment with identity is 2.
    two = exact_moments_deterministic([np.array([[1.0], [1.0]])])
    assert two.weighted_m2(0, np.eye(2))[0, 0] == pytest.approx(2.0)


def test_empty_bank_raises():
    with pytest.raises(MomentError, match="empty sample bank"):
        estimate_moments([])
    with pytest.raises(MomentError, match="empty sample bank"):
        estimate_moments(np.zeros((0, 3, 1, 1)))
    with pytest.raises(MomentError, match="count >= 1"):
        estimate_moments(np.zeros((2, 0, 1, 1)))
    with pytest.raises(MomentError, match="count >= 1"):
        estimate_moments(np.zeros((2, 1, 1)))  # no replica axis


def test_nonfinite_bank_raises():
    # the sum of m2 settles a finite bank in one reduction; when it is not
    # finite the steps are searched, and an overflowing sum of finite
    # moments raises nothing
    bank = np.zeros((3, 4, 1, 2))
    assert np.isfinite(estimate_moments(np.full_like(bank, 6e153)).m2).all()  # entries 3.6e307
    bank[1, 2, 0, 1] = np.nan
    with pytest.raises(MomentError, match="bank at t=1 contains non-finite samples"):
        estimate_moments(bank)
    bank[1, 2, 0, 1] = 0.0
    # +inf and -inf in one step: their mean is an invalid operation, which
    # must raise the MomentError, not a RuntimeWarning
    bank[2, 0, 0, 0], bank[2, 1, 0, 0] = np.inf, -np.inf
    with pytest.raises(MomentError, match="bank at t=2 contains non-finite samples"):
        estimate_moments(bank)


def test_overflowing_second_moments_raise():
    # finite samples whose squares overflow give infinite moments: the
    # MomentError names the first such step, with no RuntimeWarning
    with pytest.raises(MomentError, match="bank at t=0 has second moments that overflow"):
        estimate_moments(np.full((3, 4, 1, 2), 1e308))
    bank = np.zeros((3, 4, 1, 2))
    bank[2, 1, 0, 0] = 1e200
    with pytest.raises(MomentError, match="bank at t=2 has second moments that overflow"):
        estimate_moments(bank)


def test_units_must_match_m1():
    with pytest.raises(MomentError):
        MomentSet(m1=np.zeros((2, 2, 3)), units=np.zeros((2, 4, 4)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_weighted_m2_psd_property(count, d_y, d_z, seed):
    rng = np.random.default_rng(seed)
    mom = estimate_moments(rng.standard_normal((1, count, d_y, d_z)))
    root = rng.standard_normal((d_y, d_y))
    w = root @ root.T  # symmetric PSD weight
    out = mom.weighted_m2(0, w)
    assert np.max(np.abs(out - out.T)) <= 1e-10
    assert np.min(np.linalg.eigvalsh(0.5 * (out + out.T))) >= -1e-10
    # the unit weight E_ab reads row a d_y + b of the unit moments
    for a in range(d_y):
        for b in range(d_y):
            unit = np.zeros((d_y, d_y))
            unit[a, b] = 1.0
            np.testing.assert_array_equal(mom.weighted_m2(0, unit), mom.units[0, a * d_y + b].reshape(d_z, d_z))


def test_moments_seed_stable():
    def build():
        rng = np.random.default_rng(123)
        return estimate_moments(rng.standard_normal((3, 9, 2, 2)))

    a, b = build(), build()
    np.testing.assert_array_equal(a.m1, b.m1)
    np.testing.assert_array_equal(a.m2, b.m2)


def test_closed_form_iid_moments_match_bank():
    rng = np.random.default_rng(5)
    mean = rng.standard_normal((2, 2, 3))
    lat = IidEntryLatents(mean=mean, half_width=0.6)
    exact = lat.exact_moments()
    draws = np.stack([lat.sample(0, 200_000, rng) for _ in range(1)])[0]
    est = estimate_moments((draws, draws))
    np.testing.assert_allclose(est.m1[0], exact.m1[0], atol=5e-3)
    np.testing.assert_allclose(est.m2[0], exact.m2[0], atol=1e-2)
    w = rng.standard_normal((2, 2))
    np.testing.assert_allclose(
        est.weighted_m2(0, w), exact.weighted_m2(0, w), atol=2e-2
    )


def _loop_weighted_m2(z, w):
    return np.mean([zs.T @ w @ zs for zs in z], axis=0)


def test_batched_weighted_m2_matches_loop():
    rng = np.random.default_rng(9)
    # a stack of weights against one bank
    z = rng.standard_normal((11, 2, 2))
    mom = estimate_moments(z[None])
    ws = rng.standard_normal((4, 2, 2))
    batch = mom.weighted_m2(0, ws)
    for i, w in enumerate(ws):
        np.testing.assert_allclose(batch[i], _loop_weighted_m2(z, w), rtol=0, atol=1e-14)

    # closed-form moments
    lat = IidEntryLatents(mean=rng.standard_normal((3, 2, 3)), half_width=0.6)
    for t in range(3):
        batch = lat.exact_moments().weighted_m2(t, ws)
        m = lat.mean[t]
        for i, w in enumerate(ws):
            loop = m.T @ w @ m + lat.var * np.trace(w) * np.eye(3)
            np.testing.assert_allclose(batch[i], loop, rtol=0, atol=1e-14)

    # a round-batched bank (T, R, S, d_y, d_z): one weight per round, each
    # against its own bank; the stacked reduction gives every (t, r) entry
    # the m1, m2 and units of a lone one-step, one-round call, bit for bit
    for T, count, d_z in ((2, 11, 3), (3, 1, 3), (3, 1, 1), (4, 9, 1)):
        banks = rng.standard_normal((T, 4, count, 2, d_z))
        mom = estimate_moments(banks)
        assert mom.m1.shape == (T, 4, 2, d_z) and mom.m2.shape == (T, 4, d_z, d_z)
        for t in range(T):
            batch = mom.weighted_m2(t, ws)
            for r, w in enumerate(ws):
                np.testing.assert_allclose(batch[r], _loop_weighted_m2(banks[t, r], w), rtol=0, atol=1e-14)
                one = estimate_moments(banks[t, r][None])
                np.testing.assert_array_equal(mom.m1[t, r], one.m1[0])
                np.testing.assert_array_equal(mom.m2[t, r], one.m2[0])
                np.testing.assert_array_equal(mom.units[t, r], one.units[0])
                np.testing.assert_array_equal(batch[r], one.weighted_m2(0, w))


@pytest.mark.parametrize("count,d_y,d_z", [(1, 2, 1), (1, 1, 1), (3, 2, 1), (11, 2, 3)])
def test_weight_stack_over_one_bank_matches_lone_weights(count, d_y, d_z):
    # weighted_m2 gives each entry of a weight stack against one bank, and
    # each round of a round-stacked bank, the bits of a lone call; one
    # sample with d_y 2, d_z 1 is the shape where an einsum over the stack
    # summed in another order
    rng = np.random.default_rng(10 + count + d_y + d_z)
    mom = estimate_moments(rng.standard_normal((1, count, d_y, d_z)))
    closed = IidEntryLatents(mean=rng.standard_normal((1, d_y, d_z)), half_width=0.5).exact_moments()
    rounds = rng.standard_normal((6, count, d_y, d_z))
    stacked = estimate_moments(rounds[None])
    alone = [estimate_moments(bank[None]) for bank in rounds]
    for _ in range(20):
        ws = rng.standard_normal((6, d_y, d_y))
        for moments in (mom, closed):
            batch = moments.weighted_m2(0, ws)
            assert batch.shape == (6, d_z, d_z)
            for p in range(6):
                np.testing.assert_array_equal(batch[p], moments.weighted_m2(0, ws[p]))
        batch = stacked.weighted_m2(0, ws)
        assert batch.shape == (6, d_z, d_z)
        for r in range(6):
            np.testing.assert_array_equal(batch[r], alone[r].weighted_m2(0, ws[r]))
