import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import episode_metrics, public_episode, reference_episode

import fedgames
from fedgames.datasets import DatasetSpec
from fedgames.errors import DynamicsError, EncodeError, MomentError
from fedgames.harness import (
    COST_QUANTILES,
    EncoderConfig,
    EpisodeTrace,
    Scenario,
    SpawnerConfig,
    _rng,
    _spawn_between_rounds,
    aggregate_predictions,
    aggregation_weights,
    run_episode,
    step_dynamics,
)
from fedgames.encoders import sample_encoders
from fedgames.model import GameParams, TargetSeries, estimate_moments
from fedgames.nash_full import full_backward_pass, rounds_per_pass
from fedgames.pool import AgentPool
from fedgames.ridge import RidgeConfig, ridge_action


def scalar_params(**over):
    base = dict(
        theta=1.0,
        theta_bar=0.0,
        kappa=1.0,
        kappa_bar=0.0,
        gamma=1.0,
        alpha=0.0,
        horizon_T=1,
        population_N=3,
        dim_y=1,
        dim_z=1,
    )
    base.update(over)
    return GameParams(**base)


def small_scenario(**over):
    defaults = dict(
        params=GameParams(
            theta=0.7,
            theta_bar=0.3,
            kappa=1.0,
            kappa_bar=0.5,
            gamma=1.0,
            alpha=0.01,
            horizon_T=2,
            population_N=3,
            dim_y=1,
            dim_z=2,
        ),
        dataset=DatasetSpec(kind="periodic", length=9),
        encoder=EncoderConfig(kind="rfn", sigma=0.1),
        mc_samples=8,
        ridge=RidgeConfig(window_T=3, alpha=0.1, gamma=0.5),
    )
    defaults.update(over)
    return Scenario(**defaults)


class TestStepDynamics:
    def test_frozen_without_actions(self):
        params = scalar_params()
        preds = np.array([[0.3], [0.5], [0.9]])
        out = step_dynamics(preds, np.ones((3, 1, 1)), np.zeros((3, 1)), params)
        np.testing.assert_allclose(out, preds)

    def test_scalar_hand_step(self):
        params = scalar_params()
        out = step_dynamics(
            np.zeros((3, 1)), np.ones((3, 1, 1)), np.full((3, 1), 0.5), params
        )
        np.testing.assert_allclose(out, 0.5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        params = scalar_params(theta=0.6, theta_bar=0.4, dim_y=2, dim_z=2)
        preds = rng.standard_normal((3, 2))
        lats = rng.standard_normal((3, 2, 2))
        acts = rng.standard_normal((3, 2))
        perm = np.array([2, 0, 1])
        out = step_dynamics(preds, lats, acts, params)
        out_p = step_dynamics(preds[perm], lats[perm], acts[perm], params)
        np.testing.assert_allclose(out_p, out[perm])

    def test_nonfinite_raises_with_agent(self):
        params = scalar_params()
        lats = np.ones((3, 1, 1))
        lats[1] = np.inf
        with pytest.raises(DynamicsError, match="agent 1"):
            step_dynamics(np.zeros((3, 1)), lats, np.ones((3, 1)), params)

    def test_overflowing_sum_of_finite_predictions_passes(self):
        # the one-reduction check sums the predictions; a sum that overflows
        # sends it to the per-agent search, which finds every agent finite
        acts = np.full((3, 1), 1e308)
        with np.errstate(over="ignore"):
            out = step_dynamics(np.zeros((3, 1)), np.ones((3, 1, 1)), acts, scalar_params())
        np.testing.assert_array_equal(out, acts)


def objective(predictions, actions, agent_n, params, values):
    """Sample-path game objective of one agent, summed over rounds."""
    aggregated = np.zeros(actions.shape[:2] + (params.dim_y,))
    return float(episode_metrics(predictions, actions, aggregated, params, values)["costs"][agent_n])


class TestObjective:
    def test_scalar_optimal_run_value(self):
        # y1 = 1 from Y0 = 0 with beta = 0.5: J = (0.5)^2 + (0.5)^2 = 0.5
        params = scalar_params(population_N=1)
        j = objective(
            np.array([[[[0.0]], [[0.5]]]]), np.array([[[[0.5]]]]), 0, params, np.array([[0.0], [1.0]])
        )
        assert j == pytest.approx(0.5)

    def test_zero_weights_zero_cost(self):
        scenario = small_scenario(
            params=scalar_params(kappa=0.0, kappa_bar=0.0, horizon_T=2, dim_z=2),
            dataset=DatasetSpec(kind="periodic", length=5),
        )
        trace = EpisodeTrace()
        rec = run_episode("full", scenario, seed=1, trace=trace)
        np.testing.assert_allclose(rec.costs, 0.0, atol=0)
        assert np.all(trace.actions == 0.0)

    def test_large_alpha_keeps_last_term(self):
        # alpha = 50 suppresses every stage cost except t = T-1
        params = scalar_params(alpha=50.0, horizon_T=3, population_N=1)
        j = objective(np.zeros((1, 4, 1, 1)), np.ones((1, 3, 1, 1)), 0, params, np.zeros((4, 1)))
        assert j == pytest.approx(1.0, abs=1e-20)


class TestRegret:
    def test_max_of_costs(self):
        from fedgames.harness import RunRecord

        record = RunRecord(
            policy="full",
            seed=0,
            targets=np.zeros((2, 1)),
            aggregated=np.zeros((1, 1, 1)),
            costs=np.array([0.1, 0.7, 0.3]),
            round_cost_quantiles={},
            rmse_aggregated=0.0,
            rmse_worst=0.0,
            rmse_bottom20=0.0,
            messages_per_step=0,
        )
        assert record.regret == pytest.approx(0.7)
        # raising any single cost cannot lower the regret
        record.costs = np.array([0.1, 0.7, 0.65])
        assert record.regret >= 0.7
        record.costs = np.full(3, 0.4)  # identical agents: regret is J_1
        assert record.regret == pytest.approx(0.4)


class TestAggregation:
    def test_equal_errors_uniform(self):
        preds = np.array([[1.0], [2.0], [3.0]])
        agg, w = aggregate_predictions(preds, [np.ones(3)], 0.2, 4)
        np.testing.assert_allclose(w, 1 / 3)
        assert agg[0] == pytest.approx(2.0)

    def test_softmax_arithmetic(self):
        w = aggregation_weights(np.array([[0.0, np.log(3.0)]]), alpha_a=0.2)
        np.testing.assert_allclose(w, [3 / 4, 1 / 4], atol=1e-12)

    def test_single_agent_weight_one(self):
        agg, w = aggregate_predictions(np.array([[5.0]]), [np.array([2.0])], 0.2, 3)
        assert w[0] == pytest.approx(1.0)
        assert agg[0] == pytest.approx(5.0)

    def test_empty_history_uniform(self):
        _, w = aggregate_predictions(np.array([[1.0], [3.0]]), [], 0.2, 3)
        np.testing.assert_allclose(w, 0.5)

    def test_weights_simplex_and_equivariant(self):
        rng = np.random.default_rng(1)
        errors = rng.uniform(0, 4, size=(5, 6))
        w = aggregation_weights(errors, 0.3)
        assert abs(w.sum() - 1.0) <= 1e-12
        perm = rng.permutation(6)
        np.testing.assert_allclose(aggregation_weights(errors[:, perm], 0.3), w[perm])


class TestRunEpisode:
    def test_deterministic_under_seed(self):
        scenario = small_scenario()
        ta, tb = EpisodeTrace(), EpisodeTrace()
        a = run_episode("reduced", scenario, seed=3, trace=ta)
        b = run_episode("reduced", scenario, seed=3, trace=tb)
        np.testing.assert_array_equal(ta.predictions, tb.predictions)
        np.testing.assert_array_equal(ta.actions, tb.actions)
        np.testing.assert_array_equal(a.aggregated, b.aggregated)
        assert a.regret == b.regret

    def test_full_vs_reduced_match(self):
        scenario = small_scenario()
        ta, tb = EpisodeTrace(), EpisodeTrace()
        run_episode("full", scenario, seed=4, trace=ta)
        run_episode("reduced", scenario, seed=4, trace=tb)
        np.testing.assert_allclose(ta.predictions, tb.predictions, atol=1e-7)
        np.testing.assert_allclose(ta.actions, tb.actions, atol=1e-7)

    def test_zero_weights_identical_across_policies(self):
        scenario = small_scenario(
            params=scalar_params(kappa=0.0, kappa_bar=0.0, horizon_T=2, dim_z=2),
            dataset=DatasetSpec(kind="periodic", length=5),
        )
        traces = {p: EpisodeTrace() for p in ("full", "reduced", "decentralized", "greedy")}
        for p, trace in traces.items():
            rec = run_episode(p, scenario, seed=5, trace=trace)
            assert np.all(trace.actions == 0.0), p
            np.testing.assert_allclose(rec.costs, 0.0)
            np.testing.assert_array_equal(trace.predictions, traces["full"].predictions)

    def test_all_policies_run_and_record(self):
        scenario = small_scenario()
        for policy in ("full", "reduced", "decentralized", "greedy"):
            rec = run_episode(policy, scenario, seed=6)
            assert rec.costs.shape == (3,)
            assert np.all(rec.costs >= 0.0)
            assert rec.regret == pytest.approx(np.max(rec.costs))
            assert np.isfinite(rec.rmse_aggregated)
            assert rec.rmse_worst >= rec.rmse_bottom20 - 1e-12

    def test_esn_policy_runs(self):
        scenario = small_scenario(encoder=EncoderConfig(kind="esn", sigma=0.1))
        trace = EpisodeTrace()
        run_episode("decentralized", scenario, seed=7, trace=trace)
        assert np.all(np.isfinite(trace.predictions))

    def test_spawner_runs_and_logs(self):
        scenario = small_scenario(
            dataset=DatasetSpec(kind="periodic", length=9),
            spawner=SpawnerConfig(retire_k=1, lam=1.0, sigma_t=0.05),
        )
        rec = run_episode("decentralized", scenario, seed=8)
        assert len(rec.spawn_events) == 3  # rounds - 1
        for ev in rec.spawn_events:
            assert len(ev["retired"]) == 1
            assert json.dumps(ev)  # serializable

    def test_spawner_with_orthogonalize(self):
        scenario = small_scenario(
            spawner=SpawnerConfig(
                retire_k=1, lam=1.0, sigma_t=0.05, zeta1=0.5, zeta2=0.3, orthogonalize=True
            ),
        )
        rec = run_episode("decentralized", scenario, seed=9)
        assert any("lambda_star" in ev for ev in rec.spawn_events)
        for ev in rec.spawn_events:
            if "kkt_residual" in ev:
                assert ev["kkt_residual"] <= 1e-8

    def test_spawner_round_keeps_underflowing_weights(self):
        # lam x (score gap) = 1000: every retained agent but the best has a
        # Gibbs mass below the smallest double. Carried as log weights it
        # stays finite, and the next round can reweigh it; carried linearly
        # it was 0 and the next round raised DegenerateError.
        n, d_y, d_z = 6, 1, 2
        scenario = small_scenario(
            spawner=SpawnerConfig(retire_k=2, lam=100.0, sigma_t=0.05, zeta1=0.5, zeta2=0.3, orthogonalize=True)
        )
        rng = np.random.default_rng(0)
        pool = AgentPool.create(sample_encoders(EncoderConfig("rfn", 0.1), n, d_y, d_z, 2, rng))
        latents = pool.esn_state = rng.uniform(0.0, 1.0, (n, d_y, d_z))
        scores = 10.0 * np.arange(n)
        log_weights = np.full(n, -np.log(n))
        events = []
        for r in range(3):
            log_weights = _spawn_between_rounds(
                scenario, pool, log_weights, scores, _rng(5, 999, r), r, events, latents,
                rng.standard_normal((n, d_z)), np.array([0.5]),
            )
            assert np.all(np.isfinite(log_weights))
        assert [ev["round"] for ev in events] == [0, 1, 2]
        assert events[0]["weights"][0] == 1.0 and min(events[0]["weights"]) == 0.0
        assert np.all(np.isfinite(pool.rows))

    @pytest.mark.parametrize("kind", ["rfn", "esn"])
    def test_respawn_writes_only_its_rows(self, kind):
        # the new rows go into the pool's rows in place, which the encoder
        # views; every other row keeps its bits, and a non-finite row
        # raises before anything is written
        n, d_y, d_z, d_x = 5, 2, 3, 2
        rng = np.random.default_rng(4)
        pool = AgentPool.create(sample_encoders(EncoderConfig(kind, 0.1), n, d_y, d_z, d_x, rng))
        pool.esn_state = rng.uniform(0.0, 1.0, (n, d_y, d_z))
        pool.steer(np.array([0, 3]), rng.standard_normal((2, d_z, d_z)))
        rows, maps, state, encoder = pool.rows.copy(), pool.latent_transforms.copy(), pool.esn_state.copy(), pool.encoder
        old_state = pool.esn_state
        slots = np.array([3, 1])
        new = rng.standard_normal((2, pool.rows.shape[1]))
        new[:, -d_y:] = -0.2  # negative sigma, taken in absolute value

        bad = new.copy()
        bad[1, 0] = np.nan
        with pytest.raises(EncodeError):
            pool.respawn(slots, bad)
        np.testing.assert_array_equal(pool.rows, rows)
        np.testing.assert_array_equal(pool.latent_transforms, maps)
        np.testing.assert_array_equal(pool.esn_state, state)

        pool.respawn(slots, new)
        kept = np.array([0, 2, 4])
        np.testing.assert_array_equal(pool.rows[kept], rows[kept])
        np.testing.assert_array_equal(pool.rows[slots, :-d_y], new[:, :-d_y])
        np.testing.assert_array_equal(pool.rows[slots, -d_y:], 0.2)
        assert pool.encoder is encoder  # the same views, now reading the new rows
        names = ["A", "b", "sigma"] if kind == "rfn" else ["A", "B", "b", "sigma"]
        read = np.concatenate([getattr(pool.encoder, name).reshape(n, -1) for name in names], axis=1)
        np.testing.assert_array_equal(read, pool.rows)
        np.testing.assert_array_equal(pool.latent_transforms[slots], np.tile(np.eye(d_z), (2, 1, 1)))
        np.testing.assert_array_equal(pool.latent_transforms[kept], maps[kept])
        np.testing.assert_array_equal(pool.esn_state[slots], 0.0)
        np.testing.assert_array_equal(pool.esn_state[kept], state[kept])
        assert pool.esn_state is not old_state  # the old state is replaced, not written
        np.testing.assert_array_equal(old_state, state)

    def test_csv_dataset_episode(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "series.csv"
        vals = 0.5 * np.sin(np.arange(12)) + 0.1 * rng.standard_normal(12)
        path.write_text("v\n" + "\n".join(repr(float(v)) for v in vals) + "\n", encoding="utf-8")
        scenario = small_scenario(
            dataset=DatasetSpec(
                kind="csv",
                length=12,
                parameters={"path": str(path), "target_columns": ["v"], "lag_spec": {"v": [1, 2]}},
            ),
        )
        trace = EpisodeTrace()
        run_episode("decentralized", scenario, seed=12, trace=trace)
        assert np.all(np.isfinite(trace.predictions))
        assert trace.predictions.shape[0] == 5  # (11 targets - 1 seed) // T=2

    def test_reduced_routes_n1_to_full(self):
        scenario = small_scenario(
            params=GameParams(
                theta=0.7,
                theta_bar=0.3,
                kappa=1.0,
                kappa_bar=0.0,
                gamma=1.0,
                alpha=0.0,
                horizon_T=2,
                population_N=1,
                dim_y=1,
                dim_z=2,
            ),
        )
        ta, tb = EpisodeTrace(), EpisodeTrace()
        run_episode("reduced", scenario, seed=11, trace=ta)
        run_episode("full", scenario, seed=11, trace=tb)
        np.testing.assert_array_equal(ta.predictions, tb.predictions)

    def test_message_counters(self):
        scenario = small_scenario()
        assert run_episode("full", scenario, seed=10).messages_per_step == 6
        assert run_episode("greedy", scenario, seed=10).messages_per_step == 4
        assert run_episode("decentralized", scenario, seed=10).messages_per_step == 0

    def test_greedy_builds_no_bank(self, monkeypatch):
        import fedgames.harness as harness

        build_bank = harness._build_bank
        calls = []

        def no_bank(*args):
            raise AssertionError("the greedy baseline reads no latent bank")

        def counted(*args):
            calls.append(args)
            return build_bank(*args)

        scenario = small_scenario(encoder=EncoderConfig(kind="esn", sigma=0.1))
        monkeypatch.setattr(harness, "_build_bank", no_bank)
        trace = EpisodeTrace()
        run_episode("greedy", scenario, seed=12, trace=trace)
        assert np.all(np.isfinite(trace.predictions))
        monkeypatch.setattr(harness, "_build_bank", counted)
        run_episode("decentralized", scenario, seed=12)
        assert len(calls) == 1


PARITY_SPAWNERS = {
    "off": None,
    "on": SpawnerConfig(retire_k=1, lam=1.0, sigma_t=0.05),
    "ortho": SpawnerConfig(retire_k=1, lam=1.0, sigma_t=0.05, zeta1=0.5, zeta2=0.3, orthogonalize=True),
}


@pytest.mark.parametrize("spawner", sorted(PARITY_SPAWNERS))
@pytest.mark.parametrize("kind", ["rfn", "esn"])
@pytest.mark.parametrize("policy", ["full", "reduced", "decentralized", "greedy"])
def test_matches_per_agent_reference_loop(policy, kind, spawner):
    scenario = small_scenario(
        params=GameParams(
            theta=0.7, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
            horizon_T=2, population_N=4, dim_y=1, dim_z=2,
        ),
        dataset=DatasetSpec(kind="logistic_map", length=11, seed=3),
        encoder=EncoderConfig(kind=kind, sigma=0.1),
        aggregation_window=2,
        spawner=PARITY_SPAWNERS[spawner],
    )
    trace = EpisodeTrace()
    rec = run_episode(policy, scenario, seed=21, trace=trace)
    ref = reference_episode(policy, scenario, seed=21)
    got = {
        "predictions": trace.predictions,
        "actions": trace.actions,
        "aggregated": rec.aggregated,
        "costs": rec.costs,
        "round_cost_quantiles": np.stack(list(rec.round_cost_quantiles.values())),
    }
    ref["round_cost_quantiles"] = np.quantile(ref["costs_per_round"], list(COST_QUANTILES.values()), axis=1)
    for name, value in got.items():
        np.testing.assert_allclose(value, ref[name], rtol=1e-12, atol=1e-14, err_msg=name)
    assert rec.regret == pytest.approx(ref["regret"], rel=1e-12)


FUSED_ENCODERS = {
    "rfn": EncoderConfig(kind="rfn", sigma=0.1),
    "esn": EncoderConfig(kind="esn", sigma=0.1),
    "esn-tanh": EncoderConfig(kind="esn", sigma=0.1, activation="tanh"),
}


# (ridge window_T, aggregation window): windows of 1, below T = 2, and of
# 20, past the 8-step episode, pin both round histories at their edges
@pytest.mark.parametrize(
    "spawner,horizon_T,windows",
    [
        ("off", 2, (3, 2)),
        ("ortho", 2, (3, 2)),
        ("off", 1, (3, 2)),
        ("ortho", 1, (3, 2)),
        ("ortho", 2, (1, 1)),
        ("ortho", 2, (20, 20)),
    ],
    ids=["off", "ortho", "off-T1", "ortho-T1", "ortho-W1", "ortho-W20"],
)
@pytest.mark.parametrize("encoder", sorted(FUSED_ENCODERS))
@pytest.mark.parametrize("policy", ["full", "reduced", "decentralized", "greedy"])
def test_fused_step_matches_public_functions(policy, encoder, spawner, horizon_T, windows):
    # every step of the fused loop, on its buffers, equals one call of each
    # public function on fresh arrays, bit for bit, the policy's action
    # (full_action, reduced_action, decentralized_action on each round's
    # coefficients, or ridge_action) included; with "ortho" the spawner
    # gives the respawned agents steering maps from the second round on. At
    # horizon_T 1 a round's latents are one step, also the next round's carry
    scenario = small_scenario(
        params=GameParams(
            theta=0.7, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
            horizon_T=horizon_T, population_N=5, dim_y=2, dim_z=3,
        ),
        dataset=DatasetSpec(kind="concept_drift", length=9),
        encoder=FUSED_ENCODERS[encoder],
        ridge=RidgeConfig(window_T=windows[0], alpha=0.1, gamma=0.5),
        aggregation_window=windows[1],
        spawner=PARITY_SPAWNERS[spawner],
    )
    trace = EpisodeTrace()
    rec = run_episode(policy, scenario, seed=13, trace=trace)
    ref = public_episode(policy, scenario, seed=13)
    np.testing.assert_array_equal(trace.predictions, ref["predictions"])
    np.testing.assert_array_equal(trace.actions, ref["actions"])
    np.testing.assert_array_equal(rec.aggregated, ref["aggregated"])
    assert rec.spawn_events == ref["spawn_events"]
    if spawner == "ortho":
        assert all("lambda_star" in ev for ev in rec.spawn_events)


def test_greedy_window_matches_ridge_action_at_every_fill_level():
    # the round history's bookkeeping: each step solves the newest pairs,
    # as ridge_action does on them stacked (one solve of the same kernel),
    # at every fill level and across round boundaries, with the window
    # above, between and below the round's T steps; then, past several
    # round shifts, the same window solves every size k again through the
    # views that it built for k at its first solve
    from fedgames.ridge import RidgeWindow

    cfg = RidgeConfig(window_T=4, alpha=0.3, gamma=0.5)
    n, d_y, d_z, scale = 5, 2, 3, 0.8
    rng = np.random.default_rng(8)
    for T in (1, 3, 6):
        window = RidgeWindow(n, d_y, d_z, T, cfg)
        pairs_z, pairs_r = [], []
        for r in range(cfg.window_T // T + 3):  # fill levels 0..window_T, then sliding
            for t in range(T):
                k = min(r * T + t, cfg.window_T)
                if k:
                    want = ridge_action(np.stack(pairs_z[-k:], axis=1), np.stack(pairs_r[-k:], axis=1), cfg)
                else:
                    want = np.zeros((n, d_z))
                latents, target = rng.standard_normal((n, d_y, d_z)), rng.standard_normal(d_y)
                drift, mean_drift = rng.standard_normal((n, d_y)), rng.standard_normal(d_y)
                got = window.step(r, t, latents, target, drift, mean_drift, scale)
                np.testing.assert_array_equal(got, want, err_msg=f"T={T} round {r} step {t}, fill level {k}")
                pairs_z.append(scale * latents)
                pairs_r.append(scale * (target - drift - mean_drift))
        W = cfg.window_T
        views = dict(window.views)
        assert sorted(views) == list(range(1, W + 1))
        for k in range(1, W + 1):
            # the last round's shift put the newest W pairs in rows 0..W-1
            want = ridge_action(np.stack(pairs_z[-k:], axis=1), np.stack(pairs_r[-k:], axis=1), cfg)
            np.testing.assert_array_equal(window.solve(k, W), want, err_msg=f"T={T} size {k} after the shifts")
            assert window.views[k] is views[k]


def _held_bytes(obj) -> int:
    """Bytes of the distinct array buffers that ``obj``'s attributes reach,
    through tuples and lists; a view counts as the array it views."""
    buffers, todo = {}, list(vars(obj).values())
    while todo:
        item = todo.pop()
        if isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, np.ndarray):
            while item.base is not None:
                item = item.base
            buffers[id(item)] = item.nbytes
    return sum(buffers.values())


def test_greedy_window_memory_is_linear_in_the_window():
    # the (window + T)-row histories of Z and the residuals, the
    # window-row design they are weighted into, and the solve's per-agent
    # buffers (under 8 rows here); a buffer per fill level held 117 MB
    # here, quadratic in the window
    from fedgames.ridge import RidgeWindow

    n, d_y, d_z, T, size = 64, 1, 4, 4, 300
    window = RidgeWindow(n, d_y, d_z, T, RidgeConfig(window_T=size, alpha=0.1, gamma=0.5))
    row = 8 * n * d_y * (d_z + 1)  # one (Z, residual) row of every agent, in bytes
    assert _held_bytes(window) <= (2 * size + T + 8) * row


def test_windows_past_the_episode_change_nothing():
    # the greedy and aggregation windows never hold more steps than the
    # episode plays, rounds * T = 8 here, so larger windows give the same
    # record as windows of exactly that size, in the same memory (sized to
    # the window, the greedy one held 71 MB here)
    base = small_scenario(
        params=replace(small_scenario().params, population_N=64), spawner=SpawnerConfig(retire_k=4)
    )
    steps = 8
    capped = replace(base, ridge=replace(base.ridge, window_T=steps), aggregation_window=steps)
    large = replace(base, ridge=replace(base.ridge, window_T=300), aggregation_window=300)

    def traced(policy, scenario):
        tracemalloc.start()
        try:
            return run_episode(policy, scenario, seed=4), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for policy in ("greedy", "decentralized"):
        (a, peak_capped), (b, peak_large) = traced(policy, capped), traced(policy, large)
        assert peak_large <= 1.1 * peak_capped, (policy, peak_capped, peak_large)
        for name in ("aggregated", "costs", "round_cost_quantiles", "rmse_aggregated", "rmse_worst",
                     "rmse_bottom20", "max_abs_prediction", "spawn_events"):
            np.testing.assert_equal(getattr(a, name), getattr(b, name), err_msg=f"{policy} {name}")


@pytest.mark.parametrize("encoder", sorted(FUSED_ENCODERS))
def test_bank_matches_per_step_encoder_calls(encoder):
    from fedgames.datasets import build_dataset
    from fedgames.encoders import esn_encode, rfn_encode
    from fedgames.harness import _build_bank, _rng

    scenario = small_scenario(encoder=FUSED_ENCODERS[encoder], dataset=DatasetSpec(kind="concept_drift", length=9))
    p = scenario.params
    _, inputs = build_dataset(scenario.dataset)
    bank = _build_bank(scenario, inputs, 6)
    count = scenario.mc_samples
    encs = sample_encoders(scenario.encoder, count, p.dim_y, p.dim_z, inputs.shape[1], _rng(6, 71))
    z = np.zeros((count, p.dim_y, p.dim_z))
    assert bank.shape == (inputs.shape[0],) + z.shape
    for t in range(inputs.shape[0]):
        noise = _rng(6, 72, t).standard_normal((count, p.dim_z))
        z = rfn_encode(inputs[t], encs, noise) if encoder == "rfn" else esn_encode(inputs[t], z, encs, noise)
        np.testing.assert_array_equal(bank[t], z, err_msg=f"step {t}")


def test_bank_check_names_the_parent_errors():
    # a non-finite carry (any step of a recurrent bank but the last) is the
    # encoder's EncodeError, raised by _build_bank ahead of the moments;
    # any other non-finite sample is estimate_moments' MomentError naming
    # its step. A NaN input makes every replica of its step NaN.
    from fedgames.datasets import build_dataset
    from fedgames.encoders import check_carry
    from fedgames.harness import _build_bank

    with np.errstate(over="ignore"):
        check_carry(np.full((3, 4, 1, 2), 1e308))  # the sum overflows, every entry is finite
    for encoder, cfg in FUSED_ENCODERS.items():
        scenario = small_scenario(encoder=cfg, dataset=DatasetSpec(kind="concept_drift", length=5))
        _, inputs = build_dataset(scenario.dataset)
        last = inputs.shape[0] - 1
        estimate_moments(_build_bank(scenario, inputs, 6))
        bad = inputs.copy()
        bad[1] = np.nan
        if encoder == "rfn":
            with pytest.raises(MomentError, match="bank at t=1 "):
                estimate_moments(_build_bank(scenario, bad, 6))
        else:
            with pytest.raises(EncodeError, match="z_prev contains non-finite entries"):
                _build_bank(scenario, bad, 6)
        bad = inputs.copy()
        bad[last] = np.nan  # the last step is no step's carry
        with pytest.raises(MomentError, match=f"bank at t={last} "):
            estimate_moments(_build_bank(scenario, bad, 6))


def test_overflowing_episode_raises_dynamics_error():
    scenario = small_scenario(
        params=GameParams(
            theta=1e200, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
            horizon_T=4, population_N=3, dim_y=1, dim_z=2,
        ),
        encoder=EncoderConfig(kind="esn", sigma=0.1),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DynamicsError, match="^non-finite prediction for agent 0$"):
            run_episode("greedy", scenario, seed=4)


@pytest.mark.parametrize("key", [(0, 5, 0), (2**31 - 1, 72, 200), (2**32 - 1, 999, 3), (2**32, 5, 1)])
def test_keyed_stream_draws_the_list_seed_stream(key):
    from fedgames.harness import _rng

    np.testing.assert_array_equal(
        _rng(*key).standard_normal(64), np.random.default_rng(list(key)).standard_normal(64)
    )


def test_step_dynamics_keeps_the_order_of_its_sums():
    rng = np.random.default_rng(2)
    params = scalar_params(
        theta=rng.standard_normal((3, 3)), theta_bar=rng.standard_normal((3, 3)), population_N=7, dim_y=3, dim_z=4
    )
    preds = rng.standard_normal((7, 3)) * 1e3
    lats, acts = rng.standard_normal((7, 3, 4)), rng.standard_normal((7, 4))
    want = preds @ params.theta.T + preds.mean(axis=0) @ params.theta_bar.T + np.einsum("nij,nj->ni", lats, acts)
    np.testing.assert_array_equal(step_dynamics(preds, lats, acts, params), want)


STREAM_CASES = {
    "reduced-rfn": ("reduced", "rfn", None, 3),
    "decentralized-esn-ortho": ("decentralized", "esn", "ortho", 5),
    "greedy-rfn-spawner": ("greedy", "rfn", "on", 5),
    "full-esn": ("full", "esn", None, 4),
    "decentralized-rfn-N64": ("decentralized", "rfn", None, 64),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_metrics_match_trace(case):
    # the metrics folded in round by round equal the whole-episode
    # formulas applied to the traced histories, bit for bit (N > 1: the
    # sums over rounds and steps run in the same order)
    policy, kind, spawner, n = STREAM_CASES[case]
    scenario = small_scenario(
        params=GameParams(
            theta=0.7, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
            horizon_T=2, population_N=n, dim_y=2, dim_z=3,
        ),
        dataset=DatasetSpec(kind="concept_drift", length=23),
        encoder=EncoderConfig(kind=kind, sigma=0.1),
        aggregation_window=2,
        spawner=PARITY_SPAWNERS[spawner or "off"],
    )
    _assert_streamed_metrics_match_trace(policy, scenario, (11, 3, n, 2), (11, 2, n, 3))


def test_streamed_metrics_match_trace_three_targets(tmp_path):
    # three target coordinates: the squared error's sum over them has more
    # than two terms, and the kappa term and the rmse share it
    path = tmp_path / "three.csv"
    rows = np.random.default_rng(5).uniform(-1.0, 1.0, size=(13, 3))
    path.write_text("a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()), encoding="utf-8")
    scenario = small_scenario(
        params=GameParams(
            theta=0.7, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
            horizon_T=3, population_N=4, dim_y=3, dim_z=2,
        ),
        dataset=DatasetSpec(
            kind="csv",
            length=13,
            parameters={"path": str(path), "target_columns": ["a", "b", "c"], "lag_spec": {"a": [1], "c": [1, 2]}},
        ),
        aggregation_window=2,
    )
    _assert_streamed_metrics_match_trace("reduced", scenario, (3, 4, 4, 3), (3, 3, 4, 2))


def _assert_streamed_metrics_match_trace(policy, scenario, predictions_shape, actions_shape):
    trace = EpisodeTrace()
    rec = run_episode(policy, scenario, seed=17, trace=trace)
    assert trace.predictions.shape == predictions_shape
    assert trace.actions.shape == actions_shape
    want = episode_metrics(trace.predictions, trace.actions, rec.aggregated, scenario.params, rec.targets)
    np.testing.assert_array_equal(rec.costs, want["costs"])
    for name in ("regret", "rmse_aggregated", "rmse_worst", "rmse_bottom20"):
        assert getattr(rec, name) == want[name], name
    levels = list(COST_QUANTILES.values())
    np.testing.assert_allclose(
        np.stack(list(rec.round_cost_quantiles.values())),
        np.quantile(want["costs_per_round"], levels, axis=1),
        rtol=1e-15,
        atol=0,
    )


def test_episode_memory_does_not_grow_with_length():
    # a streamed episode keeps one round of per-agent arrays, so its peak
    # memory is set by N, not by N times the length; mc_samples is small
    # because the latent bank is O(length * mc_samples) by design
    def peak(length):
        scenario = Scenario(
            params=GameParams(
                theta=0.7, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
                horizon_T=4, population_N=5000, dim_y=1, dim_z=4,
            ),
            dataset=DatasetSpec(kind="logistic_map", length=length, seed=1),
            encoder=EncoderConfig(kind="rfn", sigma=0.1),
            mc_samples=8,
        )
        tracemalloc.start()
        try:
            run_episode("decentralized", scenario, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(101)  # the first episode of a process allocates some one-time state
    short, long = peak(101), peak(401)
    assert long <= 1.2 * short, (short, long)


def test_episode_imports_no_masked_arrays():
    # np.quantile and np.unique import numpy.ma on their first call, which
    # costs a fresh process more than a small episode's metrics
    code = (
        "import sys\n"
        "from fedgames.datasets import DatasetSpec\n"
        "from fedgames.harness import Scenario, run_episode\n"
        "from fedgames.model import GameParams\n"
        "params = GameParams(theta=0.7, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0,\n"
        "                    alpha=0.01, horizon_T=2, population_N=5, dim_y=1, dim_z=2)\n"
        "scenario = Scenario(params=params, dataset=DatasetSpec(kind='periodic', length=9), mc_samples=4)\n"
        "run_episode('decentralized', scenario, seed=1)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fedgames.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_agent_major_streams():
    # the first 8 agents of an N=16 episode draw the same encoder and noise
    # rows as an N=8 episode; with theta_bar = 0 and the N-free
    # decentralized policy nothing else couples them, so their paths agree
    from fedgames.harness import _rng

    cfg = EncoderConfig(kind="esn", sigma=0.1)
    small = sample_encoders(cfg, 8, 2, 3, 2, _rng(5, 11))
    large = sample_encoders(cfg, 16, 2, 3, 2, _rng(5, 11))
    for name in ("A", "B", "b", "sigma"):
        np.testing.assert_array_equal(getattr(large, name)[:8], getattr(small, name))

    traces = {}
    for n in (8, 16):
        scenario = small_scenario(
            params=GameParams(
                theta=0.7, theta_bar=0.0, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
                horizon_T=2, population_N=n, dim_y=1, dim_z=3,
            ),
            encoder=cfg,
        )
        traces[n] = EpisodeTrace()
        run_episode("decentralized", scenario, seed=5, trace=traces[n])
    np.testing.assert_allclose(traces[16].predictions[:, :, :8], traces[8].predictions, rtol=1e-13, atol=0)
    np.testing.assert_allclose(traces[16].actions[:, :, :8], traces[8].actions, rtol=1e-13, atol=0)


def test_aggregation_reads_only_the_window():
    rng = np.random.default_rng(3)
    preds = rng.standard_normal((4, 2))
    history = list(rng.uniform(0, 2, size=(50, 4)))
    agg_long, w_long = aggregate_predictions(preds, history, 0.3, 3)
    agg_short, w_short = aggregate_predictions(preds, history[-3:], 0.3, 3)
    np.testing.assert_array_equal(w_long, w_short)
    np.testing.assert_array_equal(agg_long, agg_short)


def test_aggregation_window_must_be_positive():
    with pytest.raises(ValueError, match="aggregation_window"):
        small_scenario(aggregation_window=0)


def full_cell(N, length, d_y=1, d_z=4, T=4, kind="logistic_map"):
    return small_scenario(
        params=GameParams(
            theta=0.7, theta_bar=0.3, kappa=1.0, kappa_bar=0.5, gamma=1.0, alpha=0.01,
            horizon_T=T, population_N=N, dim_y=d_y, dim_z=d_z,
        ),
        dataset=DatasetSpec(kind=kind, length=length, seed=2),
        mc_samples=20,
    )


@pytest.mark.parametrize(
    "N,length,passes",
    [
        (8, 17, 1),  # shaped like the benchmark's full_oracle cells: 4 rounds in one chunk
        (16, 17, 1),
        (32, 13, 3),  # N at the ceiling: one round per chunk
    ],
)
def test_full_cell_solves_one_pass_per_chunk(monkeypatch, N, length, passes):
    import fedgames.harness as harness

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].m1.shape[1])
        return full_backward_pass(*args, **kwargs)

    monkeypatch.setattr(harness, "full_backward_pass", counted)
    run_episode("full", full_cell(N, length), seed=1)
    assert len(calls) == passes
    assert sum(calls) == (length - 1) // 4


def test_chunked_full_rounds_match_lone_passes():
    # 11 rounds at N = 16 span three chunks of rounds_per_pass(16) = 4; the
    # coefficients each round plays are its lone pass's, bit for bit
    from fedgames.datasets import build_dataset
    from fedgames.harness import SeedWork, _build_bank, _solve_episode

    N, T, d_y, d_z, length = 16, 2, 2, 3, 23
    scenario = full_cell(N, length, d_y, d_z, T, kind="concept_drift")
    targets, inputs = build_dataset(scenario.dataset)
    rounds = (length - 1) // T
    assert rounds > 2 * rounds_per_pass(N)
    kind, solved, _ = _solve_episode("full", scenario, SeedWork(scenario, 3, [("full", N)]))
    assert kind == "full"
    bank = _build_bank(scenario, inputs, 3)
    played = 0
    for r, coeffs in enumerate(solved):
        base = r * T
        lone = full_backward_pass(
            scenario.params,
            estimate_moments(bank[base : base + T]),
            TargetSeries(values=targets.values[base : base + T + 1]),
        )
        for f in fields(lone):
            want, have = getattr(lone, f.name), getattr(coeffs, f.name)
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(have, want, err_msg=f"round {r} {f.name}")
            else:
                assert have == want, (r, f.name)
        np.testing.assert_array_equal(coeffs.condition_numbers, lone.condition_numbers)
        played += 1
    assert played == rounds


@st.composite
def n1_case(draw):
    """A one-agent scenario with varied dynamics, costs, encoder and
    series, and a cell seed."""
    kind = draw(st.sampled_from(["periodic", "logistic_map", "concept_drift"]))
    T = draw(st.integers(min_value=1, max_value=4))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    params = GameParams(
        theta=draw(unit) * 1.5,
        theta_bar=draw(unit) * 0.5,
        kappa=draw(st.floats(min_value=0.0, max_value=5.0)),
        kappa_bar=draw(st.floats(min_value=0.0, max_value=5.0)),
        gamma=draw(st.floats(min_value=1e-2, max_value=5.0)),
        alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
        horizon_T=T,
        population_N=1,
        dim_y=2 if kind == "concept_drift" else 1,
        dim_z=draw(st.integers(min_value=1, max_value=3)),
    )
    scenario = Scenario(
        params=params,
        dataset=DatasetSpec(kind=kind, length=draw(st.integers(min_value=T + 1, max_value=4 * T + 1))),
        encoder=EncoderConfig(kind=draw(st.sampled_from(["rfn", "esn"])), sigma=draw(st.floats(0.0, 1.0))),
        mc_samples=draw(st.integers(min_value=1, max_value=10)),
        aggregation_window=draw(st.integers(min_value=1, max_value=3)),
    )
    return scenario, draw(st.integers(min_value=0, max_value=2**32))


def _record_fields(record):
    """The record's fields but its policy and runtime, with the round-0
    coefficients as (kind, their fields)."""
    out = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in ("policy", "runtime_ms")}
    kind, coeffs = out.pop("round0_coeffs")
    return out | {"round0_kind": kind} | {f"round0.{f.name}": getattr(coeffs, f.name) for f in fields(coeffs)}


@settings(max_examples=40, deadline=None)
@given(n1_case())
def test_property_reduced_at_n1_is_the_full_cell(case):
    # the harness routes reduced at N = 1 to the full solver, outside the
    # seed's structured pass: the cell either raises the full cell's typed
    # error or gives a finite record equal to the full cell's, alone or
    # sharing the seed's work with it
    from fedgames.errors import FedGamesError
    from fedgames.harness import SeedWork

    scenario, seed = case
    outcomes = []
    for policy, shared in (("full", None), ("reduced", None), ("reduced", "both")):
        if shared is not None:
            shared = SeedWork(scenario, seed, [("full", 1), ("reduced", 1)])
        try:
            outcomes.append(run_episode(policy, scenario, seed, shared=shared))
        except FedGamesError as exc:
            outcomes.append(exc)
    full, *reduced = outcomes
    if isinstance(full, FedGamesError):
        assert all(type(r) is type(full) and str(r) == str(full) for r in reduced)
        return
    want = _record_fields(full)
    assert want["round0_kind"] == "full"
    numbers = {name: v for name, v in want.items() if isinstance(v, (float, np.ndarray))}
    numbers |= {f"quantile {name}": v for name, v in want["round_cost_quantiles"].items()}
    assert all(np.all(np.isfinite(v)) for v in numbers.values()), numbers
    for record in reduced:
        assert record.policy == "reduced"
        np.testing.assert_equal(_record_fields(record), want)


@pytest.mark.parametrize("spawner", [None, SpawnerConfig(retire_k=1, zeta1=0.1, zeta2=0.5, orthogonalize=True)],
                         ids=["no-spawner", "spawner"])
def test_group_draws_each_seed_once(monkeypatch, spawner):
    # a group draws each seed's pool (seed, 11) once and its noise block
    # (seed, 5, g) once per step, shared by the seed's members; without a
    # spawner the seed's members also share its latents, encoded once per
    # seed and step in one stacked call; with one, every member's pool is
    # encoded, still in one call per step
    import fedgames.harness as harness
    from fedgames.streams import SeedTable

    scenario = small_scenario(encoder=EncoderConfig(kind="esn", sigma=0.1), spawner=spawner)
    N, T = scenario.params.population_N, scenario.params.horizon_T
    members = [("reduced", 1), ("decentralized", 1), ("greedy", 2), ("reduced", 2), ("greedy", 1)]
    draws, keys, encoded = {}, [], []

    class CountingTable(SeedTable):
        def __init__(self, prefix, count):
            super().__init__(prefix, count)
            self.prefix = prefix

        def rng(self, i):
            key = (*self.prefix, i)
            draws[key] = draws.get(key, 0) + 1
            return super().rng(i)

    def rng(*key):
        keys.append(key)
        return _rng(*key)

    def encode_into(p, *args):
        encoded.append(p.b.shape[0])
        return encode(p, *args)

    encode = harness.encode_into
    monkeypatch.setattr(harness, "SeedTable", CountingTable)
    cells = {(policy, N) for policy, _ in members}
    shared = {seed: harness.SeedWork(scenario, seed, cells) for seed in (1, 2)}
    draws.clear()
    monkeypatch.setattr(harness, "_rng", rng)
    monkeypatch.setattr(harness, "encode_into", encode_into)
    records = harness.run_group(members, scenario, shared)

    rounds = shared[1].rounds
    assert [(r.policy, r.seed) for r in records] == members
    assert sorted(keys) == [(1, 11), (2, 11)]
    noise = {key: count for key, count in draws.items() if key[1] == 5}
    assert noise == {(seed, 5, g): 1 for seed in (1, 2) for g in range(rounds * T)}
    units = len(members) if spawner else 2
    assert encoded == [units * N] * (rounds * T)


def test_group_calls_each_policys_public_action(monkeypatch):
    # one implementation per action: every member's step calls its
    # policy's public action once, on its own N agents, and nothing else
    # computes it
    import fedgames.harness as harness

    scenario = small_scenario()
    N, T = scenario.params.population_N, scenario.params.horizon_T
    members = [("full", 1), ("reduced", 1), ("decentralized", 1), ("reduced", 2), ("decentralized", 2)]
    calls = {}

    def counting(policy, action):
        def counted(t, preds, *args):
            calls[policy] = calls.get(policy, 0) + 1
            assert np.shape(preds)[0] == (N * scenario.params.dim_y if policy == "full" else N)
            return action(t, preds, *args)

        return counted

    for policy in ("full", "reduced", "decentralized"):
        name = f"{policy}_action"
        monkeypatch.setattr(harness, name, counting(policy, getattr(harness, name)))
    cells = {(policy, N) for policy, _ in members}
    shared = {seed: harness.SeedWork(scenario, seed, cells) for seed in (1, 2)}
    harness.run_group(members, scenario, shared)

    steps = shared[1].rounds * T
    assert calls == {"full": steps, "reduced": 2 * steps, "decentralized": 2 * steps}


@pytest.mark.parametrize(
    "members, works, message",
    [
        ([("oracle", 1)], {1: [("reduced", 3)]}, "unknown policy 'oracle'"),
        ([("reduced", 1), ("reduced", 2)], {1: [("reduced", 3)]}, "no shared work for seed 2"),
        (
            [("greedy", 1)],
            {1: [("reduced", 3)]},
            "the shared work of seed 1 has no cell policy=greedy N=3 seed=1",
        ),
        # a seed's work under another seed's key
        (
            [("reduced", 2)],
            {2: [("reduced", 3)]},
            "the shared work of seed 1 has no cell policy=reduced N=3 seed=2",
        ),
        # the work of another N
        (
            [("reduced", 1)],
            {1: [("reduced", 4)]},
            "the shared work of seed 1 has no cell policy=reduced N=3 seed=1",
        ),
    ],
    ids=["unknown-policy", "no-work", "other-policy", "other-seed", "other-n"],
)
def test_group_rejects_members_it_cannot_play(members, works, message):
    # run_group's input checks, ahead of any episode work; run_episode
    # passes them on for a cell given shared work
    from fedgames.harness import SeedWork, run_group

    scenario = small_scenario()
    shared = {seed: SeedWork(scenario, 1, cells) for seed, cells in works.items()}
    with pytest.raises(ValueError) as group:
        run_group(members, scenario, shared)
    assert str(group.value) == message
    if len(members) == 1:
        [(policy, seed)] = members
        with pytest.raises(ValueError) as lone:
            run_episode(policy, scenario, seed, shared=shared[seed])
        assert str(lone.value) == message


def test_lone_episode_rejects_an_unknown_policy_before_any_work(monkeypatch):
    import fedgames.harness as harness

    def no_work(*args):
        raise AssertionError("built the seed's work")

    monkeypatch.setattr(harness, "SeedWork", no_work)
    with pytest.raises(ValueError, match="^unknown policy 'oracle'$"):
        run_episode("oracle", small_scenario(), 1)


def test_readme_library_sketch_runs_and_prints_its_shapes(capsys):
    # README's "Library sketch" runs as written (SeedWork, run_episode with
    # shared work, run_group, the convergence diagnostic) and prints the
    # shapes its comments name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(sketch, namespace)
    printed = capsys.readouterr().out.splitlines()
    p, scenario = namespace["params"], namespace["scenario"]
    rounds = (scenario.dataset.length - 1) // p.horizon_T
    assert printed[1] == str((rounds, p.horizon_T + 1, p.population_N, p.dim_y))  # (rounds, T+1, N, d_y)
    assert printed[2] == str((3, p.horizon_T + 1))  # (3, T+1)
    assert len(namespace["records"]) == 3 and len(namespace["group"]) == 2
