"""Forward simulation of the N-agent system under any policy family.

Episodes run in rounds of the game horizon T: predictions are
re-initialized at the observed target at each round start, each round
plays the policy coefficients solved on its own target slice (rounds
are solved together, ahead of the step loop; see ``_solve_episode``), and the spawner
(when enabled) acts between rounds. The greedy baseline and the
score-based aggregation keep their windows across round boundaries (they
are plain online mechanisms and know nothing about rounds).

Costs are reported as sample-path evaluations of the game objective;
Monte-Carlo means over seeds are left to the caller.

Episodes stream: each round works on its own (T+1, N, d_y) predictions
and (T, N, d_z) actions, and when it ends its costs are folded into
per-agent running sums and summarized by a few quantiles. Between rounds
only those sums and the O(L) aggregated series are kept, so memory grows
with N, not with N times the episode length. ``EpisodeTrace`` keeps the
per-step histories on request.

The agent loop is array-at-a-time and fused: per step, one noise block,
one encoding, one action call and one dynamics update cover all N
agents, each written into buffers allocated once per episode (the ESN
carry alternates between two of them). The step calls the kernels that
the public functions call after their checks: ``encoders.encode_into``
(``rfn_encode``, ``esn_encode``), ``_drift_into`` and ``_advance_into``
(``step_dynamics``), ``_softmax_into`` (``aggregation_weights``),
``spawner.score_into`` (``score_agents``) and ``ridge.ridge_solve``
(``ridge_action``), so it runs the same arithmetic in the same order.
The checks run once per episode, and on the carry rows a respawn
replaces; the step's one check is ``check_finite`` on the sum of its new
predictions. The dynamics' drift terms theta Y and theta_bar mean(Y) are
computed once per step and passed to every ``act``; the greedy baseline
builds its ridge residual from them. ``tests/oracles.py::public_episode``
replays an episode with one call of each public function per step, and
``test_fused_step_matches_public_functions`` holds the fused loop to it
bit for bit; ``test_greedy_window_matches_ridge_action_at_every_fill_level``
and ``test_bank_matches_per_step_encoder_calls`` do the same for the
ridge window and the latent bank. Three of the step's pieces skip a
public function's wrapper but keep its arithmetic order: the ESN
saturation clamps with ``np.maximum`` and ``np.minimum`` in place; the
decentralized action is one matmul of the predictions by G1', plus the
round's mean-field terms G2 Ybar (computed once per round), plus H, as
``decentralized_action`` adds them; and ``_RunningMetrics`` builds the
stage discounts and the quantile plan once per episode and folds each
round's (T, N, ...) arrays directly. The latent bank is one (rounds T,
mc_samples, d_y, d_z) array from the encoder to ``estimate_moments``,
which checks its finiteness once and reduces it to moments once; a
recurrent encoder's carry is checked first, in ``_build_bank``, so a
non-finite carry raises the encoder's EncodeError.

Random streams are keyed by (seed, purpose[, step]) and drawn
agent-major (README, "Random streams"). The one-off streams, the pool
(seed, 11), the bank encoders (seed, 71) and each spawner round (seed,
999, r), come from ``_rng``. The per-step streams, the agent noise
(seed, 5, g) and the bank noise (seed, 72, t), come from a
``streams.SeedTable`` per episode and family: one vectorized pass of
``SeedSequence``'s hash gives every step's PCG64 state, and each step's
generator is built from its words without a ``SeedSequence``. Both give
the same draws for the same key.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .datasets import DatasetSpec, build_dataset
from .encoders import (
    ACTIVATIONS,
    HARD_SIGMOID,
    check_carry,
    check_step,
    encode_into,
    esn_encode,  # noqa: F401  (perfbench's tracer wraps it here)
    rfn_encode,  # noqa: F401  (perfbench's tracer wraps it here)
    sample_esn_params,
    sample_rfn_params,
)
from .errors import AT_LEAST_ONE, FINITE, NONNEGATIVE, DynamicsError, check_fields
from .model import GameParams, MomentSet, TargetSeries, estimate_moments
from .nash_full import full_action, full_backward_pass, rounds_per_pass
from .nash_meanfield import decentralized_action  # noqa: F401  (perfbench's tracer names it; the step does not call it)
from .nash_meanfield import decentralized_backward_pass, meanfield_forward
from .nash_reduced import reduced_action, reduced_backward_pass, take_round
from .pool import AgentPool
from .ridge import RidgeConfig, ridge_penalty, ridge_solve, ridge_weights
from .ridge import ridge_action  # noqa: F401  (perfbench's tracer wraps it here)
from .spawner import (
    build_ortho_problem,
    ortho_solve,
    resample_parameters,
    score_agents,  # noqa: F401  (perfbench's tracer wraps it here)
    score_into,
)
from .streams import SeedTable

logger = logging.getLogger(__name__)

# Per-step message model: centralized policies gather and scatter all N
# predictions; the greedy baseline gathers N and broadcasts one mean; the
# decentralized policy exchanges nothing per step (one sync per round).
MESSAGES_PER_STEP = {
    "full": lambda n: 2 * n,
    "reduced": lambda n: 2 * n,
    "greedy": lambda n: n + 1,
    "decentralized": lambda n: 0,
}

POLICIES = tuple(MESSAGES_PER_STEP)


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "rfn"  # rfn | esn
    sigma: float = 0.1
    activation: str = HARD_SIGMOID

    def __post_init__(self):
        check_fields(self, ("'rfn' or 'esn'", ("rfn", "esn").__contains__), "kind")
        check_fields(self, NONNEGATIVE, "sigma")
        check_fields(self, (f"one of {ACTIVATIONS}", ACTIVATIONS.__contains__), "activation")


@dataclass(frozen=True)
class SpawnerConfig:
    retire_k: int
    lam: float = 1.0
    sigma_t: float = 0.1
    zeta1: float = 0.0
    zeta2: float = 0.0
    orthogonalize: bool = False

    def __post_init__(self):
        check_fields(self, AT_LEAST_ONE, "retire_k")
        check_fields(self, NONNEGATIVE, "lam", "sigma_t", "zeta1", "zeta2")


@dataclass(frozen=True)
class Scenario:
    params: GameParams
    dataset: DatasetSpec
    encoder: EncoderConfig = EncoderConfig()
    mc_samples: int = 100
    ridge: RidgeConfig | None = None
    aggregation_alpha: float = 0.2
    aggregation_window: int = 1
    spawner: SpawnerConfig | None = None

    def __post_init__(self):
        check_fields(self, AT_LEAST_ONE, "mc_samples", "aggregation_window")
        check_fields(self, FINITE, "aggregation_alpha")


# levels of the per-round cost quantiles, over the agents
COST_QUANTILES = {"min": 0.0, "median": 0.5, "p90": 0.9, "max": 1.0}

# an episode has diverged when some prediction's magnitude exceeds this
# multiple of the largest target magnitude
DIVERGENCE_MULTIPLE = 1e3


@dataclass
class RunRecord:
    """Everything recorded over one seeded episode: per-agent totals and
    per-round summaries, no per-step agent histories (see EpisodeTrace)."""

    policy: str
    seed: int
    targets: np.ndarray  # (L, d_y)
    aggregated: np.ndarray  # (rounds, T, d_y) prediction of y_{t+1}
    costs: np.ndarray  # (N,) per-agent total objective
    round_cost_quantiles: dict  # COST_QUANTILES name -> (rounds,) quantile of the agents' round costs
    rmse_aggregated: float
    rmse_worst: float
    rmse_bottom20: float
    messages_per_step: int
    runtime_ms: float = 0.0
    spawn_events: list = field(default_factory=list)
    round0_coeffs: tuple | None = None  # (kind, coefficients) of round 0; None for greedy
    max_abs_prediction: float = 0.0  # over every agent, step and coordinate

    @property
    def regret(self) -> float:
        """Worst per-agent cost: the quantity the equilibrium minimizes."""
        return float(np.max(self.costs))

    @property
    def diverged(self) -> bool:
        """Some prediction left the scale of the targets by more than
        DIVERGENCE_MULTIPLE; its metrics then measure the blow-up."""
        return bool(self.max_abs_prediction > DIVERGENCE_MULTIPLE * np.max(np.abs(self.targets)))


@dataclass
class EpisodeTrace:
    """Opt-in per-step histories of one episode, for tests and debugging.

    ``run_episode(..., trace=EpisodeTrace())`` appends a copy of each
    round's (predictions (T+1, N, d_y), actions (T, N, d_z)) as the
    round ends (the episode reuses its own buffers);
    row 0 of a round's predictions is its start at the observed target.
    Without a trace an episode keeps only the round in progress.
    """

    rounds: list = field(default_factory=list)

    @property
    def predictions(self) -> np.ndarray:
        """(rounds, T+1, N, d_y)"""
        return np.stack([preds for preds, _ in self.rounds])

    @property
    def actions(self) -> np.ndarray:
        """(rounds, T, N, d_z)"""
        return np.stack([acts for _, acts in self.rounds])


def step_dynamics(
    predictions: np.ndarray,
    latents: np.ndarray,
    actions: np.ndarray,
    params: GameParams,
) -> np.ndarray:
    """One prediction update: Y' = theta Y + theta_bar mean(Y) + Z beta."""
    preds = np.asarray(predictions, dtype=float)
    actions = np.asarray(actions, dtype=float)
    if actions.shape[0] != preds.shape[0]:
        raise ValueError("one action per agent required")
    n, d_y = preds.shape
    drift, mean, mean_drift = np.empty((n, d_y)), np.empty(d_y), np.empty(d_y)
    _drift_into(preds, params.theta.T, params.theta_bar.T, drift, mean, mean_drift)
    out = _advance_into(drift, mean_drift, latents, actions, np.empty((n, d_y)), np.empty((n, d_y)))
    check_finite(out, np.add.reduce(out, axis=None))
    return out


def _drift_into(preds, theta_t, theta_bar_t, drift, mean, mean_drift) -> None:
    """The two drift terms of the dynamics, theta Y (per agent, into
    ``drift``) and theta_bar mean(Y) (into ``mean_drift``), given the
    transposed ``theta_t`` and ``theta_bar_t``; the mean goes to ``mean``."""
    np.matmul(preds, theta_t, out=drift)
    np.add.reduce(preds, axis=0, out=mean)  # np.mean's sum and division
    mean /= preds.shape[0]
    np.matmul(mean, theta_bar_t, out=mean_drift)


def _advance_into(drift, mean_drift, latents, actions, out, work) -> np.ndarray:
    """The dynamics' sum drift + mean_drift + Z beta, left to right, into
    ``out``; ``work`` holds Z beta. Unchecked: ``step_dynamics`` and the
    agent step check the result."""
    np.add(drift, mean_drift, out=out)
    out += np.einsum("nij,nj->ni", latents, actions, out=work)
    return out


def check_finite(predictions: np.ndarray, total) -> None:
    """Raise DynamicsError naming the first agent whose row of the (N, d_y)
    ``predictions`` is not finite.

    ``total`` is a sum of all the predictions with positive weights,
    already at hand (their sum, or their mean, a vector that is summed
    once more). A sum with a non-finite term is not finite, so a finite
    ``total`` settles the check in one reduction; the rows are searched
    only when it is not finite, which an overflowing sum of finite rows
    can also cause.
    """
    if math.isfinite(np.add.reduce(total, axis=None)):
        return
    bad = ~np.isfinite(predictions).all(axis=1)
    if np.any(bad):
        raise DynamicsError(f"non-finite prediction for agent {int(np.flatnonzero(bad)[0])}")


def _quantile_plan(n: int, levels) -> tuple:
    """What ``_quantiles`` needs of an (n,) sample and its levels, which do
    not change over an episode: the order statistics below and above each
    level, both of them for ``np.partition``, and the interpolation
    fractions."""
    pos = (n - 1) * np.asarray(levels, dtype=float)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    return lo, hi, np.concatenate([lo, hi]), pos - lo


def _quantiles(x: np.ndarray, plan) -> np.ndarray:
    """``np.quantile(x, levels)`` (its default linear method) from one
    ``np.partition``, given ``_quantile_plan(len(x), levels)``.
    ``np.quantile`` and ``np.unique`` import ``numpy.ma`` on their first
    call, which costs more than a small episode's metrics."""
    lo, hi, kth, frac = plan
    part = np.partition(x, kth)
    a, b = part[lo], part[hi]
    diff = b - a
    return np.where(frac >= 0.5, b - diff * (1 - frac), a + diff * frac)


class _RunningMetrics:
    """Per-agent sums over the rounds played so far, folded in round by
    round in the order of the whole-episode reductions they replace. The
    stage discounts and the quantile plan are built once per episode."""

    def __init__(self, n_agents: int, rounds: int, params: GameParams):
        T = params.horizon_T
        self.params = params
        self.discounts = np.exp(-params.alpha * (T - 1 - np.arange(T)))
        self.quantile_plan = _quantile_plan(n_agents, list(COST_QUANTILES.values()))
        self.costs = np.zeros(n_agents)  # total objective
        self.sq_err = np.zeros(n_agents)  # squared prediction error over steps
        self.quantiles = np.empty((rounds, len(COST_QUANTILES)))
        self.max_abs_prediction = 0.0

    def add_round(self, r: int, predictions, actions, y_round):
        """Fold in round r: predictions (T+1, N, d_y), actions (T, N, d_z)
        and its targets y_round (T+1, d_y). The round's discounted
        sample-path objective of every agent is the sum over its steps of
        kappa |y - Y|^2 + kappa_bar |Y - mean(Y)|^2 + gamma |beta|^2."""
        p = self.params
        preds = predictions[1:]  # (T, N, d_y)
        err = y_round[1:, None] - preds
        dev = preds - preds.mean(axis=1, keepdims=True)
        sq = np.einsum("tnd,tnd->tn", err, err)  # (y - Y)^2, per step and agent
        stage = (
            p.kappa * sq
            + p.kappa_bar * np.einsum("tnd,tnd->tn", dev, dev)
            + p.gamma * np.einsum("tnk,tnk->tn", actions, actions)
        )
        costs = np.einsum("t,tn->n", self.discounts, stage)
        self.costs += costs
        self.quantiles[r] = _quantiles(costs, self.quantile_plan)
        for step in sq:
            self.sq_err += step
        self.max_abs_prediction = max(self.max_abs_prediction, float(np.max(np.abs(predictions))))


def underperformer_regret(record: RunRecord) -> float:
    """``record.regret``, the worst per-agent cost."""
    return record.regret


def _aggregation_discounts(k: int, alpha_a: float) -> np.ndarray:
    """(k,) discounts of a window of k steps' errors, oldest first."""
    return np.exp(-alpha_a * np.arange(k - 1, -1, -1))


def _softmax_into(disc, errors, out) -> np.ndarray:
    """Softmax weights of minus the ``disc``-discounted (k, N) ``errors``,
    into ``out``."""
    np.matmul(disc, errors, out=out)
    np.subtract(out, np.minimum.reduce(out), out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out)
    return out


def aggregation_weights(recent_errors, alpha_a: float) -> np.ndarray:
    """Softmax weights from discounted recent squared errors.

    ``recent_errors`` is a (k, N) stack ordered oldest to newest.
    """
    errors = np.atleast_2d(np.asarray(recent_errors, dtype=float))
    k, n = errors.shape
    return _softmax_into(_aggregation_discounts(k, alpha_a), errors, np.empty(n))


def aggregate_predictions(
    per_agent_preds, recent_errors, alpha_a: float, window_Ta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Score-weighted ensemble prediction; returns (prediction, weights).

    Only the last ``window_Ta`` rows of ``recent_errors`` (a sequence of
    (N,) squared errors, oldest first) are read.
    """
    preds = np.atleast_2d(np.asarray(per_agent_preds, dtype=float))
    n = preds.shape[0]
    if recent_errors is None or len(recent_errors) == 0:
        w = np.full(n, 1.0 / n)
    else:
        w = aggregation_weights(np.asarray(recent_errors[-window_Ta:]), alpha_a)
    return w @ preds, w


_UINT32_END = 2**32


def _rng(*key):
    """The generator of the random stream keyed by (seed, purpose[,
    step]); every stream draws a block with one row per agent (or bank
    replica), agent-major. The per-step streams of an episode come from
    a ``streams.SeedTable`` instead, with the same draws.

    A key of entries below 2^32 is passed as one uint32 word per entry:
    numpy's seed sequence reduces a list of such ints to those same
    words, so the streams are the list's, built in less time."""
    if all(0 <= k < _UINT32_END for k in key):
        return np.random.default_rng(np.array(key, dtype=np.uint32))
    return np.random.default_rng(list(key))


def _sample_encoders(cfg: EncoderConfig, count, d_y, d_z, d_x, rng):
    if cfg.kind == "rfn":
        return sample_rfn_params(d_y, d_z, d_x, cfg.sigma, rng, count=count)
    return sample_esn_params(d_y, d_z, d_x, cfg.sigma, rng, activation=cfg.activation, count=count)


def _build_bank(scenario: Scenario, inputs: np.ndarray, seed: int) -> np.ndarray:
    """(L, mc_samples, d_y, d_z) latent replicas from freshly sampled
    encoder parameter sets, run over the L given inputs (recurrent state
    carried through), written step by step into one array; step t draws
    its noise from the stream (seed, 72, t) of one ``SeedTable``. A
    recurrent encoder's carry (every step but the last) is checked here,
    so its EncodeError comes ahead of the MomentError that
    ``estimate_moments`` raises for any other non-finite sample."""
    cfg = scenario.encoder
    p = scenario.params
    count = scenario.mc_samples
    encs = _sample_encoders(cfg, count, p.dim_y, p.dim_z, inputs.shape[1], _rng(seed, 71))
    bank = np.empty((inputs.shape[0], count, p.dim_y, p.dim_z))
    noise = np.empty((count, p.dim_z))
    ax, work = np.empty((count, p.dim_y)), np.empty(bank.shape[1:])
    z_prev = np.zeros(bank.shape[1:])
    check_step(encs, inputs[0], noise, z_prev)
    streams = SeedTable((seed, 72), inputs.shape[0])
    for t, z in enumerate(bank):
        streams.rng(t).standard_normal(out=noise)
        z_prev = encode_into(encs, inputs[t], noise, z_prev, z, ax, work)
    if cfg.kind == "esn":
        check_carry(bank[:-1])  # every step but the last is a carry
    return bank


class _GreedyWindow:
    """The last ``window_T`` (Z, residual) pairs of every agent for the
    ridge baseline, oldest first, in fixed (N, window_T, ...) arrays.

    One buffer holds the weighted design and one vector the discount
    weights of ``ridge_design``; fill level k keeps views of their newest
    k rows (``ridge_weights(window_T)[-k:]`` is ``ridge_weights(k)``), so
    a step's actions are ``ridge_solve`` on the same arrays
    ``ridge_action`` builds from the window, written in place, and memory
    grows linearly with the window."""

    def __init__(self, n_agents: int, d_y: int, d_z: int, cfg: RidgeConfig):
        size = cfg.window_T
        self.z = np.zeros((n_agents, size, d_y, d_z))
        self.resid = np.zeros((n_agents, size, d_y))
        self.filled = 0
        self.penalty = ridge_penalty(d_z, cfg)
        self.gram, self.rhs = np.empty((n_agents, d_z, d_z)), np.empty((n_agents, d_z, 1))
        self.zero = np.zeros((n_agents, d_z))
        w = ridge_weights(size, cfg)
        X, ybar = np.empty((n_agents, size, d_y, d_z)), np.empty((n_agents, size, d_y))
        X_flat, ybar_flat = X.reshape(n_agents, size * d_y, d_z), ybar.reshape(n_agents, size * d_y)
        self.levels = [None] + [  # fill level k -> (weights, window, design) views of the newest k rows
            (
                (w[-k:, None, None], w[-k:, None]),
                (self.z[:, -k:], self.resid[:, -k:]),
                (X[:, -k:], ybar[:, -k:], X_flat[:, -k * d_y :], ybar_flat[:, -k * d_y :]),
            )
            for k in range(1, size + 1)
        ]

    def actions(self) -> np.ndarray:
        """(N, d_z) ridge actions; zero while the window is empty."""
        if self.filled == 0:
            return self.zero
        (wz, wr), (z, resid), (X, ybar, X_flat, ybar_flat) = self.levels[self.filled]
        np.multiply(wz, z, out=X)
        np.multiply(wr, resid, out=ybar)
        return ridge_solve(X_flat, ybar_flat, self.penalty, self.gram, self.rhs)

    def push(self, latents, target, drift, mean_drift, scale: float) -> None:
        """Append the newest pair: ``scale`` times the latents and the
        residual target - drift - mean_drift of the dynamics' drift terms."""
        self.z[:, :-1] = self.z[:, 1:]
        np.multiply(latents, scale, out=self.z[:, -1])
        self.resid[:, :-1] = self.resid[:, 1:]
        resid = self.resid[:, -1]
        np.subtract(target, drift, out=resid)
        resid -= mean_drift
        resid *= scale
        self.filled = min(self.filled + 1, self.z.shape[1])


def _solve_episode(policy, scenario: Scenario, inputs, values, rounds, seed):
    """(kind, one (coefficients, act) per round): the one place a policy
    maps to its solver and its action rule. ``act(t, predictions,
    latents, drift, mean_drift)`` returns the (N, d_z) actions of step t
    of its round, possibly in a buffer that its next call overwrites (the
    greedy and decentralized ones do); the last two are the step's drift
    terms theta Y and theta_bar mean(Y), which only the greedy baseline
    reads (its ridge residual is the target less both). The greedy
    baseline solves nothing (kind and coefficients None) and builds no
    latent bank.

    The episode's latent bank covers only the rounds T input steps that
    the rounds play, so a non-finite sample in an input step past them
    no longer raises. It is reduced to moments once, and then
    dropped. A round's pass reads only the params, the moments of steps
    rT..rT+T-1 and the targets ``values[rT:rT+T+1]``, never the agents,
    so the passes solve rounds together, over a round stack whose
    moments are a view of the episode's. The reduced and decentralized
    passes solve every round at once, before the step loop. The dense
    full oracle solves chunks of ``nash_full.rounds_per_pass(N)`` =
    (HARD_N_CEILING // N)^2 rounds, each as the loop reaches it: a chunk's
    peak memory stays at or below one lone pass at HARD_N_CEILING, so a
    cell never holds more than that ahead of the loop. (A chunk's
    SolveError counts rounds from the chunk's first.)
    """
    p = scenario.params
    N, T = p.population_N, p.horizon_T
    if policy == "greedy":
        if scenario.ridge is None:
            raise ValueError("greedy policy needs a ridge config")
        # the window never holds more pairs than the episode pushes
        cfg = replace(scenario.ridge, window_T=min(scenario.ridge.window_T, rounds * T))
        window = _GreedyWindow(N, p.dim_y, p.dim_z, cfg)
        sqrt_kappa = np.sqrt(p.kappa)

        def act(r, t, preds, latents, drift, mean_drift):
            actions = window.actions()
            # data-fit rows carry sqrt(kappa) so the fitted objective is
            # kappa * fit + gamma * penalty; kappa = 0 zeroes the policy
            window.push(latents, values[r * T + t + 1], drift, mean_drift, sqrt_kappa)
            return actions

        return None, ((None, partial(act, r)) for r in range(rounds))

    episode = estimate_moments(_build_bank(scenario, inputs[: rounds * T], seed))
    # views with the round axis after the time axis: [t, r] is step rT + t
    m1, units = (a.reshape(rounds, T, *a.shape[1:]).swapaxes(0, 1) for a in (episode.m1, episode.units))

    def round_stack(first, stop):
        """(moments, targets) of rounds first..stop-1 with a round axis
        after the time axis: entry [t, r] is step (first + r)T + t."""
        moments = MomentSet(m1=m1[:, first:stop], units=units[:, first:stop])
        targets = TargetSeries(values=values[np.arange(T + 1)[:, None] + T * np.arange(first, stop)])
        return moments, targets

    if policy == "full" or (policy == "reduced" and N == 1):

        def act(c, t, preds, latents, drift, mean_drift):
            return full_action(t, preds.reshape(-1), c).reshape(N, p.dim_z)

        def solve_chunks():
            chunk = rounds_per_pass(N)
            for first in range(0, rounds, chunk):
                stop = min(first + chunk, rounds)
                coeffs = full_backward_pass(p, *round_stack(first, stop))
                for r in range(stop - first):
                    c = take_round(coeffs, r)
                    yield c, partial(act, c)

        return "full", solve_chunks()
    moments, targets = round_stack(0, rounds)
    if policy == "reduced":
        coeffs = reduced_backward_pass(p, moments, targets)

        def act(c, t, preds, latents, drift, mean_drift):
            return reduced_action(t, preds, preds.sum(axis=0) - preds, c)

        solved = (take_round(coeffs, r) for r in range(rounds))
        return policy, ((c, partial(act, c)) for c in solved)

    coeffs = decentralized_backward_pass(p, moments, targets)
    ybar = meanfield_forward(coeffs, moments, targets.values[0])
    actions = np.empty((N, p.dim_z))

    def round_act(c, r):
        """``decentralized_action``'s own @ G1' + G2 Ybar + H in its order,
        with the round's mean-field terms G2 Ybar computed once."""
        gains = [c.G1[t].T for t in range(T)]
        mean_field = [c.G2[t] @ ybar[t, r] for t in range(T)]

        def act(t, preds, latents, drift, mean_drift):
            out = np.matmul(preds, gains[t], out=actions)
            out += mean_field[t]
            out += c.H[t]
            return out

        return act

    solved = (take_round(coeffs, r) for r in range(rounds))
    return policy, ((c, round_act(c, r)) for r, c in enumerate(solved))


def run_episode(policy: str, scenario: Scenario, seed: int, trace: EpisodeTrace | None = None) -> RunRecord:
    """Simulate one seeded episode of the configured scenario; a ``trace``
    collects the per-step histories."""
    start = time.perf_counter()
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    p = scenario.params
    N, d_y, d_z, T = p.population_N, p.dim_y, p.dim_z, p.horizon_T
    targets, inputs = build_dataset(scenario.dataset)
    values = targets.values
    if values.shape[1] != d_y:
        raise ValueError(f"dataset dim {values.shape[1]} != dim_y {d_y}")
    rounds = (values.shape[0] - 1) // T
    if rounds < 1:
        raise ValueError("dataset too short for one round of the horizon")
    d_x = inputs.shape[1]

    pool = AgentPool.create(_sample_encoders(scenario.encoder, N, d_y, d_z, d_x, _rng(seed, 11)))

    metrics = _RunningMetrics(N, rounds, p)
    agg_hist = np.zeros((rounds, T, d_y))
    log_weights = np.full(N, -np.log(N))
    spawn_events: list[dict] = []
    round0 = None

    # the step's buffers, allocated once: a round's histories, the ESN
    # carry's two buffers (a step reads one and writes the other), and
    # every intermediate of encode, act, dynamics and aggregation
    preds_hist, acts_hist = np.empty((T + 1, N, d_y)), np.empty((T, N, d_z))
    carry = (np.empty((N, d_y, d_z)), np.empty((N, d_y, d_z)))
    work, steered = np.empty((N, d_y, d_z)), np.empty((N, d_y, d_z))
    noise, ax = np.empty((N, d_z)), np.empty((N, d_y))
    drift, mean, mean_drift, zb = np.empty((N, d_y)), np.empty(d_y), np.empty(d_y), np.empty((N, d_y))
    theta_t, theta_bar_t = p.theta.T, p.theta_bar.T
    # the aggregation window never holds more steps than the episode plays;
    # level k views the newest k errors and their discounts
    window_Ta = min(scenario.aggregation_window, rounds * T)
    errors, weights, uniform = np.empty((window_Ta, N)), np.empty(N), np.full(N, 1.0 / N)
    discounts = _aggregation_discounts(window_Ta, scenario.aggregation_alpha)
    levels = [None] + [(discounts[-k:], errors[-k:]) for k in range(1, window_Ta + 1)]
    diff = np.empty((N, d_y))
    scored = 0  # steps scored so far, up to window_Ta
    check_step(pool.encoder, inputs[0], noise, pool.esn_state)

    kind, solved = _solve_episode(policy, scenario, inputs, values, rounds, seed)
    noise_streams = SeedTable((seed, 5), rounds * T)
    for r, (coeffs, act) in enumerate(solved):
        base = r * T
        if r == 0 and kind is not None:
            round0 = (kind, coeffs)

        encoder, transforms, z_prev = pool.encoder, pool.latent_transforms, pool.esn_state
        preds_hist[0] = values[base]
        for t in range(T):
            g = base + t
            noise_streams.rng(g).standard_normal(out=noise)
            z = carry[1] if z_prev is carry[0] else carry[0]
            encode_into(encoder, inputs[g], noise, z_prev, z, ax, work)
            latents = z if transforms is None else np.matmul(z, transforms, out=steered)

            preds, new_preds = preds_hist[t], preds_hist[t + 1]
            _drift_into(preds, theta_t, theta_bar_t, drift, mean, mean_drift)
            acts_hist[t] = act(t, preds, latents, drift, mean_drift)
            _advance_into(drift, mean_drift, latents, acts_hist[t], new_preds, zb)
            check_finite(new_preds, np.add.reduce(new_preds, axis=None))

            w = uniform if scored == 0 else _softmax_into(*levels[scored], weights)
            np.matmul(w, new_preds, out=agg_hist[r, t])
            errors[:-1] = errors[1:]
            score_into(values[g + 1], new_preds, diff, errors[-1])
            scored = min(scored + 1, window_Ta)
            z_prev = z

        pool.esn_state, pool.latents = z_prev, latents
        metrics.add_round(r, preds_hist, acts_hist, values[base : base + T + 1])
        if trace is not None:
            trace.rounds.append((preds_hist.copy(), acts_hist.copy()))

        if scenario.spawner is not None and r < rounds - 1:
            log_weights = _spawn_between_rounds(
                scenario,
                pool,
                log_weights,
                errors[-1],
                seed,
                r,
                spawn_events,
                acts_hist[-1],
                values[base + T],
            )

    return RunRecord(
        policy=policy,
        seed=seed,
        targets=values,
        aggregated=agg_hist,
        costs=metrics.costs,
        round_cost_quantiles={name: metrics.quantiles[:, i] for i, name in enumerate(COST_QUANTILES)},
        messages_per_step=MESSAGES_PER_STEP[policy](N),
        spawn_events=spawn_events,
        round0_coeffs=round0,
        **_finalize_metrics(metrics, agg_hist, values),
        runtime_ms=1000.0 * (time.perf_counter() - start),
    )


def _spawn_between_rounds(
    scenario, pool, log_weights, last_scores, seed, round_idx, events, last_actions, y_now
):
    """One spawner round on the pool; returns the next round's log weights."""
    cfg = scenario.spawner
    rng = _rng(seed, 999, round_idx)
    new_rows, retained_idx, retired_idx, post, log_post = resample_parameters(
        pool.rows, last_scores, log_weights, cfg.lam, cfg.sigma_t, cfg.retire_k, rng
    )
    n = pool.size
    d_z = pool.latents.shape[2]
    pool.respawn(retired_idx, new_rows)
    check_carry(pool.esn_state[retired_idx])  # the episode's carry check, on the rows it replaced

    event = {
        "round": int(round_idx),
        "retired": retired_idx.tolist(),
        "weights": post.tolist(),
    }
    if cfg.orthogonalize and cfg.zeta2 > 0:
        beta_dir = last_actions.mean(axis=0)
        norm = np.linalg.norm(beta_dir)
        beta_dir = beta_dir / norm if norm > 0 else np.full(d_z, 1.0 / np.sqrt(d_z))
        prob = build_ortho_problem(
            pool.latents[retained_idx],
            pool.latents[retired_idx],
            beta_dir,
            y_now,
            cfg.zeta1,
        )
        sol = ortho_solve(prob, cfg.zeta2)
        pool.steer(retired_idx, sol.A_star)
        event.update(
            lambda_star=float(sol.lambda_star),
            kkt_residual=float(sol.kkt_residual),
            hard_case=bool(sol.hard_case),
        )
    events.append(event)

    # retained agents keep their posterior mass, respawned ones enter at
    # the uniform share; only the next round's sparse prior consumes this.
    # In the log domain a mass below the smallest double stays nonzero.
    new_log_weights = np.empty(n)
    new_log_weights[retained_idx] = log_post + np.log((n - cfg.retire_k) / n)
    new_log_weights[retired_idx] = -np.log(n)
    return new_log_weights


def _finalize_metrics(metrics: _RunningMetrics, aggregated, targets) -> dict:
    """The record's metric fields, from the streamed per-agent sums, the
    (rounds, T, d_y) aggregated series and the (L, d_y) targets."""
    rounds, T, d_y = aggregated.shape
    y = targets[1 : rounds * T + 1].reshape(rounds, T, d_y)
    agg_err = np.sum((aggregated - y) ** 2, axis=-1)
    per_agent_rmse = np.sqrt(metrics.sq_err / (rounds * T))
    k = max(1, int(np.ceil(0.2 * per_agent_rmse.shape[0])))
    return {
        "rmse_aggregated": float(np.sqrt(np.mean(agg_err))),
        "rmse_worst": float(per_agent_rmse.max()),
        "rmse_bottom20": float(np.sort(per_agent_rmse)[-k:].mean()),
        "max_abs_prediction": metrics.max_abs_prediction,
    }
