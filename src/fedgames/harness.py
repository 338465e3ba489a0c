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

The cells of one seed share the work that depends on neither their
policy nor their N (``SeedWork``): the dataset, the agents' noise
streams, the latent bank's round-stacked moments, and one structured
pass over every round for every reduced N >= 2 among the cells and, for
decentralized cells, the limit with its mean field. ``fedgames run``
builds one per seed; ``run_episode`` without one builds its own for its
one cell, so a lone episode runs the same code as a grid's. A seed's
work that raises is not kept: its caller plays each of the seed's cells
alone, and each builds its own and names its own error.

``fedgames run`` plays the cells of one N in groups (``run_group``):
one episode of G populations of N agents, member m on rows mN..mN+N-1
of every (G N, ...) per-agent buffer. The per-agent kernels (the
encoder, ``_advance_into``, the steering matmul) run once over the
stack, and each population's matrices keep a lone episode's shapes; the
cross-agent reductions (the mean in ``_drift_into``, the aggregation
softmax, ``_RunningMetrics.add_round`` and its quantiles) run on (G, N,
...) views, each member's on its own rows, so every member's bits are
its lone episode's. ``check_finite`` checks the whole stack: any
member's failure fails the group, whose caller then runs its members
again one at a time, each naming its own agent. Each member keeps its
own round coefficients, action rule, greedy window, spawner and record;
``run_episode`` is the group of one. A cell's ``runtime_ms`` is its
group's wall time over G plus an equal share of its seed's work.

Episodes stream: each round works on its own (T+1, N, d_y) predictions
and (T, N, d_z) actions, and when it ends its costs are folded into
per-agent running sums and summarized by a few quantiles. Between rounds
only those sums and the O(L) aggregated series are kept, so memory grows
with N, not with N times the episode length. ``EpisodeTrace`` keeps the
per-step histories on request.

The agent loop is array-at-a-time and plays only the game. A round's
latents depend only on the pool, the inputs and the noise streams, and
the spawner changes the pool only between rounds, so before a round's
steps one encoder loop (``_encode_run``, the latent bank's too) writes
its (T, N, d_y, d_z) latents, steered by one matmul; per step, one call
of the policy's one action rule per population, with that population's
coefficients of the round, and one dynamics update cover all agents;
after the steps,
``_RunningMetrics.add_round`` computes the round's costs and its (T, N)
squared errors once, and the aggregation reads them from a (window + T,
N) history that shifts once per round; the greedy baseline keeps its
(Z, residual) pairs in a ``ridge.RidgeWindow``, a (window + T)-pair
history that shifts the same way. Every buffer is allocated once per
episode. The loop calls the kernels that the public functions call
after their checks: ``encoders.encode_into`` (``rfn_encode``,
``esn_encode``), ``_drift_into`` and ``_advance_into``
(``step_dynamics``) and ``_softmax_into`` (``aggregation_weights``), so
it runs the same arithmetic in the same order, and the greedy step's
``RidgeWindow.solve`` is ``ridge_action``'s one kernel; ``add_round``'s
squared errors equal ``score_agents``'. The encoder's checks run once
per round, on the round's carry; the step's one check is
``check_finite`` on the sum of its new predictions. The dynamics'
drift terms theta Y and theta_bar mean(Y) are computed once per step
and passed to every ``act``; the greedy baseline builds its ridge
residual from them.
``tests/oracles.py::public_episode`` replays an episode with one call of
each public function per step, the policy's action (``full_action``,
``reduced_action``, ``decentralized_action``) included, and
``test_fused_step_matches_public_functions`` holds the harness to it bit
for bit; ``test_greedy_window_matches_ridge_action_at_every_fill_level``
and ``test_bank_matches_per_step_encoder_calls`` do the same for the
ridge window's history and the latent bank. Two pieces skip a public
function's wrapper but keep its arithmetic order: the ESN saturation
clamps with ``np.maximum`` and ``np.minimum`` in place, and
``_RunningMetrics`` builds the stage discounts and the quantile plan
once per episode and folds each round's (T, N, ...) arrays directly.
The latent bank is one
(rounds T, mc_samples, d_y, d_z) array from the encoder to
``estimate_moments``, which checks its finiteness
once and reduces it to moments once; a recurrent encoder's carry is
checked first, in ``_build_bank``, so a non-finite carry raises the
encoder's EncodeError.

Random streams are keyed by (seed, purpose[, step]) and drawn
agent-major (README, "Random streams"). The one-off streams, the pool
(seed, 11) and the bank encoders (seed, 71), both drawn by
``encoders.sample_encoders``, come from ``_rng``; a group draws each
seed's pool once, and its agent noise once per step, for all of the
seed's members. The
per-step and per-round streams, the agent noise (seed, 5, g), the bank
noise (seed, 72, t) and each spawner round (seed, 999, r), come from a
``streams.SeedTable`` per family, the first two per seed (``SeedWork``)
and the spawner's per episode: one vectorized pass of ``SeedSequence``'s
hash gives every step's PCG64 state, and each step's generator is built
from its words without a ``SeedSequence``. Both give the same draws for
the same key.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import DatasetSpec, build_dataset
from .encoders import (
    EncoderConfig,
    check_carry,
    check_step,
    encode_into,
    esn_encode,  # noqa: F401  (perfbench's tracer wraps it here)
    rfn_encode,  # noqa: F401  (perfbench's tracer wraps it here)
    sample_encoders,
)
from .errors import AT_LEAST_ONE, FINITE, NONNEGATIVE, DynamicsError, check_fields
from .model import GameParams, MomentSet, TargetSeries, estimate_moments
from .nash_full import full_action, full_backward_pass, rounds_per_pass
from .nash_meanfield import decentralized_action, limit_coeffs, meanfield_forward
from .nash_meanfield import decentralized_backward_pass  # noqa: F401  (perfbench's tracer wraps it here)
from .nash_reduced import (
    game_units,
    reduced_action,
    reduced_backward_pass,  # noqa: F401  (perfbench's tracer wraps it here)
    reduced_coeffs,
    structured_pass,
    take_round,
)
from .pool import AgentPool
from .ridge import RidgeConfig, RidgeWindow
from .ridge import ridge_action  # noqa: F401  (perfbench's tracer wraps it here)
from .spawner import (
    build_ortho_problem,
    ortho_solve,
    resample_parameters,
    score_agents,  # noqa: F401  (perfbench's tracer wraps it here)
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
        """The worst agent's realized cost (the under-performer regret).
        Each solved policy is a Nash equilibrium, or its limit, which
        need not minimize it."""
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
    drift, mean, mean_drift = np.empty((n, d_y)), np.empty((1, 1, d_y)), np.empty((1, 1, d_y))
    _drift_into(preds[None], params.theta.T, params.theta_bar.T, drift[None], mean, mean_drift)
    out = _advance_into(drift, mean_drift, latents, actions, np.empty((n, d_y)), np.empty((n, d_y)))
    check_finite(out, np.add.reduce(out, axis=None))
    return out


def _drift_into(preds, theta_t, theta_bar_t, drift, mean, mean_drift) -> None:
    """The two drift terms of the dynamics of G populations, theta Y (per
    agent, into the (G, N, d_y) ``drift``) and theta_bar mean(Y) (per
    population, into the (G, 1, d_y) ``mean_drift``), given the (G, N,
    d_y) ``preds`` and the transposed ``theta_t`` and ``theta_bar_t``; the
    means go to ``mean``. Each population's matmuls are a lone one's."""
    np.matmul(preds, theta_t, out=drift)
    np.add.reduce(preds, axis=-2, out=mean, keepdims=True)  # np.mean's sum and division
    mean /= preds.shape[-2]
    np.matmul(mean, theta_bar_t, out=mean_drift)


def _advance_into(drift, mean_drift, latents, actions, out, work) -> np.ndarray:
    """The dynamics' sum drift + mean_drift + Z beta, left to right, into
    ``out``; ``work`` holds Z beta. ``drift``, ``out`` and ``work`` are
    contiguous (G N, d_y) stacks of G populations and ``mean_drift`` is
    (G, 1, d_y), one row per population. Unchecked: ``step_dynamics`` and
    the agent step check the result."""
    groups, d_y = mean_drift.shape[0], out.shape[1]
    np.add(drift.reshape(groups, -1, d_y), mean_drift, out=out.reshape(groups, -1, d_y))
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
    """``np.quantile(x, levels, axis=-1)`` (its default linear method)
    from one ``np.partition``, given ``_quantile_plan(x.shape[-1],
    levels)``. ``np.quantile`` and ``np.unique`` import ``numpy.ma`` on
    their first call, which costs more than a small episode's metrics."""
    lo, hi, kth, frac = plan
    part = np.partition(x, kth)
    a, b = part[..., lo], part[..., hi]
    diff = b - a
    return np.where(frac >= 0.5, b - diff * (1 - frac), a + diff * frac)


class _RunningMetrics:
    """Per-agent sums over the rounds played so far by G populations of
    N agents, one row per population, folded in round by round in the
    order of the whole-episode reductions they replace. The stage
    discounts and the quantile plan are built once per episode."""

    def __init__(self, populations: int, n_agents: int, rounds: int, params: GameParams):
        T = params.horizon_T
        self.params = params
        self.discounts = np.exp(-params.alpha * (T - 1 - np.arange(T)))
        self.quantile_plan = _quantile_plan(n_agents, list(COST_QUANTILES.values()))
        self.costs = np.zeros((populations, n_agents))  # total objective
        self.sq_err = np.zeros((populations, n_agents))  # squared prediction error over steps
        self.quantiles = np.empty((populations, rounds, len(COST_QUANTILES)))
        self.max_abs_prediction = np.zeros(populations)

    def add_round(self, r: int, predictions, actions, y_round):
        """Fold in round r: predictions (T+1, G N, d_y), actions (T, G N,
        d_z) and its targets y_round (T+1, d_y). The round's discounted
        sample-path objective of every agent is the sum over its steps of
        kappa |y - Y|^2 + kappa_bar |Y - mean(Y)|^2 + gamma |beta|^2, with
        its population's own mean. Returns the (T, G, N) squared errors
        |y - Y|^2, the agents' scores."""
        p = self.params
        T, G = actions.shape[0], self.costs.shape[0]
        preds = predictions[1:].reshape(T, G, -1, predictions.shape[2])  # (T, G, N, d_y)
        acts = actions.reshape(T, G, -1, actions.shape[2])  # (T, G, N, d_z)
        err = y_round[1:, None, None] - preds
        # np.mean's sum and division, without its wrapper
        mean = np.add.reduce(preds, axis=2, keepdims=True)
        mean /= preds.shape[2]
        dev = preds - mean
        sq = np.einsum("tgnd,tgnd->tgn", err, err)  # (y - Y)^2, per step and agent
        stage = (
            p.kappa * sq
            + p.kappa_bar * np.einsum("tgnd,tgnd->tgn", dev, dev)
            + p.gamma * np.einsum("tgnk,tgnk->tgn", acts, acts)
        )
        # population-major, so that each population's sum over the steps
        # runs on its own contiguous (T, N) block, as in a lone episode
        costs = np.einsum("t,gtn->gn", self.discounts, np.ascontiguousarray(stage.transpose(1, 0, 2)))
        self.costs += costs
        self.quantiles[:, r] = _quantiles(costs, self.quantile_plan)
        for step in sq:
            self.sq_err += step
        peak = np.maximum.reduce(np.abs(predictions).reshape(T + 1, G, -1), axis=(0, 2))
        np.maximum(self.max_abs_prediction, peak, out=self.max_abs_prediction)
        return sq


def _aggregation_discounts(k: int, alpha_a: float) -> np.ndarray:
    """(k,) discounts of a window of k steps' errors, oldest first."""
    return np.exp(-alpha_a * np.arange(k - 1, -1, -1))


def _softmax_into(disc, errors, out) -> np.ndarray:
    """Softmax weights of minus the ``disc``-discounted (k, N) ``errors``,
    into the (N,) ``out``; or of G populations' (G, k, N) errors, each
    population's weights on its own, into the (G, N) ``out``."""
    np.matmul(disc, errors, out=out)
    np.subtract(out, np.minimum.reduce(out, axis=-1, keepdims=True), out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
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

    Only the last ``window_Ta`` (>= 1) rows of ``recent_errors`` (a
    sequence of (N,) squared errors, oldest first) are read.
    """
    if window_Ta < 1:
        raise ValueError(f"window_Ta must be >= 1, got {window_Ta!r}")
    preds = np.atleast_2d(np.asarray(per_agent_preds, dtype=float))
    n = preds.shape[0]
    if recent_errors is None or len(recent_errors) == 0:
        w = np.full(n, 1.0 / n)
    else:
        w = aggregation_weights(np.asarray(recent_errors[-window_Ta:]), alpha_a)
    return w @ preds, w


def _rng(*key):
    """The generator of the random stream keyed by (seed, purpose[,
    step]); every stream draws a block with one row per agent (or bank
    replica), agent-major. The per-step streams of an episode come from
    a ``streams.SeedTable`` instead, with the same draws."""
    return np.random.default_rng(list(key))


def _encode_run(encoder, inputs, streams, steps, z_prev, out) -> None:
    """The latents of the input ``steps`` by the stacked ``encoder``, step
    by step into ``out`` (len(steps), count, d_y, d_z), with the recurrent
    state carried from ``z_prev`` through; step g encodes ``inputs[g]``.
    The stacked encoders are len(``streams``) equal blocks, and block i
    draws its noise rows of step g from ``streams[i].rng(g)``; a stream
    given for several blocks is drawn once per step, by its first block,
    whose draw the others copy. The run is checked once, with its first
    carry ``z_prev``, which ``out`` must not hold."""
    count, d_y, d_z = encoder.b.shape
    noise, ax, work = np.empty((count, d_z)), np.empty((count, d_y)), np.empty((count, d_y, d_z))
    blocks = noise.reshape(len(streams), -1, d_z)
    first = [streams.index(stream) for stream in streams]
    check_step(encoder, inputs[steps[0]], noise, z_prev)
    for g, z in zip(steps, out):
        for i, stream in enumerate(streams):
            if first[i] == i:
                stream.rng(g).standard_normal(out=blocks[i])
            else:
                blocks[i] = blocks[first[i]]
        z_prev = encode_into(encoder, inputs[g], noise, z_prev, z, ax, work)


def _build_bank(scenario: Scenario, inputs: np.ndarray, seed: int) -> np.ndarray:
    """(L, mc_samples, d_y, d_z) latent replicas from freshly sampled
    encoder parameter sets, run over the L given inputs (recurrent state
    carried through, from zero) by ``_encode_run``; step t draws its noise
    from the stream (seed, 72, t) of one ``SeedTable``. A recurrent
    encoder's carry (every step but the last) is checked here, so its
    EncodeError comes ahead of the MomentError that ``estimate_moments``
    raises for any other non-finite sample."""
    p = scenario.params
    count, L = scenario.mc_samples, inputs.shape[0]
    encs = sample_encoders(scenario.encoder, count, p.dim_y, p.dim_z, inputs.shape[1], _rng(seed, 71))
    bank = np.empty((L, count, p.dim_y, p.dim_z))
    _encode_run(encs, inputs, [SeedTable((seed, 72), L)], range(L), np.zeros(bank.shape[1:]), bank)
    if encs.B is not None:
        check_carry(bank[:-1])  # every step but the last is a carry
    return bank


def _population(policy: str, n: int):
    """The population at which the seed's structured pass solves a cell:
    N for a reduced cell, ``math.inf`` (the limit) for a decentralized
    one, and None for the cells that it does not play: greedy, full, and
    reduced at N = 1, which plays the dense full pass."""
    if policy == "decentralized":
        return math.inf
    return n if policy == "reduced" and n >= 2 else None


class SeedWork:
    """The work that the cells of one seed share, done once for all of
    them: the dataset, the agents' noise streams, the latent bank's
    moments and one structured pass.

    ``cells`` are the seed's (policy, N) cells and ``scenario`` the
    scenario of any of them: a seed's cells differ only in N, which
    neither the dataset nor the bank reads. The bank (seed, encoder and
    ``mc_samples``) is built and reduced to round-stacked moments only if
    some cell solves a game; greedy cells read the dataset alone. Every
    reduced N >= 2 among the cells and, for decentralized cells, the
    limit (``math.inf``), the cells' ``_population``, are the
    ``populations`` of one ``nash_reduced.structured_pass`` over every
    round; each entry is read back through the code of its lone pass
    (``reduced_coeffs``, ``limit_coeffs``), so it is that pass's
    coefficients bit for bit. ``solved`` maps each population, the limit
    (``math.inf``) included, to its round-stacked coefficients, and
    ``ybar`` holds the limit's (T+1, rounds, d_y) mean field Ybar
    (``meanfield_forward``, None without a decentralized cell), computed
    once for every decentralized cell, whatever its N. Whatever the
    dataset, the bank or the pass raises, building the work raises:
    ``fedgames run`` then plays each of the seed's cells alone
    (``run_episode``), and each cell builds its own work and names its
    own error. Full cells, and reduced cells at
    N = 1, read only the moments: the dense full pass stays an
    independent oracle of the structured one.

    ``share_ms`` is the wall time of this work divided by the number of
    cells: each cell's ``runtime_ms`` adds it to its own episode time.
    """

    def __init__(self, scenario: Scenario, seed: int, cells):
        start = time.perf_counter()
        p = scenario.params
        T = p.horizon_T
        self.seed, self.cells = seed, set(cells)
        targets, self.inputs = build_dataset(scenario.dataset)
        self.values = targets.values
        if self.values.shape[1] != p.dim_y:
            raise ValueError(f"dataset dim {self.values.shape[1]} != dim_y {p.dim_y}")
        self.rounds = (self.values.shape[0] - 1) // T
        if self.rounds < 1:
            raise ValueError("dataset too short for one round of the horizon")
        # the agents' noise streams (seed, 5, g), whose keys hold neither policy nor N
        self.noise_streams = SeedTable((seed, 5), self.rounds * T)
        # population -> the round-stacked coefficients of the seed's pass,
        # the reduced ones at a finite N and the limit's at math.inf, whose
        # (T+1, rounds, d_y) mean field Ybar is ``ybar``
        self.solved, self.ybar = {}, None
        if any(policy != "greedy" for policy, _ in self.cells):
            # covers only the rounds T input steps that the rounds play
            episode = estimate_moments(_build_bank(scenario, self.inputs[: self.rounds * T], seed))
            # views with the round axis after the time axis: [t, r] is step rT + t
            self._m1, self._units = (
                a.reshape(self.rounds, T, *a.shape[1:]).swapaxes(0, 1) for a in (episode.m1, episode.units)
            )
            ns = sorted({_population(policy, n) for policy, n in self.cells} - {None})
            if ns:
                moments, stacked = self.round_stack(0, self.rounds)
                s = structured_pass(p, moments, stacked, ns, "reduced")
                for i, n in enumerate(ns):
                    entry = s.entry(i)
                    if n < math.inf:
                        self.solved[n] = reduced_coeffs(p, entry, n)
                    else:
                        self.solved[n] = limit_coeffs(p, entry, game_units(entry, math.inf)[1])
                        self.ybar = meanfield_forward(self.solved[n], moments, stacked.values[0])
        self.share_ms = 1000.0 * (time.perf_counter() - start) / len(self.cells)

    def round_stack(self, first: int, stop: int) -> tuple[MomentSet, TargetSeries]:
        """(moments, targets) of rounds first..stop-1 with a round axis
        after the time axis: entry [t, r] is step (first + r)T + t."""
        T = self._m1.shape[0]
        moments = MomentSet(m1=self._m1[:, first:stop], units=self._units[:, first:stop])
        targets = TargetSeries(values=self.values[np.arange(T + 1)[:, None] + T * np.arange(first, stop)])
        return moments, targets


def _solve_episode(policy, scenario: Scenario, work: SeedWork):
    """(kind, solved, act): the one place a policy maps to its solver and
    its action rule. ``solved`` yields each round's coefficients in turn.
    ``act(c, r, t, predictions, latents, drift, mean_drift)`` returns the
    (N, d_z) actions of step t of round r, whose coefficients are c; the
    last two are the step's drift terms theta Y and theta_bar mean(Y),
    which only the greedy baseline reads (its ridge residual is the
    target less both). The greedy baseline solves nothing (kind and
    ``solved`` None) and reads no latent bank.

    The seed's latent bank (``SeedWork``) covers only the rounds T input
    steps that the rounds play, so a non-finite sample in an input step
    past them does not raise. A round's pass reads only the params, the
    moments of steps rT..rT+T-1 and the targets ``values[rT:rT+T+1]``,
    never the agents, so the passes solve rounds together, over a round
    stack whose moments are a view of the seed's. The reduced and
    decentralized passes solve every round at once, in the seed's one
    structured pass. The dense full oracle solves chunks of
    ``nash_full.rounds_per_pass(N)`` = (HARD_N_CEILING // N)^2 rounds,
    each as the loop reaches it: a chunk's peak memory stays at or below
    one lone pass at HARD_N_CEILING, so a cell never holds more than that
    ahead of the loop.
    """
    p = scenario.params
    N, T = p.population_N, p.horizon_T
    values, rounds = work.values, work.rounds
    if policy == "greedy":
        if scenario.ridge is None:
            raise ValueError("greedy policy needs a ridge config")
        # the window never holds more pairs than the episode pushes
        cfg = replace(scenario.ridge, window_T=min(scenario.ridge.window_T, rounds * T))
        window = RidgeWindow(N, p.dim_y, p.dim_z, T, cfg)
        sqrt_kappa = np.sqrt(p.kappa)

        def act(c, r, t, preds, latents, drift, mean_drift):
            # data-fit rows carry sqrt(kappa) so the fitted objective is
            # kappa * fit + gamma * penalty; kappa = 0 zeroes the policy
            return window.step(r, t, latents, values[r * T + t + 1], drift, mean_drift, sqrt_kappa)

        return None, None, act

    n = _population(policy, N)
    if n is None:

        def act(c, r, t, preds, latents, drift, mean_drift):
            return full_action(t, preds.reshape(-1), c).reshape(N, p.dim_z)

        def solve_chunks():
            chunk = rounds_per_pass(N)
            for first in range(0, rounds, chunk):
                stop = min(first + chunk, rounds)
                # an error names the episode's round, not the chunk's
                coeffs = full_backward_pass(p, *work.round_stack(first, stop), first_round=first)
                yield from (take_round(coeffs, r) for r in range(stop - first))

        return "full", solve_chunks(), act
    coeffs = work.solved[n]
    solved = (take_round(coeffs, r) for r in range(rounds))
    if n < math.inf:

        def act(c, r, t, preds, latents, drift, mean_drift):
            return reduced_action(t, preds, preds.sum(axis=0) - preds, c)

        return policy, solved, act

    def act(c, r, t, preds, latents, drift, mean_drift):
        return decentralized_action(t, preds, work.ybar[t, r], c)

    return policy, solved, act


def run_episode(
    policy: str,
    scenario: Scenario,
    seed: int,
    trace: EpisodeTrace | None = None,
    shared: SeedWork | None = None,
) -> RunRecord:
    """Simulate one seeded episode of the configured scenario, as a group
    of one (``run_group``); a ``trace`` collects the per-step histories.
    ``shared`` is the work of the seed's cells that this cell reads
    (``fedgames run`` builds one per seed); without it the episode builds
    its own for this one cell."""
    if shared is None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        shared = SeedWork(scenario, seed, [(policy, scenario.params.population_N)])
    return run_group([(policy, seed)], scenario, {seed: shared}, trace)[0]


def run_group(members, scenario: Scenario, shared: dict, trace: EpisodeTrace | None = None) -> list:
    """Play the episodes of the (policy, seed) ``members``, all at the
    scenario's N, as one episode of G = len(members) populations stacked
    along the agent axis (module docstring); returns their records, in
    order, each its lone episode's. ``shared`` maps each member's seed to
    its ``SeedWork``. Each member's ``_solve_episode`` gives its one
    action rule ``act`` and its coefficients, which the loop takes one
    round at a time, at the round's start, and passes to each of the
    round's ``act`` calls. If any member raises, the group raises; a
    caller that wants each member's own outcome runs the members again
    one at a time (``run_episode``), through this same code.

    Each seed's pool (seed, 11) is drawn once, and its noise block (seed,
    5, g) once per step, for all of the seed's members. Without a spawner
    the pool never changes, so a seed's members share its latents,
    encoded once per seed; with one, every member gets its own copy of
    the pool (they part after round 0). Each record's ``runtime_ms`` is
    the group's wall time over G plus its seed's ``share_ms``. ``trace``
    takes the (T+1, G N, d_y) and (T, G N, d_z) histories of every
    round."""
    p = scenario.params
    N, d_y, d_z, T = p.population_N, p.dim_y, p.dim_z, p.horizon_T
    works = [shared.get(seed) for _, seed in members]
    for (policy, seed), work in zip(members, works):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if work is None:
            raise ValueError(f"no shared work for seed {seed}")
        if work.seed != seed or (policy, N) not in work.cells:
            raise ValueError(f"the shared work of seed {work.seed} has no cell policy={policy} N={N} seed={seed}")
    start = time.perf_counter()
    G = len(members)
    # the dataset depends on the scenario alone: every seed's is the same
    values, inputs, rounds = works[0].values, works[0].inputs, works[0].rounds

    # the encoded populations, "units": one per member with a spawner,
    # else one per seed, which its members read through ``unit_of``
    seeds = list(dict.fromkeys(seed for _, seed in members))
    unit_seeds = [seed for _, seed in members] if scenario.spawner is not None else seeds
    drawn = {seed: sample_encoders(scenario.encoder, N, d_y, d_z, inputs.shape[1], _rng(seed, 11)) for seed in seeds}
    pool = AgentPool.create(*(drawn[seed] for seed in unit_seeds))
    streams = [shared[seed].noise_streams for seed in unit_seeds]
    U = len(unit_seeds)
    unit_of = None if U == G else np.array([seeds.index(seed) for _, seed in members])

    metrics = _RunningMetrics(G, N, rounds, p)
    agg_hist = np.zeros((G, rounds, T, d_y))
    log_weights = [np.full(N, -np.log(N))] * G
    spawn_events = [[] for _ in members]
    rows = [slice(m * N, (m + 1) * N) for m in range(G)]

    # the round's buffers, allocated once: its histories, its raw,
    # steered and gathered latents, and every intermediate of act,
    # dynamics and aggregation
    preds_hist, acts_hist = np.empty((T + 1, G * N, d_y)), np.empty((T, G * N, d_z))
    zs, steered = np.empty((T, U * N, d_y, d_z)), np.empty((T, U * N, d_y, d_z))
    gathered = None if unit_of is None else np.empty((T, G, N, d_y, d_z))
    drift, zb = np.empty((G * N, d_y)), np.empty((G * N, d_y))
    mean, mean_drift = np.empty((G, 1, d_y)), np.empty((G, 1, d_y))
    theta_t, theta_bar_t = p.theta.T, p.theta_bar.T
    # the aggregation window W never holds more steps than the episode
    # plays; per member, the scores of the W steps before the round, then the round's
    W = min(scenario.aggregation_window, rounds * T)
    errors, weights, uniform = np.empty((G, W + T, N)), np.empty((G, N)), np.full((G, N), 1.0 / N)
    discounts = _aggregation_discounts(W, scenario.aggregation_alpha)

    kinds, solved, acts = zip(*(_solve_episode(policy, scenario, work) for (policy, _), work in zip(members, works)))
    spawn_tables = {} if scenario.spawner is None else {seed: SeedTable((seed, 999), rounds) for seed in seeds}
    for r in range(rounds):
        base = r * T
        # each member's coefficients of the round (None for greedy)
        played = [None if s is None else next(s) for s in solved]
        if r == 0:
            round0 = [None if kind is None else (kind, c) for kind, c in zip(kinds, played)]

        # the spawner changes the pool only between rounds, so a round's
        # latents are encoded ahead of its steps; the carry is a copy, as
        # at T = 1 the round's one slice is the next round's output
        _encode_run(pool.encoder, inputs, streams, range(base, base + T), pool.esn_state, zs)
        pool.esn_state = zs[-1].copy()
        latents = zs if pool.latent_transforms is None else np.matmul(zs, pool.latent_transforms, out=steered)
        if unit_of is not None:
            units = latents.reshape(T, U, N, d_y, d_z)
            latents = np.take(units, unit_of, axis=1, out=gathered, mode="clip").reshape(T, G * N, d_y, d_z)
        preds_hist[0] = values[base]
        for t in range(T):
            preds, new_preds = preds_hist[t], preds_hist[t + 1]
            _drift_into(preds.reshape(G, N, d_y), theta_t, theta_bar_t, drift.reshape(G, N, d_y), mean, mean_drift)
            for m, (act, c) in enumerate(zip(acts, played)):
                acts_hist[t, rows[m]] = act(c, r, t, preds[rows[m]], latents[t, rows[m]], drift[rows[m]], mean_drift[m, 0])
            _advance_into(drift, mean_drift, latents[t], acts_hist[t], new_preds, zb)
            check_finite(new_preds, np.add.reduce(new_preds, axis=None))

        sq = metrics.add_round(r, preds_hist, acts_hist, values[base : base + T + 1])
        errors[:, W:] = sq.transpose(1, 0, 2)
        member_preds = preds_hist.reshape(T + 1, G, N, d_y)
        for t in range(T):
            k = min(base + t, W)  # step t weighs the scores of the k steps before it
            w = uniform if k == 0 else _softmax_into(discounts[W - k :], errors[:, W + t - k : W + t], weights)
            np.matmul(w[:, None], member_preds[t + 1], out=agg_hist[:, r, t, None])
        errors[:, :W] = errors[:, T:]
        if trace is not None:
            trace.rounds.append((preds_hist.copy(), acts_hist.copy()))

        if spawn_tables and r < rounds - 1:
            for m, work in enumerate(works):
                log_weights[m] = _spawn_between_rounds(
                    scenario,
                    pool,
                    log_weights[m],
                    sq[-1, m],
                    spawn_tables[work.seed].rng(r),
                    r,
                    spawn_events[m],
                    latents[-1, rows[m]],
                    acts_hist[-1, rows[m]],
                    values[base + T],
                    first=rows[m].start,
                )

    finals = [_finalize_metrics(metrics, m, agg_hist[m], values) for m in range(G)]
    group_ms = 1000.0 * (time.perf_counter() - start) / G
    return [
        RunRecord(
            policy=policy,
            seed=seed,
            targets=values,
            aggregated=agg_hist[m],
            costs=metrics.costs[m],
            round_cost_quantiles={name: metrics.quantiles[m, :, i] for i, name in enumerate(COST_QUANTILES)},
            messages_per_step=MESSAGES_PER_STEP[policy](N),
            spawn_events=spawn_events[m],
            round0_coeffs=round0[m],
            **finals[m],
            runtime_ms=group_ms + work.share_ms,
        )
        for m, ((policy, seed), work) in enumerate(zip(members, works))
    ]


def _spawn_between_rounds(
    scenario, pool, log_weights, last_scores, rng, round_idx, events, last_latents, last_actions, y_now, first=0
):
    """One spawner round after round ``round_idx`` on the N agents of the
    pool from row ``first`` on (a group's pool holds several
    populations), drawing from ``rng``, the stream (seed, 999,
    round_idx), given the round's last (N,) scores, (N, d_y, d_z) latents
    and (N, d_z) actions; returns the next round's log weights."""
    cfg = scenario.spawner
    n, d_z = last_scores.shape[0], last_latents.shape[2]
    new_rows, retained_idx, retired_idx, post, log_post = resample_parameters(
        pool.rows[first : first + n], last_scores, log_weights, cfg.lam, cfg.sigma_t, cfg.retire_k, rng
    )
    slots = first + retired_idx
    pool.respawn(slots, new_rows)

    event = {
        "round": int(round_idx),
        "retired": retired_idx.tolist(),
        "weights": post.tolist(),
    }
    if cfg.orthogonalize and cfg.zeta2 > 0:
        # the mean action's direction: np.mean's sum and division, and
        # np.linalg.norm's dot and root, without their wrappers
        beta_dir = np.add.reduce(last_actions, axis=0)
        beta_dir /= n
        norm = math.sqrt(beta_dir @ beta_dir)
        beta_dir = beta_dir / norm if norm > 0 else np.full(d_z, 1.0 / np.sqrt(d_z))
        prob = build_ortho_problem(
            last_latents[retained_idx],
            last_latents[retired_idx],
            beta_dir,
            y_now,
            cfg.zeta1,
        )
        sol = ortho_solve(prob, cfg.zeta2)
        pool.steer(slots, sol.A_star)
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


def _finalize_metrics(metrics: _RunningMetrics, m: int, aggregated, targets) -> dict:
    """Population m's record metric fields, from the streamed per-agent
    sums, its (rounds, T, d_y) aggregated series and the (L, d_y)
    targets."""
    rounds, T, d_y = aggregated.shape
    y = targets[1 : rounds * T + 1].reshape(rounds, T, d_y)
    agg_err = np.sum((aggregated - y) ** 2, axis=-1)
    per_agent_rmse = np.sqrt(metrics.sq_err[m] / (rounds * T))
    k = max(1, int(np.ceil(0.2 * per_agent_rmse.shape[0])))
    return {
        "rmse_aggregated": float(np.sqrt(np.mean(agg_err))),
        "rmse_worst": float(per_agent_rmse.max()),
        "rmse_bottom20": float(np.sort(per_agent_rmse)[-k:].mean()),
        "max_abs_prediction": float(metrics.max_abs_prediction[m]),
    }
