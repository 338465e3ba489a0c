"""Independent oracles used by the solver tests.

The solver oracles are derived from standard single-agent LQR reasoning
and plain forward simulation, deliberately sharing no code with the
package's coupled-game solvers. ``reference_full_backward_pass`` is the
full solver's own earlier per-block loop, kept to check its batched
assembly. ``reference_episode`` is the other exception: it checks the
harness's array-at-a-time agent loop, not the solvers, so it calls the
package's backward passes and spells out the loop per agent.
``episode_metrics`` keeps the whole-episode metric formulas that the
harness now streams round by round, to check them on traced histories.
``public_episode`` is the agent loop as one call of each public encoder,
action, dynamics, aggregation and scoring function per step, to check
the harness's fused step bit for bit.
``round_stack`` and ``assert_round_equal`` check the round-batched
backward passes against one unbatched pass per round.
``reference_resample`` and ``reference_ortho_solve`` are the spawner's
earlier per-slot resampling and secular solve, kept to check that the
batched resampling draws the same stream and that the solve finds the
same root. ``reference_mean_gap`` is the convergence diagnostic's
Monte-Carlo loop spelled with the package's own latent draw, action and
dynamics, to check that the fused loop plays the same dynamics.
``ridge_design`` writes out the greedy baseline's discounted design, to
check the ridge solve against its normal equations and an lstsq oracle.
``exchangeable_dense`` and ``symmetric_basis`` write out, densely, the
block pattern and the orthogonal basis of the directions that the
structured pass's tails act on. ``reference_decentralized_pass`` is the
decentralized pass's own limit recursion, derived by hand, kept to check
that the structured pass at eps = 0 computes the same limit.
"""

from __future__ import annotations

import numpy as np


def lift(N, n, d):
    """Block column selector e_n (x) I_d as a dense matrix."""
    out = np.zeros((N * d, d))
    out[n * d : (n + 1) * d] = np.eye(d)
    return out


def exchangeable_dense(N, a, b, c, d, e):
    """Dense N-agent block matrix with first block row (a, b, ..., b), first
    block column (a; c; ...; c), d on the rest of the diagonal and e off it;
    every block is p x q."""
    p, q = a.shape
    out = np.zeros((N * p, N * q))
    for i in range(N):
        for j in range(N):
            if i == 0:
                blk = a if j == 0 else b
            else:
                blk = c if j == 0 else d if i == j else e
            out[i * p : (i + 1) * p, j * q : (j + 1) * q] = blk
    return out


def symmetric_basis(N, p):
    """Orthogonal U = blockdiag(I_p, V (x) I_p) over N agents' p-blocks.

    V's first column is the all-ones vector over agents 2..N divided by
    sqrt(N-1); column k (k = 1..N-2) is the Helmert vector
    (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k+1)) with k leading ones."""
    m = N - 1
    V = np.zeros((m, m))
    V[:, 0] = 1.0 / np.sqrt(m)
    for k in range(1, m):
        V[:k, k] = 1.0
        V[k, k] = -k
        V[:, k] /= np.sqrt(k * (k + 1))
    U = np.zeros((N * p, N * p))
    U[:p, :p] = np.eye(p)
    U[p:, p:] = np.kron(V, np.eye(p))
    return U


def stacked_drift(params):
    N = params.population_N
    return np.kron(np.eye(N), params.theta) + np.kron(
        np.full((N, N), 1.0 / N), params.theta_bar
    )


def selector_rows(params, n):
    """(E_n, D_n): agent-n block row and its deviation-from-mean row."""
    N, d_y = params.population_N, params.dim_y
    e_n = lift(N, n, d_y).T
    mean_row = np.tile(np.eye(d_y) / N, (1, N))
    return e_n, e_n - mean_row


def simulate_affine_policies(params, z_schedule, targets, gains, intercepts, x0):
    """Forward path when every agent m plays u_m = gains[m] x + intercepts[m]."""
    N, d_y, d_z = params.population_N, params.dim_y, params.dim_z
    T = params.horizon_T
    drift = stacked_drift(params)
    xs = np.zeros((T + 1, N * d_y))
    us = np.zeros((T, N, d_z))
    xs[0] = x0
    for t in range(T):
        nxt = drift @ xs[t]
        for m in range(N):
            u = gains[m][t] @ xs[t] + intercepts[m][t]
            us[t, m] = u
            nxt = nxt + lift(N, m, d_y) @ (z_schedule[t] @ u)
        xs[t + 1] = nxt
    return xs, us


def realized_cost(params, targets, xs, us, n):
    """Sample-path cost of agent n along a simulated trajectory."""
    N, d_y = params.population_N, params.dim_y
    total = 0.0
    for t in range(params.horizon_T):
        disc = params.discount(t)
        pred = xs[t + 1][n * d_y : (n + 1) * d_y]
        mean = xs[t + 1].reshape(N, d_y).mean(axis=0)
        err = targets.values[t + 1] - pred
        total += disc * (
            params.kappa * float(err @ err)
            + params.kappa_bar * float((pred - mean) @ (pred - mean))
            + params.gamma * float(us[t, n] @ us[t, n])
        )
    return total


def best_response_lqr(params, z_schedule, targets, n, gains, intercepts):
    """Optimal affine feedback for agent n when the others' affine feedback
    laws are held fixed. Plain affine-quadratic value recursion."""
    N, d_y, d_z = params.population_N, params.dim_y, params.dim_z
    T = params.horizon_T
    dim_x = N * d_y
    drift = stacked_drift(params)
    e_row, d_row = selector_rows(params, n)
    b_lift = lift(N, n, d_y)

    P = np.zeros((dim_x, dim_x))
    p = np.zeros(dim_x)
    r = 0.0
    out_gain = np.zeros((T, d_z, dim_x))
    out_icpt = np.zeros((T, d_z))
    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        z = z_schedule[t]
        y_next = targets.values[t + 1]

        a_bar = drift.copy()
        c_bar = np.zeros(dim_x)
        for m in range(N):
            if m == n:
                continue
            zm_lift = lift(N, m, d_y) @ z_schedule[t]
            a_bar += zm_lift @ gains[m][t]
            c_bar += zm_lift @ intercepts[m][t]
        b_bar = b_lift @ z

        w = disc * (params.kappa * e_row.T @ e_row + params.kappa_bar * d_row.T @ d_row) + P
        b_vec = -disc * params.kappa * e_row.T @ y_next + p

        gram = b_bar.T @ w @ b_bar + disc * params.gamma * np.eye(d_z)
        gain = -np.linalg.solve(gram, b_bar.T @ w @ a_bar)
        icpt = -np.linalg.solve(gram, b_bar.T @ (w @ c_bar + b_vec))
        out_gain[t] = gain
        out_icpt[t] = icpt

        a_cl = a_bar + b_bar @ gain
        c_cl = c_bar + b_bar @ icpt
        P_new = a_cl.T @ w @ a_cl + disc * params.gamma * gain.T @ gain
        p_new = a_cl.T @ (w @ c_cl + b_vec) + disc * params.gamma * gain.T @ icpt
        r_new = (
            c_cl @ (w @ c_cl)
            + 2 * b_vec @ c_cl
            + disc * params.gamma * icpt @ icpt
            + disc * params.kappa * float(y_next @ y_next)
            + r
        )
        P, p, r = 0.5 * (P_new + P_new.T), p_new, r_new
    return out_gain, out_icpt, (P, p, r)


def alternating_best_response(params, z_schedule, targets, sweeps=200, tol=1e-12):
    """Gauss-Seidel best-response iteration over feedback laws."""
    N, d_y, d_z = params.population_N, params.dim_y, params.dim_z
    T = params.horizon_T
    gains = [np.zeros((T, d_z, N * d_y)) for _ in range(N)]
    icpts = [np.zeros((T, d_z)) for _ in range(N)]
    for _ in range(sweeps):
        delta = 0.0
        for n in range(N):
            g, i, _ = best_response_lqr(params, z_schedule, targets, n, gains, icpts)
            delta = max(
                delta,
                float(np.max(np.abs(g - gains[n]))),
                float(np.max(np.abs(i - icpts[n]))),
            )
            gains[n], icpts[n] = g, i
        if delta < tol:
            break
    return gains, icpts


# ---------------------------------------------------------------------------
# Per-block reference for the dense full backward pass
# ---------------------------------------------------------------------------
#
# ``fedgames.nash_full.full_backward_pass`` assembles its system, forcing
# terms and per-agent weights array-at-a-time. This is the same pass with
# every d_z x d_z block filled in its own Python iteration (N^3 per step for
# Q_n), kept as the reference the batched pass must match.


def _theta_row(params, n, own, other):
    """Block row with `own` added at slot n on top of a uniform `other`."""
    N, d_y = params.population_N, params.dim_y
    row = np.tile(other, (1, N))
    row[:, n * d_y : (n + 1) * d_y] += own
    return row


def reference_full_backward_pass(params, moments, targets):
    """Per-block full backward pass; returns a dict with P, S, G, H,
    condition_numbers and max_asymmetry as in ``FullNashCoeffs``."""
    N, d_y, d_z = params.population_N, params.dim_y, params.dim_z
    T = params.horizon_T
    kap, kbar, gam = params.kappa, params.kappa_bar, params.gamma
    theta, tbar = params.theta, params.theta_bar
    drift = stacked_drift(params)
    y = targets.values

    P = np.zeros((N, T + 1, N * d_y, N * d_y))
    S = np.zeros((N, T + 1, N * d_y))
    G = np.zeros((T, N * d_z, N * d_y))
    H = np.zeros((T, N * d_z))
    conds = np.zeros(T)
    max_asym = 0.0

    def yblk(i):
        return slice(i * d_y, (i + 1) * d_y)

    def zblk(i):
        return slice(i * d_z, (i + 1) * d_z)

    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        M1 = moments.m1[t]
        M2 = moments.m2[t]
        A2 = M1.T @ M1
        y_next = y[t + 1]

        # E[Z^m' Z^k] under homogeneity: M2 on the diagonal, M1'M1 off it.
        ezz = np.where(np.eye(N, dtype=bool)[:, :, None, None], M2, A2)

        # System matrix: hat-A1 (diagonal), hat-A2 (all-pairs), and the
        # P-weighted quadratic coupling A.
        a_mat = np.zeros((N * d_z, N * d_z))
        for n in range(N):
            p_next = P[n, t + 1]
            diag_w = p_next[yblk(n), yblk(n)]
            for m in range(N):
                blk = p_next[yblk(n), yblk(m)]
                if m == n:
                    a_mat[zblk(n), zblk(m)] = moments.weighted_m2(t, diag_w)
                else:
                    a_mat[zblk(n), zblk(m)] = M1.T @ blk @ M1

        hat_a1 = np.kron(np.eye(N), M2)
        hat_a2 = np.kron(np.ones((N, N)), A2) + np.kron(np.eye(N), M2 - A2)
        m_sys = (
            disc
            * (
                (kap + kbar * (1 - 1 / N)) * hat_a1
                - kbar * (1 - 1 / N) * (1 / N) * hat_a2
                + gam * np.eye(N * d_z)
            )
            + a_mat
        )

        # Feedback forcing: stage-cost cross terms plus the P coupling.
        r_mat = np.zeros((N * d_z, N * d_y))
        c_vec = np.zeros(N * d_z)
        f_vec = np.zeros(N * d_z)
        for n in range(N):
            row_k = _theta_row(params, n, theta, tbar / N)
            row_kb = _theta_row(params, n, theta, -theta / N)
            r_mat[zblk(n)] = disc * (kap * M1.T @ row_k + kbar * (1 - 1 / N) * M1.T @ row_kb)
            r_mat[zblk(n)] += M1.T @ P[n, t + 1][yblk(n), :] @ drift
            c_vec[zblk(n)] = M1.T @ S[n, t + 1][yblk(n)]
            f_vec[zblk(n)] = M1.T @ y_next

        conds[t] = np.linalg.cond(m_sys)
        g_t = -np.linalg.solve(m_sys, r_mat)
        h_t = np.linalg.solve(m_sys, disc * kap * f_vec - c_vec)
        G[t] = g_t
        H[t] = h_t

        for n in range(N):
            p_next = P[n, t + 1]
            row_k = _theta_row(params, n, theta, tbar / N)
            row_kb = _theta_row(params, n, theta, -theta / N)

            # Quadratic action weight Q_n.
            q_n = np.zeros((N * d_z, N * d_z))
            diag_ws = np.stack([p_next[yblk(m), yblk(m)] for m in range(N)])
            wm2_diag = moments.weighted_m2(t, diag_ws)
            for m in range(N):
                for k in range(N):
                    blk = kbar * (
                        (1.0 if (m == n and k == n) else 0.0) * M2
                        - (1.0 / N) * ((m == n) * ezz[n, k] + (k == n) * ezz[m, n])
                        + (1.0 / N**2) * ezz[m, k]
                    )
                    if m == k:
                        q_n[zblk(m), zblk(k)] = disc * blk + wm2_diag[m]
                    else:
                        q_n[zblk(m), zblk(k)] = disc * blk + M1.T @ p_next[yblk(m), yblk(k)] @ M1
            q_n[zblk(n), zblk(n)] += disc * (kap * M2 + gam * np.eye(d_z))

            # State-action cross weight L_n.
            l_n = np.zeros((N * d_z, N * d_y))
            p_drift = p_next @ drift
            for m in range(N):
                l_n[zblk(m)] = M1.T @ p_drift[yblk(m), :]
                l_n[zblk(m)] += (
                    disc
                    * kbar
                    * ((1.0 if m == n else 0.0) - 1.0 / N)
                    * (M1.T @ row_kb)
                )
            l_n[zblk(n)] += disc * kap * M1.T @ row_k

            stage = disc * (kap * row_k.T @ row_k + kbar * row_kb.T @ row_kb)
            p_new = g_t.T @ q_n @ g_t + g_t.T @ l_n + l_n.T @ g_t + stage
            p_new += drift.T @ p_next @ drift
            asym = float(np.max(np.abs(p_new - p_new.T)))
            max_asym = max(max_asym, asym)
            P[n, t] = 0.5 * (p_new + p_new.T)

            lifted_y = np.zeros(N * d_z)
            lifted_y[zblk(n)] = M1.T @ y_next
            s_next = S[n, t + 1]
            dz_s = (M1.T @ s_next.reshape(N, d_y).T).T.reshape(-1)
            s_new = g_t.T @ (q_n @ h_t) + g_t.T @ (-disc * kap * lifted_y + dz_s)
            s_new += l_n.T @ h_t
            s_new += -disc * kap * row_k.T @ y_next + drift.T @ s_next
            S[n, t] = s_new

    return dict(P=P, S=S, G=G, H=H, condition_numbers=conds, max_asymmetry=max_asym)


# ---------------------------------------------------------------------------
# Per-agent reference episode
# ---------------------------------------------------------------------------
#
# The harness runs every step array-at-a-time. This is the same episode as a
# plain per-(agent, step) loop, drawing the same random streams: one
# generator per key, each drawing a block with one row per agent (or bank
# replica), agent-major. Solvers, the spawner's resampling and QP, the
# dataset builder and the softmax weights are the package's; the encoders,
# actions, dynamics, greedy ridge fits, pool mutation and costs are
# written out here agent by agent.


def _stream(*key):
    return np.random.default_rng(list(key))


def _encoder_rows(kind, count, d_y, d_z, d_x, sigma, rng):
    """Per-agent parameter dicts from one agent-major draw: each row holds
    A then (ESN only) B then b."""
    shapes = [("A", (d_y, d_x))] + ([("B", (d_y, d_y))] if kind == "esn" else []) + [("b", (d_y, d_z))]
    width = sum(int(np.prod(s)) for _, s in shapes)
    draws = rng.standard_normal((count, width))
    encs = []
    for row in draws:
        enc, start = {}, 0
        for name, shape in shapes:
            size = int(np.prod(shape))
            enc[name] = row[start : start + size].reshape(shape)
            start += size
        enc["sigma"] = np.full(d_y, float(sigma))
        encs.append(enc)
    return encs


def _encode_one(cfg, enc, x, noise, state):
    d_z = enc["b"].shape[1]
    pre = enc["A"] @ np.tile(np.asarray(x, dtype=float)[:, None], (1, d_z))
    pre = pre + enc["b"] + enc["sigma"][:, None] @ noise[None, :]
    if cfg.kind == "rfn":
        return np.maximum(pre, 0.0)
    pre = pre + enc["B"] @ state
    if cfg.activation == "tanh":
        return np.tanh(pre)
    return np.clip((pre + 3.0) / 6.0, 0.0, 1.0)


def _flat(enc):
    names = ["A", "B", "b", "sigma"] if "B" in enc else ["A", "b", "sigma"]
    return np.concatenate([enc[k].ravel() for k in names]), names


def _unflat(vec, template):
    _, names = _flat(template)
    enc, start = {}, 0
    for name in names:
        size = template[name].size
        enc[name] = vec[start : start + size].reshape(template[name].shape)
        start += size
    enc["sigma"] = np.abs(enc["sigma"])
    return enc


def ridge_design(Z, resid, cfg):
    """X (k d_y, d_z) and ybar (k d_y) of the ``ridge`` module docstring for
    one agent's k pairs, ``Z`` (k, d_y, d_z) and ``resid`` (k, d_y), oldest
    first: pair s gets the row weight exp(-alpha (k-1-s) / 2) on both
    sides."""
    k = Z.shape[0]
    w = np.exp(-cfg.alpha * (k - 1 - np.arange(k)) / 2.0)
    return (w[:, None, None] * Z).reshape(-1, Z.shape[-1]), (w[:, None] * resid).reshape(-1)


def _ridge_one(history, cfg):
    """Discounted ridge fit of one agent from its list of (Z, resid) pairs."""
    last = len(history) - 1
    rows, rhs = [], []
    for i, (z, resid) in enumerate(history):
        w = np.exp(-cfg.alpha * (last - i) / 2.0)
        rows.append(w * z)
        rhs.append(w * resid)
    X, ybar = np.vstack(rows), np.concatenate(rhs)
    return np.linalg.solve(X.T @ X + cfg.gamma * np.eye(X.shape[1]), X.T @ ybar)


def reference_episode(policy, scenario, seed):
    """Slow per-agent episode; returns a dict of the recorded arrays and
    metrics under the names of ``fedgames.harness.RunRecord`` and
    ``EpisodeTrace``, plus the (rounds, N) ``costs_per_round``."""
    from fedgames.datasets import build_dataset
    from fedgames.harness import aggregation_weights
    from fedgames.model import TargetSeries, estimate_moments
    from fedgames.nash_full import full_action, full_backward_pass
    from fedgames.nash_meanfield import decentralized_backward_pass, meanfield_forward
    from fedgames.nash_reduced import reduced_backward_pass
    from fedgames.spawner import build_ortho_problem, ortho_solve, resample_parameters

    p, cfg = scenario.params, scenario.encoder
    N, d_y, d_z, T = p.population_N, p.dim_y, p.dim_z, p.horizon_T
    targets, inputs = build_dataset(scenario.dataset)
    values = targets.values
    rounds = (values.shape[0] - 1) // T
    d_x = inputs.shape[1]

    # latent bank, one replica at a time
    count = scenario.mc_samples
    bank_encs = _encoder_rows(cfg.kind, count, d_y, d_z, d_x, cfg.sigma, _stream(seed, 71))
    bank_state = [np.zeros((d_y, d_z)) for _ in range(count)]
    samples = []
    for t in range(inputs.shape[0]):
        noise = _stream(seed, 72, t).standard_normal((count, d_z))
        zs = []
        for i in range(count):
            z = _encode_one(cfg, bank_encs[i], inputs[t], noise[i], bank_state[i])
            bank_state[i] = z
            zs.append(z)
        samples.append(np.stack(zs))

    encs = _encoder_rows(cfg.kind, N, d_y, d_z, d_x, cfg.sigma, _stream(seed, 11))
    state = [np.zeros((d_y, d_z)) for _ in range(N)]
    transforms = [np.eye(d_z) for _ in range(N)]
    latents = [np.zeros((d_y, d_z)) for _ in range(N)]
    greedy_hist = [[] for _ in range(N)]
    err_history = []
    log_weights = np.full(N, -np.log(N))
    sqrt_kappa = np.sqrt(p.kappa)

    preds_hist = np.zeros((rounds, T + 1, N, d_y))
    acts_hist = np.zeros((rounds, T, N, d_z))
    agg_hist = np.zeros((rounds, T, d_y))
    for r in range(rounds):
        base = r * T
        y_round = TargetSeries(values=values[base : base + T + 1])
        moments = estimate_moments(samples[base : base + T])
        if policy == "full" or (policy == "reduced" and N == 1):
            full = full_backward_pass(p, moments, y_round)
        elif policy == "reduced":
            red = reduced_backward_pass(p, moments, y_round)
        elif policy == "decentralized":
            dec = decentralized_backward_pass(p, moments, y_round)
            ybar = meanfield_forward(dec, moments, y_round.values[0])
        preds = [values[base].copy() for _ in range(N)]
        preds_hist[r, 0] = preds
        for t in range(T):
            g = base + t
            noise = _stream(seed, 5, g).standard_normal((N, d_z))
            for n in range(N):
                z = _encode_one(cfg, encs[n], inputs[g], noise[n], state[n])
                state[n] = z
                latents[n] = z @ transforms[n]
            total = np.sum(preds, axis=0)
            mean = total / N
            if policy == "full" or (policy == "reduced" and N == 1):
                stacked = full_action(t, np.concatenate(preds), full)
                acts = [stacked[n * d_z : (n + 1) * d_z] for n in range(N)]
            elif policy == "reduced":
                acts = [red.G1N[t] @ preds[n] + red.G2N[t] @ (total - preds[n]) + red.HN[t] for n in range(N)]
            elif policy == "decentralized":
                acts = [dec.G1[t] @ preds[n] + dec.G2[t] @ ybar[t] + dec.H[t] for n in range(N)]
            else:
                acts = []
                for n in range(N):
                    window = greedy_hist[n][-scenario.ridge.window_T :]
                    acts.append(_ridge_one(window, scenario.ridge) if window else np.zeros(d_z))
            new_preds = [
                p.theta @ preds[n] + p.theta_bar @ mean + latents[n] @ acts[n] for n in range(N)
            ]
            if policy == "greedy":
                for n in range(N):
                    resid = values[g + 1] - p.theta @ preds[n] - p.theta_bar @ mean
                    greedy_hist[n].append((sqrt_kappa * latents[n], sqrt_kappa * resid))
            if err_history:
                w = aggregation_weights(
                    np.array(err_history)[-scenario.aggregation_window :], scenario.aggregation_alpha
                )
            else:
                w = np.full(N, 1.0 / N)
            agg_hist[r, t] = w @ np.array(new_preds)
            err_history.append(
                np.array([float((new_preds[n] - values[g + 1]) @ (new_preds[n] - values[g + 1])) for n in range(N)])
            )
            preds = new_preds
            preds_hist[r, t + 1] = preds
            acts_hist[r, t] = acts

        sp = scenario.spawner
        if sp is not None and r < rounds - 1:
            flat = np.stack([_flat(e)[0] for e in encs])
            new_rows, retained, retired, _, log_post = resample_parameters(
                flat, err_history[-1], log_weights, sp.lam, sp.sigma_t, sp.retire_k, _stream(seed, 999, r)
            )
            for slot, row in zip(retired, new_rows):
                encs[slot] = _unflat(row, encs[slot])
                transforms[slot] = np.eye(d_z)
                state[slot] = np.zeros((d_y, d_z))
            if sp.orthogonalize and sp.zeta2 > 0:
                beta_dir = acts_hist[r, -1].mean(axis=0)
                norm = np.linalg.norm(beta_dir)
                beta_dir = beta_dir / norm if norm > 0 else np.full(d_z, 1.0 / np.sqrt(d_z))
                prob = build_ortho_problem(
                    [latents[i] for i in retained], [latents[i] for i in retired], beta_dir, values[base + T], sp.zeta1
                )
                sol = ortho_solve(prob, sp.zeta2)
                for slot in retired:
                    transforms[slot] = sol.A_star
            log_weights = np.zeros(N)
            log_weights[retained] = log_post + np.log((N - sp.retire_k) / N)
            log_weights[retired] = -np.log(N)

    costs_per_round = np.zeros((rounds, N))
    for r in range(rounds):
        for n in range(N):
            for t in range(T):
                pred = preds_hist[r, t + 1, n]
                err = values[r * T + t + 1] - pred
                dev = pred - preds_hist[r, t + 1].mean(axis=0)
                act = acts_hist[r, t, n]
                costs_per_round[r, n] += p.discount(t) * (
                    p.kappa * float(err @ err) + p.kappa_bar * float(dev @ dev) + p.gamma * float(act @ act)
                )
    costs = costs_per_round.sum(axis=0)
    return {
        "predictions": preds_hist,
        "actions": acts_hist,
        "aggregated": agg_hist,
        "costs_per_round": costs_per_round,
        "costs": costs,
        "regret": float(np.max(costs)),
    }


def episode_metrics(predictions, actions, aggregated, params, values):
    """Metrics of a whole traced episode, computed at once over the full
    (rounds, T+1, N, d_y) predictions and (rounds, T, N, d_z) actions:
    the formulas the harness used before it streamed them."""
    rounds, _, N, d_y = predictions.shape
    T = params.horizon_T
    preds = predictions[:, 1:]
    y = np.asarray(values, dtype=float)[1 : rounds * T + 1].reshape(rounds, T, 1, d_y)
    err = y - preds
    dev = preds - preds.mean(axis=2, keepdims=True)
    sq = np.einsum("rtnd,rtnd->rtn", err, err)
    stage = (
        params.kappa * sq
        + params.kappa_bar * np.einsum("rtnd,rtnd->rtn", dev, dev)
        + params.gamma * np.einsum("rtnk,rtnk->rtn", actions, actions)
    )
    disc = np.exp(-params.alpha * (T - 1 - np.arange(T)))
    costs_per_round = np.einsum("t,rtn->rn", disc, stage)
    costs = costs_per_round.sum(axis=0)

    agg_err = np.sum((aggregated - y[:, :, 0]) ** 2, axis=-1)
    per_agent_rmse = np.sqrt(sq.reshape(rounds * T, N).mean(axis=0))
    k = max(1, int(np.ceil(0.2 * N)))
    return {
        "costs_per_round": costs_per_round,
        "costs": costs,
        "regret": float(np.max(costs)),
        "rmse_aggregated": float(np.sqrt(np.mean(agg_err))),
        "rmse_worst": float(per_agent_rmse.max()),
        "rmse_bottom20": float(np.sort(per_agent_rmse)[-k:].mean()),
    }


def public_episode(policy, scenario, seed):
    """The agent loop as one call of each public function per step, on
    fresh arrays: the encoder (``rfn_encode``/``esn_encode``), the
    policy's action, ``step_dynamics``, ``aggregate_predictions`` and
    ``score_agents``; the policy's action is ``full_action``,
    ``reduced_action`` or ``decentralized_action``, and the greedy
    baseline is ``ridge_action`` on its stacked window of pairs. The
    harness's fused step must match it bit for bit. It shares with the
    harness what the fused step leaves as it was: the streams, each
    round's coefficients from ``_solve_episode`` (and the limit's mean
    field ``SeedWork.ybar``) and the spawner round. Returns the traced
    arrays and the spawn events."""
    from fedgames.datasets import build_dataset
    from fedgames.encoders import esn_encode, rfn_encode, sample_encoders
    from fedgames.harness import (
        SeedWork,
        _rng,
        _solve_episode,
        _spawn_between_rounds,
        aggregate_predictions,
        step_dynamics,
    )
    from fedgames.nash_full import full_action
    from fedgames.nash_meanfield import decentralized_action
    from fedgames.nash_reduced import reduced_action
    from fedgames.pool import AgentPool
    from fedgames.ridge import ridge_action
    from fedgames.spawner import score_agents

    p = scenario.params
    N, d_y, d_z, T = p.population_N, p.dim_y, p.dim_z, p.horizon_T
    targets, inputs = build_dataset(scenario.dataset)
    values = targets.values
    rounds = (values.shape[0] - 1) // T
    window_Ta = scenario.aggregation_window
    pool = AgentPool.create(sample_encoders(scenario.encoder, N, d_y, d_z, inputs.shape[1], _rng(seed, 11)))
    if policy == "greedy":
        kind, played = None, [None] * rounds
        window_z, window_r = [], []
        sqrt_kappa = np.sqrt(p.kappa)
    else:
        work = SeedWork(scenario, seed, [(policy, N)])
        kind, solved, _ = _solve_episode(policy, scenario, work)
        played = list(solved)

    preds_hist = np.empty((rounds, T + 1, N, d_y))
    acts_hist = np.empty((rounds, T, N, d_z))
    agg_hist = np.empty((rounds, T, d_y))
    err_history, events = [], []
    log_weights = np.full(N, -np.log(N))
    for r, c in enumerate(played):
        base = r * T
        preds = np.tile(values[base], (N, 1))
        preds_hist[r, 0] = preds
        for t in range(T):
            g = base + t
            noise = _rng(seed, 5, g).standard_normal((N, d_z))
            if scenario.encoder.kind == "rfn":
                z = rfn_encode(inputs[g], pool.encoder, noise)
            else:
                z = esn_encode(inputs[g], pool.esn_state, pool.encoder, noise)
            latents = z if pool.latent_transforms is None else z @ pool.latent_transforms
            pool.esn_state = z
            if kind is None:
                k = min(len(window_z), scenario.ridge.window_T)
                if k:
                    z_win, r_win = np.stack(window_z[-k:], axis=1), np.stack(window_r[-k:], axis=1)
                    actions = ridge_action(z_win, r_win, scenario.ridge)
                else:
                    actions = np.zeros((N, d_z))
                resid = values[g + 1] - preds @ p.theta.T - preds.mean(axis=0) @ p.theta_bar.T
                window_z.append(sqrt_kappa * latents)
                window_r.append(sqrt_kappa * resid)
            elif kind == "full":
                actions = full_action(t, preds, c).reshape(N, d_z)
            elif kind == "reduced":
                actions = reduced_action(t, preds, preds.sum(axis=0) - preds, c)
            else:
                actions = decentralized_action(t, preds, work.ybar[t, r], c)
            preds = step_dynamics(preds, latents, actions, p)
            agg_hist[r, t], _ = aggregate_predictions(preds, err_history, scenario.aggregation_alpha, window_Ta)
            err_history.append(score_agents(values[g + 1], preds))
            del err_history[:-window_Ta]
            preds_hist[r, t + 1] = preds
            acts_hist[r, t] = actions
        if scenario.spawner is not None and r < rounds - 1:
            log_weights = _spawn_between_rounds(
                scenario, pool, log_weights, err_history[-1], _rng(seed, 999, r), r, events, latents,
                acts_hist[r, -1], values[base + T],
            )
    return {"predictions": preds_hist, "actions": acts_hist, "aggregated": agg_hist, "spawn_events": events}


# ---------------------------------------------------------------------------
# Round stacks
#
# The reduced and decentralized passes accept moments and targets with a
# round axis right after the time axis. Slice r of such a pass must be
# array-equal to the unbatched pass on round r alone.


def round_params(rng, N, d_y, d_z, T, kappa_bar=0.7):
    """Game parameters with non-symmetric theta and theta_bar."""
    from fedgames.model import GameParams

    return GameParams(
        theta=0.8 * np.eye(d_y) + 0.05 * rng.standard_normal((d_y, d_y)),
        theta_bar=0.1 * np.eye(d_y) + 0.05 * rng.standard_normal((d_y, d_y)),
        kappa=1.3,
        kappa_bar=kappa_bar,
        gamma=0.9,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d_y,
        dim_z=d_z,
    )


def round_stack(rng, params, rounds, count=7):
    """((moments, targets) with a round axis, [(moments, targets) of each
    round alone]) from one Monte-Carlo bank of shape (T, R, count, d_y, d_z)."""
    from fedgames.model import TargetSeries, estimate_moments

    T, d_y, d_z = params.horizon_T, params.dim_y, params.dim_z
    bank = rng.standard_normal((T, rounds, count, d_y, d_z))
    values = rng.standard_normal((T + 1, rounds, d_y))
    stacked = (estimate_moments(bank), TargetSeries(values=values))
    singles = [
        (estimate_moments(bank[:, r]), TargetSeries(values=values[:, r]))
        for r in range(rounds)
    ]
    return stacked, singles


def assert_round_equal(batched, r, single):
    """Round r of a round-stacked solve equals the solve of round r alone,
    array for array, with a float max_asymmetry."""
    from dataclasses import fields

    from fedgames.nash_reduced import take_round

    got = take_round(batched, r)
    assert type(got.max_asymmetry) is float
    for f in fields(single):
        want, have = getattr(single, f.name), getattr(got, f.name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(have, want, err_msg=f.name)
        else:
            assert have == want, f.name


# ---------------------------------------------------------------------------
# Spawner references
# ---------------------------------------------------------------------------
#
# ``fedgames.spawner.resample_parameters`` builds the mixture's cdf once and
# draws one uniform and then ``dim`` normals per retired slot; this is the
# per-slot ``rng.choice`` loop it replaced, which must give the same rows.
# ``reference_ortho_solve`` is the steering solve with its earlier secular
# root finder: numpy scalars, a Newton step tested after the bracket.


def reference_resample(flat_params, scores, log_prior, lam, sigma_t, retire_K, rng):
    """(new_params, retained_idx, retired_idx, posterior), one
    ``rng.choice`` and one normal draw per retired slot."""
    from fedgames.spawner import gibbs_reweigh, rank_ascending

    N, dim = flat_params.shape
    order = rank_ascending(scores)
    retained_idx = order[: N - retire_K]
    retired_idx = order[N - retire_K :]
    post, _ = gibbs_reweigh(log_prior[retained_idx], scores[retained_idx], lam)
    new_params = flat_params.copy()
    for slot in retired_idx:
        pick = rng.choice(retained_idx.shape[0], p=post)
        centre = flat_params[retained_idx[pick]]
        var = sigma_t * (1.0 - post[pick]) / (N - retire_K)
        new_params[slot] = centre + np.sqrt(var) * rng.standard_normal(dim)
    return new_params, retained_idx, retired_idx, post


def reference_secular_root(evals, g2, zeta2_sq, lam_lo, lam_hi, iters=200):
    """Solve sum g2_i / (evals_i + lam)^2 = zeta2^2 on (lam_lo, lam_hi)."""
    target = np.sqrt(zeta2_sq)

    def f(lam):
        return np.sum(g2 / (evals + lam) ** 2)

    lo, hi = lam_lo, lam_hi
    lam = 0.5 * (lo + hi)
    for _ in range(iters):
        val = f(lam)
        if val > zeta2_sq:
            lo = lam
        else:
            hi = lam
        norm = np.sqrt(val)
        h = 1.0 / norm - 1.0 / target
        dh = np.sum(g2 / (evals + lam) ** 3) / norm**3  # h'(lam)
        step = -h / dh if dh != 0 else 0.0
        nxt = lam + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - lam) <= 1e-15 * max(1.0, abs(lam)):
            return nxt
        lam = nxt
    return lam


def reference_ortho_solve(prob, zeta2):
    """(A_star, lambda_star, hard_case) of the sphere-constrained steering
    QP, for zeta2 > 0."""
    from fedgames.spawner import unvec

    Q = 0.5 * (prob.Q + prob.Q.T)
    evals, evecs = np.linalg.eigh(Q)
    g = Q @ prob.xi_I + 0.5 * prob.c
    g_rot = evecs.T @ g
    g2 = g_rot**2
    lam_min = evals[0]
    zeta2_sq = zeta2 * zeta2
    bottom = np.abs(evals - lam_min) <= 1e-12 * max(1.0, abs(lam_min))
    interior = ~bottom
    hard_limit = float(np.sum(g2[interior] / (evals[interior] - lam_min) ** 2)) if np.any(interior) else 0.0
    no_bottom_force = float(np.sum(g2[bottom])) <= 1e-28 * max(1.0, float(np.sum(g2)))
    if no_bottom_force and hard_limit <= zeta2_sq:
        lam_star = -lam_min
        u_rot = np.zeros_like(g_rot)
        u_rot[interior] = -g_rot[interior] / (evals[interior] + lam_star)
        residual_sq = zeta2_sq - float(np.sum(u_rot[interior] ** 2))
        u_rot[np.flatnonzero(bottom)[0]] += np.sqrt(max(residual_sq, 0.0))
        hard = True
    else:
        norm_g = np.sqrt(float(np.sum(g2)))
        lam_star = reference_secular_root(evals, g2, zeta2_sq, -lam_min + 1e-300, -lam_min + norm_g / zeta2 + 1e-12)
        u_rot = -g_rot / (evals + lam_star)
        hard = False
    return unvec(prob.xi_I + evecs @ u_rot, prob.d_z), float(lam_star), hard


def reference_mean_gap(params, latents, coeffs, ybar, y0, paths, seed):
    """``diagnostics._simulate_mean_gap`` one library call per stage:
    ``IidEntryLatents.sample``, ``decentralized_action`` and
    ``harness.step_dynamics`` on (N, d_y) predictions, and the mean by
    ``mean(axis=0)``."""
    from fedgames.harness import step_dynamics
    from fedgames.nash_meanfield import decentralized_action

    N, T = params.population_N, params.horizon_T
    gaps = np.zeros((paths, T + 1))
    for pth in range(paths):
        rng = np.random.default_rng([seed, 31, pth])
        preds = np.tile(y0, (N, 1))
        for t in range(T):
            z = latents.sample(t, N, rng)
            preds = step_dynamics(preds, z, decentralized_action(t, preds, ybar[t], coeffs), params)
            gaps[pth, t + 1] = np.linalg.norm(preds.mean(axis=0) - ybar[t + 1])
    return gaps.mean(axis=0), gaps.std(axis=0, ddof=1) / np.sqrt(paths)


# ---------------------------------------------------------------------------
# The decentralized pass's own limit recursion
# ---------------------------------------------------------------------------


def reference_decentralized_pass(
    params: GameParams,
    moments,
    targets: TargetSeries,
) -> DecentralizedCoeffs:
    """Backward pass of the limit system, as ``nash_meanfield`` wrote it
    before the limit became the structured pass's eps = 0 entry: the
    reduced blocks rescaled by their orders in N with the O(1/N) terms
    dropped by hand.

    Moments and targets may carry a round axis right after the time axis
    (m1 (T, R, d_y, d_z), values (T+1, R, d_y)); every round is then
    solved at once and the outputs carry the same round axis.
    """
    import logging

    from fedgames.config import check_symmetry
    from fedgames.errors import SolveError
    from fedgames.nash_meanfield import DecentralizedCoeffs
    from fedgames.nash_reduced import check_pass_finite, failing_round

    logger = logging.getLogger("oracles.reference_decentralized_pass")
    d_y, d_z = params.dim_y, params.dim_z
    T = params.horizon_T
    if targets.horizon < T or moments.horizon < T:
        raise ValueError("targets/moments do not cover the horizon")
    rounds = moments.m1.shape[1:-2]
    if targets.values.shape[1:-1] != rounds:
        raise ValueError("targets and moments carry different round axes")

    kap, kbar, gam = params.kappa, params.kappa_bar, params.gamma
    th, tb = params.theta, params.theta_bar
    y = targets.values

    L = np.zeros((4, T + 1, *rounds, d_y, d_y))
    chi = np.zeros((2, T + 1, *rounds, d_y))
    G1 = np.zeros((T, *rounds, d_z, d_y))
    G2 = np.zeros((T, *rounds, d_z, d_y))
    H = np.zeros((T, *rounds, d_z))
    Fs, Ks, Ms, Es = (np.zeros((T, *rounds, d_z, d_z)) for _ in range(4))
    max_asym = np.zeros(rounds)

    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        M1 = moments.m1[t]
        M2 = moments.m2[t]
        A2 = M1.mT @ M1
        y_next = y[t + 1][..., None]
        l1, l2, l3, l4 = L[0, t + 1], L[1, t + 1], L[2, t + 1], L[3, t + 1]
        c1, c2 = chi[0, t + 1][..., None], chi[1, t + 1][..., None]

        F = disc * ((kap + kbar) * M2 + gam * np.eye(d_z)) + moments.weighted_m2(t, l1)
        K = -disc * kbar * A2 + M1.mT @ l2 @ M1
        try:
            M = np.linalg.inv(F)
            E = -np.linalg.solve(F + K, K @ M)
        except np.linalg.LinAlgError as exc:
            where = failing_round(lambda f, k: np.linalg.solve(f + k, k @ np.linalg.inv(f)), F, K)
            raise SolveError(f"singular F or F+K at {where}t={t}") from exc
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "decentralized t=%d cond(F)=%.3e cond(F+K)=%.3e (max over rounds)",
                t,
                np.max(np.linalg.cond(F)),
                np.max(np.linalg.cond(F + K)),
            )

        Q1 = F
        Q2 = K
        Q3 = disc * kbar * M2 + moments.weighted_m2(t, l3)
        Q4 = disc * kbar * A2 + M1.mT @ l4 @ M1
        ME = M + E

        g1 = -disc * (kap + kbar) * M @ M1.mT @ th - M @ M1.mT @ l1 @ th
        g2 = -disc * (kap + kbar) * E @ M1.mT @ th
        g2 += disc * ME @ M1.mT @ (kbar * th - kap * tb)
        g2 -= E @ M1.mT @ l1 @ th + ME @ M1.mT @ l2 @ th
        g2 -= ME @ M1.mT @ (l1 + l2) @ tb
        h = -ME @ M1.mT @ (-disc * kap * y_next + c1)

        G1[t], G2[t], H[t] = g1, g2, h[..., 0]
        Fs[t], Ks[t], Ms[t], Es[t] = F, K, M, E

        # Limits of the state-action cross blocks (own row, off row,
        # off column, diagonal tail, off-off tail).
        a_inf = disc * (kap + kbar) * M1.mT @ th + M1.mT @ l1 @ th
        b_inf = disc * M1.mT @ (kap * tb - kbar * th) + M1.mT @ (l1 @ tb + l2 @ (th + tb))
        c_inf = -disc * kbar * M1.mT @ th + M1.mT @ l2.mT @ th
        d_inf = disc * kbar * M1.mT @ th + M1.mT @ (l2.mT @ tb + l3 @ th + l4 @ tb)
        e_inf = disc * kbar * M1.mT @ th + M1.mT @ (l2.mT @ tb + l4 @ (th + tb))

        w1 = g1.mT @ a_inf
        new1 = g1.mT @ Q1 @ g1 + w1 + w1.mT + disc * (kap + kbar) * th.T @ th + th.T @ l1 @ th

        new2 = g1.mT @ Q2 @ g1 + g1.mT @ (Q1 + Q2) @ g2
        new2 += g1.mT @ b_inf + (g2.mT @ a_inf + (g1 + g2).mT @ c_inf).mT
        new2 += disc * (kap * th.T @ tb - kbar * th.T @ th)
        new2 += th.T @ l2 @ th + th.T @ (l1 + l2) @ tb

        quad_tail = (
            g1.mT @ (Q2.mT + Q4) @ g2
            + g2.mT @ (Q2 + Q4) @ g1
            + g2.mT @ (Q1 + Q2 + Q2.mT + Q4) @ g2
        )
        stage_tail = disc * (kap * tb.T @ tb + kbar * th.T @ th)
        p_tail = (
            th.T @ (l2.mT + l4) @ tb
            + tb.T @ (l2 + l4) @ th
            + tb.T @ (l1 + l2 + l2.mT + l4) @ tb
        )
        w3 = g2.mT @ (b_inf + e_inf) + g1.mT @ d_inf
        new3 = g1.mT @ Q3 @ g1 + quad_tail + w3 + w3.mT + stage_tail + th.T @ l3 @ th + p_tail
        w4 = g2.mT @ b_inf + (g1 + g2).mT @ e_inf
        new4 = g1.mT @ Q4 @ g1 + quad_tail + w4 + w4.mT + stage_tail + th.T @ l4 @ th + p_tail

        for sym in (new1, new3, new4):
            max_asym = np.maximum(max_asym, np.max(np.abs(sym - sym.mT), axis=(-2, -1)))
        L[0, t] = 0.5 * (new1 + new1.mT)
        L[1, t] = new2
        L[2, t] = 0.5 * (new3 + new3.mT)
        L[3, t] = 0.5 * (new4 + new4.mT)

        chi[0, t] = (
            g1.mT @ (Q1 + Q2) @ h
            + g1.mT @ (-disc * kap * M1.mT @ y_next + M1.mT @ c1)
            + (a_inf + c_inf).mT @ h
            - disc * kap * th.T @ y_next
            + th.T @ c1
        )[..., 0]
        chi[1, t] = (
            g2.mT @ (Q1 + Q2) @ h
            + (g1 + g2).mT @ (Q2.mT + Q4) @ h
            + g2.mT @ (-disc * kap * M1.mT @ y_next + M1.mT @ c1)
            + (g1 + g2).mT @ M1.mT @ c2
            + (b_inf + e_inf).mT @ h
            - disc * kap * tb.T @ y_next
            + tb.T @ c1
            + (th + tb).T @ c2
        )[..., 0]

    check_pass_finite("decentralized", rounds, T, *L, *chi, G1, G2, H, Fs, Ks, Ms, Es)
    check_symmetry(logger, "Lambda", max_asym, L)
    return DecentralizedCoeffs(
        L1=L[0],
        L2=L[1],
        L3=L[2],
        L4=L[3],
        chi1=chi[0],
        chi2=chi[1],
        G1=G1,
        G2=G2,
        H=H,
        F=Fs,
        K=Ks,
        M=Ms,
        E=Es,
        drift_sum=th + tb,
        dims=(d_y, d_z),
        max_asymmetry=float(max_asym) if max_asym.ndim == 0 else max_asym,
    )
