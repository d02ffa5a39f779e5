"""Independent reference implementations used as test oracles.

Deliberately slow and simple: arbitrary-precision special functions (mpmath),
exact rational binomial sums (fractions.Fraction), bisection root finding,
naive enumeration, one-row-at-a-time gradient ascent and noise draws.
Nothing in this file imports marlcert, so each check in the test suite
compares two independent routes to the same quantity.  Two exceptions
take a marlcert module as an argument.  ``validate_two_phase`` is a
reference for the order of a walk rather than for its arithmetic: it
composes the attack module's own attacks in the order the walk
replaced.  ``pgd_rows_gathered`` is a reference for a step's bits: the
PGD loop as it gathered the live rows at every step, on the network
passes of the nn module.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np


def normal_cdf(x, dps=30):
    """Standard normal CDF via arbitrary-precision erfc."""
    with mp.workdps(dps):
        return float(0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2)))


def normal_quantile(p, dps=30):
    """Inverse standard normal CDF by bisection on the mpmath CDF."""
    with mp.workdps(dps):
        target = mp.mpf(p)
        lo, hi = mp.mpf(-40), mp.mpf(40)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mp.ncdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def chi2_quantile(df, p, dps=30):
    """Chi-square quantile by bisection on the regularized lower gamma."""
    with mp.workdps(dps):
        target = mp.mpf(p)
        a = mp.mpf(df) / 2

        def cdf(x):
            return mp.gammainc(a, 0, mp.mpf(x) / 2, regularized=True)

        hi = mp.mpf(max(4.0, 4.0 * df))
        while cdf(hi) < target:
            hi *= 2
        lo = mp.mpf(0)
        for _ in range(120):
            mid = (lo + hi) / 2
            if cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def binom_tail_exact(k, M, p=Fraction(1, 2)):
    """P(X >= k) for X ~ Binomial(M, p) as an exact rational."""
    p = Fraction(p)
    return sum(
        Fraction(math.comb(M, i)) * p**i * (1 - p) ** (M - i)
        for i in range(k, M + 1)
    )


def gaussian_noise(dim, sigma, key, sample, quantile):
    """One noise row drawn on its own: row ``sample`` of the Philox stream
    ``key``, which starts at counter block ``sample * ceil(dim / 4)``.

    The stream addressing is what this reference checks, so it maps
    uniforms to normals with the ``quantile`` under test.
    """
    bits = np.random.Philox(key=key)
    bits.advance(sample * ((dim + 3) // 4))  # Philox counts in blocks of four
    u = np.random.Generator(bits).random(dim)
    return quantile(np.maximum(u, 2.0**-54)) * sigma


def binom_tail_float(k, M, p):
    """P(X >= k) by direct float summation (fine for M <= a few hundred)."""
    return math.fsum(
        math.comb(M, i) * p**i * (1.0 - p) ** (M - i) for i in range(k, M + 1)
    )


def clopper_pearson_lower(k, M, alpha):
    """One-sided lower bound: the p with P(X >= k; M, p) = alpha, bisected."""
    if k == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if binom_tail_float(k, M, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bh_reference(pvalues, alpha):
    """Naive Benjamini-Hochberg: scan every rank, reject below the cutoff p.

    Returns (reject_list, cutoff_index) like the implementation under test.
    """
    H = len(pvalues)
    if H == 0:
        return [], 0
    order = sorted(range(H), key=lambda i: pvalues[i])
    k = 0
    for rank, idx in enumerate(order, start=1):
        if pvalues[idx] <= alpha * rank / H:
            k = rank
    if k == 0:
        return [False] * H, 0
    threshold = pvalues[order[k - 1]]
    return [p <= threshold for p in pvalues], k


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at vector x (list)."""
    grad = []
    for i in range(len(x)):
        xp = list(x)
        xm = list(x)
        xp[i] += h
        xm[i] -= h
        grad.append((f(xp) - f(xm)) / (2.0 * h))
    return grad


def mlp_params(layer_dims, weights, biases):
    """One dense net's parameters as a new float64 vector in the checkpoint's
    payload order: per layer l, W_l row-major with shape (dims[l+1],
    dims[l]), then b_l.  Raises ValueError when a shape does not fit."""
    parts = []
    for fan_in, fan_out, W, b in zip(
        layer_dims[:-1], layer_dims[1:], weights, biases, strict=True
    ):
        if np.shape(W) != (fan_out, fan_in) or np.shape(b) != (fan_out,):
            raise ValueError(f"layer {fan_in}->{fan_out}: {np.shape(W)}, {np.shape(b)}")
        parts += [np.ravel(W), np.ravel(b)]
    return np.concatenate(parts).astype(np.float64)


def _values_and_input_grad(weights, biases, activation, x, output_grad):
    """One input vector through a dense net: (outputs, d<output_grad, out>/dx)."""
    act = (lambda z: np.maximum(z, 0.0)) if activation == "relu" else np.tanh
    pres = []
    h = np.asarray(x, dtype=np.float64)
    for l, (W, b) in enumerate(zip(weights, biases)):
        z = W @ h + b
        if l == len(weights) - 1:
            h = z
        else:
            pres.append(z)
            h = act(z)
    grad = np.asarray(output_grad, dtype=np.float64)
    for l in range(len(weights) - 1, -1, -1):
        grad = weights[l].T @ grad
        if l > 0:
            z = pres[l - 1]
            grad = grad * ((z > 0.0) if activation == "relu" else 1.0 - np.tanh(z) ** 2)
    return h, grad


def pgd_single_row(
    weights, biases, activation, base, clean, epsilon, steps, step_size,
    restarts, seed, judge,
):
    """Margin-ascent PGD run one restart and one input vector at a time.

    Restart 0 starts at ``base``; restart r > 0 starts at a uniform point
    of the epsilon ball drawn from ``numpy.random.default_rng(seed)``
    (a normal direction, then a radius).  Each step moves step_size along
    the normalised input gradient of (best non-clean value - clean value)
    and projects back onto the ball; a zero gradient ends the restart.
    ``judge(delta)`` gives the smoothed action at ``base + delta``.
    Returns (delta, flipped) for the first restart that the judge flips,
    else for the restart with the largest final margin.
    """
    base = np.asarray(base, dtype=np.float64)
    dim = base.size
    rng = np.random.default_rng(seed)
    best, best_margin = np.zeros(dim), -math.inf
    for restart in range(restarts):
        delta = np.zeros(dim)
        if restart > 0:
            direction = rng.standard_normal(dim)
            norm = math.sqrt(float(direction @ direction))
            radius = epsilon * rng.random() ** (1.0 / dim)
            if norm > 0:
                delta = direction * (radius / norm)
        for _ in range(steps):
            values, _ = _values_and_input_grad(
                weights, biases, activation, base + delta, np.zeros(len(biases[-1]))
            )
            rival = max(
                (a for a in range(len(values)) if a != clean), key=lambda a: (values[a], -a)
            )
            output_grad = np.zeros(len(values))
            output_grad[rival] = 1.0
            output_grad[clean] = -1.0
            _, grad = _values_and_input_grad(
                weights, biases, activation, base + delta, output_grad
            )
            norm = math.sqrt(float(grad @ grad))
            if norm == 0.0:
                break
            delta = delta + step_size * grad / norm
            length = math.sqrt(float(delta @ delta))
            if length > epsilon:
                delta = delta * (epsilon / length)
        if judge(delta) != clean:
            return delta, True
        values, _ = _values_and_input_grad(
            weights, biases, activation, base + delta, np.zeros(len(biases[-1]))
        )
        margin = max(v for a, v in enumerate(values) if a != clean) - values[clean]
        if margin > best_margin:
            best, best_margin = delta, margin
    return best, False


def pgd_rows_gathered(nn, net, base, deltas, clean, steps, epsilon):
    """Margin-ascent PGD on every row of ``deltas`` within one budget, in
    place, gathering the rows still moving at every step: the batched
    loop before rows of several budgets stepped together ungathered."""
    step_size = 2.5 * epsilon / steps
    live = np.arange(len(deltas))
    for _ in range(steps):
        values, inputs = nn.forward_trace(net, base + deltas[live])
        values[:, clean] = -np.inf
        grad_out = np.zeros_like(values)
        grad_out[np.arange(len(live)), np.argmax(values, axis=1)] = 1.0
        grad_out[:, clean] = -1.0
        grad_in = nn.reverse_sweep(net, inputs, grad_out)
        norms = np.linalg.norm(grad_in, axis=1)
        moving = norms != 0.0
        live = live[moving]
        if live.size == 0:
            break
        stepped = deltas[live] + step_size * grad_in[moving] / norms[moving, None]
        lengths = np.linalg.norm(stepped, axis=1)
        over = lengths > epsilon
        stepped[over] *= (epsilon / lengths[over])[:, None]
        deltas[live] = stepped
    return deltas


def observe(spec, state, agent):
    """An agent's 3x3 observation built one window cell at a time: each
    cell is checked for bounds and walls, then looked up in a dict of the
    remaining items and a set of the other agents' cells."""
    ax, ay = state.agent_positions[agent]
    item_at = dict(state.remaining_items)
    others = {cell for i, cell in enumerate(state.agent_positions) if i != agent}
    out = np.zeros(9 * 5 + 2, dtype=np.float64)
    k = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            cell = (ax + dx, ay + dy)
            x, y = cell
            if not (0 <= x < spec.width and 0 <= y < spec.height) or cell in spec.walls:
                out[k] = 1.0
            else:
                kind = item_at.get(cell)
                if kind == "apple":
                    out[k + 1] = 1.0
                elif kind == "lemon":
                    out[k + 2] = 1.0
                elif kind == "goal":
                    out[k + 3] = 1.0
                if cell in others:
                    out[k + 4] = 1.0
            k += 5
    out[k] = ax / max(spec.width - 1, 1)
    out[k + 1] = ay / max(spec.height - 1, 1)
    return out


def validate_two_phase(
    attack, policy, spec, state_certificates, reward_certificate, cfg, seed
):
    """Certificate validation in two phases: every certificate in list
    order (its step index, its recorded actions, then PGD batches at one
    and two times each certified radius), and only then every attacked
    rollout at once through ``attack.attacked_rollout``.

    ``attack`` is the ``marlcert.attack`` module; the walk uses its
    ``pgd_attack_batch``, ``_smoothed_modal``, ``attacked_rollout``,
    ``derive_seed``, ``ConfigError`` and ``ValidationReport``.  ``cfg``
    gives the trial counts.
    """

    def flips(cert, agent, scale):
        seeds = [
            attack.derive_seed(seed, "validate", cert.step_index, agent, trial, scale)
            for trial in range(cfg.trials)
        ]
        epsilon = scale * cert.per_agent_radius[agent]
        (results,) = attack.pgd_attack_batch(
            policy, spec, cert.state, agent, cfg, [(epsilon, seeds)]
        )
        return sum(result.flipped for result in results)

    checked = in_flips = contrast_flips = 0
    for cert in state_certificates:
        if cert.step_index != cert.state.step_count:
            raise attack.ConfigError("certificate state/step mismatch")
        for agent in range(policy.n_agents):
            fresh = attack._smoothed_modal(policy, spec, cert.state, agent, cfg.noise)
            if fresh != cert.actions[agent]:
                raise attack.ConfigError(
                    "certificates do not match this policy/noise configuration"
                )
        for agent in sorted(cert.certified_set):
            in_flips += flips(cert, agent, 1.0)
            contrast_flips += flips(cert, agent, 2.0)
            checked += 1
    rollouts = attack.attacked_rollout(
        policy,
        spec,
        cfg,
        reward_certificate.epsilon_cert,
        [
            attack.derive_seed(seed, "validate-rollout", trial)
            for trial in range(cfg.rollout_trials)
        ],
    )
    rewards = tuple(rollout.attacked_reward for rollout in rollouts)
    return attack.ValidationReport(
        states_checked=len(state_certificates),
        agents_checked=checked,
        in_ball_trials=cfg.trials * checked,
        in_ball_flips=in_flips,
        contrast_trials=cfg.trials * checked,
        contrast_flips=contrast_flips,
        rollout_rewards=rewards,
        rmin_violated=any(reward < reward_certificate.r_min for reward in rewards),
    )
