"""l2-bounded adversarial attacks on per-agent observations.

These attacks exist to falsify certificates, not to train against.  The
target is always the smoothed policy evaluated with common random
numbers: a perturbed observation is judged by re-running the exact noise
stream used during certification, so any action flip is attributable to
the perturbation alone.  An unattacked agent therefore keeps its
certified action by construction, never by luck.

``pgd_attack_batch`` runs projected gradient ascent on the margin
between the best non-modal action value and the modal action value of
one agent's network.  Each step moves 2.5 * epsilon / steps, so a
straight climb reaches the edge of the ball within the first half of
its steps.  Every restart of every config in a batch is one
row of a single array, stepped together through ``nn.forward_batch``
and ``nn.backward_batch``; restart 0 starts at the clean observation
and depends on no seed, so the batch holds it once for all configs.
Each row's end point is still judged on its own by the full CRN smoothed
decision, which counts actions exactly as ``smoothing.sample_tally``
does for the certificates.  ``pgd_attack_state`` is the one-config
batch.  ``attacked_rollout`` applies the attack persistently along an
episode, and ``validate_certificates`` attacks every certified (state,
agent) pair with all its trials in one batch at its certified radius,
and again at twice that radius as a contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .certify import RewardCertificate
from .envs import EnvState, GridSpec, observe, reset, step
from .errors import ConfigError
from .policy import JointPolicy
from .seeds import derive_seed
from .smoothing import NoiseConfig, _action_counts


@dataclass(frozen=True)
class AttackConfig:
    """Budget and schedule for one attack run.

    ``noise`` is the certification noise configuration; flips are judged
    against the smoothed decision it defines.  ``seed`` randomizes
    restart locations and search directions only, never the noise
    stream.  ``steps`` also fixes the step length, 2.5 * epsilon / steps.
    """

    epsilon: float
    noise: NoiseConfig
    steps: int = 40
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ConfigError("epsilon must be finite and non-negative")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be at least 1")


@dataclass(frozen=True, eq=False)
class AttackResult:
    """Perturbations (one vector per agent, within budget), per-agent
    flip flags against the clean smoothed actions, and the episode
    reward for rollout attacks (nan for single-state attacks).

    ``action`` is the target agent's smoothed action under its
    perturbation for single-state attacks: the clean action unless the
    attack flipped it.  Rollout attacks leave it None.
    """

    perturbations: tuple
    flipped: tuple
    attacked_reward: float
    action: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    states_checked: int
    agents_checked: int
    in_ball_trials: int
    in_ball_flips: int
    contrast_trials: int
    contrast_flips: int
    rollout_rewards: tuple
    rmin_violated: bool


def _smoothed_modal(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    noise: NoiseConfig,
    delta: np.ndarray | None = None,
) -> int:
    """Modal greedy action under the certification noise stream."""
    return int(np.argmax(_action_counts(policy, spec, state, agent, noise, delta)))


def _margins(net: nn.Mlp, X: np.ndarray, modal: int) -> np.ndarray:
    """Best non-modal value minus the modal value, per row of X."""
    values = nn.forward_batch(net, X)
    return np.delete(values, modal, axis=1).max(axis=1) - values[:, modal]


def _result_for_target(policy, spec, state, agent, delta, action, clean):
    perturbations = []
    flips = []
    for n in range(policy.n_agents):
        if n == agent:
            perturbations.append(np.array(delta, dtype=np.float64))
            flips.append(action != clean)
        else:
            # untouched observation + identical noise stream: the
            # smoothed decision is bitwise the clean one
            perturbations.append(np.zeros(observe(spec, state, n).size))
            flips.append(False)
    return AttackResult(tuple(perturbations), tuple(flips), float("nan"), action)


def _shared_schedule(cfgs: tuple) -> AttackConfig:
    """The schedule every config of a batch shares; only seeds may differ."""
    if not cfgs:
        raise ConfigError("a PGD batch needs at least one config")
    first = cfgs[0]
    schedule = (first.epsilon, first.steps, first.restarts, first.noise)
    for cfg in cfgs[1:]:
        if (cfg.epsilon, cfg.steps, cfg.restarts, cfg.noise) != schedule:
            raise ConfigError(
                "configs in one PGD batch must share epsilon, steps, restarts "
                "and noise"
            )
    return first


def _restart_starts(cfg: AttackConfig, step_index: int, agent: int, dim: int):
    """Starts of restarts 1.. of one config, uniform in the budget ball."""
    rng = np.random.default_rng(derive_seed(cfg.seed, "pgd", step_index, agent))
    starts = np.zeros((cfg.restarts - 1, dim))
    for start in starts:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
        radius = cfg.epsilon * rng.random() ** (1.0 / dim)
        if norm > 0:
            start[:] = direction * (radius / norm)
    return starts


def _pgd_rows(net, base, deltas, clean, cfg: AttackConfig) -> np.ndarray:
    """Margin-ascent PGD on every row of ``deltas`` at once, in place.

    A row whose input gradient is zero cannot make progress and stops
    where it is; the others keep stepping and projecting onto the ball.
    """
    step_size = 2.5 * cfg.epsilon / cfg.steps
    live = np.arange(len(deltas))
    for _ in range(cfg.steps):
        X = base + deltas[live]
        values = nn.forward_batch(net, X)
        values[:, clean] = -np.inf
        grad_out = np.zeros_like(values)
        grad_out[np.arange(len(live)), np.argmax(values, axis=1)] = 1.0
        grad_out[:, clean] = -1.0
        _, grad_in = nn.backward_batch(net, X, grad_out)
        norms = np.linalg.norm(grad_in, axis=1)
        moving = norms != 0.0
        live = live[moving]
        if live.size == 0:
            break
        stepped = deltas[live] + step_size * grad_in[moving] / norms[moving, None]
        lengths = np.linalg.norm(stepped, axis=1)
        over = lengths > cfg.epsilon
        stepped[over] *= (cfg.epsilon / lengths[over])[:, None]
        deltas[live] = stepped
    return deltas


def pgd_attack_batch(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    cfgs,
) -> tuple:
    """Margin-ascent PGD on one agent's observation, one result per config.

    The configs must share everything but their seeds (ConfigError
    otherwise).  Restart 0 starts from the clean observation and is one
    row shared by every config; each config's further restarts start
    uniformly inside the budget ball, drawn from its own seed.  A
    config's result is its first restart, in restart order, that flips
    the smoothed decision, otherwise the one with the largest final
    margin.
    """
    cfgs = tuple(cfgs)
    schedule = _shared_schedule(cfgs)
    base = observe(spec, state, agent)
    clean = _smoothed_modal(policy, spec, state, agent, schedule.noise)
    if schedule.epsilon == 0.0:
        zero = np.zeros(base.size)
        return tuple(
            _result_for_target(policy, spec, state, agent, zero, clean, clean)
            for _ in cfgs
        )
    net = policy.agent_nets[agent]
    starts = [np.zeros((1, base.size))]
    starts += [_restart_starts(cfg, state.step_count, agent, base.size) for cfg in cfgs]
    deltas = _pgd_rows(net, base, np.concatenate(starts), clean, schedule)
    margins = _margins(net, base + deltas, clean)
    modes = {}

    def mode(row):
        if row not in modes:
            modes[row] = _smoothed_modal(
                policy, spec, state, agent, schedule.noise, deltas[row]
            )
        return modes[row]

    own = schedule.restarts - 1
    results = []
    for c in range(len(cfgs)):
        rows = [0, *range(1 + c * own, 1 + (c + 1) * own)]
        chosen = next((row for row in rows if mode(row) != clean), None)
        if chosen is None:
            chosen = rows[int(np.argmax(margins[rows]))]
        results.append(
            _result_for_target(
                policy, spec, state, agent, deltas[chosen], mode(chosen), clean
            )
        )
    return tuple(results)


def pgd_attack_state(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    cfg: AttackConfig,
) -> AttackResult:
    """``pgd_attack_batch`` with the single config ``cfg``."""
    return pgd_attack_batch(policy, spec, state, agent, (cfg,))[0]


def attacked_rollout(
    policy: JointPolicy, spec: GridSpec, cfg: AttackConfig
) -> AttackResult:
    """Episode under persistent attack on every agent's observation.

    Each step attacks all agents independently within the budget and
    executes the resulting (possibly flipped) smoothed actions.
    ``flipped[n]`` records whether agent n ever deviated from its clean
    smoothed action; ``perturbations`` are those of the final step.
    """
    state = reset(spec)
    total = 0.0
    ever_flipped = [False] * policy.n_agents
    last = tuple(
        np.zeros(observe(spec, state, n).size) for n in range(policy.n_agents)
    )
    while not state.done:
        actions = []
        perturbations = []
        for agent in range(policy.n_agents):
            result = pgd_attack_state(policy, spec, state, agent, cfg)
            perturbations.append(result.perturbations[agent])
            actions.append(result.action)
            if result.flipped[agent]:
                ever_flipped[agent] = True
        last = tuple(perturbations)
        outcome = step(spec, state, tuple(actions))
        total += outcome.team_reward
        state = outcome.next_state
    return AttackResult(last, tuple(ever_flipped), total)


def validate_certificates(
    policy: JointPolicy,
    spec: GridSpec,
    state_certificates,
    reward_certificate: RewardCertificate,
    cfg: AttackConfig,
    trials: int,
    rollout_trials: int = 5,
) -> ValidationReport:
    """Stress-test certificates with repeated attacks.

    Every certified (state, agent) pair gets one PGD batch of ``trials``
    configs at its certified radius (flips here would falsify the
    certificate) and one more at twice the radius as a contrast.
    Rollout attacks at the reward certificate's epsilon check that no
    episode scores below its bound.  Raises ConfigError when ``trials``
    is below 1, and ValueError when a certificate's recorded actions
    disagree with this policy and noise configuration.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    for cert in state_certificates:
        if cert.step_index != cert.state.step_count:
            raise ValueError("certificate state/step mismatch")
        for agent in range(policy.n_agents):
            fresh = _smoothed_modal(policy, spec, cert.state, agent, cfg.noise)
            if fresh != cert.actions[agent]:
                raise ValueError(
                    "certificates do not match this policy/noise configuration"
                )
    agents_checked = 0
    in_flips = 0
    in_trials = 0
    contrast_flips = 0
    contrast_trials = 0
    for cert in state_certificates:
        for agent in sorted(cert.certified_set):
            agents_checked += 1
            radius = cert.per_agent_radius[agent]
            for scale, inside in ((1.0, True), (2.0, False)):
                trial_cfgs = [
                    replace(
                        cfg,
                        epsilon=scale * radius,
                        seed=derive_seed(
                            cfg.seed, "validate", cert.step_index, agent, trial, scale
                        ),
                    )
                    for trial in range(trials)
                ]
                results = pgd_attack_batch(policy, spec, cert.state, agent, trial_cfgs)
                flips = sum(int(result.flipped[agent]) for result in results)
                if inside:
                    in_trials += trials
                    in_flips += flips
                else:
                    contrast_trials += trials
                    contrast_flips += flips
    rewards = []
    violated = False
    for trial in range(rollout_trials):
        rollout_cfg = replace(
            cfg,
            epsilon=reward_certificate.epsilon_cert,
            seed=derive_seed(cfg.seed, "validate-rollout", trial),
        )
        reward = attacked_rollout(policy, spec, rollout_cfg).attacked_reward
        rewards.append(reward)
        if reward < reward_certificate.r_min:
            violated = True
    return ValidationReport(
        states_checked=len(state_certificates),
        agents_checked=agents_checked,
        in_ball_trials=in_trials,
        in_ball_flips=in_flips,
        contrast_trials=contrast_trials,
        contrast_flips=contrast_flips,
        rollout_rewards=tuple(rewards),
        rmin_violated=violated,
    )
