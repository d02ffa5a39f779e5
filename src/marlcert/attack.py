"""l2-bounded adversarial attacks on per-agent observations.

These attacks exist to falsify certificates, not to train against.  The
target is always the smoothed policy evaluated with common random
numbers: a perturbed observation is judged by re-running the exact noise
stream used during certification, so any action flip is attributable to
the perturbation alone.  An unattacked agent therefore keeps its
certified action by construction, never by luck.

``pgd_attack_state`` runs projected gradient ascent on the margin
between the best non-modal action value and the modal action value of
one agent's network.  ``random_search_attack`` probes uniform l2-sphere
directions at the full budget as a gradient-free cross-check.
``attacked_rollout`` applies the attack persistently along an episode,
and ``validate_certificates`` exercises every certified (state, agent)
pair at its certified radius and at twice that radius as a contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .certify import RewardCertificate
from .envs import EnvState, GridSpec, N_ACTIONS, observe, reset, step
from .errors import ConfigError
from .policy import JointPolicy
from .seeds import derive_seed
from .smoothing import NoiseConfig, _noise_block


@dataclass(frozen=True)
class AttackConfig:
    """Budget and schedule for one attack run.

    ``noise`` is the certification noise configuration; flips are judged
    against the smoothed decision it defines.  ``seed`` randomizes
    restart locations and search directions only, never the noise
    stream.  A ``step_size`` of None resolves to 2.5 * epsilon / steps.
    """

    epsilon: float
    noise: NoiseConfig
    steps: int = 40
    step_size: float | None = None
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ConfigError("epsilon must be finite and non-negative")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be at least 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ConfigError("step_size must be positive when given")

    def resolved_step_size(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps


@dataclass(frozen=True, eq=False)
class AttackResult:
    """Perturbations (one vector per agent, within budget), per-agent
    flip flags against the clean smoothed actions, and the episode
    reward for rollout attacks (nan for single-state attacks)."""

    perturbations: tuple
    flipped: tuple
    attacked_reward: float


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


def _project(delta: np.ndarray, epsilon: float) -> np.ndarray:
    norm = float(np.linalg.norm(delta))
    if norm > epsilon:
        return delta * (epsilon / norm)
    return delta


def _smoothed_modal(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    noise: NoiseConfig,
    delta: np.ndarray | None = None,
) -> int:
    """Modal greedy action under the certification noise stream."""
    base = observe(spec, state, agent)
    if delta is not None:
        base = base + delta
    block = _noise_block(base.size, noise, state.step_count, agent)
    values = nn.forward_batch(policy.agent_nets[agent], base[None, :] + block)
    counts = np.bincount(np.argmax(values, axis=1), minlength=N_ACTIONS)
    return int(np.argmax(counts))


def _margin(net: nn.Mlp, x: np.ndarray, modal: int) -> float:
    values = nn.forward(net, x)
    rival = np.delete(values, modal).max()
    return float(rival - values[modal])


def _result_for_target(policy, spec, state, agent, delta, flipped):
    perturbations = []
    flips = []
    for n in range(policy.n_agents):
        if n == agent:
            perturbations.append(np.array(delta, dtype=np.float64))
            flips.append(bool(flipped))
        else:
            # untouched observation + identical noise stream: the
            # smoothed decision is bitwise the clean one
            perturbations.append(np.zeros(observe(spec, state, n).size))
            flips.append(False)
    return AttackResult(tuple(perturbations), tuple(flips), float("nan"))


def pgd_attack_state(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    cfg: AttackConfig,
) -> AttackResult:
    """Margin-ascent PGD on one agent's observation.

    Restart 0 starts from the clean observation; further restarts start
    uniformly inside the budget ball.  Returns the first flipping
    perturbation, otherwise the one with the largest final margin.
    """
    base = observe(spec, state, agent)
    if cfg.epsilon == 0.0:
        return _result_for_target(policy, spec, state, agent, np.zeros(base.size), False)
    net = policy.agent_nets[agent]
    clean = _smoothed_modal(policy, spec, state, agent, cfg.noise)
    rng = np.random.default_rng(derive_seed(cfg.seed, "pgd", state.step_count, agent))
    step_size = cfg.resolved_step_size()
    best_delta = np.zeros(base.size)
    best_margin = -np.inf
    for restart in range(cfg.restarts):
        if restart == 0:
            delta = np.zeros(base.size)
        else:
            direction = rng.standard_normal(base.size)
            norm = np.linalg.norm(direction)
            radius = cfg.epsilon * rng.random() ** (1.0 / base.size)
            delta = direction * (radius / norm) if norm > 0 else np.zeros(base.size)
        for _ in range(cfg.steps):
            values = nn.forward(net, base + delta)
            masked = values.copy()
            masked[clean] = -np.inf
            rival = int(np.argmax(masked))
            grad_out = np.zeros(N_ACTIONS)
            grad_out[rival] = 1.0
            grad_out[clean] = -1.0
            _, grad_in = nn.backward(net, base + delta, grad_out)
            norm = float(np.linalg.norm(grad_in))
            if norm == 0.0:
                break  # dead gradient; this restart cannot make progress
            delta = _project(delta + step_size * grad_in / norm, cfg.epsilon)
        if _smoothed_modal(policy, spec, state, agent, cfg.noise, delta) != clean:
            return _result_for_target(policy, spec, state, agent, delta, True)
        margin = _margin(net, base + delta, clean)
        if margin > best_margin:
            best_margin = margin
            best_delta = delta
    return _result_for_target(policy, spec, state, agent, best_delta, False)


def random_search_attack(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    cfg: AttackConfig,
) -> AttackResult:
    """Gradient-free probe: uniform sphere directions at the full budget.

    Guards against gradient masking; tries steps * restarts directions.
    """
    base = observe(spec, state, agent)
    if cfg.epsilon == 0.0:
        return _result_for_target(policy, spec, state, agent, np.zeros(base.size), False)
    net = policy.agent_nets[agent]
    clean = _smoothed_modal(policy, spec, state, agent, cfg.noise)
    rng = np.random.default_rng(
        derive_seed(cfg.seed, "random-search", state.step_count, agent)
    )
    best_delta = np.zeros(base.size)
    best_margin = -np.inf
    for _ in range(cfg.steps * cfg.restarts):
        direction = rng.standard_normal(base.size)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        delta = direction * (cfg.epsilon / norm)
        if _smoothed_modal(policy, spec, state, agent, cfg.noise, delta) != clean:
            return _result_for_target(policy, spec, state, agent, delta, True)
        margin = _margin(net, base + delta, clean)
        if margin > best_margin:
            best_margin = margin
            best_delta = delta
    return _result_for_target(policy, spec, state, agent, best_delta, False)


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
            delta = result.perturbations[agent]
            perturbations.append(delta)
            action = _smoothed_modal(policy, spec, state, agent, cfg.noise, delta)
            if result.flipped[agent]:
                ever_flipped[agent] = True
            actions.append(action)
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

    Every certified (state, agent) pair gets ``trials`` PGD runs at its
    certified radius (flips here would falsify the certificate) and
    ``trials`` more at twice the radius as a contrast.  Rollout attacks
    at the reward certificate's epsilon check that no episode scores
    below its bound.  Raises ValueError when a certificate's recorded
    actions disagree with this policy and noise configuration.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
                for trial in range(trials):
                    trial_cfg = replace(
                        cfg,
                        epsilon=scale * radius,
                        seed=derive_seed(
                            cfg.seed, "validate", cert.step_index, agent, trial, scale
                        ),
                    )
                    result = pgd_attack_state(
                        policy, spec, cert.state, agent, trial_cfg
                    )
                    if inside:
                        in_trials += 1
                        in_flips += int(result.flipped[agent])
                    else:
                        contrast_trials += 1
                        contrast_flips += int(result.flipped[agent])
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
