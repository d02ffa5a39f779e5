"""l2-bounded adversarial attacks on per-agent observations.

These attacks exist to falsify certificates, not to train against.  The
target is always the smoothed policy evaluated with common random
numbers: a perturbed observation is judged by re-running the exact noise
stream used during certification, so any action flip is attributable to
the perturbation alone.  An unattacked agent therefore keeps its
certified action by construction, never by luck, and no result carries
anything for it.

One ``AttackConfig`` is a run's attack schedule, every count checked
once when it is built: the noise that judges flips, the numbers of PGD
steps and restarts, and validation's seeds per budget and attacked
rollouts.  The budgets (epsilon and seeds) are arguments of each call.
``pgd_attack_batch`` runs projected gradient ascent on the margin
between the best non-modal action value and the modal action value of
one agent's network, one result per seed of each budget.  Each step moves 2.5 * epsilon / steps,
so a straight climb reaches the edge of the ball within the first half
of its steps.  Every restart of every seed of every budget is one row of
a single array, and the rows step together, each in its own ball: each
step runs one ``nn.forward_trace`` and asks ``nn.reverse_sweep`` for
the input gradient alone, and the rows are gathered only once one of
them stops.  Restart 0 starts at the clean observation and depends on no
seed, so each budget holds it once for all its seeds.  Each row's end
point is still judged on its own by the CRN smoothed decision, set up
once per batch with the count ``smoothing.sample_tally`` uses, as a
vote: it counts the tally's first rows and stops once the winner is
settled, so its action is always the full tally's.
``pgd_attack_state`` is the one-seed batch.
``attacked_rollout`` applies the attack persistently along an episode,
one episode per seed, all episodes stepping together.

Every smoothed decision at one step and agent reads one noise address,
and smoothing caches one block per agent, so a walk that comes back to
an address draws its block again.  Validation visits addresses in step
order, so its own walk draws each block once; but the search that made
the certificates walked the same addresses before it, so an ``attack``
run draws each of its (step, agent) blocks twice, once in the search and
once in validation.  ``validate_certificates`` walks the
certificates by step: at step t it checks every agent's recorded action
against a fresh smoothed decision, attacks each certified agent in one
batch of all its trials at its certified radius and at twice that
radius as a contrast, and then advances every live attacked rollout by
step t, the episodes that stand on the same state sharing one batch per
agent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .certify import RewardCertificate
from .envs import OBS_LENGTH, EnvState, GridSpec, observe, reset, step
from .errors import ConfigError, allocate, check_numbers
from .policy import JointPolicy
from .seeds import derive_seed
from .smoothing import NoiseConfig, _counter


# bytes a seed's list entries and result hold besides its float64 rows,
# rounded up
_SEED_BYTES = 512


@dataclass(frozen=True)
class AttackConfig:
    """The attack schedule of one run.

    ``noise`` is the certification noise configuration; flips are judged
    against the smoothed decision it defines.  ``steps`` also fixes the
    step length, 2.5 * epsilon / steps.  ``validate_certificates`` gives
    each certified (state, agent) ``trials`` seeds at each of its two
    budgets and runs ``rollout_trials`` attacked episodes.

    Raises ConfigError (exit code 2) unless every count is at least 1
    and one PGD batch of two budgets of ``trials`` seeds, and one of a
    budget of ``rollout_trials`` seeds, fit in memory with their per-seed
    results: a budget holds a restart-0 row and ``restarts - 1`` rows of
    ``OBS_LENGTH`` float64s per seed, and each result keeps one more.
    """

    noise: NoiseConfig
    steps: int = 40
    restarts: int = 5
    trials: int = 20
    rollout_trials: int = 5

    def __post_init__(self):
        check_numbers(self)
        for name in ("steps", "restarts", "trials", "rollout_trials"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name, budgets in ("trials", 2), ("rollout_trials", 1):
            seeds = getattr(self, name)
            rows = 1 + self.restarts * seeds
            size = budgets * (8 * OBS_LENGTH * rows + _SEED_BYTES * seeds)
            field = f"{name}: {seeds} at restarts: {self.restarts}"
            # a probe: its untouched pages cost no memory
            allocate((size,), field, "one batch of PGD rows and its per-seed results", np.uint8)


@dataclass(frozen=True, eq=False)
class AttackResult:
    """The target agent's perturbation (within budget), its smoothed
    action under that perturbation, and whether that action differs
    from the clean smoothed action."""

    delta: np.ndarray
    action: int
    flipped: bool


@dataclass(frozen=True)
class RolloutResult:
    """Episode reward under attack; ``flipped[n]`` records whether agent
    n ever deviated from its clean smoothed action."""

    attacked_reward: float
    flipped: tuple


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


def _voter(policy, state, agent, noise, base):
    """The smoothed decision at ``base + delta`` as a function of delta,
    set up once: the lowest-index argmax of a vote, which counts the full
    tally's first rows until its winner is settled."""
    count = _counter(policy.agent_nets[agent], noise, state.step_count, agent)

    def vote(delta=None) -> int:
        return int(np.argmax(count(base if delta is None else base + delta, vote=True)))

    return vote


def _smoothed_modal(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    noise: NoiseConfig,
    delta: np.ndarray | None = None,
) -> int:
    """Modal greedy action under the certification noise stream, the
    lowest-index argmax of the full tally: one vote of ``_voter``."""
    return _voter(policy, state, agent, noise, observe(spec, state, agent))(delta)


def _restart_starts(seed, epsilon, step_index, agent, starts):
    """Fills ``starts`` with the starts of restarts 1.. of one seed,
    uniform in the budget ball."""
    rng = np.random.default_rng(derive_seed(seed, "pgd", step_index, agent))
    dim = starts.shape[1]
    for start in starts:
        direction = rng.standard_normal(dim)
        norm = math.sqrt(direction @ direction)
        radius = epsilon * rng.random() ** (1.0 / dim)
        if norm > 0:
            start[:] = direction * (radius / norm)


def _pgd_rows(net, base, deltas, clean, steps, epsilon) -> np.ndarray:
    """Margin-ascent PGD on every row of ``deltas`` at once, in place,
    row i within its own budget ``epsilon[i]``.

    A row whose input gradient is zero cannot make progress and stops
    where it is; the others keep stepping and projecting onto their ball.
    """
    step_size = (2.5 * epsilon / steps)[:, None]
    live = slice(None)
    for _ in range(steps):
        values, inputs = nn.forward_trace(net, base + deltas[live])
        values[:, clean] = -np.inf
        grad_out = np.zeros_like(values)
        grad_out[np.arange(len(values)), np.argmax(values, axis=1)] = 1.0
        grad_out[:, clean] = -1.0
        grad_in = nn.reverse_sweep(net, inputs, grad_out)
        norms = np.sqrt(np.add.reduce(grad_in * grad_in, axis=1))  # = linalg.norm(axis=1)
        moving = norms != 0.0
        if not moving.all():  # gather the rows still moving
            live = np.arange(len(deltas))[live][moving]
            if live.size == 0:
                break
            grad_in, norms = grad_in[moving], norms[moving]
        stepped = deltas[live] + step_size[live] * grad_in / norms[:, None]
        lengths = np.sqrt(np.add.reduce(stepped * stepped, axis=1))
        over = lengths > epsilon[live]
        stepped[over] *= (epsilon[live][over] / lengths[over])[:, None]
        deltas[live] = stepped
    return deltas


def pgd_attack_batch(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    cfg: AttackConfig,
    budgets,
) -> tuple:
    """Margin-ascent PGD on one agent's observation, for each
    ``(epsilon, seeds)`` of ``budgets`` a tuple with one result per seed.

    Raises ConfigError unless every epsilon is finite and non-negative,
    and when the batch's rows cannot be allocated.  A budget of 0 leaves
    each seed its clean action.  Otherwise restart 0 starts from the
    clean observation and is one row shared by the budget's seeds; each
    seed's further restarts start uniformly inside the budget ball, drawn
    from that seed.  A seed's result is its first restart, in restart
    order, that flips the smoothed decision, otherwise the one with the
    largest final margin.  A budget gets the results of a batch of its
    own, unless that batch is one row, which numpy multiplies as a
    matrix-vector product, rounded otherwise.
    """
    for epsilon, _ in budgets:
        if not np.isfinite(epsilon) or epsilon < 0:
            raise ConfigError("epsilon must be finite and non-negative")
    base = observe(spec, state, agent)
    vote = _voter(policy, state, agent, cfg.noise, base)
    clean = vote()
    net = policy.agent_nets[agent]
    own = cfg.restarts - 1
    firsts = [0]
    for epsilon, seeds in budgets:
        firsts.append(firsts[-1] + (1 + own * len(seeds)) * (epsilon > 0.0))
    deltas = allocate((firsts[-1], base.size), f"restarts: {cfg.restarts}", "one batch of PGD rows")
    deltas[:] = 0.0
    for (epsilon, seeds), first in zip(budgets, firsts):
        for s, seed in enumerate(seeds if epsilon > 0.0 else ()):
            starts = deltas[first + 1 + s * own : first + 1 + (s + 1) * own]
            _restart_starts(seed, epsilon, state.step_count, agent, starts)
    if firsts[-1]:
        epsilons = np.repeat([epsilon for epsilon, _ in budgets], np.diff(firsts))
        deltas = _pgd_rows(net, base, deltas, clean, cfg.steps, epsilons)
        values = nn.forward_batch(net, base + deltas)  # margins: best rival - clean
        margins = np.delete(values, clean, axis=1).max(axis=1) - values[:, clean]
    mode = functools.cache(lambda row: vote(deltas[row]))

    def result(rows):  # the first flipping row, else the largest margin
        row = next((r for r in rows if mode(r) != clean), rows[int(np.argmax(margins[rows]))])
        return AttackResult(deltas[row].copy(), mode(row), mode(row) != clean)

    return tuple(
        tuple(
            result([first, *range(first + 1 + s * own, first + 1 + (s + 1) * own)])
            if epsilon > 0.0
            else AttackResult(np.zeros(base.size), clean, False)
            for s in range(len(seeds))
        )
        for (epsilon, seeds), first in zip(budgets, firsts)
    )


def pgd_attack_state(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    cfg: AttackConfig,
    epsilon: float,
    seed: int,
) -> AttackResult:
    """``pgd_attack_batch`` with the single budget ``epsilon`` and seed ``seed``."""
    return pgd_attack_batch(policy, spec, state, agent, cfg, [(epsilon, (seed,))])[0][0]


def _rollout_steps(policy, spec, cfg, epsilon, seeds):
    """``attacked_rollout`` one step at a time: after each step that the
    live episodes take together, yields every episode's result so far."""
    states = [reset(spec)] * len(seeds)
    totals = [0.0] * len(states)
    ever_flipped = [[False] * policy.n_agents for _ in states]
    live = list(range(len(states)))
    while live:
        groups = {}
        for trial in live:
            groups.setdefault(states[trial], []).append(trial)
        actions = {trial: [] for trial in live}
        for state, trials in groups.items():
            for agent in range(policy.n_agents):
                (results,) = pgd_attack_batch(
                    policy, spec, state, agent, cfg, [(epsilon, [seeds[t] for t in trials])]
                )
                for trial, result in zip(trials, results):
                    actions[trial].append(result.action)
                    ever_flipped[trial][agent] |= result.flipped
        for trial in live:
            outcome = step(spec, states[trial], tuple(actions[trial]))
            totals[trial] += outcome.team_reward
            states[trial] = outcome.next_state
        live = [trial for trial in live if not states[trial].done]
        yield tuple(map(RolloutResult, totals, map(tuple, ever_flipped)))


def attacked_rollout(
    policy: JointPolicy, spec: GridSpec, cfg: AttackConfig, epsilon: float, seeds
) -> tuple:
    """Episodes under persistent attack on every agent's observation, one
    result per seed.

    Each step attacks all agents independently within the budget and
    executes the resulting (possibly flipped) smoothed actions.  The
    trials step together, and the trials that stand on the same state
    share one ``pgd_attack_batch`` call per agent, so a trial's result is
    the one its seed would get alone.
    """
    return [(), *_rollout_steps(policy, spec, cfg, epsilon, seeds)][-1]


def validate_certificates(
    policy: JointPolicy,
    spec: GridSpec,
    state_certificates,
    reward_certificate: RewardCertificate,
    cfg: AttackConfig,
    seed: int,
) -> ValidationReport:
    """Stress-test certificates with repeated attacks.

    Every certified (state, agent) pair gets one PGD batch with two
    budgets of ``cfg.trials`` seeds each, derived from ``seed``: its
    certified radius (flips here would falsify the certificate) and twice
    the radius as a contrast.  ``cfg.rollout_trials`` rollout attacks at
    the reward certificate's epsilon check that no episode scores below
    its bound; they advance by step t once the certificates of step t are
    attacked.  Raises ConfigError (exit code 2) when a certificate's step
    index disagrees with its state (checked before any attack), or when
    its recorded actions disagree with this policy and noise
    configuration.
    """

    def budget(cert, agent, scale):
        seeds = [
            derive_seed(seed, "validate", cert.step_index, agent, trial, scale)
            for trial in range(cfg.trials)
        ]
        return scale * cert.per_agent_radius[agent], seeds

    for cert in state_certificates:
        if cert.step_index != cert.state.step_count:
            raise ConfigError("certificate state/step mismatch")
    rollout_seeds = [
        derive_seed(seed, "validate-rollout", t) for t in range(cfg.rollout_trials)
    ]
    epsilon = reward_certificate.epsilon_cert
    rollouts = _rollout_steps(policy, spec, cfg, epsilon, rollout_seeds)
    checked = in_flips = contrast_flips = taken = 0
    results = ()
    for cert in sorted(state_certificates, key=lambda cert: cert.step_index):
        while taken < cert.step_index:  # the rollouts' steps before this one
            results = next(rollouts, results)
            taken += 1
        for agent in range(policy.n_agents):
            fresh = _smoothed_modal(policy, spec, cert.state, agent, cfg.noise)
            if fresh != cert.actions[agent]:
                raise ConfigError(
                    "certificates do not match this policy/noise configuration"
                )
        for agent in sorted(cert.certified_set):
            budgets = [budget(cert, agent, 1.0), budget(cert, agent, 2.0)]
            in_ball, contrast = pgd_attack_batch(policy, spec, cert.state, agent, cfg, budgets)
            in_flips += sum(result.flipped for result in in_ball)
            contrast_flips += sum(result.flipped for result in contrast)
            checked += 1
    for results in rollouts:  # the steps that outlive the last certificate
        pass
    rewards = tuple(rollout.attacked_reward for rollout in results)
    return ValidationReport(
        states_checked=len(state_certificates),
        agents_checked=checked,
        in_ball_trials=cfg.trials * checked,
        in_ball_flips=in_flips,
        contrast_trials=cfg.trials * checked,
        contrast_flips=contrast_flips,
        rollout_rewards=rewards,
        rmin_violated=any(reward < reward_certificate.r_min for reward in rewards),
    )
