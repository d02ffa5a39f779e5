"""Per-state robustness certificates and a team-reward lower bound.

Certification works on the smoothed policy: each agent's action is the
modal greedy choice under ``M`` Gaussian observation perturbations.  Both
recipes start from one ``StateDecision`` per state, built by ``decide``:
the action tally at the state's noise address, the modal joint action,
and each agent's importance factor at that action and p-values: a
one-sided binomial test of "my modal action wins more than half the
time", and that p-value reweighted by how much the agent's choice matters
to the team value.  Two artifacts come out of this module:

* ``crsc`` turns a decision into a certificate for that state.  A
  Benjamini-Hochberg pass over the corrected p-values controls the false
  discovery rate across agents.  Surviving agents receive an l2 radius
  from simultaneous confidence bounds over their action counts.

* ``tcrgr`` lower-bounds the team reward under any perturbation smaller
  than the weakest per-state radius along the way.  ``get_node`` decides
  each state and keeps per-agent candidate action sets (the modal
  action, plus the runner-up wherever the reweighted p-value fails the
  ``alpha`` gate).  A pair's radius keeps the smoothed argmax inside the
  pair, which needs two thirds of the smoothed mass on it, where the
  paper's combined-count rule asks only for one half (see
  ``node_decision``).  Every step advances ``EnvState.step_count``, so the
  reachable states form a DAG layered by step; one forward pass over its
  levels yields both the weakest node radius and the least total reward
  over all candidate trajectories.  The smoothed policy's own episode
  follows the modal actions, which every candidate set starts with, so
  its decisions and clean reward are read off the same pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .envs import EnvState, GridSpec, episode_reward, reset, step
from .policy import JointPolicy, state_values
from .smoothing import (
    ActionTally,
    NoiseConfig,
    _agent_top_two,
    per_agent_radii,
    sample_tally,
)
from .stats import (
    bh_procedure,
    binom_lower_bound,
    binom_pvalue_one_sided,
    std_normal_quantile,
)

# floor of the rescaled importance weights; keeps every correction
# strictly positive so no p-value is zeroed outright
IF_FLOOR = 0.05

# Phi^-1(2/3): a pair's smoothed mass must stay above 2/3 for its argmax
# to stay inside it
_PAIR_QUANTILE = std_normal_quantile(2.0 / 3.0)


@dataclass(frozen=True)
class ImportanceFactors:
    """Per-agent value gaps, raw and rescaled to [IF_FLOOR, 1]."""

    raw: tuple
    normalized: tuple


@dataclass(frozen=True, eq=False)
class StateDecision:
    """The smoothed decision at one state that both recipes read.

    ``modal[n]`` is agent n's most frequent action in ``tally``, the
    lowest index on ties; ``factors`` are the importance factors at
    ``modal``.  Construction adds ``pvalues[n]``, agent n's one-sided
    binomial p-value of its modal count against one half, and
    ``corrected_pvalues[n]``, that times its normalized factor, capped at 1.
    """

    state: EnvState
    tally: ActionTally
    modal: tuple
    factors: ImportanceFactors
    pvalues: tuple = field(init=False)
    corrected_pvalues: tuple = field(init=False)

    def __post_init__(self):
        pvalues = tuple(
            binom_pvalue_one_sided(int(counts[action]), self.tally.samples)
            for counts, action in zip(self.tally.per_agent, self.modal)
        )
        corrected = (min(1.0, pv * w) for pv, w in zip(pvalues, self.factors.normalized))
        object.__setattr__(self, "pvalues", pvalues)
        object.__setattr__(self, "corrected_pvalues", tuple(corrected))


@dataclass(frozen=True)
class StateCertificate:
    """Outcome of certifying one state.

    ``per_agent_radius[n]`` is zero when agent n failed the FDR gate or
    its confidence bound clamped; ``certified_set`` holds the rest, and
    ``min_radius`` is the joint certificate (zero when the set is empty).
    """

    state: EnvState
    step_index: int
    actions: tuple
    pvalues: tuple
    corrected_pvalues: tuple
    per_agent_radius: tuple
    certified_set: frozenset
    min_radius: float


@dataclass(frozen=True)
class SearchNode:
    """Candidate action sets and certified radius for one tree state."""

    decision: StateDecision
    action_sets: tuple
    per_agent_radius: tuple
    radius: float


@dataclass(frozen=True)
class RewardCertificate:
    """``clean_reward`` is the unattacked episode of the smoothed policy;
    ``clean_path`` holds that episode's decisions in rollout order."""

    epsilon_cert: float
    r_min: float
    nodes_expanded: int
    clean_reward: float
    clean_path: tuple


def importance_factor(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    action,
    tally: ActionTally,
) -> ImportanceFactors:
    """How much each agent's chosen action contributes to the team value.

    The raw factor for agent n is the team value at ``action`` minus its
    expectation when agent n alone plays a draw from its smoothed action
    distribution (the tally frequencies).  This needs a mixer linear in
    the agents' values, sum_n w_n * Q_n(a_n) + b: every other term
    cancels, leaving ``w_n * (Q_n(a_n) - freqs_n @ Q_n)``, exactly 0 for
    a unanimous agent.  Factors are then min-max rescaled to [IF_FLOOR,
    1], the most important agent to exactly 1; an all-equal vector maps
    to all ones so the correction becomes a no-op.
    """
    if len(action) != tally.n_agents:
        raise ValueError("action arity disagrees with tally")
    values = state_values(policy, spec, state)
    q, freqs = values.per_agent, tally.per_agent / tally.samples
    gaps = q[np.arange(tally.n_agents), action] - (freqs * q).sum(axis=1)
    raw = values.weights * gaps
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        normalized = np.ones(tally.n_agents)
    else:
        normalized = IF_FLOOR + (1.0 - IF_FLOOR) * ((raw - lo) / (hi - lo))
    return ImportanceFactors(tuple(raw.tolist()), tuple(normalized.tolist()))


def decide(
    policy: JointPolicy, spec: GridSpec, state: EnvState, cfg: NoiseConfig
) -> StateDecision:
    """The tally, modal joint action and importance factors at ``state``."""
    tally = sample_tally(policy, spec, state, cfg)
    modal = tuple(int(np.argmax(counts)) for counts in tally.per_agent)
    factors = importance_factor(policy, spec, state, modal, tally)
    return StateDecision(state=state, tally=tally, modal=modal, factors=factors)


def crsc(decision: StateDecision, cfg: NoiseConfig) -> StateCertificate:
    """Certify one decided state with importance-reweighted FDR control."""
    outcome = bh_procedure(decision.corrected_pvalues, cfg.alpha)
    radii = tuple(
        radius if reject else 0.0
        for radius, reject in zip(per_agent_radii(decision.tally, cfg), outcome.reject)
    )
    certified = frozenset(agent for agent, d in enumerate(radii) if d != 0.0)
    return StateCertificate(
        state=decision.state,
        step_index=decision.state.step_count,
        actions=decision.modal,
        pvalues=decision.pvalues,
        corrected_pvalues=decision.corrected_pvalues,
        per_agent_radius=radii,
        certified_set=certified,
        min_radius=min((radii[agent] for agent in certified), default=0.0),
    )


def node_decision(decision: StateDecision, cfg: NoiseConfig) -> SearchNode:
    """Candidate sets and radius from a decision's tally and importance weights.

    Agents whose corrected p-value clears ``alpha`` keep only the modal
    action, and the radius certifies that singleton: with ``p`` the
    Clopper-Pearson lower bound on the modal count, the smoothed action
    stays modal within ``sigma * Phi^-1(p)``.  A bound below one half
    clamps that radius to zero and restores the runner-up, since the
    modal action alone is then not trustworthy.

    The other agents keep the pair {modal, runner-up}, with ``p`` the
    lower bound on the combined count.  The smoothed argmax stays in a
    set S of k actions while S holds more than k / (k + 1) of the
    smoothed mass, so the pair's radius is ``sigma * (Phi^-1(p) -
    Phi^-1(2/3))``, zero when ``p <= 2/3``.  This departs from the
    paper's combined-count rule ``sigma * Phi^-1(p)``, which only keeps
    the pair's mass above one half: once a third action holds mass, the
    argmax can leave the pair well inside that radius.
    """
    sets = []
    radii = []
    for counts, cpv in zip(decision.tally.per_agent, decision.corrected_pvalues):
        modal, runner = _agent_top_two(counts)
        ct1 = int(counts[modal])
        ct2 = int(counts[runner])
        if cpv > cfg.alpha:
            keep = (modal, runner)
            p_lower = binom_lower_bound(ct1 + ct2, cfg.samples, cfg.alpha)
            radius = max(0.0, cfg.sigma * (std_normal_quantile(p_lower) - _PAIR_QUANTILE))
        else:
            keep = (modal,)
            p_lower = binom_lower_bound(ct1, cfg.samples, cfg.alpha)
            if p_lower < 0.5:
                radius = 0.0
                keep = (modal, runner)
            else:
                radius = cfg.sigma * std_normal_quantile(p_lower)
        sets.append(keep)
        radii.append(radius)
    return SearchNode(
        decision=decision,
        action_sets=tuple(sets),
        per_agent_radius=tuple(radii),
        radius=min(radii),
    )


def _clean_episode(spec: GridSpec, decision_at) -> tuple:
    """The smoothed policy's own episode from ``reset``, following the
    modal action of ``decision_at(state)`` at each state: its decisions in
    rollout order and its team reward, summed in that order."""
    path = []

    def modal(spec, state):
        path.append(decision_at(state))
        return path[-1].modal

    return path, episode_reward(spec, modal)


def get_node(
    policy: JointPolicy, spec: GridSpec, state: EnvState, cfg: NoiseConfig
) -> SearchNode:
    return node_decision(decide(policy, spec, state, cfg), cfg)


def tcrgr(policy: JointPolicy, spec: GridSpec, cfg: NoiseConfig) -> RewardCertificate:
    """Lower-bound the team reward over all candidate trajectories.

    The search runs forward one step level at a time.  Each frontier
    state carries the least reward accumulated on any path reaching it;
    it is expanded once, lowering ``epsilon_cert`` to its node radius,
    and each candidate joint action is stepped once.  A finished episode
    folds its total into ``r_min``; an unfinished successor keeps the
    smallest total among the paths that merge into it.  Rewards are
    summed in path order and float addition is monotone, so keeping
    only that minimum gives exactly the least total an exhaustive walk
    over every trajectory would find.

    Each expanded state also keeps its decision.  The smoothed policy's
    clean episode follows the modal actions, the first entry of every
    candidate set, so it only visits expanded states: walking their
    modal actions from ``reset`` collects its decisions and sums its
    reward, in rollout order, without drawing any noise.
    """
    epsilon = np.inf
    r_min = np.inf
    expanded = 0
    decisions = {}
    frontier = {reset(spec): 0.0}
    while frontier:
        successors = {}
        for state, acc in frontier.items():
            node = get_node(policy, spec, state, cfg)
            epsilon = min(epsilon, node.radius)
            decisions[state] = node.decision
            for joint in itertools.product(*node.action_sets):
                outcome = step(spec, state, joint)
                total = acc + outcome.team_reward
                if outcome.done:
                    r_min = min(r_min, total)
                elif total < successors.get(outcome.next_state, np.inf):
                    successors[outcome.next_state] = total
        expanded += len(frontier)
        frontier = successors
    path, clean = _clean_episode(spec, decisions.__getitem__)
    return RewardCertificate(
        epsilon_cert=float(epsilon),
        r_min=float(r_min),
        nodes_expanded=expanded,
        clean_reward=clean,
        clean_path=tuple(path),
    )


def certify_trajectory(
    policy: JointPolicy, spec: GridSpec, cfg: NoiseConfig
) -> list:
    """Certificates along the smoothed policy's own rollout.

    The rollout follows each state's modal joint action, i.e. the
    trajectory the certificates actually speak about, and makes no
    branching search.
    """
    path, _ = _clean_episode(spec, lambda state: decide(policy, spec, state, cfg))
    return [crsc(decision, cfg) for decision in path]
