"""Monte Carlo smoothing of joint policies under Gaussian observation noise.

The smoothed policy replaces each agent's greedy action with its most
frequent action over M noisy copies of the observation.  This module owns
the noise streams, the per-agent action tallies, and the per-agent radii
certified from them (one confidence box per agent over its five action
counts).  ``certify.decide`` reads a state's tally through `sample_tally`.

Noise streams are counter-based so every draw is addressable: the stream for
(seed, step_index, agent) is a Philox generator keyed by hashing those
values, and sample m starts at counter block ``m * ceil(dim / 4)`` (Philox
counts in blocks of four doubles).  `gaussian_noise_block` draws rows
0..count-1 of a stream in one call, so row m is the same no matter how the
work is batched or parallelized.  Uniform draws map to normals through the
inverse CDF, then scale by sigma, so noise at two sigmas differs by an exact
factor.  The inverse CDF (`stats.std_normal_quantile_vec`) walks the
clamped M-row uniform block in cache-sized chunks into one output array,
so the block-sized arrays of a draw are the uniforms, their clamped copy,
the quantile output and the sigma-scaled result.

`sample_tally` and the attacks count actions through `_action_counts`.
At one (seed, step, agent) address every smoothed decision, whatever the
state or attack shift x, feeds the same noise block E through the
agent's first layer, and W1 (x + E) = W1 x + W1 E.  So each agent has one
slot that holds its block already projected, ``P = (sigma E) @ W1.T``
(M x hidden), keyed by dim, seed, step, M and sigma and checked against
a stored copy of W1.  A decision adds the vector ``W1 x + b1`` to P and
runs the layers after the first (`nn.forward_rest`).  The tree search
expands one step at a time and the attacks revisit one state many
times, so consecutive calls for an agent mostly share an address; one
block per agent bounds the memory kept.

What the slot trades: a decision skips the M x dim x hidden product, but
a block used once still pays it, the slot keeps M x hidden numbers
(64 hidden units against 47 observation components for the built-in
nets), and since P is of the scaled noise a new sigma draws the block
again.  The first-layer pre-activations are rounded in another order than
``forward_batch(x + sigma E)``, so they can differ from it in the last
bits; every action tally in the recorded benchmark goldens is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .envs import N_ACTIONS, EnvState, GridSpec, observe
from .errors import ConfigError
from .policy import JointPolicy
from .seeds import philox_key
from .stats import goodman_bounds, std_normal_quantile, std_normal_quantile_vec


@dataclass(frozen=True)
class NoiseConfig:
    sigma: float
    samples: int
    alpha: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.sigma < float("inf"):
            raise ConfigError("sigma must be positive and finite")
        if self.samples < 2:
            raise ConfigError("need at least two smoothing samples")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an integer in [0, 2**64)")


@dataclass(eq=False)
class ActionTally:
    """Per-agent action counts over one shared set of M samples."""

    per_agent: np.ndarray  # (n_agents, N_ACTIONS) int64
    samples: int

    def __post_init__(self):
        self.per_agent = np.asarray(self.per_agent, dtype=np.int64)
        if self.per_agent.ndim != 2 or self.per_agent.shape[1] != N_ACTIONS:
            raise ValueError("per_agent must be (n_agents, n_actions)")
        if not np.all(self.per_agent.sum(axis=1) == self.samples):
            raise ValueError("per-agent counts must sum to the sample count")

    @property
    def n_agents(self) -> int:
        return self.per_agent.shape[0]


def _uniform_to_normal(u: np.ndarray, sigma: float) -> np.ndarray:
    # Generator.random() can emit exactly 0, outside the quantile's domain
    u = np.maximum(u, 2.0**-54)
    return std_normal_quantile_vec(u) * sigma


def _blocks_per_sample(dim: int) -> int:
    return (dim + 3) // 4  # Philox advances in blocks of four doubles


def gaussian_noise_block(
    dim: int, sigma: float, seed: int, step_index: int, agent: int, count: int
) -> np.ndarray:
    """Rows 0..count-1 of the (seed, step_index, agent) noise stream.

    Row m is the draw at counter block ``m * ceil(dim / 4)``, whatever
    ``count`` is.
    """
    if not 0.0 < sigma < float("inf"):
        raise ConfigError("sigma must be positive and finite")
    bits = np.random.Philox(key=philox_key(seed, "noise", step_index, agent))
    width = _blocks_per_sample(dim) * 4
    u = np.random.Generator(bits).random((count, width))
    return _uniform_to_normal(u[:, :dim], sigma)


# agent -> ((dim, seed, step_index, samples, sigma), copy of the first-layer
# weights, noise block projected through them)
_projected_noise: dict = {}


def _projected_block(
    net: nn.Mlp, dim: int, cfg: NoiseConfig, step_index: int, agent: int
) -> np.ndarray:
    """``gaussian_noise_block(dim, cfg.sigma, cfg.seed, step_index, agent,
    cfg.samples) @ W1.T`` for the first-layer weights W1 of ``net``.

    Drawn and projected once while the agent's address and W1 stay the
    same.  W1 is compared by value, so weights edited in place (training,
    a test) are projected afresh.  The block is shared, so it is read-only.
    """
    key = (dim, cfg.seed, step_index, cfg.samples, cfg.sigma)
    weights = net.weights[0]
    slot = _projected_noise.get(agent)
    if slot is None or slot[0] != key or not np.array_equal(slot[1], weights):
        noise = gaussian_noise_block(
            dim, cfg.sigma, cfg.seed, step_index, agent, cfg.samples
        )
        projected = noise @ weights.T
        projected.flags.writeable = False
        slot = _projected_noise[agent] = (key, weights.copy(), projected)
    return slot[2]


def _action_counts(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    agent: int,
    cfg: NoiseConfig,
    delta: np.ndarray | None = None,
) -> np.ndarray:
    """Agent's greedy-action counts over the M noisy copies of its
    observation, shifted by ``delta`` when one is given."""
    base = observe(spec, state, agent)
    if delta is not None:
        base = base + delta
    net = policy.agent_nets[agent]
    projected = _projected_block(net, base.size, cfg, state.step_count, agent)
    # first layer at x + noise: W1 (x + noise) + b1 = W1 noise + (W1 x + b1)
    values = nn.forward_rest(net, projected + (net.weights[0] @ base + net.biases[0]))
    picks = np.argmax(values, axis=1)  # first max: lowest-index ties
    return np.bincount(picks, minlength=N_ACTIONS)


def sample_tally(
    policy: JointPolicy, spec: GridSpec, state: EnvState, cfg: NoiseConfig
) -> ActionTally:
    """Greedy actions of every agent under M shared noise samples."""
    if state.done:
        raise ValueError("cannot smooth a finished episode")
    per_agent = [
        _action_counts(policy, spec, state, agent, cfg)
        for agent in range(policy.n_agents)
    ]
    return ActionTally(np.array(per_agent), cfg.samples)


def _agent_top_two(counts: np.ndarray):
    order = sorted(range(N_ACTIONS), key=lambda a: (-int(counts[a]), a))
    return order[0], order[1]


def per_agent_radii(tally: ActionTally, cfg: NoiseConfig) -> tuple:
    """One radius per agent from simultaneous bounds over its five counts.

    A radius that clamps to zero leaves that agent uncertified.
    """
    radii = []
    for counts in tally.per_agent:
        modal, runner = _agent_top_two(counts)
        box = goodman_bounds(counts.tolist(), cfg.alpha)
        radius = 0.5 * cfg.sigma * (
            std_normal_quantile(box.lower[modal])
            - std_normal_quantile(box.upper[runner])
        )
        radii.append(max(0.0, radius))
    return tuple(radii)
