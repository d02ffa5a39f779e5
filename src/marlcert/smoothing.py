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

`sample_tally` and the attacks count actions through `_action_counts`,
which draws its noise through `_noise_block`.  That keeps each agent's last
unit-sigma block and returns it times sigma: the same final multiply
`gaussian_noise_block` does, so the result is bit-identical.  The tree
search expands one step at a time and the attacks revisit one state many
times, so consecutive calls for an agent mostly share an address; one block
per agent bounds the memory kept.
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


# agent -> ((dim, seed, step_index, samples), unit-sigma noise block)
_last_unit_block: dict = {}


def _noise_block(
    dim: int, cfg: NoiseConfig, step_index: int, agent: int
) -> np.ndarray:
    """``gaussian_noise_block(dim, cfg.sigma, cfg.seed, step_index, agent,
    cfg.samples)``, drawn once per address while the agent's address stays
    the same."""
    key = (dim, cfg.seed, step_index, cfg.samples)
    slot = _last_unit_block.get(agent)
    if slot is None or slot[0] != key:
        block = gaussian_noise_block(
            dim, 1.0, cfg.seed, step_index, agent, cfg.samples
        )
        slot = _last_unit_block[agent] = (key, block)
    return slot[1] * cfg.sigma


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
    noisy = _noise_block(base.size, cfg, state.step_count, agent)
    noisy += base  # the block is a fresh copy: add in place, no second M-row array
    values = nn.forward_batch(policy.agent_nets[agent], noisy)
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
