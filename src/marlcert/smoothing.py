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
factor.  A draw makes one block-sized array at most, its uniforms: the
first dim of each row are clamped and packed to the front, mapped
through the inverse CDF (`stats.std_normal_quantile_vec`) and scaled, all
in place, one range of `_row_ranges(0, M)` at a time, for each of which
the inverse CDF allocates its two working vectors; noise bits follow
numpy's SIMD log.  A caller that passes a buffer gets them drawn into it.

`_counter` sets up a smoothed decision at its (seed, step, agent) address
and returns the one count.  Every count walks one row schedule,
`_count_ranges`: the `_row_ranges` between consecutive `_VOTE_CUTS`.  A
tally counts every range; an attack's vote stops at the first range end
after which the leader's lead exceeds the rows left.  So a vote is a
prefix of the tally, the same rows in the same batches and so the same
bits on any BLAS, and its lowest-index argmax is the tally's.  At one
address every smoothed decision, whatever the state or attack shift x,
feeds the same noise block E through the agent's first layer, and
W1 (x + E) = W1 x + W1 E.  So a count holds its block already projected,
``P = (sigma E) @ W1.T`` (M x hidden), and `_projected_noise` caches each
agent's last one, keyed by seed, step, M, sigma and the net's shape and
checked against a stored copy of its parameters.  A count keeps the block
it was set up with, so any call order gives the same counts; a new
address or net drops the agent's cached block before drawing its own, so
one block per agent is kept unless a live count still holds an older
one.  Visiting addresses in order draws each block once: the tree search
expands one step level at a time, `certify_trajectory` walks its episode
by step, and the attack validation attacks the certificates of step t,
then advances its rollouts by it.

A slot also keeps the full tallies counted at its block, keyed by the
observation's bytes: frontier states that differ only outside an agent's
view give it the same observation, and its tally is counted once.  They
go with the block, and each caller gets its own copy; a vote is always
counted.

A block is one float64 vector: room for M rows of max(4 ceil(dim / 4),
hidden) doubles, then a chunk scratch of `_CHUNK_ROWS` rows of hidden.
The noise is drawn into its front and projected there in place through
the scratch: from the last chunk back when hidden >= dim, from the first
forward when hidden < dim, so each write covers only noise rows already
projected; both walk `_row_ranges(0, M)`, as a projected row's bits
depend on its chunk's row count.  A count adds ``W1 x + b1`` to P one
range at a time in the scratch and runs the layers after the first there
(`nn.forward_rest` applies the activations in place), so it allocates
only each range's values and picks, and raises `NumericalError` at a
non-finite value.  Ranges are of near-equal size, so none is a small
remainder that BLAS rounds another way, and sit well inside L2.

What the projection trades: a decision skips the M x dim x hidden
product, but a block used once still pays it, a block keeps M x 64
numbers for the built-in nets (64 hidden units against 47 observation
components), and since P is of the scaled noise a new sigma draws the
block again.  The first-layer pre-activations are rounded in another
order than ``forward_batch(x + sigma E)``, so they can differ from it in
the last bits; every action tally in the recorded benchmark goldens is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .envs import N_ACTIONS, EnvState, GridSpec, observe
from .errors import ConfigError, NumericalError, allocate, check_numbers
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
        check_numbers(self)
        if not 0.0 < self.sigma < float("inf"):
            raise ConfigError("sigma must be positive and finite")
        if self.samples < 2:
            raise ConfigError("need at least two smoothing samples")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if 1.0 - self.alpha / N_ACTIONS == 1.0:  # the confidence box's level
            raise ConfigError(
                f"alpha must exceed {N_ACTIONS} * 2**-54 (about 2.8e-16), or the "
                f"confidence level 1 - alpha / {N_ACTIONS} rounds to 1"
            )
        if not 0 <= self.seed < 2**64:
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


# rows a draw, a projection or a count handles at once: 1024 rows of 64
# hidden units are 512 KiB, and 1024 rows of 47 noise components with the
# inverse CDF's two working vectors of their size 1.1 MiB, inside a 2 MiB L2
_CHUNK_ROWS = 1024


def _row_ranges(start, stop):
    """[start, stop) in the fewest near-equal ranges of `_CHUNK_ROWS` rows at most."""
    n = max(1, -(-(stop - start) // _CHUNK_ROWS))
    bounds = [start + (stop - start) * i // n for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


# vote cuts in percent of M: the count's row ranges end at each, the first past M / 2
_VOTE_CUTS = (51, 60, 80, 100)


def _count_ranges(samples):
    """The ranges every count at M = ``samples`` walks: `_row_ranges` between vote cuts."""
    cuts = sorted({max(samples // 2 + 1, samples * cut // 100) for cut in _VOTE_CUTS})
    return [part for start, stop in zip([0, *cuts], cuts) for part in _row_ranges(start, stop)]


def _blocks_per_sample(dim: int) -> int:
    return (dim + 3) // 4  # Philox advances in blocks of four doubles


def gaussian_noise_block(
    dim: int,
    sigma: float,
    seed: int,
    step_index: int,
    agent: int,
    count: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rows 0..count-1 of the (seed, step_index, agent) noise stream.

    Row m is the draw at counter block ``m * ceil(dim / 4)``, whatever
    ``count`` is.  The uniforms are drawn into ``out``, a float64 vector
    of at least ``count * 4 * ceil(dim / 4)`` elements, when one is given,
    or into a new array, and turned into the noise where they lie; the
    result is a C-contiguous (count, dim) view of its front.
    """
    if not 0.0 < sigma < float("inf"):
        raise ConfigError("sigma must be positive and finite")
    bits = np.random.Philox(key=philox_key(seed, "noise", step_index, agent))
    width = _blocks_per_sample(dim) * 4
    flat = np.empty(count * width) if out is None else out[: count * width]
    uniforms = flat.reshape(count, width)
    np.random.Generator(bits).random(out=uniforms)
    noise = flat[: count * dim].reshape(count, dim)
    # chunk by chunk, each row's first dim uniforms move to the front,
    # clamped, since Generator.random() can emit exactly 0, outside the
    # quantile's domain; a chunk overwrites only rows already read
    for lo, hi in _row_ranges(0, count):
        chunk = noise[lo:hi]
        np.maximum(uniforms[lo:hi, :dim], 2.0**-54, out=chunk)
        std_normal_quantile_vec(chunk, out=chunk)
        chunk *= sigma
    return noise


# agent -> ((seed, step_index, samples, sigma, layer_dims, activation),
# copy of the parameters, projected noise block, chunk scratch, count
# schedule, full tallies by observation bytes): the last block set up
_projected_noise: dict = {}


# the count's finiteness check reports an overflow; numpy does not warn of it
@np.errstate(over="ignore", invalid="ignore")
def _counter(net, cfg, step_index, agent):
    """The smoothed decision of ``net`` at one (step_index, agent) address,
    set up once: ``count(x, vote=False)``, the greedy-action counts of the
    noisy copies of x over `_count_ranges`.  A tally is counted once per x
    at a block and kept in the slot, a copy to each caller; a vote is
    always counted, and stops once its leader is settled.  The agent's
    cached block is drawn again unless it has this address and, by value,
    this net.  Raises ConfigError when a block cannot be allocated; the
    count raises NumericalError at a non-finite action value.
    """
    weights = net.weights[0]
    hidden, dim = weights.shape
    key = (cfg.seed, step_index, cfg.samples, cfg.sigma, net.layer_dims, net.activation)
    slot = _projected_noise.pop(agent, None)  # a failed set-up leaves no slot
    if slot is None or slot[0] != key or not np.array_equal(slot[1], net.params):
        slot = None  # the old block is freed unless a count still holds it
        size = cfg.samples * max(_blocks_per_sample(dim) * 4, hidden)  # the scratch follows
        field = f"samples: {cfg.samples}"
        storage = allocate((size + _CHUNK_ROWS * hidden,), field, "one block of smoothing noise")
        noise = gaussian_noise_block(
            dim, cfg.sigma, cfg.seed, step_index, agent, cfg.samples, storage
        )
        projected = storage[: cfg.samples * hidden].reshape(-1, hidden)
        chunk = storage[size:]
        ranges = _row_ranges(0, cfg.samples)
        for lo, hi in ranges[::-1] if hidden >= dim else ranges:
            part = chunk[: (hi - lo) * hidden].reshape(-1, hidden)
            projected[lo:hi] = np.matmul(noise[lo:hi], weights.T, out=part)
        slot = (key, net.params.copy(), projected, chunk, _count_ranges(cfg.samples), {})
    _projected_noise[agent] = slot
    _, _, projected, chunk, schedule, tallies = slot

    @np.errstate(over="ignore", invalid="ignore")
    def count(x, vote=False):
        x = np.asarray(x, dtype=np.float64)
        raw = None if vote else x.tobytes()
        if raw in tallies:  # never for a vote
            return tallies[raw].copy()
        # first layer at x + noise: W1 (x + noise) + b1 = W1 noise + (W1 x + b1)
        shift = net.weights[0] @ x + net.biases[0]
        counts = np.zeros(N_ACTIONS, dtype=np.int64)
        for lo, hi in schedule:
            first = chunk[: (hi - lo) * hidden].reshape(-1, hidden)
            np.add(projected[lo:hi], shift, out=first)
            values = nn.forward_rest(net, first)
            if not np.isfinite(values).all():
                raise NumericalError(f"non-finite smoothed action values at sigma {cfg.sigma:g}")
            picks = np.argmax(values, axis=1)  # lowest-index ties
            counts += np.bincount(picks, minlength=N_ACTIONS)
            if vote:
                *_, runner, top = np.sort(counts)
                if top - runner > cfg.samples - hi:
                    break
        if not vote:
            tallies[raw] = counts.copy()
        return counts

    return count


def sample_tally(
    policy: JointPolicy, spec: GridSpec, state: EnvState, cfg: NoiseConfig
) -> ActionTally:
    """Greedy actions of every agent under M shared noise samples."""
    if state.done:
        raise ValueError("cannot smooth a finished episode")
    per_agent = []
    for agent, net in enumerate(policy.agent_nets):
        x = observe(spec, state, agent)
        per_agent.append(_counter(net, cfg, state.step_count, agent)(x))
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
