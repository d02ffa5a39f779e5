"""Joint value policies: per-agent Q networks plus a team mixer.

Each agent owns a small MLP mapping its local observation to five action
values and always acts greedily on them (ties to the lowest index).  The
team value q_total combines the per-agent chosen values either by summation
("vdn") or through a state-conditioned monotone mixer ("qmix_mono"): a
hypernetwork reads a global state encoding and emits one weight per agent
plus a bias; weights pass through abs() so raising any agent's value can
never lower the team value.

The trainer is standard TD learning on q_total with a replay buffer, a
periodically synced target network, and per-agent epsilon-greedy
exploration.  Training uses its own discount (default 0.99); certification
elsewhere evaluates undiscounted returns.  Everything is seeded: the same
TrainConfig produces bit-identical checkpoints.  TrainConfig holds what a
run may set (episodes, seed, learning rate, discount, augmentation); the
batch size, replay capacity, target sync period and exploration schedule
are the module constants beside ``TRAIN_EVERY``.

The replay buffer is a set of preallocated ring arrays indexed by slot:
observations and next observations ``(capacity, n, obs_len)``, actions
``(capacity, n)`` int64, rewards, done flags, and for qmix_mono the two
global encodings (vdn never encodes the global state).  Transition ``t``
goes to slot ``t % capacity``, and each update gathers its batch with one
fancy index per array.  The ``obs_noise`` augmentation of a batch is one
``standard_normal((batch, 2, n, obs_len))`` draw: ``[:, 0]`` perturbs the
observations and ``[:, 1]`` the next observations, which is the stream
order of drawing both for each sampled transition in turn.  A step's next
observation is the following step's observation, so each state is
observed once.

A policy checkpoint is a directory: ``manifest.json`` describing shapes and
mixer kind, one ``agent_<i>.mlp`` network file per agent, and
``hypernet.mlp`` for the qmix_mono mixer.  ``load_policy`` raises
CheckpointError for a manifest with a missing or wrongly typed key, an
unknown mixer, or networks that do not fit it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import nn
from .envs import (
    N_ACTIONS,
    EnvState,
    GridSpec,
    JointAction,
    observation_length,
    observe,
    reset,
    step,
)
from .errors import CheckpointError, ConfigError, MissingArtifactError, NumericalError
from .seeds import derive_seed

AGENT_HIDDEN = 64
HYPER_HIDDEN = 32
TRAIN_EVERY = 4  # env steps between gradient updates
BATCH_SIZE = 32  # transitions per TD update
REPLAY_CAPACITY = 5000  # transitions the replay ring holds
TARGET_SYNC = 200  # gradient updates between target-net refreshes
EPS_SCHEDULE = (1.0, 0.05, 0.6)  # exploration (start, end, decay fraction)

MIXERS = ("vdn", "qmix_mono")

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "marlcert-policy"
_MANIFEST_VERSION = 1


@dataclass
class JointPolicy:
    agent_nets: tuple
    mixer: str
    hypernet: Optional[nn.Mlp]

    def __post_init__(self):
        if self.mixer not in MIXERS:
            raise ConfigError(f"unknown mixer {self.mixer!r}")
        if self.mixer == "qmix_mono" and self.hypernet is None:
            raise ConfigError("qmix_mono needs a hypernetwork")
        if self.mixer == "vdn" and self.hypernet is not None:
            raise ConfigError("vdn takes no hypernetwork")
        outs = {net.layer_dims[-1] for net in self.agent_nets}
        if outs != {N_ACTIONS}:
            raise ConfigError("agent nets must emit one value per action")

    @property
    def n_agents(self) -> int:
        return len(self.agent_nets)


@dataclass(frozen=True)
class TrainConfig:
    episodes: int
    seed: int
    learning_rate: float = 1e-3
    gamma_train: float = 0.99
    obs_noise: float = 0.0  # Gaussian augmentation applied to TD batches

    def __post_init__(self):
        if self.episodes < 0:
            raise ConfigError("episodes must be non-negative")
        if not 0 < self.learning_rate < float("inf"):
            raise ConfigError("learning_rate must be positive and finite")
        if not 0.0 < self.gamma_train <= 1.0:
            raise ConfigError("gamma_train must be in (0, 1]")
        if not (np.isfinite(self.obs_noise) and self.obs_noise >= 0):
            raise ConfigError("obs_noise must be finite and non-negative")

    def init_seed(self) -> int:
        return derive_seed(self.seed, "policy-init")


def global_encoding_length(spec: GridSpec) -> int:
    return 2 * spec.n_agents + len(spec.items)


def encode_global_state(spec: GridSpec, state: EnvState) -> np.ndarray:
    """Normalized agent positions followed by a remaining-item bitmap."""
    enc = np.empty(global_encoding_length(spec), dtype=np.float64)
    k = 0
    for x, y in state.agent_positions:
        enc[k] = x / max(spec.width - 1, 1)
        enc[k + 1] = y / max(spec.height - 1, 1)
        k += 2
    remaining = state.remaining_items
    for cell in sorted(spec.items):
        enc[k] = 1.0 if (cell, spec.items[cell]) in remaining else 0.0
        k += 1
    return enc


def new_policy(spec: GridSpec, mixer: str, rng) -> JointPolicy:
    """Randomly initialized policy for `spec`. Nets differ per agent."""
    obs_len = observation_length(spec)
    nets = tuple(
        nn.mlp_init((obs_len, AGENT_HIDDEN, N_ACTIONS), "relu", rng)
        for _ in range(spec.n_agents)
    )
    hyper = None
    if mixer == "qmix_mono":
        hyper = nn.mlp_init(
            (global_encoding_length(spec), HYPER_HIDDEN, spec.n_agents + 1),
            "relu",
            rng,
        )
    return JointPolicy(nets, mixer, hyper)


def agent_values(policy: JointPolicy, observation: np.ndarray, agent: int) -> np.ndarray:
    return nn.forward(policy.agent_nets[agent], observation)


def greedy_joint_action(policy: JointPolicy, spec: GridSpec, state: EnvState) -> JointAction:
    # np.argmax returns the first maximum: the lowest-index tie rule
    return tuple(
        int(np.argmax(agent_values(policy, observe(spec, state, n), n)))
        for n in range(policy.n_agents)
    )


@dataclass(frozen=True, eq=False)
class StateValues:
    """Every agent's action values at one state, and the mixer's output.

    ``per_agent[n]`` is agent n's value vector; ``mixer_out`` is the
    hypernetwork's output (one weight per agent, then the bias), None for
    vdn.  One of these serves `q_total` and `counterfactual_values` for
    any joint action at that state.
    """

    per_agent: np.ndarray
    mixer_out: Optional[np.ndarray]


def state_values(policy: JointPolicy, spec: GridSpec, state: EnvState) -> StateValues:
    """One forward pass of each agent net, and of the hypernet, at ``state``."""
    per_agent = np.array(
        [agent_values(policy, observe(spec, state, n), n) for n in range(policy.n_agents)]
    )
    mixer_out = None
    if policy.mixer == "qmix_mono":
        mixer_out = nn.forward(policy.hypernet, encode_global_state(spec, state))
    return StateValues(per_agent, mixer_out)


def _chosen_values(values: StateValues, action) -> np.ndarray:
    return np.array([values.per_agent[n][a] for n, a in enumerate(action)])


def q_total(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    action: JointAction,
    values: Optional[StateValues] = None,
) -> float:
    """Team value of ``action``; ``values`` is ``state_values`` at ``state``
    when the caller already has it."""
    if len(action) != policy.n_agents:
        raise ValueError("joint action length mismatch")
    if values is None:
        values = state_values(policy, spec, state)
    chosen = _chosen_values(values, action)
    if values.mixer_out is None:
        return float(np.sum(chosen))
    out = values.mixer_out
    w = np.abs(out[:-1])
    return float(w @ chosen + out[-1])


def counterfactual_values(
    policy: JointPolicy,
    spec: GridSpec,
    state: EnvState,
    action: JointAction,
    agent: int,
    values: Optional[StateValues] = None,
) -> np.ndarray:
    """q_total with `agent`'s action replaced by each alternative in turn.

    ``values`` is ``state_values`` at ``state`` when the caller already has
    it.
    """
    if values is None:
        values = state_values(policy, spec, state)
    chosen = _chosen_values(values, action)
    own = values.per_agent[agent]
    if values.mixer_out is None:
        return (np.sum(chosen) - chosen[agent]) + own
    out = values.mixer_out
    w = np.abs(out[:-1])
    rest = w @ chosen - w[agent] * chosen[agent] + out[-1]
    return rest + w[agent] * own


def _clone_net(net: nn.Mlp) -> nn.Mlp:
    return nn.Mlp(
        net.layer_dims,
        [w.copy() for w in net.weights],
        [b.copy() for b in net.biases],
        net.activation,
    )


def _snapshot(policy: JointPolicy) -> JointPolicy:
    hyper = _clone_net(policy.hypernet) if policy.hypernet is not None else None
    return JointPolicy(tuple(_clone_net(n) for n in policy.agent_nets), policy.mixer, hyper)


def _epsilon(cfg: TrainConfig, episode: int) -> float:
    start, end, frac = EPS_SCHEDULE
    horizon = max(1, int(cfg.episodes * frac))
    t = min(1.0, episode / horizon)
    return start + (end - start) * t


def train(
    spec: GridSpec,
    cfg: TrainConfig,
    mixer: str,
    checkpoint_path=None,
) -> JointPolicy:
    """TD-train a policy on `spec`; optionally write its checkpoint."""
    policy = new_policy(spec, mixer, np.random.default_rng(cfg.init_seed()))
    target = _snapshot(policy)
    rng = np.random.default_rng(derive_seed(cfg.seed, "train"))

    adam = [nn.adam_init(net, cfg.learning_rate) for net in policy.agent_nets]
    adam_hyper = (
        nn.adam_init(policy.hypernet, cfg.learning_rate)
        if policy.hypernet is not None
        else None
    )

    n = policy.n_agents
    obs_len = observation_length(spec)
    # a ring larger than the whole run would never wrap: allocate only that
    capacity = min(REPLAY_CAPACITY, cfg.episodes * spec.step_cap)
    replay_obs = np.empty((capacity, n, obs_len))
    replay_next_obs = np.empty((capacity, n, obs_len))
    replay_acts = np.empty((capacity, n), dtype=np.int64)
    replay_rewards = np.empty(capacity)
    replay_done = np.empty(capacity, dtype=bool)
    if policy.hypernet is not None:
        enc_len = global_encoding_length(spec)
        replay_encs = np.empty((capacity, enc_len))
        replay_next_encs = np.empty((capacity, enc_len))
    env_steps = 0
    updates = 0

    for episode in range(cfg.episodes):
        state = reset(spec)
        obs = np.stack([observe(spec, state, i) for i in range(n)])
        if policy.hypernet is not None:
            enc = encode_global_state(spec, state)
        eps = _epsilon(cfg, episode)
        while not state.done:
            actions = []
            for i in range(n):
                if rng.random() < eps:
                    actions.append(int(rng.integers(0, N_ACTIONS)))
                else:
                    actions.append(int(np.argmax(nn.forward(policy.agent_nets[i], obs[i]))))
            out = step(spec, state, tuple(actions))
            nxt = out.next_state
            next_obs = np.stack([observe(spec, nxt, i) for i in range(n)])
            slot = env_steps % capacity
            replay_obs[slot] = obs
            replay_next_obs[slot] = next_obs
            replay_acts[slot] = actions
            replay_rewards[slot] = out.team_reward
            replay_done[slot] = out.done
            if policy.hypernet is not None:
                next_enc = encode_global_state(spec, nxt)
                replay_encs[slot] = enc
                replay_next_encs[slot] = next_enc
                enc = next_enc
            env_steps += 1
            state, obs = nxt, next_obs

            size = min(env_steps, capacity)
            if env_steps % TRAIN_EVERY or size < BATCH_SIZE:
                continue
            picks = rng.integers(0, size, BATCH_SIZE)
            batch_obs = replay_obs[picks]
            batch_next_obs = replay_next_obs[picks]
            if cfg.obs_noise > 0:
                # fresh Gaussian augmentation per draw: values learned this
                # way stay decisive under smoothing noise of similar scale
                noise = rng.standard_normal((BATCH_SIZE, 2, n, obs_len))
                batch_obs = batch_obs + noise[:, 0] * cfg.obs_noise
                batch_next_obs = batch_next_obs + noise[:, 1] * cfg.obs_noise
            encs = next_encs = None
            if policy.hypernet is not None:
                encs, next_encs = replay_encs[picks], replay_next_encs[picks]
            batch = (
                batch_obs,
                replay_acts[picks],
                replay_rewards[picks],
                batch_next_obs,
                encs,
                next_encs,
                replay_done[picks],
            )
            _td_update(policy, target, adam, adam_hyper, batch, cfg, episode)
            updates += 1
            if updates % TARGET_SYNC == 0:
                target = _snapshot(policy)

    if checkpoint_path is not None:
        save_policy(policy, checkpoint_path)
    return policy


def _td_update(policy, target, adam, adam_hyper, batch, cfg, episode):
    """One TD step on a gathered batch.

    `batch` is (obs (b, n, obs), acts (b, n), rewards (b,), next_obs,
    encs (b, enc), next_encs, done (b,)); the encodings are None for vdn.
    """
    obs, acts, rewards, next_obs, encs, next_encs, done = batch
    b, n = acts.shape

    # bootstrapped target: each agent's greedy value under the target nets
    next_chosen = np.empty((b, n))
    for i in range(n):
        vals = nn.forward_batch(target.agent_nets[i], next_obs[:, i, :])
        next_chosen[:, i] = vals.max(axis=1)
    if policy.mixer == "vdn":
        next_q = next_chosen.sum(axis=1)
    else:
        hyper_out = nn.forward_batch(target.hypernet, next_encs)
        next_q = (
            np.abs(hyper_out[:, :-1]) * next_chosen
        ).sum(axis=1) + hyper_out[:, -1]
    y = rewards + cfg.gamma_train * next_q * (~done)

    chosen = np.empty((b, n))
    for i in range(n):
        vals = nn.forward_batch(policy.agent_nets[i], obs[:, i, :])
        chosen[:, i] = vals[np.arange(b), acts[:, i]]
    if policy.mixer == "vdn":
        q = chosen.sum(axis=1)
        weights = np.ones((b, n))
        hyper_out = None
    else:
        hyper_out = nn.forward_batch(policy.hypernet, encs)
        weights = np.abs(hyper_out[:, :-1])
        q = (weights * chosen).sum(axis=1) + hyper_out[:, -1]

    if not (np.isfinite(q).all() and np.isfinite(y).all()):
        raise NumericalError(
            f"training diverged (non-finite TD loss) at episode {episode}"
        )

    dq = 2.0 * (q - y) / b
    for i in range(n):
        grad_out = np.zeros((b, N_ACTIONS))
        grad_out[np.arange(b), acts[:, i]] = dq * weights[:, i]
        grads, _ = nn.backward_batch(policy.agent_nets[i], obs[:, i, :], grad_out)
        nn.adam_step(policy.agent_nets[i], grads, adam[i])
    if policy.mixer == "qmix_mono":
        grad_hyper = np.empty((b, n + 1))
        grad_hyper[:, :-1] = dq[:, None] * np.sign(hyper_out[:, :-1]) * chosen
        grad_hyper[:, -1] = dq
        grads, _ = nn.backward_batch(policy.hypernet, encs, grad_hyper)
        nn.adam_step(policy.hypernet, grads, adam_hyper)


def save_policy(policy: JointPolicy, path) -> None:
    """Write a checkpoint directory: manifest plus one file per network."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "mixer": policy.mixer,
        "n_agents": policy.n_agents,
        "n_actions": N_ACTIONS,
        "obs_length": policy.agent_nets[0].layer_dims[0],
        "agent_nets": [f"agent_{i}.mlp" for i in range(policy.n_agents)],
        "hypernet": "hypernet.mlp" if policy.hypernet is not None else None,
    }
    for i, net in enumerate(policy.agent_nets):
        nn.checkpoint_save(net, path / manifest["agent_nets"][i])
    if policy.hypernet is not None:
        nn.checkpoint_save(policy.hypernet, path / "hypernet.mlp")
    with open(path / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_policy(path) -> JointPolicy:
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise MissingArtifactError(f"no policy checkpoint at {path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt policy manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise CheckpointError("not a policy checkpoint manifest")
    if manifest.get("version") != _MANIFEST_VERSION:
        raise CheckpointError(
            f"unsupported manifest version {manifest.get('version')}"
        )
    names = manifest.get("agent_nets")
    hyper_name = manifest.get("hypernet")
    if not (
        isinstance(names, list)
        and all(isinstance(name, str) for name in names)
        and (hyper_name is None or isinstance(hyper_name, str))
    ):
        raise CheckpointError(
            "manifest needs agent_nets as a list of file names and "
            "hypernet as a file name or null"
        )
    nets = []
    for name in names:
        net_path = path / name
        if not net_path.is_file():
            raise MissingArtifactError(f"missing network file {net_path}")
        nets.append(nn.checkpoint_load(net_path))
    hyper = None
    if hyper_name:
        hyper_path = path / hyper_name
        if not hyper_path.is_file():
            raise MissingArtifactError(f"missing network file {hyper_path}")
        hyper = nn.checkpoint_load(hyper_path)
    try:
        return JointPolicy(tuple(nets), manifest.get("mixer"), hyper)
    except ConfigError as exc:
        raise CheckpointError(f"inconsistent policy checkpoint: {exc}") from exc
