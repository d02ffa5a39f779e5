"""Joint value policies: per-agent Q networks plus a team mixer.

Each agent owns a small MLP mapping its local observation to five action
values and always acts greedily on them (ties to the lowest index).  The
agent nets share one architecture, and a policy holds every network in
one parameter vector of its own, ``params``, in checkpoint order: the
agent nets, then the hypernet.  ``agents`` views the agent nets as one
net with a leading agent axis, so ``agent_values`` computes every agent's
values in one stacked pass.

The team value q_total combines the per-agent chosen values either by
summation ("vdn") or through a state-conditioned monotone mixer
("qmix_mono"): a hypernetwork reads a global state encoding and emits one
weight per agent plus a bias; weights pass through abs() so raising any
agent's value can never lower the team value.

The trainer is standard TD learning on q_total with a replay buffer, a
periodically synced target network, and per-agent epsilon-greedy
exploration.  A target sync is one copy of the policy's ``params``, and
an update is one stacked pass (plus the hypernet's for qmix_mono) that
writes the gradient into one reused vector, then one ``adam_step``.
Training uses its own discount (default 0.99); certification elsewhere
evaluates undiscounted returns.  Everything is seeded: the same
TrainConfig produces bit-identical checkpoints.  TrainConfig holds what a
run may set (episodes, seed, learning rate, discount, augmentation); the
batch size, replay capacity, target sync period and exploration schedule
are the module constants beside ``TRAIN_EVERY``.

The replay buffer is a set of preallocated ring arrays indexed by slot:
observation pairs ``(capacity, 2, n, OBS_LENGTH)``, ``[:, 0]`` the
observations and ``[:, 1]`` the next observations, actions ``(capacity,
n)`` int64, rewards, done flags, and for qmix_mono the global encoding
pairs in the same order (vdn never encodes the global state).
Transition ``t`` goes to slot ``t % capacity``, and each update gathers
its batch with one fancy index per array.  The ``obs_noise``
augmentation of a batch is one standard normal draw of the gathered
pairs' shape, which is the stream order of drawing the observations and
then the next observations for each sampled transition in turn.  A
step's next observation is the following step's observation, so each
state is observed once.

A policy checkpoint is a directory: ``manifest.json`` describing shapes and
mixer kind, one ``agent_<i>.mlp`` network file per agent, and
``hypernet.mlp`` for the qmix_mono mixer.  ``load_policy`` raises
CheckpointError for a manifest with a missing or wrongly typed key, an
unknown mixer, or networks that do not fit it, agent nets of different
architectures among them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import nn
from .envs import (
    N_ACTIONS,
    OBS_LENGTH,
    EnvState,
    GridSpec,
    JointAction,
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
    """Agent nets and mixer; construction copies every net into ``params``.

    ``agent_nets`` and ``hypernet`` become views into ``params``, and
    ``agents`` is the (n, P) view of the agent nets, so a net passed in
    is never shared with the policy.
    """

    agent_nets: tuple
    mixer: str
    hypernet: Optional[nn.Mlp]
    params: np.ndarray = field(init=False, repr=False, compare=False)
    agents: nn.Mlp = field(init=False, repr=False, compare=False)

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
        shape = self.agent_nets[0].layer_dims, self.agent_nets[0].activation
        if any((net.layer_dims, net.activation) != shape for net in self.agent_nets):
            raise ConfigError("agent nets must share one architecture")
        self.params = np.concatenate([net.params for net in self.nets])
        n = len(self.agent_nets)
        split = n * self.agent_nets[0].params.size
        self.agents = nn.Mlp(*shape, self.params[:split].reshape(n, -1))
        self.agent_nets = tuple(nn.Mlp(*shape, row) for row in self.agents.params)
        if self.hypernet is not None:
            dims, activation = self.hypernet.layer_dims, self.hypernet.activation
            self.hypernet = nn.Mlp(dims, activation, self.params[split:])

    @property
    def n_agents(self) -> int:
        return len(self.agent_nets)

    @property
    def nets(self) -> tuple:
        """Every network, in checkpoint order: the agents', then the hypernet."""
        hyper = () if self.hypernet is None else (self.hypernet,)
        return tuple(self.agent_nets) + hyper


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
    sx, sy = max(spec.width - 1, 1), max(spec.height - 1, 1)
    enc = [v for x, y in state.agent_positions for v in (x / sx, y / sy)]
    enc += [float(item in state.remaining_items) for item in sorted(spec.items.items())]
    return np.array(enc)


def new_policy(spec: GridSpec, mixer: str, rng) -> JointPolicy:
    """Randomly initialized policy for `spec`. Nets differ per agent."""
    nets = tuple(
        nn.mlp_init((OBS_LENGTH, AGENT_HIDDEN, N_ACTIONS), "relu", rng)
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


def agent_values(policy: JointPolicy, observations: np.ndarray) -> np.ndarray:
    """Every agent's action values, (n, N_ACTIONS), from the (n, OBS_LENGTH)
    observations, agent n's row from its own net: one stacked pass."""
    return nn.forward_batch(policy.agents, np.asarray(observations)[:, None])[:, 0]


def _observations(policy: JointPolicy, spec: GridSpec, state: EnvState) -> np.ndarray:
    return np.array([observe(spec, state, n) for n in range(policy.n_agents)])


def greedy_joint_action(policy: JointPolicy, spec: GridSpec, state: EnvState) -> JointAction:
    values = agent_values(policy, _observations(policy, spec, state))
    return tuple(values.argmax(axis=1).tolist())  # first maximum: lowest-index ties


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
    """One stacked pass of the agent nets, and one of the hypernet, at ``state``."""
    per_agent = agent_values(policy, _observations(policy, spec, state))
    mixer_out = None
    if policy.mixer == "qmix_mono":
        enc = encode_global_state(spec, state)
        mixer_out = nn.forward_batch(policy.hypernet, enc[None])[0]
    return StateValues(per_agent, mixer_out)


def _chosen_values(values: StateValues, action) -> np.ndarray:
    return np.array([values.per_agent[n][a] for n, a in enumerate(action)])


def q_total(values: StateValues, action: JointAction) -> float:
    """Team value of ``action`` at the state ``values`` was computed for."""
    if len(action) != len(values.per_agent):
        raise ValueError("joint action length mismatch")
    chosen = _chosen_values(values, action)
    if values.mixer_out is None:
        return float(np.sum(chosen))
    out = values.mixer_out
    w = np.abs(out[:-1])
    return float(w @ chosen + out[-1])


def counterfactual_values(
    values: StateValues, action: JointAction, agent: int
) -> np.ndarray:
    """q_total with `agent`'s action replaced by each alternative in turn."""
    chosen = _chosen_values(values, action)
    own = values.per_agent[agent]
    if values.mixer_out is None:
        return (np.sum(chosen) - chosen[agent]) + own
    out = values.mixer_out
    w = np.abs(out[:-1])
    rest = w @ chosen - w[agent] * chosen[agent] + out[-1]
    return rest + w[agent] * own


def _epsilon(cfg: TrainConfig, episode: int) -> float:
    start, end, frac = EPS_SCHEDULE
    horizon = max(1, int(cfg.episodes * frac))
    t = min(1.0, episode / horizon)
    return start + (end - start) * t


# the finiteness checks report divergence; the overflow before it is not warned
@np.errstate(over="ignore", invalid="ignore")
def train(spec: GridSpec, cfg: TrainConfig, mixer: str) -> JointPolicy:
    """TD-train a policy on `spec`."""
    # two draws from the init seed: the target starts as an exact copy
    policy, target = (
        new_policy(spec, mixer, np.random.default_rng(cfg.init_seed())) for _ in range(2)
    )
    grad = np.empty_like(policy.params)
    adam = nn.adam_init(policy.params, cfg.learning_rate)
    rng = np.random.default_rng(derive_seed(cfg.seed, "train"))

    n = policy.n_agents
    # a ring larger than the whole run would never wrap: allocate only that
    capacity = min(REPLAY_CAPACITY, cfg.episodes * spec.step_cap)
    replay_obs = np.empty((capacity, 2, n, OBS_LENGTH))
    replay_acts = np.empty((capacity, n), dtype=np.int64)
    replay_rewards = np.empty(capacity)
    replay_done = np.empty(capacity, dtype=bool)
    if policy.hypernet is not None:
        replay_encs = np.empty((capacity, 2, global_encoding_length(spec)))
    env_steps = 0
    updates = 0

    for episode in range(cfg.episodes):
        state = reset(spec)
        obs = _observations(policy, spec, state)
        if policy.hypernet is not None:
            enc = encode_global_state(spec, state)
        eps = _epsilon(cfg, episode)
        while not state.done:
            # coins and random actions drawn in agent order; -1 marks a greedy agent
            actions = [
                int(rng.integers(0, N_ACTIONS)) if rng.random() < eps else -1
                for _ in range(n)
            ]
            if -1 in actions:
                greedy = agent_values(policy, obs).argmax(axis=1).tolist()
                actions = [g if a < 0 else a for a, g in zip(actions, greedy)]
            out = step(spec, state, tuple(actions))
            nxt = out.next_state
            next_obs = _observations(policy, spec, nxt)
            slot = env_steps % capacity
            replay_obs[slot] = obs, next_obs
            replay_acts[slot] = actions
            replay_rewards[slot] = out.team_reward
            replay_done[slot] = out.done
            if policy.hypernet is not None:
                next_enc = encode_global_state(spec, nxt)
                replay_encs[slot] = enc, next_enc
                enc = next_enc
            env_steps += 1
            state, obs = nxt, next_obs

            size = min(env_steps, capacity)
            if env_steps % TRAIN_EVERY or size < BATCH_SIZE:
                continue
            picks = rng.integers(0, size, BATCH_SIZE)
            pairs = replay_obs[picks]
            if cfg.obs_noise > 0:
                # fresh Gaussian augmentation per draw: values learned this
                # way stay decisive under smoothing noise of similar scale
                pairs += rng.standard_normal(pairs.shape) * cfg.obs_noise
            encs = None if policy.hypernet is None else replay_encs[picks]
            batch = pairs, replay_acts[picks], replay_rewards[picks], encs, replay_done[picks]
            _td_update(policy, target, grad, adam, batch, cfg, episode)
            updates += 1
            if updates % TARGET_SYNC == 0:
                target.params[:] = policy.params
    return policy


def _td_update(policy, target, grad, adam, batch, cfg, episode):
    """One TD step on a gathered batch, as one Adam step of ``policy.params``.

    ``target`` gives the bootstrapped values; ``grad`` is scratch laid out
    like ``params``.  `batch` is (pairs (b, 2, n, obs), acts (b, n),
    rewards (b,), encs (b, 2, enc) or None, done (b,)), with the next
    observations and encodings at ``[:, 1]``.
    """
    pairs, acts, rewards, encs, done = batch
    b, n = acts.shape
    obs, next_obs = pairs.transpose(1, 2, 0, 3)  # each (n, b, obs)
    hypernet = policy.hypernet

    # bootstrapped target: each agent's greedy value under the target nets;
    # the (b, n) tables stay C-ordered, so their row sums add in agent order
    vals = nn.forward_batch(target.agents, next_obs)
    next_chosen = vals.max(axis=-1).T.copy()
    if hypernet is None:
        next_q = next_chosen.sum(axis=1)
    else:
        hyper_out = nn.forward_batch(target.hypernet, encs[:, 1])
        next_q = (np.abs(hyper_out[:, :-1]) * next_chosen).sum(axis=1) + hyper_out[:, -1]
    y = rewards + cfg.gamma_train * next_q * (~done)

    vals, inputs = nn.forward_trace(policy.agents, obs)
    taken = np.arange(n)[:, None], np.arange(b), acts.T  # (agent, row, action)
    chosen = vals[taken].T.copy()
    if hypernet is None:
        q = chosen.sum(axis=1)
        weights = np.ones((b, n))
    else:
        hyper_out, hyper_inputs = nn.forward_trace(hypernet, encs[:, 0])
        weights = np.abs(hyper_out[:, :-1])
        q = (weights * chosen).sum(axis=1) + hyper_out[:, -1]

    if not (np.isfinite(q).all() and np.isfinite(y).all()):
        raise NumericalError(
            f"training diverged (non-finite TD loss) at episode {episode}"
        )

    dq = 2.0 * (q - y) / b
    grad_out = np.zeros((n, b, N_ACTIONS))
    grad_out[taken] = weights.T * dq
    split = policy.agents.params.size
    nn.reverse_sweep(policy.agents, inputs, grad_out, grad[:split].reshape(n, -1))
    if hypernet is not None:
        grad_hyper = np.empty((b, n + 1))
        grad_hyper[:, :-1] = dq[:, None] * np.sign(hyper_out[:, :-1]) * chosen
        grad_hyper[:, -1] = dq
        nn.reverse_sweep(hypernet, hyper_inputs, grad_hyper, grad[split:])
    nn.adam_step(policy.params, grad, adam)


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
    names = manifest["agent_nets"] + [manifest["hypernet"]] * (policy.hypernet is not None)
    for name, net in zip(names, policy.nets, strict=True):
        nn.checkpoint_save(net, path / name)
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    for name in names + [hyper_name] * bool(hyper_name):
        net_path = path / name
        if not net_path.is_file():
            raise MissingArtifactError(f"missing network file {net_path}")
        nets.append(nn.checkpoint_load(net_path))
    hyper = nets.pop() if hyper_name else None
    try:
        policy = JointPolicy(tuple(nets), manifest.get("mixer"), hyper)
    except ConfigError as exc:
        raise CheckpointError(f"inconsistent policy checkpoint: {exc}") from exc
    sizes = {
        "n_agents": policy.n_agents,
        "n_actions": N_ACTIONS,
        "obs_length": policy.agent_nets[0].layer_dims[0],
    }
    for key, size in sizes.items():
        value = manifest.get(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise CheckpointError(f"manifest needs {key} as an integer")
        if value != size:
            raise CheckpointError(
                f"inconsistent policy checkpoint: manifest {key} is {value}, "
                f"the networks have {size}"
            )
    return policy
