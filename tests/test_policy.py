"""Tests for joint value policies, mixers, and the TD trainer."""

from pathlib import Path

import numpy as np
import pytest

import marlcert.policy as policy_module
import oracles
from marlcert import nn
from marlcert.envs import (
    N_ACTIONS,
    builtin_spec,
    episode_reward,
    observe,
    parse_grid_config,
    reset,
    step,
)
from marlcert.errors import ConfigError, MissingArtifactError, NumericalError
from marlcert.policy import (
    TRAIN_EVERY,
    JointPolicy,
    TrainConfig,
    _epsilon,
    agent_values,
    counterfactual_values,
    encode_global_state,
    greedy_joint_action,
    load_policy,
    new_policy,
    save_policy,
    state_values,
    train,
)
from marlcert.seeds import derive_seed

_CHECKERS_VDN = Path(__file__).resolve().parents[1] / "bench" / "data" / "checkers-vdn"


def _corridor():
    return parse_grid_config("map: |\n  1...a\nstep_cap: 10\n")


def _pair():
    return parse_grid_config("map: |\n  1.a\n  2.l\nstep_cap: 6\n")


def _random_policy(spec, mixer, seed):
    return new_policy(spec, mixer, rng=np.random.default_rng(seed))


def _zero_policy(spec, mixer="vdn"):
    policy = new_policy(spec, mixer, rng=np.random.default_rng(0))
    nets = tuple(
        nn.Mlp(net.layer_dims, net.activation, np.zeros_like(net.params))
        for net in policy.agent_nets
    )
    return JointPolicy(nets, policy.mixer, policy.hypernet)


def _values(policy, spec, state):
    """Every agent's values at ``state``: row n is agent n's."""
    return agent_values(policy, [observe(spec, state, n) for n in range(policy.n_agents)])


def test_agent_values_match_forward():
    spec = _pair()
    policy = _random_policy(spec, "vdn", 1)
    state = reset(spec)
    obs = observe(spec, state, 1)
    expected = nn.forward(policy.agent_nets[1], obs)
    assert np.array_equal(_values(policy, spec, state)[1], expected)


@pytest.mark.parametrize("case", ["checkers-vdn", "qmix_mono-4"])
def test_agent_values_equal_each_nets_forward(case):
    # the stacked pass against each agent's own single-row pass, bit for bit
    if case == "checkers-vdn":
        policy, spec = load_policy(_CHECKERS_VDN), builtin_spec("checkers")
    else:
        spec = parse_grid_config("map: |\n  1.a.2\n  ....l\n  3..4.\nstep_cap: 6\n")
        policy = _random_policy(spec, "qmix_mono", 37)
        assert policy.n_agents == 4
    rng = np.random.default_rng(3)
    state = reset(spec)
    while not state.done:
        obs = np.array([observe(spec, state, n) for n in range(policy.n_agents)])
        values = agent_values(policy, obs)
        assert values.shape == (policy.n_agents, N_ACTIONS)
        for n, net in enumerate(policy.agent_nets):
            assert np.array_equal(values[n], nn.forward(net, obs[n]))
        joint = tuple(rng.integers(0, N_ACTIONS, policy.n_agents).tolist())
        state = step(spec, state, joint).next_state


def test_agent_values_dimension_mismatch():
    spec = _pair()
    policy = _random_policy(spec, "vdn", 1)
    with pytest.raises(ValueError):
        agent_values(policy, np.zeros((2, 3)))
    with pytest.raises(ValueError):  # three observations for two agents
        agent_values(policy, np.zeros((3, policy.agents.layer_dims[0])))


def test_zero_net_values_and_tie_rule():
    spec = _pair()
    policy = _zero_policy(spec)
    state = reset(spec)
    assert np.array_equal(_values(policy, spec, state), np.zeros((2, 5)))
    assert greedy_joint_action(policy, spec, state) == (0, 0)


def test_greedy_matches_per_agent_argmax():
    spec = _pair()
    rng = np.random.default_rng(7)
    for trial in range(20):
        policy = _random_policy(spec, "vdn", 100 + trial)
        state = reset(spec)
        for _ in range(int(rng.integers(0, 3))):
            out = step(spec, state, tuple(int(a) for a in rng.integers(0, 5, 2)))
            if out.done:
                break
            state = out.next_state
        joint = greedy_joint_action(policy, spec, state)
        for n in range(2):
            values = _values(policy, spec, state)[n]
            assert joint[n] == int(np.argmax(values))


def test_greedy_decentralized():
    # moving an item near agent 0 must not change agent 1's pick
    spec = parse_grid_config("map: |\n  1.a\n  ...\n  2..\nstep_cap: 9\n")
    policy = _random_policy(spec, "vdn", 3)
    s1 = reset(spec)
    out = step(spec, s1, (3, 4))  # agent 0 (at (1,0) after move) nears apple
    s2 = out.next_state
    before = greedy_joint_action(policy, spec, s1)[1]
    after = greedy_joint_action(policy, spec, s2)[1]
    values1 = _values(policy, spec, s1)[1]
    values2 = _values(policy, spec, s2)[1]
    if np.array_equal(values1, values2):
        assert before == after


def _team_value(values, action):
    """The oracle's exact team value of ``action``, rounded to a float."""
    return float(oracles.team_value(values.per_agent, values.mixer_out, action))


def test_vdn_team_value_sums_values():
    spec = _pair()
    policy = _random_policy(spec, "vdn", 11)
    state = reset(spec)
    action = (2, 4)
    expected = sum(
        _values(policy, spec, state)[n][action[n]]
        for n in range(2)
    )
    values = state_values(policy, spec, state)
    assert values.weights.tolist() == [1.0, 1.0]
    for n in range(2):
        cf = counterfactual_values(values, action, n)
        assert cf[action[n]] == pytest.approx(expected, rel=1e-15)


def test_vdn_identical_agents():
    spec = _pair()
    policy = _random_policy(spec, "vdn", 5)
    nets = (policy.agent_nets[0], policy.agent_nets[0])
    policy = JointPolicy(nets, "vdn", None)
    # both agents get a copy of one net; feed them the same observation by hand
    state = reset(spec)
    obs = observe(spec, state, 0)
    v = agent_values(policy, [obs, obs])[1, 3]
    cf = counterfactual_values(state_values(policy, spec, state), (3, 3), 0)
    v0 = _values(policy, spec, state)[0][3]
    v1 = _values(policy, spec, state)[1][3]
    assert cf[3] == pytest.approx(v0 + v1, rel=1e-15)
    assert v == v0


def test_vdn_additivity_exact():
    spec = _pair()
    policy = _random_policy(spec, "vdn", 13)
    state = reset(spec)
    base = (1, 2)
    cf = counterfactual_values(state_values(policy, spec, state), base, 1)
    values = _values(policy, spec, state)[1]
    for alt in range(5):
        lhs = cf[base[1]] - cf[alt]
        assert lhs == pytest.approx(values[base[1]] - values[alt], abs=1e-12)


def test_qmix_monotone_in_agent_values():
    spec = _pair()
    for seed in range(10):
        policy = _random_policy(spec, "qmix_mono", 200 + seed)
        state = reset(spec)
        action = (0, 0)
        own = _values(policy, spec, state)[1]
        values = state_values(policy, spec, state)
        assert np.all(values.weights >= 0)
        cf = counterfactual_values(values, action, 1)
        order = np.argsort(own, kind="stable")
        diffs = np.diff(cf[order])
        assert np.all(diffs >= -1e-12)


def test_counterfactual_identity_slot():
    spec = _pair()
    for mixer in ("vdn", "qmix_mono"):
        policy = _random_policy(spec, mixer, 17)
        state = reset(spec)
        action = (3, 1)
        values = state_values(policy, spec, state)
        for n in range(2):
            cf = counterfactual_values(values, action, n)
            assert cf[action[n]] == pytest.approx(
                _team_value(values, action), rel=1e-14, abs=1e-14
            )


def test_counterfactual_matches_brute_force():
    spec = _pair()
    for mixer in ("vdn", "qmix_mono"):
        policy = _random_policy(spec, mixer, 23)
        state = reset(spec)
        action = (4, 2)
        values = state_values(policy, spec, state)
        for n in range(2):
            cf = counterfactual_values(values, action, n)
            for alt in range(5):
                joint = list(action)
                joint[n] = alt
                want = _team_value(values, tuple(joint))
                assert cf[alt] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_counterfactual_vdn_constant_offset():
    spec = _pair()
    policy = _random_policy(spec, "vdn", 29)
    state = reset(spec)
    cf = counterfactual_values(state_values(policy, spec, state), (0, 0), 0)
    own = _values(policy, spec, state)[0]
    offsets = cf - own
    assert np.allclose(offsets, offsets[0], rtol=0, atol=1e-12)


def test_encode_global_state():
    spec = parse_grid_config("map: |\n  1a.\n  ..2\nstep_cap: 9\n")
    state = reset(spec)
    enc = encode_global_state(spec, state)
    # positions (0,0) and (2,1) normalized over a 3x2 grid, then one bitmap
    # slot for the single apple
    assert enc.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    out = step(spec, state, (3, 4))  # agent 0 eats the apple
    enc2 = encode_global_state(spec, out.next_state)
    assert enc2.tolist() == [0.5, 0.0, 1.0, 1.0, 0.0]


def test_checkpoint_round_trip(tmp_path):
    spec = _pair()
    for mixer in ("vdn", "qmix_mono"):
        policy = _random_policy(spec, mixer, 31)
        path = tmp_path / mixer
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.mixer == mixer
        state = reset(spec)
        loaded_values = state_values(loaded, spec, state)
        values = state_values(policy, spec, state)
        assert np.array_equal(loaded_values.per_agent, values.per_agent)
        assert np.array_equal(loaded_values.weights, values.weights)
        for n in range(2):
            assert np.array_equal(
                counterfactual_values(loaded_values, (1, 3), n),
                counterfactual_values(values, (1, 3), n),
            )


def test_stored_checkpoint_is_rewritten_byte_for_byte(tmp_path):
    # pins the manifest and network file formats: a load and a save change
    # no byte of any file
    stored = _CHECKERS_VDN
    save_policy(load_policy(stored), tmp_path / "copy")
    names = sorted(path.name for path in (tmp_path / "copy").iterdir())
    assert names == sorted(path.name for path in stored.iterdir())
    for name in names:
        assert (tmp_path / "copy" / name).read_bytes() == (stored / name).read_bytes()


def test_load_policy_missing(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_policy(tmp_path / "nope")


@pytest.mark.parametrize("value", [True, 2.5, 3.0])
@pytest.mark.parametrize("name", ["episodes", "seed"])
def test_train_config_counts_must_be_integers(name, value):
    # a bool used to train, a float to fail in range() once training began
    fields = {**dict(episodes=3, seed=4), name: value}
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        TrainConfig(**fields)


@pytest.mark.parametrize("value", [True, "0.5", None, 10**400])
@pytest.mark.parametrize("name", ["learning_rate", "gamma_train", "obs_noise"])
def test_train_config_rates_must_be_real_numbers(name, value):
    # checked before the ranges: True used to train at 1, and a string or
    # None to raise a bare TypeError
    fields = {**dict(episodes=3, seed=4), name: value}
    with pytest.raises(ConfigError, match=f"{name} must be a real number"):
        TrainConfig(**fields)


def test_train_config_reads_numpy_reals_as_floats():
    cfg = TrainConfig(
        episodes=3, seed=4, learning_rate=np.float32(0.5), gamma_train=np.float64(0.9), obs_noise=0
    )
    assert (cfg.learning_rate, cfg.gamma_train, cfg.obs_noise) == (0.5, 0.9, 0.0)
    assert all(type(v) is float for v in (cfg.learning_rate, cfg.gamma_train, cfg.obs_noise))


def test_train_config_reads_numpy_integers_as_ints():
    cfg = TrainConfig(episodes=np.int64(3), seed=np.int64(4))
    assert (cfg.episodes, cfg.seed) == (3, 4)
    assert cfg.init_seed() == TrainConfig(episodes=3, seed=4).init_seed()


def test_train_zero_episodes_returns_init():
    spec = _corridor()
    cfg = TrainConfig(episodes=0, seed=9)
    policy = train(spec, cfg, "vdn")
    fresh = new_policy(
        spec, "vdn", rng=np.random.default_rng(cfg.init_seed())
    )
    state = reset(spec)
    assert np.array_equal(_values(policy, spec, state), _values(fresh, spec, state))


def test_train_deterministic(tmp_path):
    spec = _corridor()
    cfg = TrainConfig(episodes=30, seed=4)
    save_policy(train(spec, cfg, "vdn"), tmp_path / "a")
    save_policy(train(spec, cfg, "vdn"), tmp_path / "b")
    for name in ("manifest.json", "agent_0.mlp"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_train_solves_corridor():
    spec = _corridor()
    cfg = TrainConfig(episodes=300, seed=2)
    policy = train(spec, cfg, "vdn")

    def act(spec_, state_):
        return greedy_joint_action(policy, spec_, state_)

    assert episode_reward(spec, act) == 10.0


def test_train_divergence_reported():
    spec = _corridor()
    cfg = TrainConfig(episodes=50, seed=1, learning_rate=1e280)
    with pytest.raises(NumericalError):
        train(spec, cfg, "vdn")


# --- the tuple-replay trainer, kept as the reference for `train` ---


def _tuple_replay_train(spec, cfg, mixer):
    policy = new_policy(spec, mixer, np.random.default_rng(cfg.init_seed()))
    target = new_policy(spec, mixer, np.random.default_rng(cfg.init_seed()))
    params, target_params = policy.params, target.params
    rng = np.random.default_rng(derive_seed(cfg.seed, "train"))
    adam = nn.adam_init(params, cfg.learning_rate)
    n = policy.n_agents
    replay = []
    write_at = 0
    env_steps = 0
    updates = 0
    for episode in range(cfg.episodes):
        state = reset(spec)
        eps = _epsilon(cfg, episode)
        while not state.done:
            obs = np.stack([observe(spec, state, i) for i in range(n)])
            actions = []
            for i in range(n):
                if rng.random() < eps:
                    actions.append(int(rng.integers(0, N_ACTIONS)))
                else:
                    actions.append(
                        int(np.argmax(nn.forward(policy.agent_nets[i], obs[i])))
                    )
            actions = tuple(actions)
            out = step(spec, state, actions)
            nxt = out.next_state
            entry = (
                obs,
                actions,
                out.team_reward,
                np.stack([observe(spec, nxt, i) for i in range(n)]),
                encode_global_state(spec, state),
                encode_global_state(spec, nxt),
                out.done,
            )
            if len(replay) < policy_module.REPLAY_CAPACITY:
                replay.append(entry)
            else:
                replay[write_at] = entry
                write_at = (write_at + 1) % policy_module.REPLAY_CAPACITY
            env_steps += 1
            state = nxt
            if env_steps % TRAIN_EVERY or len(replay) < policy_module.BATCH_SIZE:
                continue
            picks = rng.integers(0, len(replay), policy_module.BATCH_SIZE)
            batch = [replay[int(i)] for i in picks]
            if cfg.obs_noise > 0:
                batch = [
                    (
                        o + rng.standard_normal(o.shape) * cfg.obs_noise,
                        a,
                        r,
                        no + rng.standard_normal(no.shape) * cfg.obs_noise,
                        gs,
                        gsn,
                        d,
                    )
                    for (o, a, r, no, gs, gsn, d) in batch
                ]
            _tuple_td_update(policy, target, params, adam, batch, cfg)
            updates += 1
            if updates % policy_module.TARGET_SYNC == 0:
                target_params[:] = params
    return policy, updates


def _tuple_td_update(policy, target, params, adam, batch, cfg):
    b = len(batch)
    n = policy.n_agents
    obs = np.stack([e[0] for e in batch])
    acts = np.array([e[1] for e in batch])
    rewards = np.array([e[2] for e in batch])
    next_obs = np.stack([e[3] for e in batch])
    encs = np.stack([e[4] for e in batch])
    next_encs = np.stack([e[5] for e in batch])
    done = np.array([bool(e[6]) for e in batch])

    next_chosen = np.empty((b, n))
    for i in range(n):
        vals = nn.forward_batch(target.agent_nets[i], next_obs[:, i, :])
        next_chosen[:, i] = vals.max(axis=1)
    if policy.mixer == "vdn":
        next_q = next_chosen.sum(axis=1)
    else:
        hyper_out = nn.forward_batch(target.hypernet, next_encs)
        next_q = (np.abs(hyper_out[:, :-1]) * next_chosen).sum(axis=1) + hyper_out[:, -1]
    y = rewards + cfg.gamma_train * next_q * (~done)

    chosen = np.empty((b, n))
    for i in range(n):
        vals = nn.forward_batch(policy.agent_nets[i], obs[:, i, :])
        chosen[:, i] = vals[np.arange(b), acts[:, i]]
    if policy.mixer == "vdn":
        q = chosen.sum(axis=1)
        weights = np.ones((b, n))
    else:
        hyper_out = nn.forward_batch(policy.hypernet, encs)
        weights = np.abs(hyper_out[:, :-1])
        q = (weights * chosen).sum(axis=1) + hyper_out[:, -1]

    dq = 2.0 * (q - y) / b
    grads = []
    for i in range(n):
        grad_out = np.zeros((b, N_ACTIONS))
        grad_out[np.arange(b), acts[:, i]] = dq * weights[:, i]
        grads.append(nn.backward_batch(policy.agent_nets[i], obs[:, i, :], grad_out)[0])
    if policy.mixer == "qmix_mono":
        grad_hyper = np.empty((b, n + 1))
        grad_hyper[:, :-1] = dq[:, None] * np.sign(hyper_out[:, :-1]) * chosen
        grad_hyper[:, -1] = dq
        grads.append(nn.backward_batch(policy.hypernet, encs, grad_hyper)[0])
    nn.adam_step(params, np.concatenate(grads), adam)


@pytest.mark.parametrize("obs_noise", [0.0, 0.1])
@pytest.mark.parametrize("mixer", ["vdn", "qmix_mono"])
@pytest.mark.parametrize("grid", ["checkers", "switch"])
def test_train_matches_tuple_replay_reference(grid, mixer, obs_noise, monkeypatch):
    spec = builtin_spec(grid)
    # more than 100 updates take more than 400 transitions, so the 96-entry
    # ring wraps several times and the target network syncs at least 4 times
    monkeypatch.setattr(policy_module, "REPLAY_CAPACITY", 96)
    monkeypatch.setattr(policy_module, "TARGET_SYNC", 25)
    cfg = TrainConfig(episodes=60, seed=5, gamma_train=0.7, obs_noise=obs_noise)
    want, updates = _tuple_replay_train(spec, cfg, mixer)
    assert updates > 4 * policy_module.TARGET_SYNC
    got = train(spec, cfg, mixer)
    nets_want = list(want.agent_nets) + [want.hypernet] * (mixer == "qmix_mono")
    nets_got = list(got.agent_nets) + [got.hypernet] * (mixer == "qmix_mono")
    for a, b in zip(nets_want, nets_got, strict=True):
        for x, y in zip(a.weights + a.biases, b.weights + b.biases, strict=True):
            assert np.array_equal(x, y)
