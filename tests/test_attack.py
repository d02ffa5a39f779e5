"""Tests for the l2-bounded observation attacks and certificate validation."""

import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from marlcert import attack, nn, smoothing
from marlcert.attack import (
    AttackConfig,
    _smoothed_modal,
    attacked_rollout,
    pgd_attack_batch,
    pgd_attack_state,
    validate_certificates,
)
from marlcert.certify import certify_trajectory, crsc, decide, tcrgr
from marlcert.envs import builtin_spec, observe, parse_grid_config, reset, step
from marlcert.errors import ConfigError
from marlcert.policy import JointPolicy, load_policy
from marlcert.seeds import derive_seed
from marlcert.smoothing import NoiseConfig

_NULL_COMPONENT = 20
_CHECKERS_VDN = Path(__file__).resolve().parents[1] / "bench" / "data" / "checkers-vdn"


def _noise(**kw):
    base = dict(sigma=0.05, samples=200, alpha=0.05, seed=23)
    base.update(kw)
    return NoiseConfig(**base)


def _cfg(**kw):
    base = dict(noise=_noise(), steps=20, restarts=3)
    base.update(kw)
    return AttackConfig(**base)


def _const_net(obs_len, values):
    w = np.zeros((5, obs_len))
    return nn.Mlp((obs_len, 5), "relu", oracles.mlp_params((obs_len, 5), [w], [values]))


def _const_like(net, values):
    """A net of ``net``'s shape that outputs ``values`` at every input."""
    const = nn.Mlp(net.layer_dims, net.activation, np.zeros_like(net.params))
    const.biases[-1][...] = values
    return const


def _flip_net(obs_len):
    w = np.zeros((5, obs_len))
    w[0, _NULL_COMPONENT] = 1.0
    w[1, _NULL_COMPONENT] = -1.0
    b = np.full(5, -10.0)
    b[0] = 0.0
    b[1] = 0.0
    return nn.Mlp((obs_len, 5), "relu", oracles.mlp_params((obs_len, 5), [w], [b]))


def _policy(nets):
    return JointPolicy(tuple(nets), "vdn", None)


def _spec2():
    return parse_grid_config("map: |\n  1.a\n  2.l\nstep_cap: 6\n")


def _random_net(seed, hidden, activation, scale=1.0):
    rng = np.random.default_rng(seed)
    net = nn.mlp_init((47, *hidden, 5), activation, rng)
    for W, b in zip(net.weights, net.biases):
        W *= scale
        b[...] = rng.normal(0.0, 0.5, size=b.shape)
    return net


def _linear_net(seed, bias):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, size=(5, 47))
    return nn.Mlp((47, 5), "relu", oracles.mlp_params((47, 5), [w], [bias]))


def _gated_net(seed):
    """Two relu units that are off on the clean observation.

    Restart 0 and the restarts that start with both units off have a
    zero input gradient and stop at once, the rest climb toward action
    0, and only some seeds flip: every branch of a batch at once.
    """
    rng = np.random.default_rng(seed)
    w1 = np.zeros((2, 47))
    w1[:, _NULL_COMPONENT : _NULL_COMPONENT + 6] = rng.normal(size=(2, 6))
    w2 = np.zeros((5, 2))
    w2[0] = 3.0
    b2 = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    params = oracles.mlp_params((47, 2, 5), [w1, w2], [np.full(2, -0.3), b2])
    return nn.Mlp((47, 2, 5), "relu", params)


def _assert_matches_reference(policy, spec, state, agent, cfg, epsilon, seeds):
    """Batched PGD against the sequential single-row oracle, per seed."""
    net = policy.agent_nets[agent]
    base = observe(spec, state, agent)
    clean = _smoothed_modal(policy, spec, state, agent, cfg.noise)

    def judge(delta):
        return _smoothed_modal(policy, spec, state, agent, cfg.noise, delta)

    (results,) = pgd_attack_batch(policy, spec, state, agent, cfg, [(epsilon, seeds)])
    assert len(results) == len(seeds)
    for seed, result in zip(seeds, results):
        want_delta, want_flipped = oracles.pgd_single_row(
            net.weights,
            net.biases,
            net.activation,
            base,
            clean,
            epsilon,
            cfg.steps,
            2.5 * epsilon / cfg.steps,
            cfg.restarts,
            derive_seed(seed, "pgd", state.step_count, agent),
            judge,
        )
        assert result.flipped is want_flipped
        assert np.allclose(result.delta, want_delta, rtol=0.0, atol=1e-12)
        assert result.action == judge(result.delta)
        assert (result.action != clean) is want_flipped
    return results


def _attack_fragile(epsilon):
    spec = _spec2()
    policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
    return pgd_attack_state(policy, spec, reset(spec), 0, _cfg(), epsilon, 7)


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(steps=0)
        with pytest.raises(ValueError):
            _cfg(restarts=0)
        # the budget is checked by the attack that receives it
        with pytest.raises(ValueError):
            _attack_fragile(-0.1)

    def test_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            _cfg(steps=0)
        for epsilon in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                _attack_fragile(epsilon)


class TestPgdAttackState:
    def test_zero_budget_is_identity(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        result = pgd_attack_state(policy, spec, reset(spec), 0, _cfg(), 0.0, 7)
        assert result.flipped is False
        assert result.action == _smoothed_modal(policy, spec, reset(spec), 0, _noise())
        assert result.delta.shape == (47,)
        assert not result.delta.any()

    def test_budget_respected_after_every_projection(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        for eps in (0.01, 0.3, 2.0):
            result = pgd_attack_state(
                policy, spec, reset(spec), 0, _cfg(steps=30, restarts=4), eps, 7
            )
            assert np.linalg.norm(result.delta) <= eps * (1 + 1e-12)

    def test_linear_margin_first_step_direction(self):
        # hand-derived: for a linear net the margin gradient is the row
        # difference W[runner] - W[modal], independent of the input
        spec = parse_grid_config("map: |\n  1..\nstep_cap: 4\n")
        w = np.zeros((5, 47))
        w[0, 5] = 0.2
        w[1, 7] = -0.4
        b = np.array([1.0, 0.9, -5.0, -5.0, -5.0])
        net = nn.Mlp((47, 5), "relu", oracles.mlp_params((47, 5), [w], [b]))
        policy = _policy([net])
        cfg = AttackConfig(noise=_noise(sigma=0.01), steps=1, restarts=1)
        result = pgd_attack_state(policy, spec, reset(spec), 0, cfg, 0.1, 3)
        # the one step of 2.5 * epsilon leaves the ball; projecting it back
        # keeps its direction
        g = w[1] - w[0]
        want = 0.1 * g / np.linalg.norm(g)
        assert np.allclose(result.delta, want, atol=1e-12)

    def test_flips_fragile_agent_with_large_budget(self):
        result = _attack_fragile(1.0)
        assert result.flipped is True
        assert result.action != _attack_fragile(0.0).action

    def test_certified_agent_resists_in_ball_attacks(self):
        spec = _spec2()
        policy = _policy(
            [
                _const_net(47, [1.0, 3.0, 0.0, 0.0, 0.0]),
                _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0]),
            ]
        )
        noise = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=17)
        certs = certify_trajectory(policy, spec, noise)
        cert = certs[0]
        assert 0 in cert.certified_set
        d = cert.per_agent_radius[0]
        cfg = AttackConfig(noise=noise, steps=20, restarts=3)
        for trial in range(20):
            result = pgd_attack_state(policy, spec, cert.state, 0, cfg, d, 100 + trial)
            assert result.flipped is False


class TestPgdStep:
    @pytest.mark.parametrize(
        "net",
        [
            _linear_net(3, [1.0, 0.9, -5.0, -5.0, -5.0]),
            _random_net(5, (16,), "relu"),
            _random_net(7, (16, 8), "relu"),
            _random_net(6, (16, 8), "tanh", scale=3.0),
        ],
        ids=["linear", "relu", "relu2", "tanh"],
    )
    def test_one_forward_gives_the_values_and_the_input_gradient(self, net):
        rng = np.random.default_rng(11)
        X = rng.normal(0.0, 1.0, size=(21, 47))
        values, inputs = nn.forward_trace(net, X)
        assert np.array_equal(values, nn.forward_batch(net, X))
        G = np.zeros_like(values)
        G[np.arange(21), rng.integers(1, 5, size=21)] = 1.0
        G[:, 0] = -1.0
        got = nn.reverse_sweep(net, inputs, G)
        assert np.array_equal(got, nn.backward_batch(net, X, G)[1])


class TestPgdAttackBatch:
    @pytest.mark.parametrize(
        "net",
        [
            _flip_net(47),
            _linear_net(3, [1.0, 0.9, -5.0, -5.0, -5.0]),
            _random_net(5, (16,), "relu"),
            _random_net(6, (16, 8), "tanh", scale=3.0),
            _gated_net(2),
        ],
        ids=["flip", "linear", "relu", "tanh", "gated"],
    )
    def test_matches_single_row_reference_on_toy_nets(self, net):
        spec = _spec2()
        other = _const_like(net, [2.0, 0.5, 0.0, 0.0, 0.0])
        policy = _policy([net, other])
        state = step(spec, reset(spec), (3, 0)).next_state
        seeds = [40 + trial for trial in range(5)]
        for eps in (0.05, 0.5, 2.0):
            results = _assert_matches_reference(
                policy, spec, state, 0, _cfg(restarts=3), eps, seeds
            )
            for result in results:
                assert np.linalg.norm(result.delta) <= eps * (1 + 1e-12)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_matches_single_row_reference_on_stored_checkpoint(self, scale):
        policy = load_policy(str(_CHECKERS_VDN))
        spec = builtin_spec("checkers")
        noise = NoiseConfig(
            sigma=0.06, samples=1000, alpha=0.01, seed=derive_seed(1, "smoothing")
        )
        certificates = certify_trajectory(policy, spec, noise)
        cfg = AttackConfig(noise=noise, steps=30, restarts=2)
        flips = 0
        batches = 0
        for cert in certificates:
            for agent in sorted(cert.certified_set):
                epsilon = scale * cert.per_agent_radius[agent]
                seeds = [
                    derive_seed(23, "validate", cert.step_index, agent, trial)
                    for trial in range(20)
                ]
                results = _assert_matches_reference(
                    policy, spec, cert.state, agent, cfg, epsilon, seeds
                )
                flips += sum(result.flipped for result in results)
                batches += 1
        assert batches > 0
        if scale == 1.0:
            assert flips == 0
        else:
            assert flips > 0  # the contrast exercises the flip path

    def test_constant_net_rows_stay_at_their_starts(self, monkeypatch):
        spec = _spec2()
        policy = _policy([_const_net(47, [1.0, 3.0, 0.0, 0.0, 0.0])] * 2)
        calls = Counter()
        reverse_sweep = nn.reverse_sweep

        def counting(net, inputs, G):
            calls[len(G)] += 1
            return reverse_sweep(net, inputs, G)

        monkeypatch.setattr(nn, "reverse_sweep", counting)
        (results,) = pgd_attack_batch(
            policy, spec, reset(spec), 0, _cfg(restarts=3), [(0.5, range(4))]
        )
        # one shared restart-0 row plus two own restarts per seed, all of
        # which stop at the first step with a zero input gradient
        assert calls == Counter({1 + 4 * 2: 1})
        assert len(results) == 4
        for result in results:
            assert result.flipped is False
            assert result.action == 1
            assert not result.delta.any()


def _same_results(got, want, atol=0.0):
    """Per budget, the same actions and flips, and deltas that differ by
    at most ``atol`` (bit for bit at the default 0)."""
    return len(got) == len(want) and all(
        len(g) == len(w)
        and all(
            np.allclose(a.delta, b.delta, rtol=0.0, atol=atol)
            and (a.action, a.flipped) == (b.action, b.flipped)
            for a, b in zip(g, w)
        )
        for g, w in zip(got, want)
    )


def _budget_cases(name):
    """A policy, its spec, some states and a budget r for agent 0."""
    if name == "checkers-vdn":
        policy, spec, _ = _checkers_vdn(200)
        return policy, spec, _random_states(spec, policy.n_agents, 4, 3), 0.2
    net = {
        "relu": _random_net(5, (16,), "relu"),
        "tanh": _random_net(6, (16, 8), "tanh", scale=3.0),
        "gated": _gated_net(2),
    }[name]
    spec = _spec2()
    policy = _policy([net, _const_like(net, [2.0, 0.5, 0.0, 0.0, 0.0])])
    return policy, spec, [step(spec, reset(spec), (3, 0)).next_state], 0.5


class TestBudgetBatch:
    """Several budgets in one PGD batch against one batch per budget."""

    @pytest.mark.parametrize("restarts", [1, 2, 3])
    @pytest.mark.parametrize("name", ["relu", "tanh", "gated", "checkers-vdn"])
    def test_budgets_together_equal_budgets_alone(self, name, restarts):
        policy, spec, states, r = _budget_cases(name)
        cfg = _cfg(noise=_noise(sigma=0.06), steps=10, restarts=restarts)
        flipped = set()
        for state in states:
            seeds = [
                [derive_seed(3, "budget", scale, trial) for trial in range(4)]
                for scale in (1, 2)
            ]
            for epsilons in ((r, 2 * r), (0.0, r)):
                budgets = list(zip(epsilons, seeds))
                together = pgd_attack_batch(policy, spec, state, 0, cfg, budgets)
                alone = [
                    pgd_attack_batch(policy, spec, state, 0, cfg, [budget])[0]
                    for budget in budgets
                ]
                if restarts == 1 and 0.0 not in epsilons:
                    # alone, each budget is its one restart-0 row, which
                    # numpy multiplies as a matrix-vector product, rounded
                    # otherwise than the two-row batch's matrix product
                    assert _same_results(together, alone, atol=1e-12)
                else:
                    assert _same_results(together, alone)
                flipped |= {result.flipped for results in together for result in results}
        assert False in flipped
        # the gated net's restart 0 cannot move, so only its random
        # restarts flip
        if name == "checkers-vdn" or name == "gated" and restarts > 1:
            assert True in flipped

    def test_each_budget_keeps_its_error_and_zero_answer(self):
        policy, spec, (state,), r = _budget_cases("relu")
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                pgd_attack_batch(policy, spec, state, 0, _cfg(), [(r, [1]), (bad, [2])])
        clean = _smoothed_modal(policy, spec, state, 0, _cfg().noise)
        budgets = [(0.0, [1, 2]), (r, [])]
        zero, empty = pgd_attack_batch(policy, spec, state, 0, _cfg(), budgets)
        assert empty == ()
        assert [(result.action, result.flipped) for result in zero] == [(clean, False)] * 2
        assert not any(result.delta.any() for result in zero)

    @pytest.mark.parametrize("name", ["relu", "tanh", "gated", "checkers-vdn"])
    def test_pgd_rows_equal_the_gathering_loop(self, name):
        policy, spec, states, r = _budget_cases(name)
        net = policy.agent_nets[0]
        rng = np.random.default_rng(17)
        stopped = 0
        for state in states:
            base = observe(spec, state, 0)
            clean = _smoothed_modal(policy, spec, state, 0, _noise(sigma=0.06))
            blocks = []
            for epsilon in (r, 2 * r, 0.01):
                starts = rng.standard_normal((5, base.size))
                starts /= np.linalg.norm(starts, axis=1)[:, None]
                starts *= epsilon * rng.random((5, 1))
                starts[0] = 0.0  # restart 0, where the gated net's gradient vanishes
                want = oracles.pgd_rows_gathered(
                    nn, net, base, starts.copy(), clean, 10, epsilon
                )
                got = attack._pgd_rows(
                    net, base, starts.copy(), clean, 10, np.full(5, epsilon)
                )
                assert np.array_equal(got, want)
                blocks.append((starts, epsilon, want))
                stopped += int((want == starts).all(axis=1).sum())
            together = attack._pgd_rows(
                net,
                base,
                np.concatenate([starts for starts, _, _ in blocks]),
                clean,
                10,
                np.repeat([epsilon for _, epsilon, _ in blocks], 5),
            )
            assert np.array_equal(together, np.concatenate([want for _, _, want in blocks]))
        assert (stopped > 0) is (name == "gated")


class TestAttackedRollout:
    def test_zero_budget_matches_clean_smoothed_rollout(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        (result,) = attacked_rollout(policy, spec, _cfg(), 0.0, [7])
        assert result.attacked_reward == 10.0
        assert result.flipped == (False,)

    def test_reward_at_certified_budget_stays_above_bound(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        noise = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=17)
        bound = tcrgr(policy, spec, noise)
        cfg = AttackConfig(noise=noise, steps=20, restarts=3)
        (result,) = attacked_rollout(policy, spec, cfg, bound.epsilon_cert, [11])
        assert result.attacked_reward >= bound.r_min

    def test_one_smoothed_decision_per_judged_row(self, monkeypatch):
        spec = parse_grid_config(
            "map: |\n  1..a\n  2...\nstep_cap: 4\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy(
            [_linear_net(1, [0.0, 0.0, 0.0, 1.0, 0.0]), _linear_net(2, [0.0, 1.0, 0.0, 0.0, 0.0])]
        )
        setups, clean, rows = _counting_votes(monkeypatch)
        (result,) = attacked_rollout(policy, spec, _cfg(restarts=3), 0.05, [7])
        assert result.flipped == (False, False)
        # one vote set-up per batch, the clean vote, then one vote per
        # restart end point; the action executed is the attack's own, not
        # a further vote
        steps = 1 + max(t for t, _ in setups)
        assert steps > 1
        keys = [(t, n) for t in range(steps) for n in range(2)]
        assert setups == clean == Counter(keys)
        assert rows == Counter({key: 3 for key in keys})


def _counting_votes(monkeypatch):
    """Count, per (step, agent), the vote set-ups, the clean votes and the
    votes on shifted observations."""
    setups, clean, rows = Counter(), Counter(), Counter()
    inner = attack._voter

    def counting(policy, state, agent, noise, base):
        key = state.step_count, agent
        setups[key] += 1
        vote = inner(policy, state, agent, noise, base)

        def counted(delta=None):
            (clean if delta is None else rows)[key] += 1
            return vote(delta)

        return counted

    monkeypatch.setattr(attack, "_voter", counting)
    return setups, clean, rows


def _checkers_vdn(samples):
    policy = load_policy(str(_CHECKERS_VDN))
    spec = builtin_spec("checkers")
    noise = NoiseConfig(
        sigma=0.06, samples=samples, alpha=0.01, seed=derive_seed(1, "smoothing")
    )
    return policy, spec, noise


def _recording_batches(monkeypatch):
    """Record the (state, agent, seeds) of every ``pgd_attack_batch`` call."""
    calls = []
    inner = attack.pgd_attack_batch

    def recording(policy, spec, state, agent, cfg, budgets):
        ((_, seeds),) = budgets  # a rollout attacks at one budget
        calls.append((state, agent, tuple(seeds)))
        return inner(policy, spec, state, agent, cfg, budgets)

    monkeypatch.setattr(attack, "pgd_attack_batch", recording)
    return calls


class TestLockstepRollouts:
    SEEDS = [derive_seed(1, "validate-rollout", trial) for trial in range(8)]

    def _split_run(self, monkeypatch):
        # one PGD step with two random restarts at 0.35: restart 0 stops
        # short of a flip at some states, and the seeds' own restarts
        # do not all agree, so the episodes part ways
        policy, spec, noise = _checkers_vdn(200)
        cfg = AttackConfig(noise=noise, steps=1, restarts=3)
        calls = _recording_batches(monkeypatch)
        lockstep = attacked_rollout(policy, spec, cfg, 0.35, self.SEEDS)
        monkeypatch.undo()
        return policy, spec, cfg, 0.35, lockstep, calls

    @pytest.mark.parametrize("budget", ["epsilon_cert", "split"])
    def test_matches_one_seed_rollouts_on_stored_checkpoint(self, monkeypatch, budget):
        if budget == "split":
            policy, spec, cfg, epsilon, lockstep, calls = self._split_run(monkeypatch)
        else:
            policy, spec, noise = _checkers_vdn(200)
            cfg = AttackConfig(noise=noise, steps=30, restarts=2)
            epsilon = tcrgr(policy, spec, noise).epsilon_cert
            calls = _recording_batches(monkeypatch)
            lockstep = attacked_rollout(policy, spec, cfg, epsilon, self.SEEDS)
            monkeypatch.undo()
        alone = [attacked_rollout(policy, spec, cfg, epsilon, [seed]) for seed in self.SEEDS]
        assert len(lockstep) == len(self.SEEDS)
        assert [(result,) for result in lockstep] == alone
        groups = Counter((state.step_count, agent) for state, agent, _ in calls)
        assert (max(groups.values()) > 1) is (budget == "split")
        # the split episodes end apart, so a result handed to the wrong
        # trial shows
        assert (len({result.attacked_reward for result in lockstep}) > 1) is (
            budget == "split"
        )

    def test_one_batch_per_step_state_and_agent(self, monkeypatch):
        policy, _, _, _, _, calls = self._split_run(monkeypatch)
        assert len({(state, agent) for state, agent, _ in calls}) == len(calls)
        by_step = {}
        for state, agent, seeds in calls:
            by_step.setdefault((state.step_count, agent), []).append(seeds)
        assert any(len(groups) > 1 for groups in by_step.values())
        steps = 1 + max(t for t, _ in by_step)
        assert set(by_step) == {(t, n) for t in range(steps) for n in range(policy.n_agents)}
        for groups in by_step.values():
            seeds = [seed for group in groups for seed in group]
            # each live episode is in exactly one group, and a group
            # keeps the episodes in trial order
            assert sorted(seeds) == sorted(self.SEEDS)
            for group in groups:
                assert list(group) == [s for s in self.SEEDS if s in group]


class TestValidateCertificates:
    def _setup(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        noise = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=17)
        certs = certify_trajectory(policy, spec, noise)
        bound = tcrgr(policy, spec, noise)
        cfg = AttackConfig(noise=noise, steps=15, restarts=2)
        return spec, policy, certs, bound, cfg

    def test_no_in_ball_flips_and_totals(self):
        spec, policy, certs, bound, cfg = self._setup()
        cfg = dataclasses.replace(cfg, trials=3, rollout_trials=2)
        report = validate_certificates(policy, spec, certs, bound, cfg, 9)
        assert report.states_checked == 3
        assert report.agents_checked == 3
        assert report.in_ball_trials == 3 * 3
        assert report.in_ball_flips == 0
        assert report.contrast_trials == 3 * 3
        assert report.rmin_violated is False
        assert len(report.rollout_rewards) == 2
        for reward in report.rollout_rewards:
            assert reward >= bound.r_min

    def test_one_batch_per_certified_state_and_agent(self, monkeypatch):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_linear_net(4, [0.0, 0.0, 0.0, 1.0, 0.0])])
        noise = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=17)
        certs = certify_trajectory(policy, spec, noise)
        bound = tcrgr(policy, spec, noise)
        checked = [(c.step_index, n) for c in certs for n in sorted(c.certified_set)]
        assert len(checked) == 3
        backward = Counter()
        batches = []
        reverse_sweep = nn.reverse_sweep
        inner_batch = attack.pgd_attack_batch

        def counting_backward(net, inputs, G):
            backward[len(G)] += 1
            return reverse_sweep(net, inputs, G)

        def recording(policy, spec, state, agent, cfg, budgets):
            batches.append((state.step_count, agent, [eps for eps, _ in budgets]))
            return inner_batch(policy, spec, state, agent, cfg, budgets)

        def no_rollouts(*args):  # so only the certificates' batches are counted
            return iter(())

        monkeypatch.setattr(nn, "reverse_sweep", counting_backward)
        monkeypatch.setattr(attack, "pgd_attack_batch", recording)
        monkeypatch.setattr(attack, "_rollout_steps", no_rollouts)
        setups, clean, rows = _counting_votes(monkeypatch)
        cfg = AttackConfig(noise=noise, steps=15, restarts=2, trials=4)
        report = validate_certificates(policy, spec, certs, bound, cfg, 9)
        assert report.in_ball_flips == report.contrast_flips == 0
        assert report.in_ball_trials == report.contrast_trials == 4 * 3
        # one batch per certified (state, agent) holds both budgets
        radius = {cert.step_index: cert.per_agent_radius[0] for cert in certs}  # one agent
        assert batches == [(t, 0, [radius[t], 2 * radius[t]]) for t, _ in checked]
        # no row freezes on this net: every batch of 2 x (1 + 4) rows
        # takes 15 steps
        assert backward == Counter({2 * (1 + 4): 15 * len(checked)})
        # a set-up and a clean vote check the certificate, then one more
        # of each serves the batch, whose every row is voted on once
        assert setups == clean == Counter({key: 1 + 1 for key in checked})
        assert rows == Counter({key: 2 * (1 + 4) for key in checked})

    def test_draws_each_address_once_in_step_order(self, monkeypatch):
        policy, spec, noise = _checkers_vdn(100)
        bound = tcrgr(policy, spec, noise)
        certs = [crsc(decision, noise) for decision in bound.clean_path]
        cfg = AttackConfig(noise=noise, steps=2, restarts=2, trials=2, rollout_trials=3)
        monkeypatch.setattr(smoothing, "_projected_noise", {})
        drawn = []
        inner_block = smoothing.gaussian_noise_block

        def counting_block(dim, sigma, seed, step_index, agent, count, out=None):
            drawn.append((step_index, agent))
            return inner_block(dim, sigma, seed, step_index, agent, count, out)

        monkeypatch.setattr(smoothing, "gaussian_noise_block", counting_block)
        report = validate_certificates(policy, spec, certs, bound, cfg, 9)
        assert report.agents_checked > 0
        assert len(report.rollout_rewards) == 3
        assert len(certs) >= 2
        # the certificates and the rollouts read each address once, and
        # no address is left for a later one
        assert len(set(drawn)) == len(drawn)
        assert drawn == sorted(drawn)
        walk = {(t, n) for t in range(len(certs)) for n in range(policy.n_agents)}
        assert walk <= set(drawn)

    def test_trials_below_one_is_a_config_error(self):
        spec, policy, certs, bound, cfg = self._setup()
        # the trial counts ride on the run's AttackConfig, which checks
        # them when it is made, before any certificate is touched
        for name in ("trials", "rollout_trials"):
            with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
                validate_certificates(
                    policy, spec, certs, bound, dataclasses.replace(cfg, **{name: 0}), 9
                )

    @pytest.mark.parametrize("trials, rollout_trials", [(2**52, 1), (1, 2**52)])
    def test_trials_that_cannot_fit_are_a_config_error(self, trials, rollout_trials):
        spec, policy, certs, bound, cfg = self._setup()
        # sized before any seed is derived: 2**52 seeds' rows are more
        # than any address space holds
        with pytest.raises(ConfigError, match=" GiB for one batch of PGD rows"):
            validate_certificates(
                policy,
                spec,
                certs,
                bound,
                dataclasses.replace(cfg, trials=trials, rollout_trials=rollout_trials),
                9,
            )

    def test_rejects_foreign_certificates(self):
        spec, policy, certs, bound, cfg = self._setup()
        other = _policy([_const_net(47, [1.0, 0.0, 0.0, 0.0, 0.0])])
        cfg = dataclasses.replace(cfg, trials=1, rollout_trials=1)
        with pytest.raises(ValueError):
            validate_certificates(other, spec, certs, bound, cfg, 9)

    def test_certificate_errors_are_config_errors(self):
        spec, policy, certs, bound, cfg = self._setup()
        other = _policy([_const_net(47, [1.0, 0.0, 0.0, 0.0, 0.0])])
        cfg = dataclasses.replace(cfg, trials=1)
        with pytest.raises(ConfigError, match="policy/noise"):
            validate_certificates(other, spec, certs, bound, cfg, 9)
        shifted = [dataclasses.replace(certs[0], step_index=1), *certs[1:]]
        with pytest.raises(ConfigError, match="step mismatch"):
            validate_certificates(policy, spec, shifted, bound, cfg, 9)


def _counted_rows(monkeypatch):
    """Count the rows of every ``nn.forward_rest`` call and keep its picks."""
    rows = []
    picks = []
    inner = nn.forward_rest

    def counting(net, Z):
        rows.append(len(Z))
        values = inner(net, Z)
        picks.append(np.argmax(values, axis=1))
        return values

    monkeypatch.setattr(nn, "forward_rest", counting)
    return rows, picks


def _counter(policy, spec, state, agent, noise):
    """The agent's observation and the smoothing module's count set up at
    its address."""
    x = observe(spec, state, agent)
    net = policy.agent_nets[agent]
    return x, smoothing._counter(net, noise, state.step_count, agent)


def _full_counts(policy, spec, state, agent, noise, delta=None):
    x, count = _counter(policy, spec, state, agent, noise)
    return count(x if delta is None else x + delta)


def _random_states(spec, n_agents, seed, count):
    """States reached by random joint actions, one per episode."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        state = reset(spec)
        for _ in range(rng.integers(0, spec.step_cap)):
            outcome = step(spec, state, tuple(rng.integers(0, 5, size=n_agents)))
            if outcome.next_state.done:
                break
            state = outcome.next_state
        states.append(state)
    return states


_VOTE_SAMPLES = (2, 3, 7, 100, 1000, 1001)


def _vote_cases(name):
    if name == "checkers-vdn":
        return load_policy(str(_CHECKERS_VDN)), builtin_spec("checkers")
    nets = {
        "relu": [_random_net(5, (16,), "relu"), _random_net(7, (16,), "relu")],
        "tanh": [_random_net(6, (16, 8), "tanh", scale=3.0), _random_net(7, (16, 8), "tanh")],
    }[name]
    return _policy(nets), _spec2()


class TestSmoothedVote:
    """The early-stopping vote against the full M-row count."""

    @pytest.mark.parametrize("sigma", [0.06, 0.5])
    @pytest.mark.parametrize("name", ["relu", "tanh", "checkers-vdn"])
    def test_vote_is_the_full_counts_argmax(self, monkeypatch, name, sigma):
        policy, spec = _vote_cases(name)
        rng = np.random.default_rng(31)
        rows, _ = _counted_rows(monkeypatch)
        stopped = 0
        for samples in _VOTE_SAMPLES:
            noise = _noise(sigma=sigma, samples=samples)
            for state in _random_states(spec, policy.n_agents, samples, 3):
                for agent in range(policy.n_agents):
                    for scale in (0.0, sigma, 3 * sigma):
                        delta = None if scale == 0.0 else scale * rng.standard_normal(47)
                        counts = _full_counts(policy, spec, state, agent, noise, delta)
                        want = int(np.argmax(counts))
                        del rows[:]
                        got = _smoothed_modal(policy, spec, state, agent, noise, delta)
                        assert got == want
                        assert sum(rows) <= samples
                        stopped += sum(rows) < samples
        assert stopped > 0

    @pytest.mark.parametrize("samples", _VOTE_SAMPLES)
    def test_unanimous_vote_stops_just_past_half(self, monkeypatch, samples):
        spec = _spec2()
        # the top two outputs are equal, so only the lowest-index rule
        # decides each row, and every row picks action 1
        tied = _const_net(47, [0.0, 2.0, 2.0, 0.0, 0.0])
        policy = _policy([tied, tied])
        noise = _noise(samples=samples)
        rows, _ = _counted_rows(monkeypatch)
        assert _smoothed_modal(policy, spec, reset(spec), 0, noise) == 1
        assert sum(rows) == max(samples // 2 + 1, samples * 51 // 100)
        assert samples / 2 < sum(rows) <= 0.51 * samples + 1
        del rows[:]
        counts = _full_counts(policy, spec, reset(spec), 1, noise)
        assert counts.tolist() == [0, samples, 0, 0, 0]
        assert rows == [samples]

    @pytest.mark.parametrize("samples", [2, 100, 1000])
    def test_tied_vote_counts_every_row(self, monkeypatch, samples):
        # action 0 or 1 by the sign of one noise component: find a seed
        # whose counts tie, so the lowest-index rule decides the vote
        spec = _spec2()
        policy = _policy([_flip_net(47), _flip_net(47)])
        for seed in range(1000):
            noise = _noise(sigma=0.5, samples=samples, seed=seed)
            counts = _full_counts(policy, spec, reset(spec), 0, noise)
            if counts[0] == counts[1]:
                break
        assert counts[0] == counts[1] == samples // 2
        rows, _ = _counted_rows(monkeypatch)
        assert _smoothed_modal(policy, spec, reset(spec), 0, noise) == 0
        assert sum(rows) == samples

    @pytest.mark.parametrize("name", ["relu", "tanh", "checkers-vdn"])
    def test_chunked_picks_equal_the_full_blocks(self, monkeypatch, name):
        policy, spec = _vote_cases(name)
        _, picks = _counted_rows(monkeypatch)
        stopped = 0
        for samples in (1000, 1001):
            for sigma in (0.06, 0.5):
                noise = _noise(sigma=sigma, samples=samples)
                cuts = [1, 333, samples // 2 + 1, 4 * samples // 5, samples]
                for state in _random_states(spec, policy.n_agents, 3, 2):
                    for agent in range(policy.n_agents):
                        x, count = _counter(policy, spec, state, agent, noise)
                        del picks[:]
                        chunked = count(x, cuts)
                        chunked_picks = np.concatenate(picks)
                        counted = cuts[len(picks) - 1]
                        del picks[:]
                        full = count(x)
                        (full_picks,) = picks
                        assert np.array_equal(chunked_picks, full_picks[:counted])
                        assert np.array_equal(
                            chunked, np.bincount(chunked_picks, minlength=5)
                        )
                        assert np.argmax(chunked) == np.argmax(full)
                        # the count stops at the first cut whose leader is settled
                        for cut in cuts[: len(cuts) - 1]:
                            *_, runner, top = np.sort(np.bincount(full_picks[:cut], minlength=5))
                            settled = top - runner > samples - cut
                            assert settled == (cut == counted)
                            if settled:
                                break
                        stopped += counted < samples
        assert stopped > 0


def _attack_step_states(spec, steps):
    """The first ``steps`` states of an episode whose one agent stays put."""
    states = [reset(spec)]
    for _ in range(steps - 1):
        states.append(step(spec, states[-1], (4,)).next_state)
    return states


class TestValidationWalk:
    """The step-interleaved walk against the two-phase reference."""

    def _checkers(self):
        # at M = 1000 the contrast attacks flip some agents
        policy, spec, noise = _checkers_vdn(1000)
        bound = tcrgr(policy, spec, noise)
        certs = [crsc(decision, noise) for decision in bound.clean_path]
        cfg = AttackConfig(noise=noise, steps=3, restarts=2)
        return policy, spec, certs, bound, cfg

    @staticmethod
    def _both(policy, spec, certs, bound, cfg, rollout_trials):
        cfg = dataclasses.replace(cfg, trials=2, rollout_trials=rollout_trials)
        got = validate_certificates(policy, spec, certs, bound, cfg, 9)
        want = oracles.validate_two_phase(attack, policy, spec, certs, bound, cfg, 9)
        assert got == want
        return got

    @pytest.mark.parametrize(
        "order", ["in_order", "reversed", "duplicates", "gaps", "empty", "outlived"]
    )
    def test_matches_two_phase_reference(self, order):
        policy, spec, certs, bound, cfg = self._checkers()
        assert len(certs) >= 4
        case = {
            "in_order": certs,
            "reversed": certs[::-1],
            "duplicates": [certs[1], certs[0], certs[1], *certs[1:]],
            "gaps": certs[::2],
            "empty": [],
            "outlived": certs[:1],  # the rollouts run on past the last one
        }[order]
        report = self._both(policy, spec, case, bound, cfg, rollout_trials=3)
        assert report.states_checked == len(case)
        assert len(report.rollout_rewards) == 3
        if order == "in_order":
            assert report.agents_checked > 0 and report.contrast_flips > 0

    def test_rollouts_that_end_before_the_last_certificate(self):
        # the agent eats the apple at step 0, which ends the rollouts,
        # while the certificates stand on states where it waited
        spec = parse_grid_config("map: |\n  1a..\nstep_cap: 6\nrewards:\n  apple: 10.0\n")
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        noise = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=17)
        bound = tcrgr(policy, spec, noise)
        certs = [
            crsc(decide(policy, spec, state, noise), noise)
            for state in _attack_step_states(spec, 4)
        ]
        cfg = AttackConfig(noise=noise, steps=2, restarts=2)
        report = self._both(policy, spec, certs, bound, cfg, rollout_trials=2)
        assert report.agents_checked == 4
        assert report.rollout_rewards == (10.0, 10.0)

    @pytest.mark.parametrize("fault", ["foreign", "step_mismatch"])
    def test_raises_what_the_reference_raises(self, fault):
        policy, spec, certs, bound, cfg = self._checkers()
        if fault == "foreign":
            other = _checkers_vdn(1000)[0]
            other.agent_nets[0].biases[-1][:] += np.array([0.0, 0.0, 0.0, 0.0, 50.0])
            policy_used = other
        else:
            certs = [*certs[:2], dataclasses.replace(certs[2], step_index=0), *certs[3:]]
            policy_used = policy
        cfg = dataclasses.replace(cfg, trials=1, rollout_trials=2)
        errors = []
        for validate in (validate_certificates, oracles.validate_two_phase):
            args = (policy_used, spec, certs, bound, cfg, 9)
            if validate is oracles.validate_two_phase:
                args = (attack, *args)
            with pytest.raises(ConfigError) as info:
                validate(*args)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
