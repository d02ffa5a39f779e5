"""Tests for the l2-bounded observation attacks and certificate validation."""

import math

import numpy as np
import pytest

from marlcert import nn
from marlcert.attack import (
    AttackConfig,
    attacked_rollout,
    pgd_attack_state,
    random_search_attack,
    validate_certificates,
)
from marlcert.certify import certify_trajectory, tcrgr
from marlcert.envs import observe, parse_grid_config, reset
from marlcert.errors import ConfigError
from marlcert.policy import JointPolicy
from marlcert.smoothing import NoiseConfig

_NULL_COMPONENT = 20


def _noise(**kw):
    base = dict(sigma=0.05, samples=200, alpha=0.05, seed=23)
    base.update(kw)
    return NoiseConfig(**base)


def _cfg(epsilon, **kw):
    base = dict(noise=_noise(), steps=20, restarts=3, seed=7)
    base.update(kw)
    return AttackConfig(epsilon=epsilon, **base)


def _const_net(obs_len, values):
    w = np.zeros((5, obs_len))
    return nn.Mlp((obs_len, 5), [w], [np.asarray(values, dtype=np.float64)], "relu")


def _flip_net(obs_len):
    w = np.zeros((5, obs_len))
    w[0, _NULL_COMPONENT] = 1.0
    w[1, _NULL_COMPONENT] = -1.0
    b = np.full(5, -10.0)
    b[0] = 0.0
    b[1] = 0.0
    return nn.Mlp((obs_len, 5), [w], [b], "relu")


def _policy(nets):
    return JointPolicy(tuple(nets), "vdn", None)


def _spec2():
    return parse_grid_config("map: |\n  1.a\n  2.l\nstep_cap: 6\n")


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(-0.1)
        with pytest.raises(ValueError):
            _cfg(0.1, steps=0)
        with pytest.raises(ValueError):
            _cfg(0.1, restarts=0)
        with pytest.raises(ValueError):
            _cfg(0.1, step_size=0.0)

    def test_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            _cfg(0.1, steps=0)
        with pytest.raises(ConfigError):
            _cfg(float("nan"))

    def test_default_step_size_scales_with_budget(self):
        cfg = AttackConfig(epsilon=0.4, noise=_noise(), steps=10)
        assert cfg.resolved_step_size() == 2.5 * 0.4 / 10
        explicit = AttackConfig(epsilon=0.4, noise=_noise(), step_size=0.01)
        assert explicit.resolved_step_size() == 0.01


class TestPgdAttackState:
    def test_zero_budget_is_identity(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        result = pgd_attack_state(policy, spec, reset(spec), 0, _cfg(0.0))
        assert result.flipped == (False, False)
        for delta in result.perturbations:
            assert not delta.any()

    def test_budget_respected_after_every_projection(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        for eps in (0.01, 0.3, 2.0):
            result = pgd_attack_state(
                policy, spec, reset(spec), 0, _cfg(eps, steps=30, restarts=4)
            )
            for delta in result.perturbations:
                assert np.linalg.norm(delta) <= eps * (1 + 1e-12)

    def test_linear_margin_first_step_direction(self):
        # hand-derived: for a linear net the margin gradient is the row
        # difference W[runner] - W[modal], independent of the input
        spec = parse_grid_config("map: |\n  1..\nstep_cap: 4\n")
        w = np.zeros((5, 47))
        w[0, 5] = 0.2
        w[1, 7] = -0.4
        b = np.array([1.0, 0.9, -5.0, -5.0, -5.0])
        net = nn.Mlp((47, 5), [w], [b], "relu")
        policy = _policy([net])
        cfg = AttackConfig(
            epsilon=0.1,
            noise=_noise(sigma=0.01),
            steps=1,
            step_size=0.05,
            restarts=1,
            seed=3,
        )
        result = pgd_attack_state(policy, spec, reset(spec), 0, cfg)
        g = w[1] - w[0]
        want = 0.05 * g / np.linalg.norm(g)
        assert np.allclose(result.perturbations[0], want, atol=1e-12)

    def test_flips_fragile_agent_with_large_budget(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        result = pgd_attack_state(policy, spec, reset(spec), 0, _cfg(1.0))
        assert result.flipped[0] is True
        assert result.flipped[1] is False
        assert not result.perturbations[1].any()

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
        for trial in range(20):
            cfg = AttackConfig(
                epsilon=d, noise=noise, steps=20, restarts=3, seed=100 + trial
            )
            result = pgd_attack_state(policy, spec, cert.state, 0, cfg)
            assert result.flipped[0] is False


class TestRandomSearchAttack:
    def test_zero_budget_is_identity(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        result = random_search_attack(policy, spec, reset(spec), 0, _cfg(0.0))
        assert result.flipped == (False, False)
        for delta in result.perturbations:
            assert not delta.any()

    def test_budget_respected(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        result = random_search_attack(policy, spec, reset(spec), 0, _cfg(0.25))
        for delta in result.perturbations:
            assert np.linalg.norm(delta) <= 0.25 * (1 + 1e-12)

    def test_flips_fragile_agent(self):
        spec = _spec2()
        policy = _policy([_flip_net(47), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])])
        result = random_search_attack(policy, spec, reset(spec), 0, _cfg(5.0))
        assert result.flipped[0] is True


class TestAttackedRollout:
    def test_zero_budget_matches_clean_smoothed_rollout(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        result = attacked_rollout(policy, spec, _cfg(0.0))
        assert result.attacked_reward == 10.0
        assert result.flipped == (False,)

    def test_reward_at_certified_budget_stays_above_bound(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        noise = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=17)
        bound = tcrgr(policy, spec, noise)
        cfg = AttackConfig(
            epsilon=bound.epsilon_cert, noise=noise, steps=20, restarts=3, seed=11
        )
        result = attacked_rollout(policy, spec, cfg)
        assert result.attacked_reward >= bound.r_min


class TestValidateCertificates:
    def _setup(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        noise = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=17)
        certs = certify_trajectory(policy, spec, noise)
        bound = tcrgr(policy, spec, noise)
        cfg = AttackConfig(epsilon=0.0, noise=noise, steps=15, restarts=2, seed=9)
        return spec, policy, certs, bound, cfg

    def test_no_in_ball_flips_and_totals(self):
        spec, policy, certs, bound, cfg = self._setup()
        report = validate_certificates(
            policy, spec, certs, bound, cfg, trials=3, rollout_trials=2
        )
        assert report.states_checked == 3
        assert report.agents_checked == 3
        assert report.in_ball_trials == 3 * 3
        assert report.in_ball_flips == 0
        assert report.contrast_trials == 3 * 3
        assert report.rmin_violated is False
        assert len(report.rollout_rewards) == 2
        for reward in report.rollout_rewards:
            assert reward >= bound.r_min

    def test_rejects_foreign_certificates(self):
        spec, policy, certs, bound, cfg = self._setup()
        other = _policy([_const_net(47, [1.0, 0.0, 0.0, 0.0, 0.0])])
        with pytest.raises(ValueError):
            validate_certificates(
                other, spec, certs, bound, cfg, trials=1, rollout_trials=1
            )
