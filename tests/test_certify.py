"""Tests for per-state certification and the reward-bound tree search."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from marlcert import nn
from marlcert.attack import AttackConfig, attacked_rollout
from marlcert.certify import (
    ImportanceFactors,
    StateDecision,
    certify_trajectory,
    crsc,
    decide,
    get_node,
    importance_factor,
    node_decision,
    tcrgr,
)
from marlcert.envs import ACTION_STAY, builtin_spec, parse_grid_config, reset, step
from marlcert.policy import JointPolicy, load_policy, new_policy
from marlcert.seeds import derive_seed
from marlcert.smoothing import ActionTally, NoiseConfig
from marlcert.stats import (
    binom_lower_bound,
    binom_pvalue_one_sided,
    std_normal_cdf,
    std_normal_quantile,
)

# flat wall channel of the agent's own cell: always 0 in any observation
_NULL_COMPONENT = 20

# frozen closed forms for M=100, alpha=0.05, sigma=0.1 (independent
# bisection oracles): Goodman radius for a unanimous 5-action row, and
# sigma * quantile(alpha^(1/M)) for a unanimous one-sided lower bound
_UNANIMOUS_GOODMAN = 0.1536395640059247
_UNANIMOUS_LOWER = 0.18879988918577367
# Phi^-1(2/3) (mpmath): a candidate pair certifies sigma * (Phi^-1(p) - this)
_PAIR_QUANTILE = 0.4307272992954575

# the stored checkers/vdn acceptance checkpoint the benchmark certifies
_CHECKERS_VDN = Path(__file__).resolve().parents[1] / "bench" / "data" / "checkers-vdn"


def _cfg(**kw):
    base = dict(sigma=0.1, samples=100, alpha=0.05, seed=17)
    base.update(kw)
    return NoiseConfig(**base)


def _spec2():
    return parse_grid_config("map: |\n  1.a\n  2.l\nstep_cap: 6\n")


def _const_net(obs_len, values):
    w = np.zeros((5, obs_len))
    return nn.Mlp((obs_len, 5), "relu", oracles.mlp_params((obs_len, 5), [w], [values]))


def _flip_net(obs_len, action_pos, action_neg):
    """Linear net whose argmax follows the sign of one null observation
    component, so under noise the two actions split roughly 50/50."""
    w = np.zeros((5, obs_len))
    w[action_pos, _NULL_COMPONENT] = 1.0
    w[action_neg, _NULL_COMPONENT] = -1.0
    b = np.full(5, -10.0)
    b[action_pos] = 0.0
    b[action_neg] = 0.0
    return nn.Mlp((obs_len, 5), "relu", oracles.mlp_params((obs_len, 5), [w], [b]))


def _policy(nets):
    return JointPolicy(tuple(nets), "vdn", None)


def _tally(rows):
    rows = np.asarray(rows, dtype=np.int64)
    return ActionTally(rows, int(rows[0].sum()))


def _decision(rows, factors):
    """A decision with a hand-made tally; node_decision reads no state."""
    tally = _tally(rows)
    modal = tuple(int(np.argmax(counts)) for counts in tally.per_agent)
    return StateDecision(state=None, tally=tally, modal=modal, factors=factors)


def _crsc(policy, spec, state, cfg):
    return crsc(decide(policy, spec, state, cfg), cfg)


class TestImportanceFactor:
    def test_two_agent_vdn_hand_case(self):
        spec = _spec2()
        policy = _policy(
            [
                _const_net(47, [1.0, 3.0, 0.0, 0.0, 0.0]),
                _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0]),
            ]
        )
        tally = _tally([[80, 20, 0, 0, 0], [60, 40, 0, 0, 0]])
        factors = importance_factor(policy, spec, reset(spec), (0, 0), tally)
        assert factors.raw[0] == pytest.approx(-0.4, abs=1e-12)
        assert factors.raw[1] == pytest.approx(0.6, abs=1e-12)
        assert factors.normalized == (0.05, 1.0)

    def test_constant_counterfactuals_zero(self):
        spec = _spec2()
        policy = _policy([_const_net(47, np.zeros(5)), _const_net(47, np.zeros(5))])
        tally = _tally([[70, 30, 0, 0, 0], [50, 50, 0, 0, 0]])
        factors = importance_factor(policy, spec, reset(spec), (0, 0), tally)
        assert factors.raw == (0.0, 0.0)
        assert factors.normalized == (1.0, 1.0)

    def test_single_agent_deterministic_tally(self):
        spec = parse_grid_config("map: |\n  1..\nstep_cap: 4\n")
        policy = _policy([_const_net(47, [5.0, 1.0, 0.0, 0.0, 0.0])])
        tally = _tally([[100, 0, 0, 0, 0]])
        factors = importance_factor(policy, spec, reset(spec), (0,), tally)
        assert factors.raw == (0.0,)
        assert factors.normalized == (1.0,)

    def test_normalization_rank_preserving(self):
        spec = _spec2()
        rng = np.random.default_rng(3)
        state = reset(spec)
        for trial in range(20):
            policy = new_policy(spec, "vdn", np.random.default_rng(50 + trial))
            actions = rng.integers(0, 5, size=(60, 2))
            rows = np.stack(
                [np.bincount(actions[:, n], minlength=5) for n in range(2)]
            )
            tally = ActionTally(rows, 60)
            modal = tuple(int(np.argmax(rows[n])) for n in range(2))
            factors = importance_factor(policy, spec, state, modal, tally)
            for i in range(2):
                for j in range(2):
                    if factors.raw[i] > factors.raw[j]:
                        assert factors.normalized[i] >= factors.normalized[j]
            assert all(0.05 <= v <= 1.0 for v in factors.normalized)


class TestCrsc:
    def test_all_deterministic_agents(self):
        spec = _spec2()
        policy = _policy(
            [
                _const_net(47, [1.0, 3.0, 0.0, 0.0, 0.0]),
                _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0]),
            ]
        )
        cert = _crsc(policy, spec, reset(spec), _cfg())
        assert cert.certified_set == frozenset({0, 1})
        assert cert.actions == (1, 0)
        for pv, cpv in zip(cert.pvalues, cert.corrected_pvalues):
            assert pv == pytest.approx(2.0**-100, rel=1e-12)
            assert cpv == pv
        for d in cert.per_agent_radius:
            assert d == pytest.approx(_UNANIMOUS_GOODMAN, rel=1e-10)
        assert cert.min_radius == min(cert.per_agent_radius)

    def test_mixed_agents_partial_rejection(self):
        spec = _spec2()
        policy = _policy(
            [_flip_net(47, 0, 1), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])]
        )
        cert = _crsc(policy, spec, reset(spec), _cfg())
        assert cert.certified_set == frozenset({1})
        assert cert.per_agent_radius[0] == 0.0
        assert cert.pvalues[0] > 0.05
        assert cert.min_radius == cert.per_agent_radius[1]

    def test_all_coin_flip_agents(self):
        spec = _spec2()
        policy = _policy([_flip_net(47, 0, 1), _flip_net(47, 3, 4)])
        cert = _crsc(policy, spec, reset(spec), _cfg())
        assert cert.certified_set == frozenset()
        assert cert.min_radius == 0.0
        assert cert.per_agent_radius == (0.0, 0.0)

    def test_pvalues_match_tally(self):
        spec = _spec2()
        policy = _policy(
            [_flip_net(47, 0, 1), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])]
        )
        from marlcert.smoothing import sample_tally

        cfg = _cfg()
        tally = sample_tally(policy, spec, reset(spec), cfg)
        cert = _crsc(policy, spec, reset(spec), cfg)
        ct1 = int(tally.per_agent[0].max())
        assert cert.pvalues[0] == binom_pvalue_one_sided(ct1, 100)


class TestDecisionPvalues:
    def test_each_agent_reads_its_modal_count(self):
        rows = [[60, 30, 10, 0, 0], [0, 0, 45, 55, 0], [20, 20, 20, 20, 20]]
        factors = ImportanceFactors(raw=(2.0, 0.0, 1.0), normalized=(1.0, 0.05, 0.525))
        decision = _decision(rows, factors)
        assert decision.modal == (0, 3, 0)
        want = tuple(binom_pvalue_one_sided(k, 100) for k in (60, 55, 20))
        assert decision.pvalues == want
        assert decision.corrected_pvalues == tuple(
            min(1.0, p * w) for p, w in zip(want, factors.normalized)
        )

    def test_the_certificate_and_the_node_read_the_decision(self):
        factors = ImportanceFactors(raw=(1.0, 0.0), normalized=(1.0, 0.05))
        tally = _tally([[90, 10, 0, 0, 0], [58, 42, 0, 0, 0]])
        decision = StateDecision(reset(_spec2()), tally, (0, 0), factors)
        cert = crsc(decision, _cfg())
        assert cert.pvalues == decision.pvalues
        assert cert.corrected_pvalues == decision.corrected_pvalues
        # agent 1's raw p-value fails alpha and its corrected one clears it,
        # so the node tries the singleton, whose bound on 58 of 100 is below
        # one half: radius 0, where the pair of 100 of 100 would certify
        assert decision.pvalues[1] > 0.05 >= decision.corrected_pvalues[1]
        node = node_decision(decision, _cfg())
        assert node.action_sets[1] == (0, 1)
        assert node.per_agent_radius[1] == 0.0


class TestNodeDecision:
    def test_certified_singleton(self):
        factors = ImportanceFactors(raw=(0.0,), normalized=(1.0,))
        node = node_decision(_decision([[100, 0, 0, 0, 0]], factors), _cfg())
        assert node.action_sets == ((0,),)
        assert node.radius == pytest.approx(_UNANIMOUS_LOWER, rel=1e-10)

    def test_uncertain_pair_uses_combined_count(self):
        # 55/45 split: one-sided p-value is far above alpha, so both actions
        # stay and the lower bound uses ct1 + ct2 = M; the pair must keep
        # 2/3 of the mass, not 1/2, for its argmax to stay inside it
        factors = ImportanceFactors(raw=(0.0,), normalized=(1.0,))
        node = node_decision(_decision([[55, 45, 0, 0, 0]], factors), _cfg())
        assert node.action_sets == ((0, 1),)
        want = _UNANIMOUS_LOWER - 0.1 * _PAIR_QUANTILE
        assert node.radius == pytest.approx(want, rel=1e-10)

    def test_pair_radius_keeps_argmax_inside_the_pair(self):
        # counts (400, 350, 250) at M=1000 match a 2-D linear base classifier
        # at x = 0: action 2 where x1 > Phi^-1(3/4), else action 0 where
        # x2 < t and action 1 otherwise, with Phi(t) = 400/750.  Its
        # smoothed probabilities have closed forms, so every shift can be
        # judged exactly.
        sigma = 1.0
        cfg = _cfg(sigma=sigma, samples=1000, alpha=0.05)
        factors = ImportanceFactors(raw=(0.0,), normalized=(1.0,))
        node = node_decision(_decision([[400, 350, 250, 0, 0]], factors), cfg)
        assert node.action_sets == ((0, 1),)
        a = std_normal_quantile(0.75)
        t = std_normal_quantile(400 / 750)

        def smoothed_argmax(d1, d2):
            keep = std_normal_cdf((a - d1) / sigma)
            split = std_normal_cdf((t - d2) / sigma)
            return int(np.argmax([keep * split, keep * (1.0 - split), 1.0 - keep]))

        assert smoothed_argmax(0.0, 0.0) == 0
        radius = node.radius
        assert radius > 0.0
        for angle in np.linspace(0.0, 2.0 * math.pi, 721):
            d1, d2 = radius * math.cos(angle), radius * math.sin(angle)
            assert smoothed_argmax(d1, d2) in (0, 1)
        # the paper's combined-count radius, sigma * Phi^-1(p), admits a
        # shift of 0.3 sigma along x1 that moves the argmax to action 2
        p_lower = binom_lower_bound(750, 1000, 0.05)
        assert sigma * std_normal_quantile(p_lower) > 0.3 * sigma > radius
        assert smoothed_argmax(0.3 * sigma, 0.0) == 2

    def test_importance_rescue_clamps_and_keeps_both(self):
        # pv(58/100) = 0.0666 > alpha, but a 0.05 importance weight drags the
        # corrected value under alpha; the resulting lower bound 0.4928 < 0.5
        # clamps the radius to zero and keeps the runner-up anyway
        factors = ImportanceFactors(raw=(-1.0, 2.0), normalized=(0.05, 1.0))
        decision = _decision([[58, 42, 0, 0, 0], [100, 0, 0, 0, 0]], factors)
        node = node_decision(decision, _cfg())
        assert node.action_sets[0] == (0, 1)
        assert node.per_agent_radius[0] == 0.0
        assert node.action_sets[1] == (0,)
        assert node.radius == 0.0

    def test_node_radius_min_over_agents(self):
        factors = ImportanceFactors(raw=(0.0, 0.0), normalized=(1.0, 1.0))
        decision = _decision([[100, 0, 0, 0, 0], [55, 45, 0, 0, 0]], factors)
        node = node_decision(decision, _cfg())
        assert node.radius == min(node.per_agent_radius)


class TestGetNode:
    def test_deterministic_agents_singletons(self):
        spec = _spec2()
        policy = _policy(
            [
                _const_net(47, [1.0, 3.0, 0.0, 0.0, 0.0]),
                _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0]),
            ]
        )
        node = get_node(policy, spec, reset(spec), _cfg())
        assert node.decision.state == reset(spec)
        assert node.decision.modal == (1, 0)
        assert node.action_sets == ((1,), (0,))
        assert node.radius == pytest.approx(_UNANIMOUS_LOWER, rel=1e-10)

    def test_flip_agent_keeps_two_actions(self):
        spec = _spec2()
        policy = _policy(
            [_flip_net(47, 0, 1), _const_net(47, [2.0, 0.5, 0.0, 0.0, 0.0])]
        )
        node = get_node(policy, spec, reset(spec), _cfg())
        assert sorted(node.action_sets[0]) == [0, 1]
        assert node.action_sets[1] == (0,)
        # the flip agent's mass all sits on its top two actions, so its
        # combined-count bound coincides with the unanimous one, less the
        # pair's 2/3 threshold
        want = _UNANIMOUS_LOWER - 0.1 * _PAIR_QUANTILE
        assert node.radius == pytest.approx(want, rel=1e-10)


def _oracle_enumeration(policy, spec, cfg):
    """Exhaustive trajectory walk, independent of tcrgr's search logic."""
    eps = math.inf
    r_min = math.inf

    def rec(state, acc):
        nonlocal eps, r_min
        if state.done:
            r_min = min(r_min, acc)
            return
        node = get_node(policy, spec, state, cfg)
        eps = min(eps, node.radius)
        for joint in itertools.product(*node.action_sets):
            out = step(spec, state, joint)
            rec(out.next_state, acc + out.team_reward)

    rec(reset(spec), 0.0)
    return eps, r_min


def _clean_rollout_reward(policy, spec, cfg):
    """The smoothed policy's own episode, replayed by an unbudgeted attack."""
    (rollout,) = attacked_rollout(policy, spec, AttackConfig(noise=cfg), 0.0, [0])
    return rollout.attacked_reward


class TestTcrgr:
    def test_fully_certified_single_trajectory(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        cert = tcrgr(policy, spec, _cfg())
        assert cert.r_min == 10.0
        assert cert.clean_reward == 10.0
        assert [d.state.step_count for d in cert.clean_path] == [0, 1, 2]
        assert [d.modal for d in cert.clean_path] == [(3,)] * 3
        assert cert.epsilon_cert == pytest.approx(_UNANIMOUS_LOWER, rel=1e-10)
        assert cert.nodes_expanded == 3

    def test_one_step_uncertain_two_leaves(self):
        spec = parse_grid_config(
            "map: |\n  1a\nstep_cap: 1\nrewards:\n  apple: 1.0\n"
        )
        policy = _policy([_flip_net(47, 3, 0)])
        cert = tcrgr(policy, spec, _cfg())
        assert cert.r_min == 0.0
        want = _UNANIMOUS_LOWER - 0.1 * _PAIR_QUANTILE  # a pair's radius
        assert cert.epsilon_cert == pytest.approx(want, rel=1e-10)

    def test_matches_enumeration_on_random_toys(self):
        rng = np.random.default_rng(12)
        # (rewards, apples on every free cell and a costly stay)
        toys = [(_INTEGER_REWARDS, False)] * 8 + [(_FLOAT_REWARDS, False)]
        toys += [(_INTEGER_REWARDS, True)] * 8
        r_mins = []
        nodes = []
        for trial, (rewards, filled) in enumerate(toys):
            spec = _random_toy(rng, rewards, filled)
            policy = new_policy(spec, "vdn", np.random.default_rng(900 + trial))
            if filled:
                for net in policy.agent_nets:
                    net.biases[-1][ACTION_STAY] -= 50.0
            cfg = NoiseConfig(
                sigma=0.5, samples=60, alpha=0.05, seed=int(rng.integers(1 << 30))
            )
            want_eps, want_rmin = _oracle_enumeration(policy, spec, cfg)
            cert = tcrgr(policy, spec, cfg)
            assert cert.r_min == want_rmin
            assert cert.epsilon_cert == want_eps
            assert cert.clean_reward == _clean_rollout_reward(policy, spec, cfg)
            # the clean path's decisions certify the certify-state rollout
            certified = [crsc(decision, cfg) for decision in cert.clean_path]
            assert certified == certify_trajectory(policy, spec, cfg)
            r_mins.append(cert.r_min)
            nodes.append(cert.nodes_expanded)
        assert len(r_mins) == 17
        # the minimum itself is compared, on trees that really branch
        assert max(r_mins) > 0.0
        assert max(nodes) > 10

    def test_long_horizon(self):
        spec = parse_grid_config("map: |\n  1a\nstep_cap: 1200\n")
        policy = _policy([_const_net(47, [-50.0, -50.0, -50.0, -50.0, 0.0])])
        cert = tcrgr(policy, spec, _cfg(samples=10))
        assert cert.nodes_expanded == 1200
        assert cert.r_min == 0.0
        assert cert.clean_reward == _clean_rollout_reward(
            policy, spec, _cfg(samples=10)
        )

    @pytest.mark.parametrize("sigma", [0.03, 0.06, 0.1])
    def test_clean_reward_on_stored_checkpoint(self, sigma):
        policy = load_policy(str(_CHECKERS_VDN))
        spec = builtin_spec("checkers")
        cfg = NoiseConfig(
            sigma=sigma, samples=10000, alpha=0.01, seed=derive_seed(1, "smoothing")
        )
        cert = tcrgr(policy, spec, cfg)
        assert cert.clean_reward == _clean_rollout_reward(policy, spec, cfg)


_INTEGER_REWARDS = "  apple: 1.0\n"
_FLOAT_REWARDS = "  apple: 0.1\n  lemon: 0.7\n"


def _random_toy(rng, rewards, filled=False):
    width, height = 4, 3
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(cells)
    starts = cells[:2]
    grid = {}
    for cell in cells[2:]:
        roll = rng.random()
        if roll < 0.15:
            grid[cell] = "#"
        elif filled or roll < 0.35:
            grid[cell] = "a"
        elif roll < 0.5:
            grid[cell] = "l"
    grid[starts[0]] = "1"
    grid[starts[1]] = "2"
    rows = [
        "".join(grid.get((x, y), ".") for x in range(width))
        for y in range(height)
    ]
    text = "map: |\n" + "".join(f"  {row}\n" for row in rows)
    text += f"step_cap: {int(rng.integers(2, 4))}\nrewards:\n{rewards}"
    return parse_grid_config(text)


class TestCertifyTrajectory:
    def test_series_matches_rollout(self):
        spec = parse_grid_config(
            "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"
        )
        policy = _policy([_const_net(47, [0.0, 0.0, 0.0, 1.0, 0.0])])
        certs = certify_trajectory(policy, spec, _cfg())
        assert len(certs) == 3
        assert [c.step_index for c in certs] == [0, 1, 2]
        for cert in certs:
            assert cert.certified_set == frozenset({0})
            assert cert.actions == (3,)
            assert cert.min_radius == pytest.approx(_UNANIMOUS_GOODMAN, rel=1e-10)

    def test_min_radius_consistency(self):
        spec = _spec2()
        policy = new_policy(spec, "vdn", np.random.default_rng(8))
        cfg = NoiseConfig(sigma=0.3, samples=80, alpha=0.05, seed=5)
        for cert in certify_trajectory(policy, spec, cfg):
            positive = [
                cert.per_agent_radius[n] for n in cert.certified_set
            ]
            want = min(positive) if positive else 0.0
            assert cert.min_radius == want
            for n, d in enumerate(cert.per_agent_radius):
                assert (n in cert.certified_set) == (d != 0.0)
