"""Tests for Gaussian observation smoothing: noise streams, tallies, radii."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from marlcert import attack, nn, smoothing
from marlcert.envs import (
    N_ACTIONS,
    OBS_LENGTH,
    builtin_spec,
    observe,
    parse_grid_config,
    reset,
    step,
)
from marlcert.errors import ConfigError, NumericalError
from marlcert.policy import AGENT_HIDDEN, JointPolicy, load_policy, new_policy
from marlcert.seeds import philox_key
from marlcert.smoothing import (
    ActionTally,
    NoiseConfig,
    _agent_top_two,
    gaussian_noise_block,
    per_agent_radii,
    sample_tally,
)
from marlcert.stats import std_normal_quantile_vec

# the stored checkers/vdn acceptance checkpoint the benchmark certifies
_CHECKERS_VDN = Path(__file__).resolve().parents[1] / "bench" / "data" / "checkers-vdn"


def _spec():
    return parse_grid_config("map: |\n  1.a\n  2.l\nstep_cap: 6\n")


def _tally(rows):
    rows = np.asarray(rows, dtype=np.int64)
    return ActionTally(rows, int(rows[0].sum()))


class TestNoiseConfig:
    def test_validation(self):
        NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=0)
        with pytest.raises(ConfigError):
            NoiseConfig(sigma=0.0, samples=100, alpha=0.05, seed=0)
        with pytest.raises(ConfigError):
            NoiseConfig(sigma=float("inf"), samples=100, alpha=0.05, seed=0)
        with pytest.raises(ConfigError):
            NoiseConfig(sigma=0.1, samples=1, alpha=0.05, seed=0)
        with pytest.raises(ConfigError):
            NoiseConfig(sigma=0.1, samples=100, alpha=1.0, seed=0)
        with pytest.raises(ConfigError):
            NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=-1)


class TestGaussianNoise:
    def test_deterministic(self):
        a = gaussian_noise_block(47, 0.1, seed=7, step_index=3, agent=1, count=13)
        b = gaussian_noise_block(47, 0.1, seed=7, step_index=3, agent=1, count=13)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        base = dict(seed=7, step_index=3, agent=1, count=13)
        a = gaussian_noise_block(47, 0.1, **base)
        for key in ("seed", "step_index", "agent"):
            other = dict(base)
            other[key] += 1
            assert not np.array_equal(a[12], gaussian_noise_block(47, 0.1, **other)[12])
        assert not np.array_equal(a[12], a[11])

    @pytest.mark.parametrize("dim", [4, 5, 47])
    def test_block_rows_match_single_draws(self, dim):
        block = gaussian_noise_block(dim, 0.06, seed=11, step_index=0, agent=2, count=9)
        assert block.shape == (9, dim)
        key = philox_key(11, "noise", 0, 2)
        for m in range(9):
            single = oracles.gaussian_noise(dim, 0.06, key, m, std_normal_quantile_vec)
            assert np.array_equal(block[m], single)

    def test_sigma_scaling_exact(self):
        a = gaussian_noise_block(20, 0.05, seed=1, step_index=0, agent=0, count=3)
        b = gaussian_noise_block(20, 0.1, seed=1, step_index=0, agent=0, count=3)
        assert np.array_equal(2.0 * a, b)

    def test_tiny_sigma_vanishes(self):
        a = gaussian_noise_block(20, 1e-300, seed=1, step_index=0, agent=0, count=3)
        assert np.all(np.abs(a) < 1e-290)

    @pytest.mark.parametrize("sigma", [0.0, -0.1, float("inf"), float("nan")])
    def test_rejects_sigma_outside_positive_finite(self, sigma):
        with pytest.raises(ConfigError, match="sigma must be positive and finite"):
            gaussian_noise_block(20, sigma, seed=1, step_index=0, agent=0, count=3)

    def test_draws_into_a_given_buffer(self):
        want = gaussian_noise_block(47, 0.1, seed=7, step_index=3, agent=1, count=13)
        buffer = np.full(13 * 48 + 5, np.nan)
        got = gaussian_noise_block(47, 0.1, 7, 3, 1, 13, buffer)
        assert got.shape == (13, 47) and np.shares_memory(got, buffer)
        assert np.array_equal(got, want)
        assert np.isnan(buffer[13 * 48 :]).all()

    def test_sample_mean(self):
        block = gaussian_noise_block(
            1000, 0.5, seed=3, step_index=0, agent=0, count=1000
        )
        assert abs(block.mean()) <= 5 * 0.5 / 1000


def _oracle_counts(policy, spec, state, agent, cfg, delta=None):
    """Counts from the plain recipe: argmax of forward_batch(noise + x)."""
    x = observe(spec, state, agent)
    if delta is not None:
        x = x + delta
    noise = gaussian_noise_block(
        x.size, cfg.sigma, cfg.seed, state.step_count, agent, cfg.samples
    )
    values = nn.forward_batch(policy.agent_nets[agent], noise + x)
    return np.bincount(np.argmax(values, axis=1), minlength=N_ACTIONS)


def _counts(policy, spec, state, agent, cfg, delta=None):
    """The agent's full tally through the smoothing module's one count."""
    x = observe(spec, state, agent)
    count = smoothing._counter(policy.agent_nets[agent], cfg, state.step_count, agent)
    return count(x if delta is None else x + delta)


def _counting_draws(monkeypatch):
    """Empty the projection slot and record every noise block drawn."""
    monkeypatch.setattr(smoothing, "_projected_noise", {})
    drawn = []

    def counting(*args):
        drawn.append(args)
        return gaussian_noise_block(*args)

    monkeypatch.setattr(smoothing, "gaussian_noise_block", counting)
    return drawn


class TestNoiseBlockSlot:
    # (agent, step, sigma, seed, M, dim): agents interleave, addresses
    # repeat, sigma changes on one address, and steps, seeds, M and dim
    # move and come back
    CALLS = [
        (0, 0, 0.1, 3, 20, 47),
        (1, 0, 0.1, 3, 20, 47),
        (0, 0, 0.1, 3, 20, 47),
        (0, 0, 0.2, 3, 20, 47),
        (0, 0, 0.2, 3, 20, 47),
        (1, 1, 0.1, 3, 20, 47),
        (0, 1, 0.03, 3, 20, 47),
        (1, 0, 0.1, 3, 20, 47),
        (1, 0, 0.1, 3, 20, 47),
        (0, 1, 0.03, 4, 20, 47),
        (0, 1, 0.03, 4, 30, 47),
        (2, 1, 0.03, 4, 30, 5),
        (0, 1, 0.03, 4, 30, 47),
        (2, 1, 0.03, 4, 30, 5),
        (0, 1, 0.03, 3, 20, 47),
    ]

    def test_matches_uncached_block(self, monkeypatch):
        drawn = _counting_draws(monkeypatch)
        rng = np.random.default_rng(0)
        nets = {dim: nn.mlp_init((dim, 16, 5), "relu", rng) for dim in (5, 47)}
        blocks = {}
        for agent, step_index, sigma, seed, m, dim in self.CALLS:
            cfg = NoiseConfig(sigma=sigma, samples=m, alpha=0.05, seed=seed)
            weights = nets[dim].weights[0]
            before = len(drawn)
            smoothing._counter(nets[dim], cfg, step_index, agent)
            noise = gaussian_noise_block(dim, sigma, seed, step_index, agent, m)
            assert set(smoothing._projected_noise) <= {0, 1, 2}
            key, kept, projected, chunk = smoothing._projected_noise[agent]
            assert np.array_equal(projected, noise @ weights.T)
            assert key == (seed, step_index, m, sigma)
            assert np.array_equal(kept, weights) and kept is not weights
            # one vector holds the noise rows and, after them, the scratch
            size = m * max(4 * -(-dim // 4), 16)
            storage = projected.base
            assert storage.shape == (size + smoothing._CHUNK_ROWS * 16,)
            assert chunk.base is storage and np.shares_memory(chunk, storage[size:])
            # a draw goes into new storage; a cache hit keeps the old
            old = blocks.get(agent)
            assert (storage is old) == (len(drawn) == before)
            blocks[agent] = storage
        # a block is drawn only when the agent's address, M, sigma or dim
        # changes
        assert len(drawn) == 10

    def test_count_set_up_at_an_earlier_address_keeps_its_block(self, monkeypatch):
        drawn = _counting_draws(monkeypatch)
        spec = _spec()
        policies = [new_policy(spec, "vdn", np.random.default_rng(s)) for s in (6, 7)]
        states = [reset(spec)]
        for _ in range(2):
            states.append(step(spec, states[-1], (3, 0)).next_state)
        delta = np.random.default_rng(1).normal(0.0, 0.3, OBS_LENGTH)
        # policies innermost: every set-up moves the agent's cached block
        counts = []
        for state in states:
            for sigma in (0.4, 0.9):
                for agent in range(2):
                    for policy in policies:
                        cfg = NoiseConfig(sigma=sigma, samples=200, alpha=0.05, seed=2)
                        net = policy.agent_nets[agent]
                        count = smoothing._counter(net, cfg, state.step_count, agent)
                        counts.append((policy, state, agent, cfg, count))
        assert len(drawn) == len(counts)
        seen = set()
        for policy, state, agent, cfg, count in counts[::-1]:
            x = observe(spec, state, agent)
            for d in (None, delta):
                want = _oracle_counts(policy, spec, state, agent, cfg, d)
                assert np.array_equal(count(x if d is None else x + d), want)
                seen.add(tuple(want))
        assert len(seen) > 1  # the counts differ, so a wrong block would show


class TestActionCountsProjection:
    @pytest.mark.parametrize(
        "hidden, activation",
        [((16,), "relu"), ((16,), "tanh"), ((16, 12, 8), "relu")],
    )
    def test_counts_match_forward_batch_oracle(self, hidden, activation):
        spec = _spec()
        rng = np.random.default_rng(4)
        nets = tuple(
            nn.mlp_init((OBS_LENGTH, *hidden, N_ACTIONS), activation, rng)
            for _ in range(2)
        )
        policy = JointPolicy(nets, "vdn", None)
        cfg = NoiseConfig(sigma=0.5, samples=300, alpha=0.05, seed=21)
        state = reset(spec)
        spread = 0
        for agent in range(2):
            for delta in (None, rng.normal(0.0, 0.2, OBS_LENGTH)):
                got = _counts(policy, spec, state, agent, cfg, delta)
                want = _oracle_counts(policy, spec, state, agent, cfg, delta)
                assert np.array_equal(got, want)
                spread += int(np.count_nonzero(got) > 1)
        assert spread  # the noise moves some decision: the counts can differ

    def test_weights_edited_in_place_are_projected_again(self, monkeypatch):
        drawn = _counting_draws(monkeypatch)
        spec = _spec()
        policy = new_policy(spec, "vdn", np.random.default_rng(6))
        cfg = NoiseConfig(sigma=0.4, samples=200, alpha=0.05, seed=2)
        state = reset(spec)
        _counts(policy, spec, state, 1, cfg)
        policy.agent_nets[1].weights[0][...] *= -1.0
        got = _counts(policy, spec, state, 1, cfg)
        assert np.array_equal(got, _oracle_counts(policy, spec, state, 1, cfg))
        assert len(drawn) == 2

    def test_sigma_change_is_projected_again(self, monkeypatch):
        drawn = _counting_draws(monkeypatch)
        spec = _spec()
        policy = new_policy(spec, "vdn", np.random.default_rng(6))
        state = reset(spec)
        for sigma in (0.4, 0.9):
            cfg = NoiseConfig(sigma=sigma, samples=200, alpha=0.05, seed=2)
            got = _counts(policy, spec, state, 0, cfg)
            assert np.array_equal(got, _oracle_counts(policy, spec, state, 0, cfg))
        assert [args[1] for args in drawn] == [0.4, 0.9]


def _peak_bytes(call):
    """Peak bytes that ``call()`` holds allocated at once."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratch:
    M = 10000
    BLOCK = M * AGENT_HIDDEN * 8  # one projected block

    def _setup(self, monkeypatch, rows):
        monkeypatch.setattr(smoothing, "_projected_noise", {})
        spec = parse_grid_config(f"map: |\n  {rows}\nstep_cap: 6\n")
        policy = new_policy(spec, "vdn", np.random.default_rng(3))
        return spec, policy, reset(spec)

    def _cfg(self, seed):
        return NoiseConfig(sigma=0.1, samples=self.M, alpha=0.05, seed=seed)

    def test_repeated_tally_allocates_less_than_a_block(self, monkeypatch):
        spec, policy, state = self._setup(monkeypatch, "1.a\n  2.l")
        want = sample_tally(policy, spec, state, self._cfg(1))
        got = []
        peak = _peak_bytes(
            lambda: got.append(sample_tally(policy, spec, state, self._cfg(1)))
        )
        assert np.array_equal(got[0].per_agent, want.per_agent)
        assert peak < self.BLOCK

    def test_walk_frees_each_agent_s_old_block(self, monkeypatch):
        # a new address drops the agent's cached block before drawing its
        # own, so six addresses hold no more than the first did
        spec, policy, state = self._setup(monkeypatch, "1.a\n  2.l")
        width = max(4 * -(-OBS_LENGTH // 4), AGENT_HIDDEN)
        kept = policy.n_agents * (self.M * width + smoothing._CHUNK_ROWS * AGENT_HIDDEN) * 8
        tracemalloc.start()
        try:
            for seed in range(1, 7):
                tally = sample_tally(policy, spec, state, self._cfg(seed))
                held, peak = tracemalloc.get_traced_memory()
                assert held < kept + 2**17  # with the kept copies of W1
            assert peak < kept + 1.5 * 2**20
        finally:
            tracemalloc.stop()
        want = _oracle_counts(policy, spec, state, 1, self._cfg(6))
        assert np.array_equal(tally.per_agent[1], want)

    def test_tally_holds_one_block_per_agent(self, monkeypatch):
        # the agents' blocks, each with its chunk scratch, and no M-row
        # scratch beside them; the inverse CDF's working pair and a
        # chunk's values fit the 1.5 MiB allowance
        spec, policy, state = self._setup(monkeypatch, "1.a\n  2.l")
        m = 20000
        width = max(4 * -(-OBS_LENGTH // 4), AGENT_HIDDEN)
        cfg = NoiseConfig(sigma=0.1, samples=m, alpha=0.05, seed=1)
        peak = _peak_bytes(lambda: sample_tally(policy, spec, state, cfg))
        scratch = smoothing._CHUNK_ROWS * AGENT_HIDDEN
        assert peak < policy.n_agents * (m * width + scratch) * 8 + 1.5 * 2**20


class TestChunkedProjection:
    @pytest.mark.parametrize("hidden", [64, 16])  # above and below dim 47
    def test_projected_block_is_the_product(self, monkeypatch, hidden):
        monkeypatch.setattr(smoothing, "_projected_noise", {})
        net = nn.mlp_init((47, hidden, N_ACTIONS), "relu", np.random.default_rng(5))
        m = 3 * smoothing._CHUNK_ROWS + 5  # four chunks
        cfg = NoiseConfig(sigma=0.2, samples=m, alpha=0.05, seed=8)
        smoothing._counter(net, cfg, 2, 1)
        projected = smoothing._projected_noise[1][2]
        noise = gaussian_noise_block(47, 0.2, 8, 2, 1, m)
        assert np.array_equal(projected, noise @ net.weights[0].T)

    @pytest.mark.parametrize("rows", [1, 7, smoothing._CHUNK_ROWS, 4096])
    def test_tallies_and_votes_do_not_depend_on_chunk_rows(self, monkeypatch, rows):
        monkeypatch.setattr(smoothing, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(smoothing, "_projected_noise", {})
        spec = _spec()
        policy = new_policy(spec, "vdn", np.random.default_rng(6))
        cfg = NoiseConfig(sigma=0.5, samples=2500, alpha=0.05, seed=2)
        state = reset(spec)
        tally = sample_tally(policy, spec, state, cfg)
        rng = np.random.default_rng(1)
        spread = 0
        for agent in range(2):
            want = _oracle_counts(policy, spec, state, agent, cfg)
            assert np.array_equal(tally.per_agent[agent], want)
            x = observe(spec, state, agent)
            vote = attack._voter(policy, state, agent, cfg, x)
            for delta in (None, *rng.normal(0.0, 0.3, (3, x.size))):
                want = _oracle_counts(policy, spec, state, agent, cfg, delta)
                assert vote(delta) == np.argmax(want)
                spread += int(np.count_nonzero(want) > 1)
        assert spread  # the noise moves some decision: the counts can differ


class TestSampleTally:
    def test_tiny_sigma_concentrates(self):
        spec = _spec()
        policy = new_policy(spec, "vdn", np.random.default_rng(1))
        cfg = NoiseConfig(sigma=1e-9, samples=50, alpha=0.05, seed=5)
        tally = sample_tally(policy, spec, reset(spec), cfg)
        assert tally.per_agent.max(axis=1).tolist() == [50, 50]

    def test_constant_net_all_mass_on_zero(self):
        spec = _spec()
        policy = new_policy(spec, "vdn", np.random.default_rng(1))
        zeroed = []
        for net in policy.agent_nets:
            for w in net.weights:
                w *= 0.0
            for b in net.biases:
                b *= 0.0
            zeroed.append(net)
        cfg = NoiseConfig(sigma=0.5, samples=40, alpha=0.05, seed=5)
        tally = sample_tally(policy, spec, reset(spec), cfg)
        assert tally.per_agent[:, 0].tolist() == [40, 40]

    def test_marginal_consistency_and_determinism(self):
        spec = _spec()
        policy = new_policy(spec, "vdn", np.random.default_rng(2))
        cfg = NoiseConfig(sigma=0.3, samples=200, alpha=0.05, seed=9)
        t1 = sample_tally(policy, spec, reset(spec), cfg)
        t2 = sample_tally(policy, spec, reset(spec), cfg)
        assert np.array_equal(t1.per_agent, t2.per_agent)
        assert t1.per_agent.sum(axis=1).tolist() == [200, 200]

    def test_non_finite_action_values_raise(self):
        # at sigma 1e307 the stored checkpoint's first layers overflow: 142
        # of the 1000 rows would carry NaN values, and a NaN row votes 0
        spec = builtin_spec("checkers")
        policy = load_policy(_CHECKERS_VDN)
        cfg = NoiseConfig(sigma=1e306, samples=500, alpha=0.05, seed=1)
        tally = sample_tally(policy, spec, reset(spec), cfg)
        assert tally.per_agent[0].tolist() == [205, 102, 33, 96, 64]
        cfg = dataclasses.replace(cfg, sigma=1e307)
        with pytest.raises(NumericalError, match="non-finite smoothed action values"):
            sample_tally(policy, spec, reset(spec), cfg)

    def test_done_state_rejected(self):
        spec = parse_grid_config("map: |\n  1a\nstep_cap: 5\n")
        policy = new_policy(spec, "vdn", np.random.default_rng(1))
        cfg = NoiseConfig(sigma=0.1, samples=10, alpha=0.05, seed=1)
        out = step(spec, reset(spec), (3,))
        with pytest.raises(ValueError):
            sample_tally(policy, spec, out.next_state, cfg)

    def test_tally_invariants_enforced(self):
        with pytest.raises(ValueError):
            ActionTally([[10, 0, 0, 0, 0]], 9)
        with pytest.raises(ValueError):
            ActionTally([[10, 0, 0, 0, 0], [9, 0, 0, 0, 0]], 10)
        with pytest.raises(ValueError):
            ActionTally([[10, 0, 0, 0]], 10)


class TestPerAgentRadii:
    def test_uniform_counts_clamp_to_zero(self):
        tally = _tally([[20, 20, 20, 20, 20], [100, 0, 0, 0, 0]])
        cfg = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=0)
        radii = per_agent_radii(tally, cfg)
        assert radii[0] == 0.0
        assert radii[1] > 0.0

    def test_unanimous_closed_form(self):
        tally = _tally([[100, 0, 0, 0, 0]])
        cfg = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=0)
        # the runner-up is the lowest-index zero-count action
        assert _agent_top_two(tally.per_agent[0]) == (0, 1)
        assert per_agent_radii(tally, cfg)[0] == pytest.approx(
            0.1536395640059247, rel=1e-10
        )

    def test_monotone_in_modal_count(self):
        cfg = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=0)
        last = -1.0
        for modal in (60, 70, 80, 90, 100):
            tally = _tally([[modal, 100 - modal, 0, 0, 0]])
            d = per_agent_radii(tally, cfg)[0]
            assert d >= last
            last = d

    def test_alpha_monotone(self):
        tally = _tally([[90, 10, 0, 0, 0]])
        strict = NoiseConfig(sigma=0.1, samples=100, alpha=0.01, seed=0)
        loose = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=0)
        d_strict = per_agent_radii(tally, strict)[0]
        d_loose = per_agent_radii(tally, loose)[0]
        assert d_strict <= d_loose

    def test_sigma_scaling_exact(self):
        tally = _tally([[90, 6, 2, 2, 0]])
        lo = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=0)
        hi = NoiseConfig(sigma=0.2, samples=100, alpha=0.05, seed=0)
        assert per_agent_radii(tally, hi)[0] == 2.0 * per_agent_radii(tally, lo)[0]

    def test_other_agents_do_not_affect_radius(self):
        cfg = NoiseConfig(sigma=0.1, samples=100, alpha=0.05, seed=0)
        t1 = _tally([[90, 10, 0, 0, 0], [60, 40, 0, 0, 0]])
        t2 = _tally([[90, 10, 0, 0, 0], [100, 0, 0, 0, 0]])
        assert per_agent_radii(t1, cfg)[0] == per_agent_radii(t2, cfg)[0]
