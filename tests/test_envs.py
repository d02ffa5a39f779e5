"""Tests for the deterministic multi-agent gridworlds."""

import numpy as np
import pytest

import oracles
from marlcert.envs import (
    ACTION_LEFT,
    ACTION_RIGHT,
    ACTION_STAY,
    ACTION_UP,
    OBS_LENGTH,
    EnvState,
    builtin_spec,
    episode_reward,
    observe,
    parse_grid_config,
    reset,
    step,
)
from marlcert.errors import ConfigError


def _toy(text):
    return parse_grid_config(text)


def test_checkers_builtin_layout():
    spec = builtin_spec("checkers")
    state = reset(spec)
    assert len(state.agent_positions) == 2
    assert state.agent_positions == ((6, 0), (6, 2))
    kinds = [kind for _, kind in sorted(state.remaining_items)]
    assert kinds.count("apple") == 6
    assert kinds.count("lemon") == 6
    assert spec.step_cap == 50
    assert spec.reward_table["apple"] == 10.0
    assert spec.reward_table["lemon"] == 0.0


def test_switch_builtin_layout():
    spec = builtin_spec("switch")
    state = reset(spec)
    assert len(state.agent_positions) == 4
    assert state.agent_positions == ((0, 0), (1, 0), (4, 2), (3, 2))
    assert spec.agent_goals == ((3, 0), (4, 0), (1, 2), (0, 2))
    assert spec.reward_table["goal"] == 5.0


def test_reset_deterministic():
    spec = builtin_spec("checkers")
    assert reset(spec) == reset(spec)


def test_unknown_builtin():
    with pytest.raises(ConfigError):
        builtin_spec("pong")


def test_move_into_wall_stays():
    spec = _toy("map: |\n  1#\nstep_cap: 5\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT,))
    assert out.next_state.agent_positions == ((0, 0),)
    assert out.team_reward == 0.0


def test_move_out_of_bounds_stays():
    spec = _toy("map: |\n  1.\nstep_cap: 5\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_UP,))
    assert out.next_state.agent_positions == ((0, 0),)


def test_two_agents_targeting_same_cell_both_stay():
    spec = _toy("map: |\n  1.2\nstep_cap: 5\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT, ACTION_LEFT))
    assert out.next_state.agent_positions == ((0, 0), (2, 0))


def test_blocked_agent_blocks_follower():
    # agent 2 runs into a wall and stays; agent 1 aiming at agent 2's cell
    # must back off too (fixpoint of the collision rule)
    spec = _toy("map: |\n  12#\nstep_cap: 5\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT, ACTION_RIGHT))
    assert out.next_state.agent_positions == ((0, 0), (1, 0))


def test_swap_is_allowed():
    spec = _toy("map: |\n  12\nstep_cap: 5\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT, ACTION_LEFT))
    assert out.next_state.agent_positions == ((1, 0), (0, 0))


def test_apple_consumed_with_reward():
    spec = _toy("map: |\n  1a\nstep_cap: 5\nrewards:\n  apple: 10.0\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT,))
    assert out.team_reward == 10.0
    assert out.next_state.remaining_items == frozenset()
    # terminal: all apples gone
    assert out.done and out.next_state.done


def test_lemon_worth_zero():
    spec = _toy("map: |\n  1l.\nstep_cap: 5\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT,))
    assert out.team_reward == 0.0
    assert out.next_state.remaining_items == frozenset()
    assert not out.done  # lemons do not end the episode


def test_step_cap_reaches_done():
    spec = _toy("map: |\n  1.\nstep_cap: 2\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_STAY,))
    assert not out.done
    out = step(spec, out.next_state, (ACTION_STAY,))
    assert out.done and out.next_state.step_count == 2


def test_per_agent_goal_owner_only():
    cfg = """
map: |
  12.
step_cap: 9
rewards:
  goal: 5.0
goals:
  - [2, 0]
  - [0, 0]
"""
    spec = _toy(cfg)
    state = reset(spec)
    # agent 2 walks onto agent 1's goal: no consumption, no reward
    out = step(spec, state, (ACTION_STAY, ACTION_RIGHT))
    assert out.team_reward == 0.0
    assert len(out.next_state.remaining_items) == 2
    out = step(spec, out.next_state, (ACTION_RIGHT, ACTION_STAY))
    assert out.next_state.agent_positions == ((1, 0), (2, 0))
    # owner arrives via a pass-through: agent 1 takes (2,0) while agent 2
    # vacates toward (1,0); only the owner's goal is consumed
    out = step(spec, out.next_state, (ACTION_RIGHT, ACTION_LEFT))
    assert out.next_state.agent_positions == ((2, 0), (1, 0))
    assert out.team_reward == 5.0
    assert len(out.next_state.remaining_items) == 1
    assert not out.done
    out = step(spec, out.next_state, (ACTION_STAY, ACTION_LEFT))
    assert out.team_reward == 5.0
    assert out.next_state.remaining_items == frozenset()
    assert out.done


def test_generic_goal_any_agent():
    spec = _toy("map: |\n  1g\nstep_cap: 5\nrewards:\n  goal: 5.0\n")
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT,))
    assert out.team_reward == 5.0
    assert out.next_state.remaining_items == frozenset()


def test_all_agents_at_goals_done():
    cfg = """
map: |
  1.2
step_cap: 9
rewards:
  goal: 5.0
goals:
  - [1, 0]
  - [2, 0]
"""
    spec = _toy(cfg)
    state = reset(spec)
    out = step(spec, state, (ACTION_RIGHT, ACTION_STAY))
    assert out.team_reward == 5.0 * 2  # agent 1 arrives, agent 2 already home
    assert out.done


def test_stepping_done_state_raises():
    spec = _toy("map: |\n  1.\nstep_cap: 1\n")
    out = step(spec, reset(spec), (ACTION_STAY,))
    assert out.done
    with pytest.raises(ValueError):
        step(spec, out.next_state, (ACTION_STAY,))


def test_observation_hand_encoded_scene():
    cfg = """
map: |
  #al.
  g12.
  ....
step_cap: 5
rewards:
  goal: 5.0
"""
    spec = _toy(cfg)
    state = reset(spec)
    obs = observe(spec, state, 0)
    # window rows top to bottom, cells left to right, channels
    # [wall, apple, lemon, goal, other-agent] per cell, then own (x, y)
    # normalized; agent 0 sits at (1, 1) of the 4x3 grid
    expected = np.array(
        [1, 0, 0, 0, 0,  # (0,0) wall
         0, 1, 0, 0, 0,  # (1,0) apple
         0, 0, 1, 0, 0,  # (2,0) lemon
         0, 0, 0, 1, 0,  # (0,1) goal item
         0, 0, 0, 0, 0,  # (1,1) self
         0, 0, 0, 0, 1,  # (2,1) other agent
         0, 0, 0, 0, 0,  # (0,2) floor
         0, 0, 0, 0, 0,  # (1,2) floor
         0, 0, 0, 0, 0,  # (2,2) floor
         1.0 / 3.0, 0.5],
        dtype=np.float64,
    )
    assert obs.shape == (OBS_LENGTH,)
    assert np.allclose(obs, expected, atol=0, rtol=0)


def test_observation_out_of_bounds_reads_as_wall():
    spec = _toy("map: |\n  1.\nstep_cap: 5\n")
    obs = observe(spec, reset(spec), 0)
    # ring around (0,0) in a 2x1 grid: all but the east cell out of bounds
    wall_flags = obs[:45].reshape(9, 5)[:, 0]
    assert wall_flags.tolist() == [1, 1, 1, 1, 0, 0, 1, 1, 1]


def test_observation_locality():
    spec = builtin_spec("checkers")
    s1 = reset(spec)
    # remove an item far from agent 0 at (6,0): the lemon at (0,0)
    s2 = EnvState(
        s1.agent_positions,
        frozenset(p for p in s1.remaining_items if p[0] != (0, 0)),
        s1.step_count,
        s1.done,
    )
    assert np.array_equal(observe(spec, s1, 0), observe(spec, s2, 0))


_WALLED_GOALS = """
map: |
  ##.##
  #1a.#
  .#l2.
  #...#
step_cap: 12
goals:
  - [3, 3]
  - [1, 3]
"""


@pytest.mark.parametrize(
    "grid",
    [
        "checkers",
        "switch",
        "map: |\n  1#\nstep_cap: 5\n",
        "map: |\n  #al.\n  g12.\n  ....\nstep_cap: 5\n",
        "map: |\n  12.\nstep_cap: 9\ngoals:\n  - [2, 0]\n  - [0, 0]\n",
        "map: |\n  1.2\n  .3.\nstep_cap: 9\n",
        _WALLED_GOALS,
    ],
    ids=["checkers", "switch", "wall", "scene", "goals", "three", "walled-goals"],
)
def test_observe_matches_per_cell_oracle(grid):
    spec = builtin_spec(grid) if grid in ("checkers", "switch") else _toy(grid)
    rng = np.random.default_rng(23)
    for _ in range(40):
        state = reset(spec)
        while True:
            for agent in range(spec.n_agents):
                assert np.array_equal(
                    observe(spec, state, agent), oracles.observe(spec, state, agent)
                )
            if state.done:
                break
            actions = tuple(int(a) for a in rng.integers(0, 5, spec.n_agents))
            state = step(spec, state, actions).next_state


def test_step_purity():
    spec = builtin_spec("checkers")
    state = reset(spec)
    a = (ACTION_LEFT, ACTION_LEFT)
    o1 = step(spec, state, a)
    o2 = step(spec, state, a)
    assert o1 == o2
    assert state.step_count == 0  # input untouched


def test_collision_permutation_symmetry():
    rng = np.random.default_rng(4)
    spec = _toy("map: |\n  1.2\n  .3.\nstep_cap: 9\n")
    state = reset(spec)
    for _ in range(200):
        actions = tuple(int(a) for a in rng.integers(0, 5, 3))
        perm = list(rng.permutation(3))
        out = step(spec, state, actions)
        load = EnvState(
            tuple(state.agent_positions[p] for p in perm),
            state.remaining_items,
            state.step_count,
            state.done,
        )
        out_p = step(spec, load, tuple(actions[p] for p in perm))
        assert out_p.next_state.agent_positions == tuple(
            out.next_state.agent_positions[p] for p in perm
        )
        assert out_p.team_reward == out.team_reward


def test_rollout_rewards_non_negative():
    spec = builtin_spec("switch")
    rng = np.random.default_rng(5)
    state = reset(spec)
    while not state.done:
        out = step(spec, state, tuple(int(a) for a in rng.integers(0, 5, 4)))
        assert out.team_reward >= 0.0
        state = out.next_state


def test_episode_reward_stay_policy_zero():
    spec = _toy("map: |\n  1..\nstep_cap: 4\n")

    def stay(spec_, state_):
        return (ACTION_STAY,)

    assert episode_reward(spec, stay) == 0.0


def test_episode_reward_scripted_corridor():
    spec = _toy("map: |\n  1...a\nstep_cap: 10\nrewards:\n  apple: 10.0\n")

    def go_right(spec_, state_):
        return (ACTION_RIGHT,)

    assert episode_reward(spec, go_right) == 10.0


class TestConfigGrammar:
    def test_ragged_map_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  1..\n  ..\nstep_cap: 5\n")

    def test_unknown_char_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  1x\nstep_cap: 5\n")
        # "²" is a digit to str.isdigit, but no agent number
        with pytest.raises(ConfigError, match="unknown map character"):
            _toy("map: |\n  1²\nstep_cap: 5\n")

    def test_duplicate_agent_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  11\nstep_cap: 5\n")

    def test_agent_gap_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  13\nstep_cap: 5\n")

    def test_no_agents_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  ..\nstep_cap: 5\n")

    def test_negative_reward_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  1a\nstep_cap: 5\nrewards:\n  apple: -1.0\n")

    def test_zero_step_cap_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  1.\nstep_cap: 0\n")

    def test_step_cap_follows_the_number_rule(self):
        assert _toy('map: |\n  1.\nstep_cap: "50"\n').step_cap == 50
        for bad in ("5.5", "true", '"5.5"', "[5]"):
            with pytest.raises(ConfigError):
                _toy(f"map: |\n  1.\nstep_cap: {bad}\n")

    def test_goal_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  12.\nstep_cap: 5\ngoals:\n  - [2, 0]\n")

    def test_goal_on_wall_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  1#\nstep_cap: 5\ngoals:\n  - [1, 0]\n")

    def test_goal_on_item_rejected(self):
        with pytest.raises(ConfigError):
            _toy("map: |\n  1a\nstep_cap: 5\ngoals:\n  - [1, 0]\n")

    @pytest.mark.parametrize("rewards", ["", "rewards:\n", "rewards: null\n"])
    def test_absent_or_null_rewards_are_the_defaults(self, rewards):
        spec = _toy("map: |\n  1.aa\nstep_cap: 5\n" + rewards)
        assert spec.reward_table == {"apple": 10.0, "lemon": 0.0, "goal": 5.0}

    @pytest.mark.parametrize(
        "extra",
        [
            "rewards:\n  apple: abc\n",
            "rewards: [1, 2]\n",
            # only an absent or null 'rewards' means the default rewards
            "rewards: false\n",
            "rewards: 0\n",
            "rewards: []\n",
            "rewards: ''\n",
            "rewards:\n  cherry: 1.0\n",
            "rewards:\n  apple: true\n",
            "rewards:\n  apple: .inf\n",
            # YAML 1.1 reads 1.0e308 as a string; the two apples sum to inf
            "rewards:\n  apple: 1.0e308\n",
            "goals:\n  - [a, 0]\n",
            "goals:\n  - [1.5, 0]\n",
            "goals:\n  - [true, 0]\n",
        ],
        ids=[
            "reward-text",
            "rewards-list",
            "rewards-false",
            "rewards-zero",
            "rewards-empty-list",
            "rewards-empty-text",
            "reward-unknown-kind",
            "reward-bool",
            "reward-inf",
            "reward-sum-inf",
            "goal-text",
            "goal-float",
            "goal-bool",
        ],
    )
    def test_bad_reward_or_goal_value_rejected(self, extra):
        with pytest.raises(ConfigError):
            _toy("map: |\n  1.aa\nstep_cap: 5\n" + extra)

    def test_numeric_strings_read_as_numbers(self):
        spec = _toy(
            "map: |\n  1.aa\nstep_cap: 5\nrewards:\n  apple: 1e3\n"
            "goals:\n  - ['1', 0]\n"
        )
        assert spec.reward_table["apple"] == 1000.0
        assert spec.agent_goals == ((1, 0),)
