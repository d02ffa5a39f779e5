"""Deterministic cooperative gridworlds with a tiny text config format.

A grid is described by a YAML document:

    map: |
      alalal.1
      ........
      lalala.2
    step_cap: 50
    rewards:
      apple: 10.0
      lemon: 0.0
    goals:            # optional, one [x, y] entry per agent
      - [6, 0]

Map characters: ``#`` wall, ``.`` or space floor, ``a`` apple, ``l`` lemon,
``g`` goal item claimable by any agent, digits ``1``-``9`` agent start cells
(numbered contiguously from 1).  The ``goals`` key instead assigns one goal
cell per agent; only the owning agent can consume it.  Rewards are shared by
the team, are never negative, and sum to a finite total over the grid's
items.  The document follows the number rule of `errors`: ``step_cap``
and goal coordinates are integers, rewards real numbers.

Dynamics are fully deterministic.  All agents move simultaneously; moves into
walls or off the grid become stays, and contested moves are cancelled by
iterating "revert every mover whose target cell is claimed twice" to a
fixpoint, so an agent blocked by a wall also blocks anyone behind it.  Two
agents may swap cells.  After movement, any item under an agent is consumed
(per-agent goals only by their owner) and its reward added to the team
reward.  An episode ends at the step cap, when no apples remain (if the grid
started with any), or when every agent sits on its assigned goal.

States are immutable values: `step` returns a fresh `EnvState` and never
mutates its inputs, and `EnvState` is hashable so search code can memoize
per-state work.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, as_integer, as_real, check_numbers, read_file, read_yaml

ACTION_UP = 0
ACTION_DOWN = 1
ACTION_LEFT = 2
ACTION_RIGHT = 3
ACTION_STAY = 4
N_ACTIONS = 5
# an observation: a 3x3 window of 5 channels per cell, then the agent's
# normalized position
OBS_LENGTH = 9 * 5 + 2

_DELTAS = ((0, -1), (0, 1), (-1, 0), (1, 0), (0, 0))

# map character -> item kind, in the order of observe's item channels
_MAP_ITEMS = {"a": "apple", "l": "lemon", "g": "goal"}
ITEM_KINDS = tuple(_MAP_ITEMS.values())

_DEFAULT_REWARDS = {"apple": 10.0, "lemon": 0.0, "goal": 5.0}

Cell = tuple  # (x, y) with x the column and y the row, origin top-left
JointAction = tuple  # one action index per agent


@dataclass(frozen=True)
class GridSpec:
    """Static description of a grid. Treat all fields as immutable."""

    width: int
    height: int
    walls: frozenset
    items: dict  # cell -> kind, the item layout at reset
    agent_starts: tuple
    agent_goals: Optional[tuple]
    step_cap: int
    reward_table: dict  # kind -> team reward on consumption

    def __post_init__(self):
        check_numbers(self)
        _validate_spec(self)

    @property
    def n_agents(self) -> int:
        return len(self.agent_starts)


@dataclass(frozen=True)
class EnvState:
    """A point-in-time snapshot of the world; hashable and comparable."""

    agent_positions: tuple
    remaining_items: frozenset  # of (cell, kind) pairs
    step_count: int
    done: bool


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    team_reward: float
    done: bool


def _in_bounds(spec: GridSpec, cell) -> bool:
    x, y = cell
    return 0 <= x < spec.width and 0 <= y < spec.height


def _passable(spec: GridSpec, cell) -> bool:
    return _in_bounds(spec, cell) and cell not in spec.walls


def _validate_spec(spec: GridSpec) -> None:
    if spec.width < 1 or spec.height < 1:
        raise ConfigError("grid must be at least 1x1")
    if spec.step_cap < 1:
        raise ConfigError("step_cap must be at least 1")
    if not spec.agent_starts:
        raise ConfigError("grid defines no agents")
    for cell in spec.walls:
        if not _in_bounds(spec, cell):
            raise ConfigError(f"wall {cell} out of bounds")
    seen = set()
    for cell in spec.agent_starts:
        if not _passable(spec, cell):
            raise ConfigError(f"agent start {cell} blocked or out of bounds")
        if cell in seen:
            raise ConfigError(f"two agents start at {cell}")
        seen.add(cell)
    for cell, kind in spec.items.items():
        if kind not in ITEM_KINDS:
            raise ConfigError(f"unknown item kind {kind!r}")
        if not _passable(spec, cell):
            raise ConfigError(f"item at {cell} blocked or out of bounds")
    if spec.agent_goals is not None:
        if len(spec.agent_goals) != len(spec.agent_starts):
            raise ConfigError("need exactly one goal per agent")
        if len(set(spec.agent_goals)) != len(spec.agent_goals):
            raise ConfigError("agent goals must be distinct")
        for cell in spec.agent_goals:
            if spec.items.get(cell) != "goal":
                raise ConfigError(f"agent goal {cell} has no goal item")
    for kind, value in spec.reward_table.items():
        if kind not in ITEM_KINDS:
            raise ConfigError(f"unknown reward kind {kind!r}")
        if not (value >= 0.0):
            raise ConfigError(f"reward for {kind!r} must be non-negative")
    # a finite grid total bounds every path total, so no return overflows
    if not np.isfinite(sum(spec.reward_table[kind] for kind in spec.items.values())):
        raise ConfigError("the rewards of the grid's items must have a finite sum")


def parse_grid_config(text: str) -> GridSpec:
    """Parse a YAML grid description into a validated `GridSpec`."""
    doc = read_yaml(text, "grid config")
    if not isinstance(doc, dict):
        raise ConfigError("grid config must be a mapping")
    unknown = set(doc) - {"map", "step_cap", "rewards", "goals"}
    if unknown:  # keys of any YAML type: sorted by their text
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=repr)}")
    if "map" not in doc or not isinstance(doc["map"], str):
        raise ConfigError("config needs a 'map' string")

    table = doc.get("rewards")
    if table is None:
        table = {}
    if not isinstance(table, dict):
        raise ConfigError("'rewards' must map item kinds to rewards")
    rewards = dict(_DEFAULT_REWARDS)
    for kind, value in table.items():
        rewards[kind] = as_real(f"reward for {kind!r}", value)

    rows = [line for line in doc["map"].splitlines() if line.strip()]
    if not rows:
        raise ConfigError("map is empty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ConfigError("map rows must all have the same length")

    walls = set()
    items = {}
    starts = {}
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            cell = (x, y)
            if ch == "#":
                walls.add(cell)
            elif ch in _MAP_ITEMS:
                items[cell] = _MAP_ITEMS[ch]
            elif ch in "123456789":
                idx = int(ch) - 1
                if idx in starts:
                    raise ConfigError(f"agent {ch} appears twice in map")
                starts[idx] = cell
            elif ch not in ". ":
                raise ConfigError(f"unknown map character {ch!r}")
    if sorted(starts) != list(range(len(starts))):
        raise ConfigError("agent numbers must be contiguous from 1")
    agent_starts = tuple(starts[i] for i in range(len(starts)))

    agent_goals = None
    if "goals" in doc and doc["goals"] is not None:
        if any(kind == "goal" for kind in items.values()):
            raise ConfigError("use either 'g' cells or the 'goals' key")
        goals = doc["goals"]
        if not isinstance(goals, list):
            raise ConfigError("'goals' must be a list of [x, y] pairs")
        parsed = []
        for entry in goals:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigError("'goals' must be a list of [x, y] pairs")
            parsed.append(tuple(as_integer("a goal coordinate", v) for v in entry))
        for cell in parsed:
            if cell in items:
                raise ConfigError(f"goal {cell} placed on top of an item")
            items[cell] = "goal"
        agent_goals = tuple(parsed)

    return GridSpec(
        width=width,
        height=len(rows),
        walls=frozenset(walls),
        items=items,
        agent_starts=agent_starts,
        agent_goals=agent_goals,
        step_cap=doc.get("step_cap"),
        reward_table=rewards,
    )


def load_grid_config(path) -> GridSpec:
    return parse_grid_config(read_file(path, "grid config"))


def builtin_spec(name: str) -> GridSpec:
    """Load one of the packaged grids ("checkers" or "switch")."""
    resource = importlib.resources.files("marlcert").joinpath(
        "configs", f"{name}.yaml"
    )
    if not resource.is_file():
        raise ConfigError(f"no builtin grid named {name!r}")
    return parse_grid_config(resource.read_text(encoding="utf-8"))


def reset(spec: GridSpec) -> EnvState:
    return EnvState(
        agent_positions=tuple(spec.agent_starts),
        remaining_items=frozenset(spec.items.items()),
        step_count=0,
        done=False,
    )


def _resolve_moves(spec: GridSpec, positions, actions):
    targets = []
    for (x, y), action in zip(positions, actions):
        dx, dy = _DELTAS[action]
        cell = (x + dx, y + dy)
        targets.append(cell if _passable(spec, cell) else (x, y))
    # cancel contested moves until stable; every round reverts at least one
    # mover, so this ends after at most n_agents rounds
    while True:
        moved = [i for i, cell in enumerate(targets) if cell != positions[i]]
        contested = [i for i in moved if targets.count(targets[i]) > 1]
        if not contested:
            return tuple(targets)
        for i in contested:
            targets[i] = positions[i]


def step(spec: GridSpec, state: EnvState, actions: JointAction) -> StepOutcome:
    """Advance one tick. Raises on done states or malformed actions."""
    if state.done:
        raise ValueError("cannot step a finished episode")
    if len(actions) != spec.n_agents:
        raise ValueError(f"expected {spec.n_agents} actions, got {len(actions)}")
    for action in actions:
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action {action} out of range")

    positions = _resolve_moves(spec, state.agent_positions, actions)

    remaining = dict(state.remaining_items)
    reward = 0.0
    goals = spec.agent_goals
    for idx, cell in enumerate(positions):
        kind = remaining.get(cell)
        if kind is None or (kind == "goal" and goals and goals[idx] != cell):
            continue  # nothing here, or someone else's goal: leave it be
        del remaining[cell]
        reward += spec.reward_table[kind]

    step_count = state.step_count + 1
    done = (
        step_count >= spec.step_cap
        or ("apple" in spec.items.values() and "apple" not in remaining.values())
        or positions == spec.agent_goals
    )

    next_state = EnvState(positions, frozenset(remaining.items()), step_count, done)
    return StepOutcome(next_state=next_state, team_reward=reward, done=done)


def observe(spec: GridSpec, state: EnvState, agent: int) -> np.ndarray:
    """Egocentric 3x3 view of agent `agent`, flattened to a float vector.

    Each window cell contributes five 0/1 channels, in window row-major
    order: wall (off-grid counts as wall), apple, lemon, goal item, other
    agent.  The two trailing entries are the agent's own position scaled
    to [0, 1].  The center cell never sets the other-agent channel.
    """
    if not 0 <= agent < spec.n_agents:
        raise ValueError(f"no agent {agent}")
    ax, ay = state.agent_positions[agent]
    out = np.zeros(OBS_LENGTH, dtype=np.float64)
    k = 0
    for y in (ay - 1, ay, ay + 1):
        for x in (ax - 1, ax, ax + 1):
            if not (0 <= x < spec.width and 0 <= y < spec.height) or (x, y) in spec.walls:
                out[k] = 1.0
            k += 5
    # an item or another agent marks its window cell's channel unless
    # that cell reads as wall
    for (x, y), kind in state.remaining_items:
        if -1 <= x - ax <= 1 and -1 <= y - ay <= 1:
            k = 5 * (3 * (y - ay) + x - ax + 4)
            if not out[k]:
                out[k + 1 + ITEM_KINDS.index(kind)] = 1.0
    for i, (x, y) in enumerate(state.agent_positions):
        if i != agent and -1 <= x - ax <= 1 and -1 <= y - ay <= 1:
            k = 5 * (3 * (y - ay) + x - ax + 4)
            if not out[k]:
                out[k + 4] = 1.0
    out[-2] = ax / max(spec.width - 1, 1)
    out[-1] = ay / max(spec.height - 1, 1)
    return out


def episode_reward(
    spec: GridSpec,
    policy_fn: Callable[[GridSpec, EnvState], JointAction],
) -> float:
    """Undiscounted team return of one rollout under `policy_fn`, run
    until the episode is done (at the latest at ``step_cap``)."""
    state = reset(spec)
    total = 0.0
    while not state.done:
        outcome = step(spec, state, policy_fn(spec, state))
        total += outcome.team_reward
        state = outcome.next_state
    return total
