"""Batch front-end: train, certify, attack, and merge result tables.

Every run is driven by one RunConfig, the flat schema of the YAML config
file, read by the number rule of `errors`; the flags ``--seed``,
``--sigma``, ``--samples``, ``--alpha`` and ``--out`` override the
fields of the same name.  RunConfig builds the
library configs (noise, training, attack) once, so every setting is
checked by the config that owns it, in every mode: the attack schedule
checks its counts and that their PGD batches fit in memory.  ``run``
then reads the grid and loads the checkpoint and fits it to the grid,
both before it makes the output directory; the mode's handler computes
its results and names its artifacts, and ``run`` writes them into the
output directory, ``result.json`` last:

* ``result.json``: the full structured record, schema-versioned, with
  the run's config echoed verbatim.  Replaying that echo with the same
  numpy, BLAS and CPU dispatch reproduces the record bit-for-bit (timings
  aside); one master seed derives every noise, training, and attack
  stream by name.  The certificate, state, validation and config
  sections are the library dataclasses
  (``StateCertificate``, ``EnvState``, ``ValidationReport``,
  ``RunConfig``) keyed by field name; sets are written as sorted lists.
* flat CSV exports next to it: a per-step radius series for the
  certify-state mode, and one (env, mixer, sigma, epsilon_cert, r_min,
  attacked_reward) row for the reward and attack modes.  Report mode
  merges such rows from many result files into one sorted table.
* the trained policy's ``checkpoint`` directory in train mode.

Exit codes: 0 ok, 2 bad configuration, 3 missing, corrupt, unreadable
or unwritable file or checkpoint (its manifest included), or a
checkpoint that does not fit the grid, or an output directory whose
parent does not exist, 4 numerical failure (e.g. diverged training, or
non-finite smoothed action values).  A run makes only the output
directory itself.  A refused config, grid or checkpoint leaves none,
and a failure while the mode runs removes the empty output directory
that the run made; one that existed before stays.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial

from . import __version__
from .attack import AttackConfig, validate_certificates
from .certify import certify_trajectory, crsc, tcrgr
from .envs import OBS_LENGTH, builtin_spec, episode_reward, load_grid_config
from .errors import CheckpointError, ConfigError, MissingArtifactError, NumericalError
from .errors import as_real, check_numbers, read_file, read_yaml
from .policy import (
    MIXERS,
    TrainConfig,
    global_encoding_length,
    greedy_joint_action,
    load_policy,
    save_policy,
    train,
)
from .seeds import derive_seed
from .smoothing import NoiseConfig

MODES = ("train", "certify-state", "certify-reward", "attack", "report")

# the RunConfig fields a command-line flag of the same name overrides
_FLAGS = {"seed": int, "sigma": float, "samples": int, "alpha": float, "out": str}

_TABLE_HEADER = ("env", "mixer", "sigma", "epsilon_cert", "r_min", "attacked_reward")


@dataclass(frozen=True)
class RunConfig:
    """All parameters of one invocation: the one flat YAML schema.

    ``env`` is a grid YAML path or a builtin grid name; ``checkpoint``
    is required by the certify and attack modes; ``inputs`` lists result
    files for report mode.  ``seed`` is the single master seed: training
    uses it directly, smoothing and attacks use sub-streams derived from
    it by name.

    Construction builds the run's library configs in every mode, and each
    checks the fields it receives: ``noise`` (``NoiseConfig``),
    ``training`` (``TrainConfig``) and ``attack`` (``AttackConfig``, the
    attack schedule, whose errors drop the ``attack_`` prefix).  This
    class checks only the fields none of them receives.
    """

    mode: str
    env: str = ""
    out: str = ""
    checkpoint: str | None = None
    sigma: float = 0.1
    samples: int = 1000
    alpha: float = 0.05
    seed: int = 0
    mixer: str = "vdn"
    episodes: int = 2000
    learning_rate: float = TrainConfig.learning_rate
    gamma_train: float = TrainConfig.gamma_train
    obs_noise: float = TrainConfig.obs_noise
    attack_steps: int = AttackConfig.steps
    attack_restarts: int = AttackConfig.restarts
    attack_trials: int = AttackConfig.trials
    rollout_trials: int = AttackConfig.rollout_trials
    inputs: tuple = ()

    def __post_init__(self):
        check_numbers(self)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("env", "out", "checkpoint"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (name == "checkpoint" and value is None)):
                raise ConfigError(f"{name} must be a string")
        if not isinstance(self.inputs, (list, tuple)) or not all(
            isinstance(path, str) for path in self.inputs
        ):
            raise ConfigError("inputs must be a list of result file paths")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.mode == "report":
            if not self.inputs:
                raise ConfigError("report mode needs at least one input result file")
        elif not self.env:
            raise ConfigError("env is required")
        if not self.out:
            raise ConfigError("out is required")
        if self.mixer not in MIXERS:
            raise ConfigError(f"mixer must be one of {MIXERS}")
        noise = NoiseConfig(
            sigma=self.sigma,
            samples=self.samples,
            alpha=self.alpha,
            seed=derive_seed(self.seed, "smoothing"),
        )
        training = TrainConfig(
            episodes=self.episodes,
            seed=self.seed,
            learning_rate=self.learning_rate,
            gamma_train=self.gamma_train,
            obs_noise=self.obs_noise,
        )
        attack = AttackConfig(
            noise=noise,
            steps=self.attack_steps,
            restarts=self.attack_restarts,
            trials=self.attack_trials,
            rollout_trials=self.rollout_trials,
        )
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "training", training)
        object.__setattr__(self, "attack", attack)


@dataclass(frozen=True)
class ResultRecord:
    schema_version: int
    mode: str
    config: dict
    build: str
    results: dict
    timings: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_build = None  # found once per process: the loaded code cannot change


def _build_id() -> str:
    global _build
    if _build is None:
        _build = f"marlcert-{__version__}"
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return _build
        if probe.returncode == 0:
            _build += f"+{probe.stdout.strip()}"
    return _build


def _load_spec(env: str):
    if os.path.exists(env):
        return load_grid_config(env)
    try:
        return builtin_spec(env)
    except ConfigError:
        raise MissingArtifactError(f"env is neither a file nor a builtin grid: {env}")


def _env_name(env: str) -> str:
    return os.path.splitext(os.path.basename(env))[0]


def _require_checkpoint(cfg: RunConfig, spec):
    if not cfg.checkpoint:
        raise ConfigError(f"checkpoint is required for mode {cfg.mode!r}")
    policy = load_policy(cfg.checkpoint)
    if policy.n_agents != spec.n_agents:
        raise CheckpointError(
            f"incompatible checkpoint data: {policy.n_agents} agents, "
            f"the grid has {spec.n_agents}"
        )
    if policy.agents.layer_dims[0] != OBS_LENGTH:
        raise CheckpointError(
            f"incompatible checkpoint data: an agent network does not read "
            f"{OBS_LENGTH} observation features"
        )
    width = global_encoding_length(spec)
    if policy.hypernet is not None and policy.hypernet.layer_dims[0] != width:
        raise CheckpointError(
            f"incompatible checkpoint data: the hypernetwork reads "
            f"{policy.hypernet.layer_dims[0]} state features, the grid has {width}"
        )
    return policy


def _write_csv(rows, path):
    """Write ``rows``, the header first, as a CSV file; None is blank."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _reward_bound(cfg: RunConfig, policy, bound, attacked_reward):
    """The result fields ``certify-reward`` and ``attack`` share, and
    their ``reward_bound.csv`` row.

    ``confidence`` is the level at which ``epsilon_cert`` and ``r_min``
    hold jointly: a union bound over the one level-alpha test per agent
    per expanded node.
    """
    results = {
        "env": _env_name(cfg.env),
        "mixer": policy.mixer,
        "sigma": cfg.sigma,
        "epsilon_cert": bound.epsilon_cert,
        "r_min": bound.r_min,
        "confidence": max(
            0.0, 1.0 - bound.nodes_expanded * policy.n_agents * cfg.noise.alpha
        ),
        "attacked_reward": attacked_reward,
        "clean_reward": bound.clean_reward,
    }
    row = [results[key] for key in _TABLE_HEADER]
    return results, {"reward_bound.csv": partial(_write_csv, [_TABLE_HEADER, row])}


def _run_train(cfg: RunConfig, spec, _):
    policy = train(spec, cfg.training, cfg.mixer)
    clean = episode_reward(
        spec, lambda s, state: greedy_joint_action(policy, s, state)
    )
    results = {
        "checkpoint": os.path.join(cfg.out, "checkpoint"),
        "env": _env_name(cfg.env),
        "mixer": cfg.mixer,
        "episodes": cfg.episodes,
        "clean_greedy_reward": clean,
    }
    return results, {"checkpoint": partial(save_policy, policy)}


def _run_certify_state(cfg: RunConfig, spec, policy):
    certificates = certify_trajectory(policy, spec, cfg.noise)
    n = policy.n_agents
    rows = [["step", "min_radius"] + [f"d_{i}" for i in range(n)]]
    rows += [
        [c.step_index, c.min_radius] + [c.per_agent_radius[i] for i in range(n)]
        for c in certificates
    ]
    results = {
        "env": _env_name(cfg.env),
        "mixer": policy.mixer,
        "sigma": cfg.sigma,
        "certificates": [dataclasses.asdict(c) for c in certificates],
    }
    return results, {"state_series.csv": partial(_write_csv, rows)}


def _run_certify_reward(cfg: RunConfig, spec, policy):
    bound = tcrgr(policy, spec, cfg.noise)
    results, files = _reward_bound(cfg, policy, bound, None)
    results["nodes_expanded"] = bound.nodes_expanded
    return results, files


def _run_attack(cfg: RunConfig, spec, policy):
    bound = tcrgr(policy, spec, cfg.noise)
    certificates = [crsc(decision, cfg.noise) for decision in bound.clean_path]
    report = validate_certificates(
        policy,
        spec,
        certificates,
        bound,
        cfg.attack,
        derive_seed(cfg.seed, "attack"),
    )
    rewards = report.rollout_rewards
    results, files = _reward_bound(cfg, policy, bound, sum(rewards) / len(rewards))
    results["validation"] = dataclasses.asdict(report)
    results["certificates"] = [dataclasses.asdict(c) for c in certificates]
    return results, files


def _run_report(cfg: RunConfig, *_):
    rows = []
    for path in cfg.inputs:
        text = read_file(path, "result file")
        try:
            record = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, or too many digits or levels
            raise ConfigError(f"result file is not valid JSON: {path}") from exc
        if not isinstance(record, dict):
            raise ConfigError(f"result file {path} does not hold an object")
        results = record.get("results", {})
        if not isinstance(results, dict):
            raise ConfigError(f"result file {path}: results is not an object")
        missing = [k for k in _TABLE_HEADER if k not in results]
        if missing:
            raise ConfigError(
                f"result file {path} lacks table fields {missing} "
                f"(mode {record.get('mode')!r} exports no reward bound)"
            )
        for key in ("env", "mixer"):
            if not isinstance(results[key], str):
                raise ConfigError(f"result file {path}: {key} is not a string")
        as_real(f"result file {path}: sigma", results["sigma"])
        rows.append({key: results[key] for key in _TABLE_HEADER})
    rows.sort(key=lambda r: (r["env"], r["mixer"], r["sigma"]))
    table = [_TABLE_HEADER] + [[row[k] for k in _TABLE_HEADER] for row in rows]
    return {"rows": rows}, {"report.csv": partial(_write_csv, table)}


def _sorted_list(value):
    """JSON form of the sets in library records: a sorted list."""
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def run(cfg: RunConfig) -> ResultRecord:
    """Execute one configured run and write its artifacts.

    A handler returns the mode's results and its artifacts: a one-argument
    writer per file name under ``out``.  Nothing is written before the
    handler returns, so a handler that raises leaves ``out`` empty, and
    it is removed if this run made it.
    """
    started = time.perf_counter()
    # a refused grid or checkpoint leaves no output directory behind
    spec = None if cfg.mode == "report" else _load_spec(cfg.env)
    policy = None if cfg.mode in ("train", "report") else _require_checkpoint(cfg, spec)
    made = not os.path.isdir(cfg.out)
    if made:
        os.mkdir(cfg.out)  # never its parents: a missing one is an OSError
    handler = {
        "report": _run_report,
        "train": _run_train,
        "certify-state": _run_certify_state,
        "certify-reward": _run_certify_reward,
        "attack": _run_attack,
    }[cfg.mode]
    try:
        results, files = handler(cfg, spec, policy)
    except BaseException:
        if made:
            os.rmdir(cfg.out)
        raise
    for name, write in files.items():
        write(os.path.join(cfg.out, name))
    record = ResultRecord(
        schema_version=1,
        mode=cfg.mode,
        config=dataclasses.asdict(cfg),
        build=_build_id(),
        results=results,
        timings={"total_s": time.perf_counter() - started},
    )
    with open(os.path.join(cfg.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(
            record.to_dict(), fh, indent=2, sort_keys=True, default=_sorted_list
        )
        fh.write("\n")
    return record


def _load_config_file(path: str) -> dict:
    doc = read_yaml(read_file(path, "config file"), "config file")
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a mapping of fields")
    valid = {f.name for f in dataclasses.fields(RunConfig)}
    for key in doc:
        if key not in valid:
            raise ConfigError(f"unknown config field {key!r}")
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marlcert",
        description="Certify and attack smoothed multi-agent policies.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="YAML file with all parameters")
        for name, kind in _FLAGS.items():
            p.add_argument(f"--{name}", type=kind)
        if mode == "report":
            p.add_argument("inputs", nargs="*", help="result.json files to merge")
    return parser


def _config_from_args(args) -> RunConfig:
    fields = _load_config_file(args.config) if args.config else {}
    fields["mode"] = args.mode
    for name in _FLAGS:
        value = getattr(args, name)
        if value is not None:
            fields[name] = value
    if getattr(args, "inputs", None):
        fields["inputs"] = tuple(args.inputs)
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, CheckpointError) as exc:
        print(f"file or checkpoint error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    print(f"{cfg.mode}: wrote {os.path.join(cfg.out, 'result.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
