"""The four benchmark workloads and the golden outputs they are checked against.

A workload is built once (its set-up) and then runs passes.  A pass is a
fixed list of ops; an op is one call a user would make (a ``marlcert``
CLI invocation, one ``tcrgr`` search, one training run).  Each op times
only its call, inside ``clock()``, which the runner may hand a tracer.
Outputs are compared with goldens recorded by ``record_goldens.py`` on
the code the benchmark was defined against.

Inputs come from the workload seed: it picks the branching-search
policies from a recorded pool and the attack run's master seed from a
recorded list, so every input has a golden.  reward-sweep and
train-recipe run fixed recipes and ignore the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from marlcert import certify, cli, envs, policy
from marlcert.smoothing import NoiseConfig

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
CHECKPOINT = DATA_DIR / "checkers-vdn"
GOLDENS = DATA_DIR / "goldens.json"

# criterion-7 settings
SWEEP_SIGMAS = (0.03, 0.06, 0.1)
SWEEP_SETTINGS = dict(samples=10000, alpha=0.01, seed=1)

# criterion-8 settings with a smaller trial budget
ATTACK_SETTINGS = dict(
    sigma=0.06,
    samples=1000,
    alpha=0.01,
    attack_steps=30,
    attack_restarts=2,
    attack_trials=20,
    rollout_trials=5,
)
ATTACK_SEEDS = tuple(range(1, 9))

# criterion-5 style policies on the checkers map with a short horizon
BRANCH_STEP_CAP = 12
BRANCH_NOISE = dict(sigma=0.5, samples=1000, alpha=0.05)
BRANCH_POLICY_SEEDS = tuple(range(500, 532))
BRANCH_MAX_NODES = 300  # larger trees stay out of the pool
BRANCH_TARGET_NODES = 360  # tree nodes per pass
BRANCH_SLACK_NODES = 12

TRAIN_RECIPE = policy.TrainConfig(episodes=5000, seed=3, gamma_train=0.7, obs_noise=0.1)
TRAIN_MIN_REWARD = 60.0


@dataclass
class OpResult:
    kind: str
    key: str
    seconds: float
    work: int = 0
    output: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class Timing:
    seconds: float = 0.0


class Clock:
    """Times an op's call; with a tracer, traces exactly that interval."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self):
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.new_invocation()
        timing = Timing()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def _certificate_view(certificates):
    return [
        {
            key: cert[key]
            for key in (
                "step_index",
                "state",
                "actions",
                "pvalues",
                "corrected_pvalues",
                "per_agent_radius",
                "certified_set",
                "min_radius",
            )
        }
        for cert in certificates
    ]


def golden_view(kind: str, results: dict) -> dict:
    """The part of a CLI result that must match its golden bit for bit."""
    if kind == "certify-state":
        return {"certificates": _certificate_view(results["certificates"])}
    view = {
        "epsilon_cert": results["epsilon_cert"],
        "r_min": results["r_min"],
    }
    if kind == "certify-reward":
        view["nodes_expanded"] = results["nodes_expanded"]
        view["clean_reward"] = results["clean_reward"]
    else:
        validation = results["validation"]
        view["certificates"] = _certificate_view(results["certificates"])
        for key in ("states_checked", "agents_checked", "in_ball_trials", "contrast_trials"):
            view[key] = validation[key]
    return view


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, goldens: dict):
        self.seed = seed
        self.work_dir = work_dir
        self.goldens = goldens
        self.clock = Clock()
        self.ops = []  # zero-argument callables returning an OpResult, in pass order

    def golden_output(self, result: OpResult) -> dict:
        """The part of an op's output that must match its golden exactly."""
        return result.output

    def check(self, result: OpResult) -> str | None:
        """None when a completed op's output is right, else why it is not."""
        want = self.goldens[self.name].get(result.key)
        if want is None:
            return f"no golden for {result.key}"
        if self.golden_output(result) != want:
            return f"{result.key}: output differs from its golden"
        return None

    def load(self):
        """marlcert's set-up before the first timed call: timed as setup_s.

        The constructor prepares the benchmark's own inputs (configs,
        policy choice) and then calls this once; it must be repeatable.
        """

    def inputs(self) -> dict:
        """The seed-derived inputs, so a result names exactly what it ran."""
        return {}

    def details(self, results) -> dict:
        """Workload-specific end-to-end figures, named as in the README."""
        return {}

    def run_pass(self):
        """Every op once; returns (op result, failure reason or None) pairs."""
        done = []
        for index, op in enumerate(self.ops):
            try:
                result = op()
            except Exception:
                result = OpResult("error", f"op{index}", 0.0, error=traceback.format_exc(limit=3))
            reason = result.error
            if reason is None:
                try:
                    reason = self.check(result)
                except Exception:
                    reason = f"{result.key}: checking raised\n{traceback.format_exc(limit=3)}"
            done.append((result, reason))
        return done


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _rate(results, kinds):
    chosen = [r for r in results if r.kind in kinds]
    seconds = sum(r.seconds for r in chosen)
    return sum(r.work for r in chosen) / seconds if seconds else float("nan")


class _CliWorkload(Workload):
    """Runs ``marlcert`` invocations in-process through ``cli.main``."""

    def _write_config(self, name: str, fields: dict) -> Path:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = self.work_dir / f"{name}.yaml"
        fields = dict(fields, out=str(self.work_dir / name))
        path.write_text(yaml.safe_dump(fields), encoding="utf-8")
        return path

    def _cli_op(self, kind: str, key: str, config: Path):
        def op():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with self.clock() as timing:
                    code = cli.main([kind, "--config", str(config)])
            if code != 0:
                error = f"exit code {code}: {sink.getvalue().strip()}"
                return OpResult(kind, key, timing.seconds, error=error)
            with open(self.work_dir / config.stem / "result.json", encoding="utf-8") as fh:
                results = json.load(fh)["results"]
            return OpResult(kind, key, timing.seconds, self._work(kind, results), results)

        return op

    def _work(self, kind, results):
        raise NotImplementedError

    def load(self):
        policy.load_policy(CHECKPOINT)  # fail in set-up, not in the first op

    def golden_output(self, result):
        return golden_view(result.kind, result.output)


class RewardSweep(_CliWorkload):
    """certify-reward then certify-state at each sigma, checkers/vdn."""

    name = "reward-sweep"

    def __init__(self, seed, work_dir, goldens):
        super().__init__(seed, work_dir, goldens)
        for sigma in SWEEP_SIGMAS:
            for kind in ("certify-reward", "certify-state"):
                key = f"{kind}@{sigma}"
                fields = dict(
                    SWEEP_SETTINGS,
                    mode=kind,
                    env="checkers",
                    mixer="vdn",
                    checkpoint=str(CHECKPOINT),
                    sigma=sigma,
                )
                config = self._write_config(key, fields)
                self.ops.append(self._cli_op(kind, key, config))
        self.load()

    def _work(self, kind, results):
        # smoothed states: tree nodes, or states along the certified rollout
        if kind == "certify-reward":
            return results["nodes_expanded"]
        return len(results["certificates"])

    def details(self, results):
        reward = [r for r in results if r.kind == "certify-reward"]
        return {
            "certify_reward_s": (_median([r.seconds for r in reward]), "s"),
            "certify_state_s": (
                _median([r.seconds for r in results if r.kind == "certify-state"]),
                "s",
            ),
            "search_nodes_per_s": (_rate(results, ("certify-reward",)), "1/s"),
        }


class AttackValidate(_CliWorkload):
    """``marlcert attack`` on checkers/vdn with the seed's master seed."""

    name = "attack-validate"

    def __init__(self, seed, work_dir, goldens):
        super().__init__(seed, work_dir, goldens)
        self.master_seed = ATTACK_SEEDS[seed % len(ATTACK_SEEDS)]
        key = f"attack@seed{self.master_seed}"
        fields = dict(
            ATTACK_SETTINGS,
            mode="attack",
            env="checkers",
            mixer="vdn",
            checkpoint=str(CHECKPOINT),
            seed=self.master_seed,
        )
        self.ops = [self._cli_op("attack", key, self._write_config(key, fields))]
        self.load()

    def inputs(self):
        return {"master_seed": self.master_seed}

    def _work(self, kind, results):
        validation = results["validation"]
        return validation["in_ball_trials"] + validation["contrast_trials"]

    def check(self, result):
        validation = result.output["validation"]
        if validation["in_ball_flips"]:
            return f"{result.key}: {validation['in_ball_flips']} in-ball flips"
        if validation["rmin_violated"]:
            return f"{result.key}: an attacked rollout scored below r_min"
        return super().check(result)

    def details(self, results):
        done = [r.output["validation"] for r in results if r.error is None]
        flips = sum(v["contrast_flips"] for v in done)
        trials = sum(v["contrast_trials"] for v in done)
        return {
            "pgd_attacks_per_s": (_rate(results, ("attack",)), "1/s"),
            "attack_contrast_flip_rate": (flips / trials if trials else float("nan"), "frac"),
        }


def branching_spec(step_cap: int = BRANCH_STEP_CAP):
    """The checkers map with a shorter horizon."""
    text = Path(envs.__file__).parent.joinpath("configs", "checkers.yaml").read_text(encoding="utf-8")
    doc = yaml.safe_load(text)
    doc["step_cap"] = step_cap
    return envs.parse_grid_config(yaml.safe_dump(doc))


def branching_policy(spec, policy_seed: int):
    """qmix_mono at random init with three live actions per agent."""
    joint = policy.new_policy(spec, "qmix_mono", np.random.default_rng(policy_seed))
    for net in joint.agent_nets:
        net.biases[-1][3:] -= 50.0
    return joint


def branching_noise(policy_seed: int) -> NoiseConfig:
    return NoiseConfig(seed=policy_seed, **BRANCH_NOISE)


def select_policies(seed: int, pool_nodes: dict) -> list:
    """Policy seeds from the pool, in seeded order, filling the node target.

    ``pool_nodes`` maps policy seed to its recorded tree size; the pick
    stops once the total is within the slack of the target, so every
    workload seed searches about the same number of nodes.
    """
    order = np.random.default_rng([seed, 0x5EA7C4]).permutation(sorted(pool_nodes))
    chosen = []
    total = 0
    for policy_seed in order.tolist():
        nodes = pool_nodes[policy_seed]
        if total + nodes <= BRANCH_TARGET_NODES:
            chosen.append(policy_seed)
            total += nodes
        if total >= BRANCH_TARGET_NODES - BRANCH_SLACK_NODES:
            break
    return chosen


def state_key(spec, state) -> str:
    """Compact exact identity of a state: positions, items left, step."""
    items = sorted(spec.items.items())
    mask = sum(1 << i for i, item in enumerate(items) if item in state.remaining_items)
    cells = ",".join(f"{x},{y}" for x, y in state.agent_positions)
    return f"{cells}/{mask}/{state.step_count}"


@contextlib.contextmanager
def recording_tallies(spec):
    """Record every tally ``tcrgr`` draws, keyed by state."""
    tallies = {}
    inner = certify.sample_tally

    def sample_tally(joint, grid, state, cfg):
        tally = inner(joint, grid, state, cfg)
        tallies[state_key(spec, state)] = " ".join(map(str, tally.per_agent.ravel().tolist()))
        return tally

    certify.sample_tally = sample_tally
    try:
        yield tallies
    finally:
        certify.sample_tally = inner


class BranchingSearch(Workload):
    """``tcrgr`` over the seed's policies; the search really branches."""

    name = "branching-search"

    def __init__(self, seed, work_dir, goldens):
        super().__init__(seed, work_dir, goldens)
        pool = {int(k): v["nodes_expanded"] for k, v in goldens[self.name].items()}
        self.policy_seeds = select_policies(seed, pool)
        self.load()

    def load(self):
        self.spec = branching_spec()
        self.ops = [self.search_op(s) for s in self.policy_seeds]

    def search_op(self, policy_seed: int):
        joint = branching_policy(self.spec, policy_seed)
        cfg = branching_noise(policy_seed)
        spec = self.spec

        def op():
            with self.clock() as timing:
                with recording_tallies(spec) as tallies:
                    cert = certify.tcrgr(joint, spec, cfg)
            output = {
                "epsilon_cert": cert.epsilon_cert,
                "r_min": cert.r_min,
                "nodes_expanded": cert.nodes_expanded,
                "tallies": dict(sorted(tallies.items())),
            }
            return OpResult("tcrgr", str(policy_seed), timing.seconds, cert.nodes_expanded, output)

        return op

    def inputs(self):
        return {"policy_seeds": self.policy_seeds}

    def details(self, results):
        return {"search_nodes_per_s": (_rate(results, ("tcrgr",)), "1/s")}


class TrainRecipe(Workload):
    """The checkers/vdn acceptance training recipe, through ``policy.train``."""

    name = "train-recipe"

    def __init__(self, seed, work_dir, goldens):
        super().__init__(seed, work_dir, goldens)
        self.stored = policy.load_policy(CHECKPOINT)
        self.ops = [self._train]
        self.load()

    def load(self):
        self.spec = envs.builtin_spec("checkers")

    def _train(self):
        steps = 0

        def step(*args, **kwargs):
            nonlocal steps
            steps += 1
            return inner(*args, **kwargs)

        with self.clock() as timing:
            inner = policy.step  # read inside the clock, so a tracer sees the steps
            policy.step = step
            try:
                trained = policy.train(self.spec, TRAIN_RECIPE, "vdn")
            finally:
                policy.step = inner
        reward = envs.episode_reward(
            self.spec, lambda spec, state: policy.greedy_joint_action(trained, spec, state)
        )
        output = {
            "clean_greedy_reward": reward,
            "same_as_stored_checkpoint": _same_networks(trained, self.stored),
        }
        return OpResult("train", "checkers-vdn", timing.seconds, steps, output)

    def check(self, result):
        # semantic on purpose: training may change its RNG draw order
        reward = result.output.get("clean_greedy_reward", float("-inf"))
        if reward < TRAIN_MIN_REWARD:
            return f"trained policy scores {reward}, below {TRAIN_MIN_REWARD}"
        return None

    def details(self, results):
        done = [r for r in results if r.error is None]
        return {
            "train_env_steps_per_s": (_rate(results, ("train",)), "1/s"),
            # 1 while training still reproduces the stored checkpoint bit for bit
            "same_as_stored_checkpoint": (
                float(all(r.output["same_as_stored_checkpoint"] for r in done)),
                "bool",
            ),
        }


def _same_networks(a, b) -> bool:
    nets_a = list(a.agent_nets) + ([a.hypernet] if a.hypernet is not None else [])
    nets_b = list(b.agent_nets) + ([b.hypernet] if b.hypernet is not None else [])
    return len(nets_a) == len(nets_b) and all(
        x.layer_dims == y.layer_dims
        and all(np.array_equal(p, q) for p, q in zip(x.weights + x.biases, y.weights + y.biases))
        for x, y in zip(nets_a, nets_b)
    )


WORKLOADS = {
    cls.name: cls for cls in (RewardSweep, BranchingSearch, AttackValidate, TrainRecipe)
}
