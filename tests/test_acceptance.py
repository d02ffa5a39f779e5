"""Release acceptance checks, one test per numbered criterion.

Run with ``pytest -s tests/test_acceptance.py`` so the one-line
``[criterion N] PASS``/``FAIL`` verdicts stay visible; each line carries
the measured runtime, which is itself part of the check.  Expected values
come from the frozen oracle grids (see tests/gen_reference_grids.py), from
closed forms, or from exhaustive reference procedures built inline; the
trained-model checks assert qualitative laws (trends and bounds) rather
than point values, which depend on the training trajectory.
"""

import contextlib
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
import reference_grids
from marlcert.attack import AttackConfig, attacked_rollout, validate_certificates
from marlcert.certify import crsc, decide, get_node, tcrgr
from marlcert.cli import RunConfig, main
from marlcert.envs import (
    N_ACTIONS,
    builtin_spec,
    episode_reward,
    parse_grid_config,
    reset,
    step,
)
from marlcert.nn import Mlp, forward_trace, mlp_init, reverse_sweep
from marlcert.policy import (
    TrainConfig,
    greedy_joint_action,
    load_policy,
    new_policy,
    train,
)
from marlcert.smoothing import ActionTally, NoiseConfig, per_agent_radii
from marlcert.stats import (
    binom_lower_bound,
    binom_pvalue_one_sided,
    binom_pvalue_two_sided,
    bh_procedure,
    chi2_quantile,
    goodman_bounds,
    std_normal_quantile,
)


@contextlib.contextmanager
def _criterion(number, budget_seconds, carried_seconds=0.0):
    """Print one verdict line; runtime over budget is a failure too."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start + carried_seconds
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds:.0f}s"
        )
    except BaseException:
        print(f"\n[criterion {number}] FAIL")
        raise
    print(f"\n[criterion {number}] PASS ({elapsed:.1f}s)")


# --- 1: statistical kernel against frozen oracle grids ---


def test_criterion_1_stat_kernel():
    with _criterion(1, 10.0):
        grid = reference_grids.NORMAL_QUANTILE
        assert len(grid) >= 200
        for p, want in grid:
            assert abs(std_normal_quantile(p) - want) <= 1e-8

        grid = reference_grids.CHI2_QUANTILE
        assert len(grid) >= 200
        for df, p, want in grid:
            assert abs(chi2_quantile(df, p) - want) <= 1e-8

        grid = reference_grids.BINOM_ONE_SIDED
        assert len(grid) >= 200
        for k, M, want in grid:
            got = binom_pvalue_one_sided(k, M)
            assert abs(got - want) <= 1e-8
            assert want == 0.0 or abs(got - want) <= 1e-8 * want

        for k, M, want in reference_grids.BINOM_TWO_SIDED:
            got = binom_pvalue_two_sided(k, M)
            assert abs(got - want) <= 1e-8
            assert want == 0.0 or abs(got - want) <= 1e-8 * want

        grid = reference_grids.CP_LOWER
        assert len(grid) >= 200
        for k, M, alpha, want in grid:
            assert abs(binom_lower_bound(k, M, alpha) - want) <= 1e-8

        # closed-form anchors, at the solvers' documented precision
        assert binom_pvalue_one_sided(10, 10) == pytest.approx(
            2.0**-10, rel=1e-12
        )
        for M, alpha in ((10, 0.05), (100, 0.01), (1000, 0.05)):
            assert binom_lower_bound(M, M, alpha) == pytest.approx(
                alpha ** (1.0 / M), abs=1e-10
            )
        for p in (0.3, 0.9, 0.99):
            assert chi2_quantile(2, p) == pytest.approx(
                -2.0 * math.log1p(-p), abs=1e-9
            )
        assert chi2_quantile(1, 0.95) == pytest.approx(
            std_normal_quantile(0.975) ** 2, abs=1e-9
        )


# --- 2: Goodman simultaneous coverage ---


def test_criterion_2_goodman_coverage():
    with _criterion(2, 30.0):
        rng = np.random.default_rng(20260814)
        truth = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        draws = 2000
        hits = 0
        for _ in range(draws):
            counts = rng.multinomial(1000, truth)
            box = goodman_bounds(counts.tolist(), 0.05)
            if all(
                lo <= p <= hi
                for lo, p, hi in zip(box.lower, truth, box.upper)
            ):
                hits += 1
        assert hits / draws >= 0.93


# --- 3: step-up selection equals the naive reference ---


def test_criterion_3_bh_equivalence():
    with _criterion(3, 10.0):
        grid = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5)
        rng = np.random.default_rng(7)
        checked = 0
        for size in range(1, 6):
            for combo in itertools.combinations_with_replacement(grid, size):
                pvals = list(combo)
                rng.shuffle(pvals)
                for alpha in (0.05, 0.2):
                    got = bh_procedure(pvals, alpha)
                    want_reject, want_k = oracles.bh_reference(pvals, alpha)
                    assert list(got.reject) == want_reject
                    assert got.cutoff_index == want_k
                    for p, rejected in zip(pvals, got.reject):
                        if p <= alpha / len(pvals):  # Bonferroni subset
                            assert rejected
                checked += 1
        assert checked == 2001


# --- 4: analytic gradients against central differences ---


def _net_with_params(template, theta):
    return Mlp(template.layer_dims, template.activation, np.array(theta, dtype=np.float64))


def _hidden_margin(net, x):
    h = np.asarray(x, dtype=np.float64)
    margin = math.inf
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = W @ h + b
        margin = min(margin, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0) if net.activation == "relu" else np.tanh(z)
    return margin


def _rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / scale


def _pipeline_gradients(net, x, out_grad):
    """(parameter gradient, input gradient) of ``out_grad @ net(x)`` from
    the two passes training and the attacks run.  For an (n, P) block of
    nets, x is (n, in) and out_grad (n, out), and both results gain the
    leading agent axis."""
    _, inputs = forward_trace(net, x[..., None, :])
    grad = np.empty_like(net.params)
    input_grad = reverse_sweep(net, inputs, out_grad[..., None, :], grad=grad)
    return grad, input_grad[..., 0, :]


def _random_net(dims, activation, rng):
    net = mlp_init(dims, activation, rng)
    for layer in range(len(net.biases)):
        net.biases[layer][...] = rng.normal(0.0, 0.3, net.biases[layer].shape)
    return net


def _input_off_the_kink(net, rng):
    # central differences use h = 1e-5; keep relu pre-activations
    # well clear of the kink so both sides stay on one branch
    x = rng.normal(0.0, 1.0, net.layer_dims[0])
    while net.activation == "relu" and _hidden_margin(net, x) < 1e-3:
        x = rng.normal(0.0, 1.0, net.layer_dims[0])
    return x


def _assert_matches_finite_differences(net, x, out_grad, analytic_params, input_grad):
    def value(v, params=net.params):
        outputs = forward_trace(_net_with_params(net, params), np.asarray(v)[None])[0]
        return float(out_grad @ outputs[0])

    fd_params = oracles.central_difference(lambda t: value(x, t), net.params.tolist())
    fd_input = oracles.central_difference(value, x.tolist())
    assert _rel_err(analytic_params, fd_params) <= 1e-4
    assert _rel_err(input_grad, fd_input) <= 1e-4


def test_criterion_4_gradient_checks():
    with _criterion(4, 30.0):
        rng = np.random.default_rng(41)
        for index in range(50):
            activation = "tanh" if index % 2 == 0 else "relu"
            depth = int(rng.integers(1, 4))
            dims = (
                [int(rng.integers(2, 6))]
                + [int(rng.integers(2, 7)) for _ in range(depth)]
                + [int(rng.integers(1, 5))]
            )
            net = _random_net(dims, activation, rng)
            x = _input_off_the_kink(net, rng)
            out_grad = rng.normal(0.0, 1.0, dims[-1])
            _assert_matches_finite_differences(
                net, x, out_grad, *_pipeline_gradients(net, x, out_grad)
            )

            # the net between two siblings of its shape, one stacked pass
            side = np.random.default_rng([41, index])
            nets = [_random_net(dims, activation, side), net, _random_net(dims, activation, side)]
            block = Mlp(dims, activation, np.stack([n.params for n in nets]))
            xs = np.stack([x if n is net else _input_off_the_kink(n, side) for n in nets])
            side_grads = side.normal(0.0, 1.0, (2, dims[-1]))
            out_grads = np.stack([side_grads[0], out_grad, side_grads[1]])
            stacked = _pipeline_gradients(block, xs, out_grads)
            for i, member in enumerate(nets):
                _assert_matches_finite_differences(
                    member, xs[i], out_grads[i], stacked[0][i], stacked[1][i]
                )


# --- 5: reward-bound search against exhaustive enumeration ---


def _toy_spec(rng):
    width, height = 4, 3
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(cells)
    grid = {cells[0]: "1", cells[1]: "2"}
    for cell in cells[2:]:
        roll = rng.random()
        if roll < 0.15:
            grid[cell] = "#"
        elif roll < 0.35:
            grid[cell] = "a"
        elif roll < 0.5:
            grid[cell] = "l"
    rows = [
        "".join(grid.get((x, y), ".") for x in range(width))
        for y in range(height)
    ]
    text = "map: |\n" + "".join(f"  {row}\n" for row in rows)
    text += f"step_cap: {int(rng.integers(1, 4))}\nrewards:\n  apple: 1.0\n"
    return parse_grid_config(text)


def _enumerate_reward_bound(policy, spec, cfg):
    """Walk every candidate trajectory; no memo, no pruning, no recursion."""
    best_eps = math.inf
    worst_reward = math.inf
    stack = [(reset(spec), 0.0)]
    while stack:
        state, acc = stack.pop()
        if state.done:
            worst_reward = min(worst_reward, acc)
            continue
        node = get_node(policy, spec, state, cfg)
        best_eps = min(best_eps, node.radius)
        for joint in itertools.product(*node.action_sets):
            out = step(spec, state, joint)
            stack.append((out.next_state, acc + out.team_reward))
    return best_eps, worst_reward


def test_criterion_5_search_exactness():
    with _criterion(5, 120.0):
        rng = np.random.default_rng(55)
        for trial in range(20):
            spec = _toy_spec(rng)
            policy = new_policy(spec, "vdn", np.random.default_rng(500 + trial))
            for net in policy.agent_nets:
                net.biases[-1][3:] -= 50.0  # three live actions per agent
            cfg = NoiseConfig(
                sigma=0.5,
                samples=60,
                alpha=0.05,
                seed=int(rng.integers(1 << 30)),
            )
            want_eps, want_rmin = _enumerate_reward_bound(policy, spec, cfg)
            cert = tcrgr(policy, spec, cfg)
            assert cert.epsilon_cert == want_eps
            assert cert.r_min == want_rmin


# --- 6: radius laws on per-agent tallies ---


def _sampled_tally(rng, n_agents, samples=1000):
    draws = []
    for _ in range(n_agents):
        probs = rng.dirichlet(np.full(N_ACTIONS, 0.7))
        draws.append(rng.choice(N_ACTIONS, size=samples, p=probs))
    rows = np.stack([np.bincount(d, minlength=N_ACTIONS) for d in draws])
    return ActionTally(rows, samples)


def _single_agent_tally(counts):
    counts = [int(c) for c in counts]
    return ActionTally(np.array([counts]), sum(counts))


def test_criterion_6_radius_laws():
    with _criterion(6, 10.0):
        rng = np.random.default_rng(6)

        def cfg(sigma, alpha=0.05):
            return NoiseConfig(sigma=sigma, samples=1000, alpha=alpha, seed=0)

        for _ in range(25):
            tally = _sampled_tally(rng, n_agents=int(rng.integers(1, 4)))
            base = per_agent_radii(tally, cfg(0.03))
            twice = per_agent_radii(tally, cfg(0.06))
            other = per_agent_radii(tally, cfg(0.045))
            for r1, r2, r3 in zip(base, twice, other):
                assert r2 == 2.0 * r1  # doubling sigma is exact
                assert r3 == pytest.approx(1.5 * r1, rel=1e-12)

            tight = per_agent_radii(tally, cfg(0.03, alpha=0.01))
            loose = per_agent_radii(tally, cfg(0.03, alpha=0.05))
            for r_tight, r_loose in zip(tight, loose):
                assert r_tight <= r_loose + 1e-15

        for spread in ((0, 0, 0), (60, 40, 20)):
            last = -math.inf
            lo = 500 + sum(spread)
            for k in range(lo, 1001 - sum(spread), 7):
                counts = [k, 1000 - k - sum(spread), *spread]
                radius = per_agent_radii(_single_agent_tally(counts), cfg(0.1))[0]
                assert radius >= last  # monotone in the modal count
                last = radius
            assert last > 0.0


# --- 7 and 8: trained models, full pipeline ---

_RECIPES = {
    ("checkers", "vdn"): TrainConfig(
        episodes=5000, seed=3, gamma_train=0.7, obs_noise=0.1
    ),
    ("checkers", "qmix_mono"): TrainConfig(
        episodes=5000, seed=3, gamma_train=0.7, obs_noise=0.1
    ),
    ("switch", "vdn"): TrainConfig(
        episodes=10000, seed=7, gamma_train=0.7, obs_noise=0.1
    ),
    ("switch", "qmix_mono"): TrainConfig(
        episodes=10000, seed=3, gamma_train=0.7, obs_noise=0.1
    ),
}


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    # one `marlcert train` process per recipe, at most two at a time:
    # training is bound by Python, not memory, so a second CPU nearly
    # halves the wall time; spawned workers start from a fresh import
    root = tmp_path_factory.mktemp("models")
    argvs = []
    for (env, mixer), train_cfg in _RECIPES.items():
        config = root / f"{env}-{mixer}.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "mode": "train",
                    "env": env,
                    "mixer": mixer,
                    "out": str(root / f"{env}-{mixer}"),
                    **dataclasses.asdict(train_cfg),
                }
            )
        )
        argvs.append(["train", "--config", str(config)])
    workers = min(2, len(os.sched_getaffinity(0)))
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        assert pool.map(main, argvs, chunksize=1) == [0] * len(argvs)
    models = {}
    for env, mixer in _RECIPES:
        out = root / f"{env}-{mixer}"
        record = json.loads((out / "result.json").read_text())
        models[(env, mixer)] = {
            "spec": builtin_spec(env),
            "policy": load_policy(out / "checkpoint"),
            "checkpoint": out / "checkpoint",
            "train_seconds": record["timings"]["total_s"],
        }
    return models


def test_checkers_vdn_recipe_writes_the_stored_checkpoint(trained_models):
    # criterion 7's checkers/vdn recipe is the benchmark's training recipe,
    # whose networks the benchmark stores
    got = trained_models[("checkers", "vdn")]["checkpoint"]
    stored = Path(__file__).resolve().parents[1] / "bench" / "data" / "checkers-vdn"
    names = sorted(path.name for path in stored.iterdir())
    assert sorted(path.name for path in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (stored / name).read_bytes(), name


def test_readme_train_config_is_the_checkers_vdn_recipe():
    # the README's `marlcert train` config trains the recipe whose
    # networks the test above compares with the stored checkpoint
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S) if "mode: train" in b]
    assert len(blocks) == 1
    cfg = RunConfig(**yaml.safe_load(blocks[0]))
    assert (cfg.env, cfg.mixer) == ("checkers", "vdn")
    assert cfg.training == _RECIPES[("checkers", "vdn")]


def test_criterion_7_reward_bound_trend(trained_models, tmp_path):
    carried = sum(m["train_seconds"] for m in trained_models.values())
    with _criterion(7, 7200.0, carried_seconds=carried):
        for (env, mixer), model in trained_models.items():
            bounds = []
            clean = None
            for sigma in (0.03, 0.06, 0.1):
                out = tmp_path / f"{env}-{mixer}-{sigma}"
                config = tmp_path / f"{env}-{mixer}-{sigma}.yaml"
                config.write_text(
                    yaml.safe_dump(
                        {
                            "mode": "certify-reward",
                            "env": env,
                            "mixer": mixer,
                            "checkpoint": str(model["checkpoint"]),
                            "out": str(out),
                            "sigma": sigma,
                            "samples": 10000,
                            "alpha": 0.01,
                            "seed": 1,
                        }
                    )
                )
                assert main(["certify-reward", "--config", str(config)]) == 0
                record = json.loads((out / "result.json").read_text())
                results = record["results"]
                assert results["r_min"] <= results["clean_reward"]
                bounds.append(results["epsilon_cert"])
                clean = results["clean_reward"]
            assert bounds[0] > 0.0, (env, mixer, bounds)
            assert bounds[0] < bounds[1] < bounds[2], (env, mixer, bounds)
            assert clean is not None


def test_criterion_8_attack_soundness(trained_models):
    model = trained_models[("checkers", "vdn")]
    carried = model["train_seconds"]
    with _criterion(8, 3600.0, carried_seconds=carried):
        policy, spec = model["policy"], model["spec"]
        noise = NoiseConfig(sigma=0.06, samples=1000, alpha=0.01, seed=11)
        bound = tcrgr(policy, spec, noise)
        certificates = [crsc(decision, noise) for decision in bound.clean_path]
        assert any(c.certified_set for c in certificates)
        attack = AttackConfig(noise=noise, steps=30, restarts=2, trials=200, rollout_trials=5)
        report = validate_certificates(policy, spec, certificates, bound, attack, 23)
        assert report.in_ball_trials >= 200
        assert report.in_ball_flips == 0
        assert not report.rmin_violated
        for reward in report.rollout_rewards:
            assert reward >= bound.r_min


# --- 9: one agent reduces to plain smoothing certification ---


def _direct_single_agent(policy, spec, state, cfg):
    """Plain one-agent recipe: binomial test, then simultaneous bounds."""
    from marlcert.smoothing import sample_tally

    tally = sample_tally(policy, spec, state, cfg)
    counts = tally.per_agent[0]
    order = sorted(range(N_ACTIONS), key=lambda a: (-int(counts[a]), a))
    modal, runner = order[0], order[1]
    pvalue = binom_pvalue_one_sided(int(counts[modal]), cfg.samples)
    if pvalue > cfg.alpha:  # single test: reject iff p <= alpha
        return (modal,), pvalue, 0.0
    box = goodman_bounds(counts.tolist(), cfg.alpha)
    radius = 0.5 * cfg.sigma * (
        std_normal_quantile(box.lower[modal])
        - std_normal_quantile(box.upper[runner])
    )
    return (modal,), pvalue, max(0.0, radius)


def test_criterion_9_single_agent_reduction():
    with _criterion(9, 300.0):
        spec = parse_grid_config(
            "map: |\n  1...a\nstep_cap: 6\nrewards:\n  apple: 10.0\n"
        )
        policy = train(spec, TrainConfig(episodes=400, seed=2), "vdn")
        saw_certified = False
        saw_uncertified = False
        for sigma in (0.05, 0.4):
            for seed in (0, 9):
                cfg = NoiseConfig(
                    sigma=sigma, samples=400, alpha=0.05, seed=seed
                )
                state = reset(spec)
                while not state.done:
                    cert = crsc(decide(policy, spec, state, cfg), cfg)
                    actions, pvalue, radius = _direct_single_agent(
                        policy, spec, state, cfg
                    )
                    assert cert.actions == actions
                    assert cert.pvalues == (pvalue,)
                    assert cert.corrected_pvalues == (pvalue,)
                    assert cert.per_agent_radius == (radius,)
                    assert cert.min_radius == radius
                    if radius > 0.0:
                        assert cert.certified_set == frozenset({0})
                        saw_certified = True
                    else:
                        assert cert.certified_set == frozenset()
                        saw_uncertified = True
                    state = step(spec, state, cert.actions).next_state
        assert saw_certified and saw_uncertified
