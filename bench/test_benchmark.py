"""Tests of the benchmark itself: tracing arithmetic, inputs and goldens.

Run with ``python -m pytest bench`` from the repository root.
"""

import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("marlcert") is None:
    sys.path.insert(0, str(ROOT / "src"))

import marlcert  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from marlcert import certify, smoothing  # noqa: E402
from marlcert.certify import get_node, tcrgr  # noqa: E402
from marlcert.envs import reset, step  # noqa: E402

GOLDENS = wl.load_goldens()
POOL = {int(k): v["nodes_expanded"] for k, v in GOLDENS["branching-search"].items()}


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds [2, 3]) and b [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_lookup_site_and_restores_them():
    original = smoothing.sample_tally
    tracer = tracing.Tracer(marlcert)
    tracer.install()
    try:
        assert certify.sample_tally is smoothing.sample_tally
        assert certify.sample_tally.__wrapped__ is original
        for _ in range(2):
            smoothing.gaussian_noise_block(47, 0.1, 3, 0, 1, 10)
        smoothing.gaussian_noise_block(47, 0.2, 3, 0, 1, 10)  # sigma is not in the key
        smoothing.gaussian_noise_block(47, 0.1, 3, 1, 1, 10)
    finally:
        tracer.uninstall()
    assert certify.sample_tally is original and smoothing.sample_tally is original
    summary = tracer.summary()
    noise = summary["smoothing.gaussian_noise_block"]
    assert noise["calls"] == 4
    assert noise["amount"] == 40
    assert noise["repeat_frac"] == 0.5
    assert summary["seeds.philox_key"]["calls"] == 4
    assert tracer.count_under("seeds.philox_key", "smoothing.gaussian_noise_block") == 4
    assert summary["stats.std_normal_quantile_vec"]["amount"] == 4 * 10 * 47


def test_repeats_count_within_one_invocation():
    tracer = tracing.Tracer(marlcert)
    for _ in range(2):
        tracer.install()
        tracer.new_invocation()
        try:
            smoothing.gaussian_noise_block(47, 0.1, 3, 0, 1, 10)
        finally:
            tracer.uninstall()
    noise = tracer.summary()["smoothing.gaussian_noise_block"]
    assert noise["calls"] == 2 and noise["repeat_frac"] == 0.0


def test_every_listed_metric_resolves():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)
    tracer = tracing.Tracer(marlcert)
    tracer.install()
    tracer.uninstall()
    summary = tracer.summary()
    extras = dict.fromkeys(
        ("attack.pgd_steps", "attack.contrast_flip_rate", "trace.run_s")
        + ("trace.overhead_s", "trace.overhead_frac"),
        0,
    )
    for metric in definition["per_layer"]:
        assert run.layer_metric(metric["name"], summary, extras) == 0
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(wl.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_policy_selection_is_seeded_and_fills_the_node_target():
    picks = {}
    for seed in range(40):
        chosen = wl.select_policies(seed, POOL)
        assert chosen == wl.select_policies(seed, POOL)
        assert len(set(chosen)) == len(chosen)
        total = sum(POOL[s] for s in chosen)
        target = wl.BRANCH_TARGET_NODES
        assert target - wl.BRANCH_SLACK_NODES <= total <= target
        picks[seed] = chosen
    assert picks[1] != picks[2]  # routine and held-out seeds search different trees


def _enumerate_reward_bound(policy, spec, cfg):
    """Walk every candidate trajectory; no memo, no pruning, no recursion.

    A copy of the exhaustive reference in the acceptance suite.
    """
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


@pytest.mark.parametrize("policy_seed", [500, 505, 509])
def test_branching_search_matches_enumeration(policy_seed):
    spec = wl.branching_spec(step_cap=4)
    joint = wl.branching_policy(spec, policy_seed)
    cfg = wl.branching_noise(policy_seed)
    cert = tcrgr(joint, spec, cfg)
    assert cert.nodes_expanded > spec.step_cap  # the tree branches
    assert (cert.epsilon_cert, cert.r_min) == _enumerate_reward_bound(joint, spec, cfg)


def test_smallest_pool_tree_reproduces_its_golden(tmp_path):
    policy_seed = min(POOL, key=lambda s: (POOL[s], s))
    search = wl.BranchingSearch(1, tmp_path, GOLDENS)
    result = search.search_op(policy_seed)()
    assert result.work == POOL[policy_seed]
    assert search.check(result) is None
    result.output["tallies"] = dict(result.output["tallies"], extra="0")
    assert search.check(result) is not None


def test_goldens_cover_every_seeded_input():
    assert set(GOLDENS["attack-validate"]) == {f"attack@seed{s}" for s in wl.ATTACK_SEEDS}
    assert len(GOLDENS["reward-sweep"]) == 2 * len(wl.SWEEP_SIGMAS)
    assert all(n <= wl.BRANCH_MAX_NODES for n in POOL.values())
    ceilings = [v["epsilon_cert"] for k, v in GOLDENS["reward-sweep"].items() if "reward" in k]
    assert ceilings == sorted(ceilings) and np.all(np.array(ceilings) > 0)
