"""Every recorded benchmark golden, reproduced by the current code.

The benchmark checks only the inputs its workload seed picks, so one run
reaches a subset of ``bench/data/goldens.json``.  A change that reorders
floating-point work can move a tally that the subset never reaches, so
this sweep runs every recorded branching-search pool policy, every
attack master seed and the reward sweep against its golden.  It imports
``bench/workloads.py`` and leaves the benchmark's files as they are.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402

GOLDENS = wl.load_goldens()


def _failures(done):
    return [reason for _, reason in done if reason is not None]


@pytest.mark.parametrize(
    "policy_seed", sorted(int(key) for key in GOLDENS["branching-search"])
)
def test_branching_pool_policy_matches_golden(policy_seed, tmp_path):
    search = wl.BranchingSearch(1, tmp_path, GOLDENS)
    result = search.search_op(policy_seed)()
    assert result.work == GOLDENS["branching-search"][str(policy_seed)]["nodes_expanded"]
    assert search.check(result) is None


@pytest.mark.parametrize("master_seed", wl.ATTACK_SEEDS)
def test_attack_master_seed_matches_golden(master_seed, tmp_path):
    attack = wl.AttackValidate(wl.ATTACK_SEEDS.index(master_seed), tmp_path, GOLDENS)
    assert attack.master_seed == master_seed
    assert _failures(attack.run_pass()) == []


def test_reward_sweep_matches_goldens(tmp_path):
    sweep = wl.RewardSweep(1, tmp_path, GOLDENS)
    done = sweep.run_pass()
    assert len(done) == len(GOLDENS["reward-sweep"])
    assert _failures(done) == []
