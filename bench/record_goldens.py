"""Record the benchmark's stored checkpoint and golden outputs.

Run from the repository root, on the code the benchmark is defined
against, with the same single BLAS thread as the benchmark:

    python3 bench/record_goldens.py [--train]

``--train`` first re-trains the checkers/vdn acceptance recipe into
bench/data/checkers-vdn.  The script then runs every op the workloads
can draw (the reward sweep, each attack master seed, each pool policy)
and writes their outputs to bench/data/goldens.json.  Pool policies whose
tree exceeds BRANCH_MAX_NODES are left out of the pool.
"""

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--train", action="store_true", help="re-train the stored checkpoint")
    args = parser.parse_args(argv)
    if not run.use_checkout_sources():
        return 2
    import workloads as wl
    from marlcert import envs, policy

    if args.train:
        spec = envs.builtin_spec("checkers")
        trained = policy.train(spec, wl.TRAIN_RECIPE, "vdn")
        reward = envs.episode_reward(
            spec, lambda s, state: policy.greedy_joint_action(trained, s, state)
        )
        if reward < wl.TRAIN_MIN_REWARD:
            print(f"trained policy scores {reward}; not stored", file=sys.stderr)
            return 1
        policy.save_policy(trained, wl.CHECKPOINT)

    work_dir = run.OUT_DIR / "record"
    goldens = {}

    def record(workload, ops):
        table = goldens.setdefault(workload.name, {})
        for op in ops:
            result = op()
            if result.error is not None:
                raise RuntimeError(f"{result.key}: {result.error}")
            table[result.key] = workload.golden_output(result)
            print(f"{workload.name} {result.key}: {result.seconds:.2f}s", file=sys.stderr)

    sweep = wl.RewardSweep(0, work_dir, {})
    record(sweep, sweep.ops)
    for index in range(len(wl.ATTACK_SEEDS)):
        attack = wl.AttackValidate(index, work_dir, {})
        record(attack, attack.ops)
    search = wl.BranchingSearch(0, work_dir, {wl.BranchingSearch.name: {}})
    record(search, [search.search_op(s) for s in wl.BRANCH_POLICY_SEEDS])
    pool = goldens[search.name]
    for key in [k for k, v in pool.items() if v["nodes_expanded"] > wl.BRANCH_MAX_NODES]:
        del pool[key]

    with open(wl.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
