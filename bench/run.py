"""Benchmark of marlcert: four workloads, end-to-end timings, traced layers.

Run from the repository root:

    python3 bench/run.py --workload reward-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` times passes of the workload untraced and reports the
end-to-end metrics listed in BENCHMARK.json.  ``--trace 1`` spends half
the budget on untraced passes, then runs one pass with every layer
traced and reports the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record with run metadata goes to ``bench/out/results/``, and traced spans
to ``bench/out/spans/``.  ``--workload all`` runs every workload once,
untraced, and prints each one's figures.

Everything runs in this one process with BLAS limited to one thread.
See bench/README.md for what each workload measures and why.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("reward-sweep", "branching-search", "attack-validate", "train-recipe")


def use_checkout_sources() -> bool:
    """Import marlcert from this checkout's src/, with BLAS on one thread."""
    src = ROOT / "src"
    if not (src / "marlcert" / "__init__.py").is_file():
        print(f"bench: no marlcert sources under {src}", file=sys.stderr)
        return False
    # BLAS reads these when numpy loads it, so they must be set first
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import marlcert

    if Path(marlcert.__file__).resolve().parent != (src / "marlcert").resolve():
        print(f"bench: imported marlcert from {marlcert.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def metadata(numpy) -> dict:
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        sha = probe.stdout.strip() if probe.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def untraced_passes(workload, budget):
    """Passes until ``budget`` seconds have gone; the last one finishes."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < budget:
        passes.append(workload.run_pass())
    return passes


def pass_seconds(one_pass):
    return sum(result.seconds for result, _ in one_pass)


def layer_metric(name, summary, extras):
    """Value of one per-layer metric from the traced pass."""
    if name in extras:
        return extras[name]
    parts = name.split(".")
    if len(parts) == 2:  # a whole layer: the self time of all its functions
        layer, quantity = parts
        return sum(v[quantity] for k, v in summary.items() if k.split(".")[0] == layer)
    function = ".".join(parts[:2])
    quantity = parts[2]
    entry = summary[function]
    if quantity in ("rows", "elements"):
        return entry["amount"]
    return entry[quantity]


def drop_marlcert_modules() -> dict:
    """Forget marlcert's modules, so the next import runs them afresh."""
    dropped = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "marlcert"}
    for name in dropped:
        del sys.modules[name]
    return dropped


def set_up(args, workloads):
    """Build the workload, then time its set-up several times.

    Each repetition imports marlcert afresh and redoes the workload's
    ``load``; numpy and PyYAML stay loaded, since they are not marlcert's.
    Returns the workload and every set-up time.
    """
    workload = workloads.WORKLOADS[args.workload](
        args.seed, OUT_DIR / "work" / args.workload, workloads.load_goldens()
    )
    loaded = drop_marlcert_modules()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            drop_marlcert_modules()
            gc.collect()  # the modules just dropped, not this repetition's work
            started = time.perf_counter()
            importlib.import_module("marlcert.cli")
            workload.load()
            setups.append(time.perf_counter() - started)
    finally:
        # the benchmark and its tracer keep using the modules loaded first
        drop_marlcert_modules()
        sys.modules.update(loaded)
    return workload, setups


def traced_pass(workload, workloads, tracer):
    workload.clock = workloads.Clock(tracer)
    try:
        return workload.run_pass()
    finally:
        workload.clock = workloads.Clock()


def layer_metrics(definition, summary, tracer, traced, run_s, details) -> dict:
    traced_s = pass_seconds(traced)
    flip_rate = details.get("attack_contrast_flip_rate", (0.0, "frac"))[0]
    extras = {
        "attack.pgd_steps": tracer.count_under("nn.backward", "attack.pgd_attack_state"),
        "attack.contrast_flip_rate": flip_rate,
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - run_s,
        "trace.overhead_frac": (traced_s - run_s) / run_s if run_s else 0.0,
    }
    return {
        m["name"]: {"value": layer_metric(m["name"], summary, extras), "unit": m["unit"]}
        for m in definition["per_layer"]
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            definition = json.load(fh)
    except FileNotFoundError:
        print("bench: BENCHMARK.json not found at the repository root", file=sys.stderr)
        return 2
    if not use_checkout_sources():
        return 2
    import numpy

    import marlcert
    import tracer as tracing
    import workloads

    workload, setups = set_up(args, workloads)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs(),
        "metadata": metadata(numpy),
        "setup_s": setups,
    }

    passes = untraced_passes(workload, args.seconds / 2 if args.trace else args.seconds)
    untraced = [result for p in passes for result, _ in p]
    run_s = statistics.median(pass_seconds(p) for p in passes)
    all_ops = [pair for p in passes for pair in p]
    if args.trace:
        tracer = tracing.Tracer(marlcert)
        traced = traced_pass(workload, workloads, tracer)
        all_ops += traced
        traced_details = workload.details([r for r, _ in traced])
        summary = tracer.summary()
        metrics = layer_metrics(definition, summary, tracer, traced, run_s, traced_details)
        spans = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(spans)
        record.update(functions=summary, spans=str(spans.relative_to(ROOT)))
    else:
        seconds = sum(r.seconds for r in untraced)  # 0 only when every op raised
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": sum(r.work for r in untraced) / seconds if seconds else 0.0,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in definition["end_to_end"]
        }

    failures = [reason for _, reason in all_ops if reason is not None]
    details = {name: {"value": v, "unit": u} for name, (v, u) in workload.details(untraced).items()}
    details["failed_frac"] = {"value": len(failures) / len(all_ops), "unit": "frac"}
    record.update(
        metrics=metrics,
        details=details,
        failures=failures,
        passes=[
            [
                {"kind": r.kind, "key": r.key, "seconds": r.seconds, "work": r.work, "ok": why is None}
                for r, why in p
            ]
            for p in passes
        ],
    )
    results = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for reason in failures:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    for name, metric in {**metrics, **details}.items():
        print(f"{args.workload:>16}  {name:<40} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload once, untraced, in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
