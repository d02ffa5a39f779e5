"""Tests for the batch command-line front-end."""

import csv
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import marlcert
from marlcert import certify, cli, nn, smoothing
from marlcert.cli import MODES, RunConfig, main, run
from marlcert.envs import EnvState, builtin_spec, load_grid_config, reset, step
from marlcert.errors import CheckpointError, ConfigError, MissingArtifactError
from marlcert.policy import (
    JointPolicy,
    TrainConfig,
    load_policy,
    new_policy,
    save_policy,
    train,
)

_CORRIDOR = "map: |\n  1..a\nstep_cap: 5\nrewards:\n  apple: 10.0\n"

# the stored checkers/vdn acceptance checkpoint the benchmark certifies
_CHECKERS_VDN = Path(__file__).resolve().parents[1] / "bench" / "data" / "checkers-vdn"


@pytest.fixture()
def corridor_env(tmp_path):
    path = tmp_path / "corridor.yaml"
    path.write_text(_CORRIDOR, encoding="utf-8")
    return str(path)


@pytest.fixture()
def trained(tmp_path, corridor_env):
    out = tmp_path / "train-out"
    cfg = RunConfig(
        mode="train",
        env=corridor_env,
        out=str(out),
        seed=2,
        episodes=300,
        samples=50,
    )
    record = run(cfg)
    return corridor_env, record.results["checkpoint"], tmp_path


def _write_config(tmp_path, name, **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")  # JSON is valid YAML
    return str(path)


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _base_fields(root):
    """A valid config for every mode that fails fast (exit 3) if it runs."""
    return dict(
        env="checkers",
        out=str(Path(root) / "out"),
        checkpoint=str(Path(root) / "no-checkpoint"),
        inputs=[str(Path(root) / "no-result.json")],
        episodes=1,
    )


def _report_record(**results):
    """A certify-reward result.json with ``results`` fields replaced."""
    table = {
        "env": "corridor",
        "mixer": "vdn",
        "sigma": 0.05,
        "epsilon_cert": 0.1,
        "r_min": 0.0,
        "attacked_reward": None,
    }
    table.update(results)
    return {"mode": "certify-reward", "results": table}


def _exit_code(root, mode, field, value):
    """Run ``mode`` on the base config with ``field`` set to ``value``."""
    fields = _base_fields(root)
    fields[field] = value
    path = Path(root) / "c.yaml"
    path.write_text(yaml.safe_dump(fields), encoding="utf-8")
    return main([mode, "--config", str(path)])


_NAN, _INF = float("nan"), float("inf")

# every value that RunConfig rejected before the library configs owned
# their bounds, alphas at which the confidence box's level 1 - alpha / 5
# rounds to 1, then the wrongly typed text and list fields
_REJECTED = [
    ("sigma", 0),
    ("sigma", -1.0),
    ("sigma", _INF),
    ("sigma", _NAN),
    ("sigma", "abc"),
    ("samples", 1),
    ("samples", 2.5),
    ("alpha", 0),
    ("alpha", 1),
    ("alpha", _NAN),
    ("alpha", 1e-17),
    ("alpha", 2e-16),
    ("alpha", 5 * 2.0**-54),
    ("seed", -1),
    ("seed", 2**64),
    ("seed", True),
    ("mixer", "bogus"),
    ("episodes", -1),
    ("learning_rate", 0),
    ("learning_rate", _NAN),
    ("attack_steps", 0),
    ("attack_restarts", 0),
    ("attack_trials", 0),
    ("rollout_trials", 0),
    ("out", ""),
    ("env", 5),
    ("out", 7),
    ("checkpoint", 5),
    ("mixer", 5),
    ("inputs", 5),
    ("inputs", "a.json"),
    ("inputs", [5]),
]

_TEXT_FIELDS = ("env", "out", "checkpoint", "mixer")
_FLOAT_FIELDS = ("sigma", "alpha", "learning_rate", "gamma_train", "obs_noise")
_INT_FIELDS = (
    "samples",
    "seed",
    "episodes",
    "attack_steps",
    "attack_restarts",
    "attack_trials",
    "rollout_trials",
)
_OUT_OF_RANGE = {
    "sigma": st.floats(max_value=0.0),
    "alpha": st.floats(max_value=0.0) | st.floats(min_value=1.0),
    "learning_rate": st.floats(max_value=0.0),
    "gamma_train": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
    "obs_noise": st.floats(max_value=-5e-324),
    "samples": st.integers(max_value=1),
    "seed": st.integers(max_value=-1) | st.integers(min_value=2**64),
    "episodes": st.integers(max_value=-1),
    "attack_steps": st.integers(max_value=0),
    "attack_restarts": st.integers(max_value=0),
    "attack_trials": st.integers(max_value=0),
    "rollout_trials": st.integers(max_value=0),
    "mixer": st.text(max_size=8).filter(lambda m: m not in ("vdn", "qmix_mono")),
}
_ANY_TYPE_BAD = [True, False, _NAN, _INF, -_INF, [1, 2], {"a": 1}]


@st.composite
def _malformed(draw):
    """One (field, value) that no mode may accept."""
    field = draw(st.sampled_from(_TEXT_FIELDS + _FLOAT_FIELDS + _INT_FIELDS + ("inputs",)))
    bad = list(_ANY_TYPE_BAD)
    if field != "checkpoint":  # a null checkpoint is the default
        bad.append(None)
    if field in _FLOAT_FIELDS + _INT_FIELDS:
        bad += ["abc", "1e", ""]
    if field in _TEXT_FIELDS:
        bad += [5, 2.5]
    if field == "inputs":
        bad += [5, "a.json", [5], ["a.json", None]]
    choices = [st.sampled_from(bad)]
    if field in _OUT_OF_RANGE:
        choices.append(_OUT_OF_RANGE[field])
    return field, draw(st.one_of(choices))


class TestRunConfig:
    def test_unknown_field_named_in_error(self, tmp_path, corridor_env):
        path = _write_config(
            tmp_path, "bad.yaml", env=corridor_env, out="o", wat=1
        )
        code = main(["certify-state", "--config", path])
        assert code == 2

    def test_invalid_sigma_rejected(self, corridor_env):
        with pytest.raises(ConfigError):
            RunConfig(mode="certify-state", env=corridor_env, out="o", sigma=-1.0)

    def test_invalid_mode_rejected(self, corridor_env):
        with pytest.raises(ConfigError):
            RunConfig(mode="poke", env=corridor_env, out="o")

    @pytest.mark.parametrize(
        "field,value", _REJECTED, ids=[f"{f}={v!r}" for f, v in _REJECTED]
    )
    def test_rejected_value_exits_2_before_out_exists(self, tmp_path, capsys, field, value):
        for mode in MODES:
            assert _exit_code(tmp_path, mode, field, value) == 2, mode
            assert not (tmp_path / "out").exists(), mode
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1

    def test_alpha_just_above_the_limit_certifies(self, tmp_path):
        # 3e-16 / 5 exceeds 2**-54, so 1 - alpha / 5 is the float below 1
        path = _write_config(
            tmp_path,
            "c.yaml",
            env="checkers",
            mixer="vdn",
            checkpoint=str(_CHECKERS_VDN),
            out=str(tmp_path / "out"),
            samples=100,
            alpha=3e-16,
        )
        assert main(["certify-state", "--config", path]) == 0

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "report"])
    def test_empty_env_exits_2(self, tmp_path, mode):
        assert _exit_code(tmp_path, mode, "env", "") == 2
        assert not (tmp_path / "out").exists()

    def test_report_without_inputs_exits_2(self, tmp_path):
        assert _exit_code(tmp_path, "report", "inputs", []) == 2
        assert not (tmp_path / "out").exists()

    @settings(max_examples=150, deadline=None)
    @given(mode=st.sampled_from(MODES), malformed=_malformed())
    def test_malformed_field_exits_2(self, mode, malformed):
        field, value = malformed
        with tempfile.TemporaryDirectory() as root:
            assert _exit_code(root, mode, field, value) == 2
            assert not (Path(root) / "out").exists()
            assert not list(Path(root).rglob("result.json"))


class TestModes:
    def test_train_writes_checkpoint_and_record(self, trained):
        env, checkpoint, tmp_path = trained
        assert (tmp_path / "train-out" / "result.json").is_file()
        policy = load_policy(checkpoint)
        assert policy.mixer == "vdn"

    def test_build_id_probed_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        inner = subprocess.run

        def counting(*args, **kw):
            calls.append(args)
            return inner(*args, **kw)

        monkeypatch.setattr(cli, "_build", None)
        monkeypatch.setattr(subprocess, "run", counting)
        builds = []
        for name in ("a", "b"):
            path = _write_config(
                tmp_path,
                f"{name}.yaml",
                env="checkers",
                mixer="vdn",
                checkpoint=str(_CHECKERS_VDN),
                out=str(tmp_path / name),
                samples=20,
            )
            assert main(["certify-state", "--config", path]) == 0
            record = json.loads((tmp_path / name / "result.json").read_text(encoding="utf-8"))
            builds.append(record["build"])
        assert len(calls) == 1
        assert builds[0] == builds[1] == cli._build
        assert builds[0].startswith(f"marlcert-{marlcert.__version__}")

    def test_missing_checkpoint_exit_code(self, tmp_path, corridor_env):
        # an unset and a missing checkpoint are refused before out is made
        for checkpoint, code in ((None, 2), (str(tmp_path / "nope"), 3)):
            path = _write_config(
                tmp_path,
                "c.yaml",
                env=corridor_env,
                checkpoint=checkpoint,
                out=str(tmp_path / "o"),
            )
            for mode in ("certify-state", "certify-reward", "attack"):
                assert main([mode, "--config", path]) == code
                assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("module", ["marlcert", "marlcert.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        src = str(Path(marlcert.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", module, "certify-state"]
            + ["--config", "missing.yaml"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "missing.yaml" in proc.stderr

    def test_corrupt_checkpoint_exit_code(self, trained):
        env, checkpoint, tmp_path = trained
        net = Path(checkpoint) / "agent_0.mlp"
        blob = bytearray(net.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        net.write_bytes(bytes(blob))
        path = _write_config(
            tmp_path,
            "c.yaml",
            env=env,
            checkpoint=checkpoint,
            out=str(tmp_path / "o"),
        )
        assert main(["certify-state", "--config", path]) == 3

    # 2**52 rows of 64 float64s are 2 EiB, more than any address space
    # holds, so the request fails without allocating; 2**60 rows are past
    # numpy's largest array size
    @pytest.mark.parametrize("samples", [2**52, 2**60])
    def test_unallocatable_samples_exit_code(self, tmp_path, capsys, samples):
        path = _write_config(
            tmp_path,
            "c.yaml",
            env="checkers",
            checkpoint=str(_CHECKERS_VDN),
            out=str(tmp_path / "o"),
            samples=samples,
        )
        assert main(["certify-state", "--config", path]) == 2
        assert not (tmp_path / "o").exists()  # found after out was made
        err = capsys.readouterr().err
        assert f"samples: {samples} needs " in err and " GiB " in err

    @pytest.mark.parametrize(
        "case",
        [
            "not-a-mapping",
            "no-agent-nets",
            "agent-nets-text",
            "agent-net-number",
            "hypernet-number",
            "no-mixer",
            "unknown-mixer",
            "vdn-with-hypernet",
        ],
    )
    def test_corrupt_manifest_exit_code(self, tmp_path, capsys, case):
        checkpoint = tmp_path / "ckpt"
        shutil.copytree(_CHECKERS_VDN, checkpoint)
        path = checkpoint / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if case == "not-a-mapping":
            manifest = [manifest]
        elif case == "no-agent-nets":
            del manifest["agent_nets"]
        elif case == "agent-nets-text":
            manifest["agent_nets"] = "agent_0.mlp"
        elif case == "agent-net-number":
            manifest["agent_nets"] = [0, 1]
        elif case == "hypernet-number":
            manifest["hypernet"] = 5
        elif case == "no-mixer":
            del manifest["mixer"]
        elif case == "unknown-mixer":
            manifest["mixer"] = "bogus"
        else:
            manifest["hypernet"] = "agent_0.mlp"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        config = _write_config(
            tmp_path, "c.yaml", env="checkers", checkpoint=str(checkpoint),
            out=str(tmp_path / "o"),
        )
        assert main(["certify-state", "--config", config]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith("file or checkpoint error:") and err.count("\n") == 1

    def test_agent_nets_of_two_widths_exit_code(self, tmp_path, capsys):
        # agent 1 gets 32 hidden units where agent 0 has 64: one stacked
        # pass cannot hold both, so the checkpoint counts as corrupt
        checkpoint = tmp_path / "ckpt"
        shutil.copytree(_CHECKERS_VDN, checkpoint)
        narrow = nn.mlp_init((47, 32, 5), "relu", np.random.default_rng(0))
        nn.checkpoint_save(narrow, checkpoint / "agent_1.mlp")
        with pytest.raises(CheckpointError, match="share one architecture"):
            load_policy(checkpoint)
        config = _write_config(
            tmp_path, "c.yaml", env="checkers", checkpoint=str(checkpoint),
            out=str(tmp_path / "o"),
        )
        assert main(["certify-state", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("file or checkpoint error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_exit_code(self, tmp_path, capsys, value):
        # agent 1's last parameter overwritten under a recomputed checksum:
        # the file reads whole, and the net it holds is refused
        checkpoint = tmp_path / "ckpt"
        shutil.copytree(_CHECKERS_VDN, checkpoint)
        net = checkpoint / "agent_1.mlp"
        payload = net.read_bytes()[:-12] + struct.pack("<d", value)
        net.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CheckpointError, match="non-finite parameters"):
            nn.checkpoint_load(net)
        config = _write_config(
            tmp_path, "c.yaml", env="checkers", checkpoint=str(checkpoint),
            out=str(tmp_path / "o"),
        )
        assert main(["certify-state", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("file or checkpoint error:") and err.count("\n") == 1

    def test_training_divergence_exit_code(self, tmp_path, corridor_env):
        path = _write_config(
            tmp_path,
            "c.yaml",
            env=corridor_env,
            out=str(tmp_path / "o"),
            episodes=60,
            learning_rate=1e280,
        )
        assert main(["train", "--config", path]) == 4
        assert not (tmp_path / "o").exists()

    def test_diverging_qmix_training_exits_4_without_warnings(self, tmp_path, capsys):
        # pytest turns a numpy overflow warning into an error, so this also
        # checks that the blow-up before detection stays quiet
        path = _write_config(
            tmp_path,
            "c.yaml",
            env="checkers",
            mixer="qmix_mono",
            out=str(tmp_path / "o"),
            episodes=30,
            learning_rate="1.0e+280",
        )
        assert main(["train", "--config", path]) == 4
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err.startswith("numerical failure: training diverged")

    def test_train_honours_gamma_and_obs_noise(self, tmp_path, corridor_env):
        path = _write_config(
            tmp_path,
            "t.yaml",
            env=corridor_env,
            out=str(tmp_path / "o"),
            seed=2,
            episodes=40,
            gamma_train=0.7,
            obs_noise="1e-1",  # coerced like learning_rate
        )
        assert main(["train", "--config", path]) == 0
        written = load_policy(tmp_path / "o" / "checkpoint")
        spec = load_grid_config(corridor_env)
        want = train(
            spec, TrainConfig(episodes=40, seed=2, gamma_train=0.7, obs_noise=0.1), "vdn"
        )
        default = train(spec, TrainConfig(episodes=40, seed=2), "vdn")
        for got, ref, other in zip(
            written.agent_nets, want.agent_nets, default.agent_nets, strict=True
        ):
            for x, y in zip(got.weights + got.biases, ref.weights + ref.biases):
                assert np.array_equal(x, y)
            assert not np.array_equal(got.weights[0], other.weights[0])

    def test_negative_obs_noise_exit_code(self, tmp_path, corridor_env, capsys):
        path = _write_config(
            tmp_path,
            "t.yaml",
            env=corridor_env,
            out=str(tmp_path / "o"),
            episodes=5,
            obs_noise=-1,
        )
        assert main(["train", "--config", path]) == 2
        assert "obs_noise" in capsys.readouterr().err

    def test_certify_state_series_csv(self, trained):
        env, checkpoint, tmp_path = trained
        out = tmp_path / "cs"
        cfg = RunConfig(
            mode="certify-state",
            env=env,
            checkpoint=checkpoint,
            out=str(out),
            sigma=0.05,
            samples=200,
            seed=4,
        )
        record = run(cfg)
        rows = _csv_rows(out / "state_series.csv")
        assert len(rows) == len(record.results["certificates"])
        assert [int(r["step"]) for r in rows] == list(range(len(rows)))
        for row, cert in zip(rows, record.results["certificates"]):
            assert float(row["min_radius"]) == cert["min_radius"]
            assert float(row["d_0"]) == cert["per_agent_radius"][0]

    def test_certify_reward_row(self, trained):
        env, checkpoint, tmp_path = trained
        out = tmp_path / "cr"
        cfg = RunConfig(
            mode="certify-reward",
            env=env,
            checkpoint=checkpoint,
            out=str(out),
            sigma=0.05,
            samples=200,
            seed=4,
        )
        record = run(cfg)
        rows = _csv_rows(out / "reward_bound.csv")
        assert len(rows) == 1
        assert rows[0]["mixer"] == "vdn"
        assert float(rows[0]["sigma"]) == 0.05
        assert float(rows[0]["epsilon_cert"]) == record.results["epsilon_cert"]
        assert float(rows[0]["r_min"]) == record.results["r_min"]
        assert record.results["r_min"] <= record.results["clean_reward"]

    def test_certify_reward_draws_each_noise_block_once(self, trained, monkeypatch):
        from marlcert import smoothing

        env, checkpoint, tmp_path = trained
        monkeypatch.setattr(smoothing, "_projected_noise", {})
        drawn = []
        inner = smoothing.gaussian_noise_block

        def counting(dim, sigma, seed, step_index, agent, count, out=None):
            drawn.append((step_index, agent))
            return inner(dim, sigma, seed, step_index, agent, count, out)

        monkeypatch.setattr(smoothing, "gaussian_noise_block", counting)
        cfg = RunConfig(
            mode="certify-reward",
            env=env,
            checkpoint=checkpoint,
            out=str(tmp_path / "once"),
            sigma=0.05,
            samples=200,
            seed=4,
        )
        run(cfg)
        # the corridor has one agent: one draw per step the search reaches
        assert len(drawn) >= 2
        assert sorted(drawn) == [(t, 0) for t in range(len(drawn))]

    def test_attack_mode_reports_no_violations(self, trained):
        env, checkpoint, tmp_path = trained
        out = tmp_path / "atk"
        cfg = RunConfig(
            mode="attack",
            env=env,
            checkpoint=checkpoint,
            out=str(out),
            sigma=0.05,
            samples=100,
            seed=4,
            attack_trials=2,
            rollout_trials=1,
            attack_steps=10,
            attack_restarts=2,
        )
        record = run(cfg)
        validation = record.results["validation"]
        assert validation["in_ball_flips"] == 0
        assert validation["rmin_violated"] is False
        rows = _csv_rows(out / "reward_bound.csv")
        assert rows[0]["attacked_reward"] != ""

    def test_replay_of_config_echo_is_bit_identical(self, trained):
        env, checkpoint, tmp_path = trained
        cfg = RunConfig(
            mode="certify-state",
            env=env,
            checkpoint=checkpoint,
            out=str(tmp_path / "r1"),
            sigma=0.05,
            samples=150,
            seed=9,
        )
        first = run(cfg)
        echo = dict(first.config)
        echo["out"] = str(tmp_path / "r2")
        second = run(RunConfig(**echo))
        a = first.to_dict()
        b = second.to_dict()
        for record in (a, b):
            record.pop("timings")
            record["config"].pop("out")
        assert a == b

    def test_report_merges_and_sorts(self, trained):
        env, checkpoint, tmp_path = trained
        paths = []
        for i, sigma in enumerate((0.1, 0.05)):
            out = tmp_path / f"rr{i}"
            run(
                RunConfig(
                    mode="certify-reward",
                    env=env,
                    checkpoint=checkpoint,
                    out=str(out),
                    sigma=sigma,
                    samples=100,
                    seed=4,
                )
            )
            paths.append(str(out / "result.json"))
        out = tmp_path / "merged"
        record = run(
            RunConfig(mode="report", env=env, out=str(out), inputs=tuple(paths))
        )
        rows = _csv_rows(out / "report.csv")
        assert len(rows) == 2
        sigmas = [float(r["sigma"]) for r in rows]
        assert sigmas == sorted(sigmas)
        assert record.results["rows"][0]["sigma"] == 0.05

    @pytest.mark.parametrize(
        "records",
        [
            [[1, 2]],
            [{"mode": "attack", "results": " ".join(cli._TABLE_HEADER)}],
            [_report_record(sigma="x"), _report_record(sigma=0.1)],
            [_report_record(env=3), _report_record(env="checkers")],
            [_report_record(mixer=None), _report_record(mixer="vdn")],
        ],
        ids=["list", "results-string", "sigma-string", "env-int", "mixer-null"],
    )
    def test_malformed_result_file_exits_2(self, tmp_path, capsys, records):
        paths = []
        for i, record in enumerate(records):
            paths.append(tmp_path / f"r{i}.json")
            paths[-1].write_text(json.dumps(record), encoding="utf-8")
        argv = ["report", *map(str, paths), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_report_input_exits_3_without_out(self, tmp_path, capsys):
        argv = ["report", str(tmp_path / "nothere.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("file or checkpoint error:") and err.count("\n") == 1

    def test_failed_run_keeps_an_out_that_existed(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept", encoding="utf-8")
        argv = ["report", str(tmp_path / "nothere.json"), "--out", str(out)]
        assert main(argv) == 3
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("master_seed", [1, 2])
    def test_attack_validation_counts_at_benchmark_settings(self, tmp_path, master_seed):
        # the attack-validate settings; the goldens pin trial counts only
        path = _write_config(
            tmp_path,
            "attack.yaml",
            env="checkers",
            mixer="vdn",
            checkpoint=str(_CHECKERS_VDN),
            out=str(tmp_path / "out"),
            seed=master_seed,
            sigma=0.06,
            samples=1000,
            alpha=0.01,
            attack_steps=30,
            attack_restarts=2,
            attack_trials=20,
            rollout_trials=5,
        )
        assert main(["attack", "--config", path]) == 0
        record = json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))
        validation = record["results"]["validation"]
        assert validation["in_ball_flips"] == 0
        assert (validation["contrast_flips"], validation["contrast_trials"]) == (40, 200)
        assert validation["rollout_rewards"] == [60.0] * 5


    @pytest.mark.parametrize("mode", ["certify-state", "certify-reward", "attack"])
    @pytest.mark.parametrize("case", ["agents", "observation", "hypernet"])
    def test_incompatible_checkpoint_exit_code(self, tmp_path, capsys, mode, case):
        if case == "agents":
            # a two-agent checkpoint on the four-agent switch grid
            env, checkpoint = "switch", str(_CHECKERS_VDN)
        elif case == "observation":
            # agent networks that read 10 features, not the 47 of a view
            env, checkpoint = "checkers", str(tmp_path / "narrow")
            rng = np.random.default_rng(0)
            nets = tuple(nn.mlp_init((10, 8, 5), "relu", rng) for _ in range(2))
            save_policy(JointPolicy(nets, "vdn", None), checkpoint)
        else:
            # a checkers qmix_mono hypernet reads 16 state features, this
            # two-agent grid with two apples encodes 6
            env = str(tmp_path / "short.yaml")
            Path(env).write_text("map: |\n  1a.a2\nstep_cap: 4\n", encoding="utf-8")
            checkpoint = str(tmp_path / "qmix")
            rng = np.random.default_rng(0)
            save_policy(new_policy(builtin_spec("checkers"), "qmix_mono", rng), checkpoint)
        path = _write_config(
            tmp_path, "c.yaml", env=env, checkpoint=checkpoint, out=str(tmp_path / "o")
        )
        assert main([mode, "--config", path]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "incompatible checkpoint data" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def _checkers_run(self, tmp_path, mode):
        return run(
            RunConfig(
                mode=mode,
                env="checkers",
                checkpoint=str(_CHECKERS_VDN),
                out=str(tmp_path / mode),
                sigma=0.06,
                samples=100,
                alpha=0.01,
                seed=2,
                attack_trials=1,
                attack_steps=2,
                attack_restarts=1,
                rollout_trials=1,
            )
        )

    def test_attack_tallies_each_expanded_state_once(self, tmp_path, monkeypatch):
        tallied = []
        bounds = []
        inner_tally = certify.sample_tally
        inner_tcrgr = cli.tcrgr

        def counting_tally(*args):
            tallied.append(args[2])
            return inner_tally(*args)

        def keeping_tcrgr(*args):
            bounds.append(inner_tcrgr(*args))
            return bounds[-1]

        monkeypatch.setattr(certify, "sample_tally", counting_tally)
        monkeypatch.setattr(cli, "tcrgr", keeping_tcrgr)
        self._checkers_run(tmp_path, "attack")
        assert len(bounds) == 1
        assert len(tallied) == bounds[0].nodes_expanded
        assert len(set(tallied)) == len(tallied)

    def test_attack_draws_each_noise_block_once_before_validation(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(smoothing, "_projected_noise", {})
        drawn = []
        before_validation = []
        inner_block = smoothing.gaussian_noise_block
        inner_validate = cli.validate_certificates

        def counting_block(dim, sigma, seed, step_index, agent, count, out=None):
            drawn.append((step_index, agent))
            return inner_block(dim, sigma, seed, step_index, agent, count, out)

        def validate(*args, **kwargs):
            before_validation.extend(drawn)
            return inner_validate(*args, **kwargs)

        monkeypatch.setattr(smoothing, "gaussian_noise_block", counting_block)
        monkeypatch.setattr(cli, "validate_certificates", validate)
        record = self._checkers_run(tmp_path, "attack")
        steps = len(record.results["certificates"])
        assert steps >= 2
        assert sorted(before_validation) == [(t, n) for t in range(steps) for n in range(2)]

    def test_attack_and_certify_state_write_the_same_certificates(self, tmp_path):
        attack = self._checkers_run(tmp_path, "attack").results["certificates"]
        state = self._checkers_run(tmp_path, "certify-state").results["certificates"]
        assert any(cert["certified_set"] for cert in attack)
        assert attack == state

    def test_confidence_is_the_union_bound_over_node_tests(self, tmp_path):
        reward = self._checkers_run(tmp_path, "certify-reward").results
        attack = self._checkers_run(tmp_path, "attack").results
        # five expanded nodes, two agents, one level-0.01 test each
        assert reward["nodes_expanded"] == 5
        assert reward["confidence"] == attack["confidence"] == 0.9

    def test_result_json_record_shapes(self, tmp_path):
        # result.json writes whole dataclasses: a new field must show here
        self._checkers_run(tmp_path, "attack")
        path = tmp_path / "attack" / "result.json"
        results = json.loads(path.read_text(encoding="utf-8"))["results"]
        assert set(results["certificates"][0]) == {
            "state",
            "step_index",
            "actions",
            "pvalues",
            "corrected_pvalues",
            "per_agent_radius",
            "certified_set",
            "min_radius",
        }
        assert set(results["certificates"][0]["state"]) == {
            "agent_positions",
            "remaining_items",
            "step_count",
            "done",
        }
        assert set(results["validation"]) == {
            "states_checked",
            "agents_checked",
            "in_ball_trials",
            "in_ball_flips",
            "contrast_trials",
            "contrast_flips",
            "rollout_rewards",
            "rmin_violated",
        }
        for cert in results["certificates"]:
            for written in (cert["certified_set"], cert["state"]["remaining_items"]):
                assert isinstance(written, list) and written == sorted(written)

    def test_state_round_trips_through_result_json(self, tmp_path):
        self._checkers_run(tmp_path, "certify-state")
        path = tmp_path / "certify-state" / "result.json"
        certificates = json.loads(path.read_text(encoding="utf-8"))["results"]["certificates"]
        spec = builtin_spec("checkers")
        expected = reset(spec)
        for cert in certificates:
            blob = cert["state"]
            state = EnvState(
                agent_positions=tuple(tuple(p) for p in blob["agent_positions"]),
                remaining_items=frozenset(
                    (tuple(cell), kind) for cell, kind in blob["remaining_items"]
                ),
                step_count=blob["step_count"],
                done=blob["done"],
            )
            assert state == expected
            expected = step(spec, state, tuple(cert["actions"])).next_state

    @pytest.mark.parametrize(
        "apple", ["abc", ".inf", "1.0e308"], ids=["text", "inf", "sum-inf"]
    )
    def test_bad_grid_reward_exits_2(self, tmp_path, capsys, apple):
        # at 1.0e308 each apple is finite but the six of checkers sum to inf
        text = (Path(marlcert.__file__).parent / "configs" / "checkers.yaml").read_text(
            encoding="utf-8"
        )
        env = tmp_path / "grid.yaml"
        env.write_text(text.replace("apple: 10.0", f"apple: {apple}"), encoding="utf-8")
        path = _write_config(
            tmp_path,
            "c.yaml",
            env=str(env),
            checkpoint=str(_CHECKERS_VDN),
            out=str(tmp_path / "o"),
        )
        assert main(["certify-reward", "--config", path]) == 2
        assert not (tmp_path / "o").exists()  # the grid is read before out is made
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "case", ["env-directory", "config-directory", "input-directory", "out-file"]
    )
    def test_file_system_error_exits_3(self, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        mode = "report" if case == "input-directory" else "certify-state"
        fields = dict(
            env=str(folder) if case == "env-directory" else "checkers",
            checkpoint=str(_CHECKERS_VDN),
            inputs=[str(folder)],
            out=str(tmp_path / "o"),
        )
        if case == "out-file":
            (tmp_path / "o").write_text("", encoding="utf-8")
        path = _write_config(tmp_path, "c.yaml", **fields)
        if case == "config-directory":
            path = str(folder)
        assert main([mode, "--config", path]) == 3
        if case == "env-directory":
            assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith("file or checkpoint error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "reader, code", [("config", 2), ("grid", 2), ("report", 2), ("manifest", 3)]
    )
    def test_non_utf8_file_exits_with_its_readers_code(self, tmp_path, capsys, reader, code):
        bad = tmp_path / "bad"
        bad.mkdir()
        name = {"grid": "grid.yaml", "report": "result.json", "manifest": "manifest.json"}
        (bad / name.get(reader, "c.yaml")).write_bytes(b"\xff")
        fields = dict(
            env=str(bad / "grid.yaml") if reader == "grid" else "checkers",
            checkpoint=str(bad if reader == "manifest" else _CHECKERS_VDN),
            inputs=[str(bad / "result.json")],
            out=str(tmp_path / "o"),
        )
        path = _write_config(tmp_path, "c.yaml", **fields)
        if reader == "config":
            path = str(bad / "c.yaml")
        mode = "report" if reader == "report" else "certify-state"
        assert main([mode, "--config", path]) == code
        err = capsys.readouterr().err
        prefix = "config error:" if code == 2 else "file or checkpoint error:"
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_hung_git_probe_keeps_the_run(self, tmp_path, monkeypatch):
        def hung(*args, **kw):
            raise subprocess.TimeoutExpired(args[0], kw.get("timeout"))

        monkeypatch.setattr(cli, "_build", None)
        monkeypatch.setattr(subprocess, "run", hung)
        path = _write_config(
            tmp_path,
            "c.yaml",
            env="checkers",
            checkpoint=str(_CHECKERS_VDN),
            out=str(tmp_path / "o"),
            samples=20,
        )
        assert main(["certify-state", "--config", path]) == 0
        record = json.loads((tmp_path / "o" / "result.json").read_text(encoding="utf-8"))
        assert record["build"] == f"marlcert-{marlcert.__version__}"

    def test_unallocatable_attack_restarts_exit_code(self, tmp_path, capsys):
        # 2**52 restarts of 47 float64s are more than any address space
        # holds, so the PGD batch fails without allocating
        path = _write_config(
            tmp_path,
            "c.yaml",
            env="checkers",
            checkpoint=str(_CHECKERS_VDN),
            out=str(tmp_path / "o"),
            sigma=0.06,
            samples=1000,
            alpha=0.01,
            attack_restarts=2**52,
            attack_trials=1,
            rollout_trials=1,
        )
        assert main(["attack", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"restarts: {2**52} needs " in err and " GiB " in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("restarts", [1, 2])
    @pytest.mark.parametrize(
        "field, name", [("attack_trials", "trials"), ("rollout_trials", "rollout_trials")]
    )
    def test_unallocatable_trials_exit_2_before_out_exists(
        self, tmp_path, capsys, field, name, restarts
    ):
        # at 1 restart a PGD batch holds one row per budget, so the seeds'
        # results alone must refuse the count
        path = _write_config(
            tmp_path,
            "c.yaml",
            env="checkers",
            checkpoint=str(_CHECKERS_VDN),
            out=str(tmp_path / "o"),
            sigma=0.06,
            samples=1000,
            alpha=0.01,
            attack_restarts=restarts,
            **{field: 2**52},
        )
        started = time.perf_counter()
        assert main(["attack", "--config", path]) == 2
        assert time.perf_counter() - started < 5.0
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert f"{name}: {2**52} at restarts: {restarts} needs " in err and " GiB " in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("env", ["corridor", "missing"])
    def test_unallocatable_trials_exit_2_in_every_mode(self, tmp_path, capsys, corridor_env, env):
        # the attack schedule is checked with the config, before the grid
        # is read: a missing grid does not turn the refusal into exit 3
        path = _write_config(
            tmp_path,
            "c.yaml",
            env=corridor_env if env == "corridor" else str(tmp_path / "nothere.yaml"),
            out=str(tmp_path / "o"),
            attack_trials=2**52,
        )
        assert main(["train", "--config", path]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert f"trials: {2**52} at restarts: 5 needs " in err
        assert err.startswith("config error:") and err.count("\n") == 1


class TestFlags:
    def test_flag_overrides_config(self, trained, tmp_path):
        env, checkpoint, _ = trained
        path = _write_config(
            tmp_path,
            "c.yaml",
            env=env,
            checkpoint=checkpoint,
            out=str(tmp_path / "f1"),
            sigma=0.05,
            samples=100,
        )
        code = main(
            [
                "certify-state",
                "--config",
                path,
                "--sigma",
                "0.07",
                "--out",
                str(tmp_path / "f2"),
            ]
        )
        assert code == 0
        record = json.loads(
            (tmp_path / "f2" / "result.json").read_text(encoding="utf-8")
        )
        assert record["config"]["sigma"] == 0.07
        assert record["schema_version"] == 1
