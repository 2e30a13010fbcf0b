"""Checkpoints, dataset files, config parsing, and the CLI surface."""

import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sympflow import cli
from sympflow import evaluate as ev
from sympflow import io as sio
from sympflow import mlp
from sympflow import model as sfm
from sympflow import systems as sysmod
from sympflow import train as tr
from sympflow.cli import cli_dispatch
from sympflow.errors import CheckpointError, ConfigError, KindMismatchError
from sympflow.integrate import generate_dataset
from sympflow.systems import Sho

# A Henon-Heiles SympFlow trained by benchmarks/make_checkpoint.py.
HH_CHECKPOINT = Path(__file__).resolve().parents[1] / "benchmarks" / "hh_sympflow.json"


def test_checkpoint_roundtrip_sympflow(tmp_path):
    model = sfm.random_sympflow(2, 3, np.random.default_rng(1))
    path = tmp_path / "model.json"
    sio.save_checkpoint(model, path, seed=7)
    loaded = sio.load_checkpoint(path)
    assert isinstance(loaded, sfm.SympFlowModel)
    assert np.array_equal(sfm.params_to_vector(loaded), sfm.params_to_vector(model))


def test_checkpoint_roundtrip_mlp(tmp_path):
    model = mlp.random_mlp_flow(1, 5, np.random.default_rng(2))
    path = tmp_path / "model.json"
    sio.save_checkpoint(model, path)
    loaded = sio.load_checkpoint(path)
    assert isinstance(loaded, mlp.MlpFlowModel)
    assert np.array_equal(mlp.params_to_vector(loaded), mlp.params_to_vector(model))


def test_checkpoint_bytes_survive_a_round_trip(tmp_path):
    payload = json.loads(HH_CHECKPOINT.read_text())
    path = tmp_path / "model.json"
    sio.save_checkpoint(sio.load_checkpoint(HH_CHECKPOINT), path, seed=payload["seed"])
    assert path.read_bytes() == HH_CHECKPOINT.read_bytes()


@pytest.mark.parametrize("kind", ["sympflow", "mlp"])
@pytest.mark.parametrize("header", [{"L": 0}, {"h": 0}, {"d": 0}])
def test_checkpoint_header_of_no_model_is_rejected(tmp_path, kind, header):
    model = {"sympflow": sfm.random_sympflow, "mlp": mlp.random_mlp_flow}[kind](1, 2, np.random.default_rng(4))
    path = tmp_path / "model.json"
    sio.save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, **header}))
    with pytest.raises(CheckpointError, match="describes no model"):
        sio.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"magic": "nope", "kind": "sympflow"}))
    with pytest.raises(CheckpointError):
        sio.load_checkpoint(path)


def test_save_checkpoint_rejects_a_non_model(tmp_path):
    with pytest.raises(CheckpointError, match="cannot checkpoint object of type dict"):
        sio.save_checkpoint({"kind": "sympflow"}, tmp_path / "model.json")


# Edits of a valid checkpoint's JSON text, each making it unloadable.
def _with(**fields):
    """An edit of a checkpoint's text that sets ``fields``; a callable value maps the old payload to the new value."""

    def edit(text):
        payload = json.loads(text)
        return json.dumps({**payload, **{k: v(payload) if callable(v) else v for k, v in fields.items()}})

    return edit


def _nonfinite_params(payload):
    vec = sio._decode(payload["params"]).copy()
    vec[-1] = np.inf
    return sio._encode(vec)


BROKEN_CHECKPOINTS = {
    "invalid-json": (lambda text: text[:-2], "cannot read checkpoint"),
    "unknown-kind": (lambda text: text.replace('"sympflow"', '"rnn"'), "unknown checkpoint kind 'rnn'"),
    "missing-key": (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "h"}), "malformed"),
    "short-params": (_with(params=sio._encode(np.zeros(3))), "parameter vector length does not match the header"),
    "null-d": (_with(d=None), "malformed checkpoint .*: d, L and h must be integers"),
    "float-d": (_with(d=1.9), "malformed checkpoint .*: d, L and h must be integers"),
    "bool-d": (_with(d=True), "malformed checkpoint .*: d, L and h must be integers"),
    "int-params": (_with(params=5), "malformed checkpoint .*params a string"),
    "nonfinite-params": (_with(params=_nonfinite_params), "holds invalid parameters: .*non-finite"),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_CHECKPOINTS))
def test_load_checkpoint_rejects_a_broken_file(tmp_path, broken):
    edit, match = BROKEN_CHECKPOINTS[broken]
    path = tmp_path / "model.json"
    sio.save_checkpoint(sfm.random_sympflow(1, 1, np.random.default_rng(6), h=2), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(CheckpointError, match=match):
        sio.load_checkpoint(path)


def test_checkpoint_kind_mismatch(tmp_path):
    model = sfm.random_sympflow(1, 1, np.random.default_rng(3))
    path = tmp_path / "model.json"
    sio.save_checkpoint(model, path)
    with pytest.raises(KindMismatchError):
        sio.load_checkpoint(path, expect_kind="mlp")


def test_dataset_roundtrip(tmp_path):
    ds = generate_dataset(Sho(), [-1.2, 1.2], 4, 3, 1.0, noise_std=0.05, seed=9)
    sio.save_dataset(ds, tmp_path / "data")
    loaded = sio.load_dataset(tmp_path / "data")
    assert np.array_equal(loaded.ics, ds.ics)
    assert np.array_equal(loaded.sample_t, ds.sample_t)
    assert np.array_equal(loaded.sample_y, ds.sample_y)
    assert np.array_equal(loaded.sample_traj, ds.sample_traj)
    assert loaded.delta_t == ds.delta_t


def _saved_dataset(tmp_path):
    ds = generate_dataset(Sho(), [-1.2, 1.2], 2, 3, 1.0, seed=9)
    sio.save_dataset(ds, tmp_path / "data")
    return tmp_path / "data"


def test_dataset_truncated_row_names_file_and_line(tmp_path):
    data = _saved_dataset(tmp_path)
    lines = (data / "samples.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]  # drop the last column of the second sample
    (data / "samples.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"samples\.csv:3: expected 4 columns, got 3"):
        sio.load_dataset(data)


def test_dataset_unparsable_cell_names_file_and_line(tmp_path):
    data = _saved_dataset(tmp_path)
    lines = (data / "samples.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",zero"
    (data / "samples.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"samples\.csv:4: "):
        sio.load_dataset(data)


def test_dataset_bad_header_rejected(tmp_path):
    data = _saved_dataset(tmp_path)
    text = (data / "ics.csv").read_text()
    (data / "ics.csv").write_text(text.replace("x_2", "p_1", 1))
    with pytest.raises(ConfigError, match=r"ics\.csv:1: header"):
        sio.load_dataset(data)


def test_dataset_column_counts_must_agree(tmp_path):
    data = _saved_dataset(tmp_path)
    rows = [line.split(",") for line in (data / "ics.csv").read_text().splitlines()]
    rows[0].append("x_3")
    for row in rows[1:]:
        row.append("0.5")
    (data / "ics.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    with pytest.raises(ConfigError, match=r"samples\.csv:1: 2 state columns, but ics\.csv has 3"):
        sio.load_dataset(data)


def _last_cell_nan(data):
    lines = (data / "samples.csv").read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    (data / "samples.csv").write_text("\n".join(lines) + "\n")


BROKEN_DATASETS = {
    "missing-ics": (lambda data: (data / "ics.csv").unlink(), r"ics\.csv: cannot read"),
    "invalid-meta": (lambda data: (data / "meta.json").write_text("{"), r"meta\.json: "),
    "list-meta": (lambda data: (data / "meta.json").write_text("[1.0]"), r"meta\.json: must hold a JSON object, got list"),
    "null-delta-t": (lambda data: (data / "meta.json").write_text('{"delta_t": null}'), r"meta\.json: "),
    "negative-delta-t": (
        lambda data: (data / "meta.json").write_text('{"delta_t": -1.0}'),
        r"data: sample times must lie in \[0, delta_t\]",
    ),
    "nonfinite-sample": (_last_cell_nan, r"data: sample_y contains non-finite entries"),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_DATASETS))
def test_load_dataset_names_the_file_of_a_broken_dataset(tmp_path, broken):
    data = _saved_dataset(tmp_path)
    edit, match = BROKEN_DATASETS[broken]
    edit(data)
    with pytest.raises(ConfigError, match=match):
        sio.load_dataset(data)


def test_write_csv_writes_integers_as_they_are_and_floats_bit_for_bit(tmp_path):
    floats = [-0.0, 5e-324, 1 / 3, 0.1 + 0.2, np.nextafter(1.0, 2.0), 1e300]  # 0.1 + 0.2 and 1 + 2**-52 need 17 digits
    path = tmp_path / "t.csv"
    header = ["id", "name", *(f"v_{i}" for i in range(len(floats)))]
    sio.write_csv(path, header, [[np.int64(7), "a", *floats], [3, "", *floats]])
    first, *rows = path.read_text().split("\n")[:-1]
    assert first == "id,name,v_0,v_1,v_2,v_3,v_4,v_5"
    assert [r.split(",")[:2] for r in rows] == [["7", "a"], ["3", ""]]
    for row in rows:
        back = np.array([float(v) for v in row.split(",")[2:]])
        assert back.tobytes() == np.array(floats).tobytes()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": "sho", "bogus": 1}))
    with pytest.raises(ConfigError):
        sio.load_config(path)
    path.write_text(json.dumps([{"system": "sho"}]))
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        sio.load_config(path)


def test_config_type_coercion(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epochs": 10, "learning_rate": 0.001, "omega": [-1, 1]}))
    cfg = sio.load_config(path)
    assert cfg["epochs"] == 10 and cfg["learning_rate"] == 0.001
    assert cfg["omega"] == [-1, 1]


@pytest.mark.parametrize(
    "payload",
    [{"epochs": 2.5}, {"seed": 1.5}, {"layers": True}, {"epochs": "3"}, {"mass": True}, {"seed": float("inf")}],
)
def test_config_number_keys_are_not_rounded_or_coerced(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=next(iter(payload))):
        sio.load_config(path)


@pytest.mark.parametrize("payload", [{"system": 5}, {"dataset_dir": ["a"]}, {"regime": None}, {"model_kind": True}])
def test_config_string_keys_take_only_json_strings(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=next(iter(payload))):
        sio.load_config(path)


def test_config_integral_float_loads_as_an_integer(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epochs": 2.0, "mass": 2}))
    cfg = sio.load_config(path)
    assert cfg == {"epochs": 2, "mass": 2.0} and type(cfg["epochs"]) is int


def test_every_train_config_field_is_a_config_key():
    fields = {f.name for f in dataclasses.fields(tr.TrainConfig)}
    assert fields - set(sio.CONFIG_KEYS) == set()


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_missing_config_fails():
    code = cli_dispatch(["train", "--config", "/nonexistent/cfg.json"])
    assert code != 0


def test_cli_rejects_derivative_mode_fd(tmp_path, capsys):
    payload = {"system": "sho", "model_kind": "mlp", "regime": "residual_only", "epochs": 1}
    cfg = _write_cfg(tmp_path, "train.json", {**payload, "derivative_mode": "fd"})
    assert cli_dispatch(["train", "--config", cfg, "--out", str(tmp_path / "out")]) != 0
    assert "mode 'fd' was removed" in capsys.readouterr().err


def test_cli_rejects_a_nan_mass(tmp_path, capsys):
    # Python's json reads NaN, so a config can carry one.
    payload = {"system": "sho", "mass": float("nan"), "omega": [-1, 1], "n_trajectories": 2, "m_samples": 2, "delta_t": 1.0}
    cfg = _write_cfg(tmp_path, "data.json", payload)
    assert cli_dispatch(["generate-data", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "mass must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("omega", [[], [[-1, 1], 2]])
def test_cli_train_rejects_a_box_of_no_bounds(tmp_path, capsys, omega):
    payload = {"system": "sho", "model_kind": "mlp", "regime": "residual_only", "epochs": 1, "omega": omega}
    cfg = _write_cfg(tmp_path, "train.json", payload)
    assert cli_dispatch(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "omega" in capsys.readouterr().err


# Configs of each command that projects, none of them on the damped system.
PROJECTING = {
    "evaluate": {"system": "henon_heiles", "omega": [-0.5, 0.5], "delta_t": 1.0, "n_eval_samples": 2, "k_steps": [1]},
    "rollout": {"delta_t": 1.0, "horizon": 2.0, "step": 0.5, "x0": [0.1, 0.2, 0.3, 0.4]},
    "poincare": {"system": "sho", "delta_t": 1.0, "horizon": 2.0, "x0": [0.1, 0.2, 0.3, 0.4]},
}


@pytest.mark.parametrize("command", sorted(PROJECTING))
def test_cli_project_physical_needs_the_damped_system(tmp_path, capsys, command):
    cfg = {**PROJECTING[command], "project_physical": True}
    with pytest.raises(ConfigError, match="project_physical needs system 'damped'"):
        cli._project_fn(cfg)
    ckpt = tmp_path / "model.json"
    sio.save_checkpoint(sfm.random_sympflow(2, 1, np.random.default_rng(0), h=3), ckpt)
    out = tmp_path / "out"
    argv = [command, "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out), "--checkpoint", str(ckpt)]
    assert cli_dispatch(argv) == 1
    assert "project_physical needs system 'damped'" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert cli._project_fn({**cfg, "system": "damped"}) is sysmod.physical_limit_project
    assert cli._project_fn({**cfg, "project_physical": False}) is None


def test_cli_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    assert "generate-data" in out


def test_python_m_sympflow_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(sio.__file__).resolve().parents[1]))
    run = functools.partial(subprocess.run, env=env, capture_output=True, text=True, timeout=60)
    shown = run([sys.executable, "-m", "sympflow", "--help"])
    assert shown.returncode == 0 and shown.stdout.startswith("usage: sympflow")
    for module in ("sympflow", "sympflow.cli"):
        failed = run([sys.executable, "-m", module, "train", "--config", str(tmp_path / "missing.json")])
        assert failed.returncode == 1 and failed.stderr.startswith("error:")


def test_cli_json_artifacts_hold_no_nan(tmp_path):
    def strict(path):
        def reject(name):
            raise ValueError(f"{path.name} holds {name}, which is not JSON")

        return json.loads(path.read_text(), parse_constant=reject)

    train_cfg = {"system": "sho", "model_kind": "sympflow", "regime": "residual_only", "epochs": 0, "hidden": 3}
    out = tmp_path / "run"
    assert cli_dispatch(["train", "--config", _write_cfg(tmp_path, "train.json", train_cfg), "--out", str(out)]) == 0
    assert strict(out / "train_report.json")["final_loss"] is None
    assert (out / "loss_history.csv").read_text() == "epoch\n"
    eval_cfg = {"system": "sho", "omega": [-1.0, 1.0], "delta_t": 1.0, "n_eval_samples": 2, "k_steps": [1]}
    argv = ["evaluate", "--config", _write_cfg(tmp_path, "eval.json", eval_cfg), "--out", str(out)]
    assert cli_dispatch([*argv, "--checkpoint", str(out / "model.json")]) == 0
    assert strict(out / "evaluation.json")["drift_slope"] is None


def test_cli_generate_data_and_determinism(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "gen.json",
        {
            "system": "sho",
            "omega": [-1.2, 1.2],
            "n_trajectories": 3,
            "m_samples": 4,
            "delta_t": 1.0,
            "seed": 5,
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_dispatch(["generate-data", "--config", cfg, "--out", str(out1)]) == 0
    assert cli_dispatch(["generate-data", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "ics.csv").read_text() == (out2 / "ics.csv").read_text()
    assert (out1 / "samples.csv").read_text() == (out2 / "samples.csv").read_text()


def test_cli_supervised_training_from_a_dataset_writes_periodic_checkpoints(tmp_path, capsys):
    data_cfg = {"system": "sho", "omega": [-1.0, 1.0], "n_trajectories": 4, "m_samples": 3, "delta_t": 1.0}
    data = tmp_path / "data"
    assert cli_dispatch(["generate-data", "--config", _write_cfg(tmp_path, "gen.json", data_cfg), "--out", str(data)]) == 0
    train_cfg = {"system": "sho", "model_kind": "mlp", "regime": "supervised", "epochs": 4, "hidden": 4}
    out = tmp_path / "run"
    cfg = _write_cfg(tmp_path, "train.json", {**train_cfg, "dataset_dir": str(data), "checkpoint_every": 2})
    assert cli_dispatch(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "model-000002.json").exists()
    assert (out / "model-000004.json").read_bytes() == (out / "model.json").read_bytes()
    assert len((out / "loss_history.csv").read_text().splitlines()) == 1 + 4
    capsys.readouterr()
    no_data = _write_cfg(tmp_path, "no_data.json", train_cfg)
    assert cli_dispatch(["train", "--config", no_data, "--out", str(tmp_path / "other")]) == 1
    assert "config is missing required keys: dataset_dir" in capsys.readouterr().err


def test_cli_train_rollout_evaluate_poincare(tmp_path):
    train_cfg = _write_cfg(
        tmp_path,
        "train.json",
        {
            "system": "sho",
            "model_kind": "sympflow",
            "regime": "residual_only",
            "epochs": 5,
            "layers": 1,
            "hidden": 3,
            "batch_collocation": 8,
            "omega": [-1.2, 1.2],
            "delta_t": 1.0,
            "seed": 1,
        },
    )
    out = tmp_path / "run"
    assert cli_dispatch(["train", "--config", train_cfg, "--out", str(out)]) == 0
    ckpt = out / "model.json"
    assert ckpt.exists() and (out / "loss_history.csv").exists()
    summary = json.loads((out / "train_report.json").read_text())
    assert summary["second_term_worker"] is False and summary["second_term_wait_s"] == 0.0
    assert summary["second_term_busy_s"] == 0.0

    roll_cfg = _write_cfg(
        tmp_path,
        "roll.json",
        {"delta_t": 1.0, "horizon": 3.0, "step": 0.5, "x0": [1.0, 0.0]},
    )
    assert cli_dispatch(
        ["rollout", "--config", roll_cfg, "--out", str(out), "--checkpoint", str(ckpt)]
    ) == 0
    rows = (out / "rollout.csv").read_text().strip().split("\n")
    assert rows[0] == "t,x_1,x_2"
    assert len(rows) == 8  # header + 7 samples

    # 17 significant digits read back bit for bit: every row is the library's
    model = sio.load_checkpoint(ckpt)
    times, states = ev.rollout_path(model, ev.RolloutSpec(1.0, 3.0, 0.5, np.array([1.0, 0.0])))
    assert [[float(v) for v in line.split(",")] for line in rows[1:]] == np.column_stack([times, states]).tolist()

    eval_cfg = _write_cfg(
        tmp_path,
        "eval.json",
        {
            "system": "sho",
            "omega": [-1.2, 1.2],
            "delta_t": 1.0,
            "n_eval_samples": 3,
            "k_steps": [1, 2],
            "x0": [1.0, 0.0],
            "horizon": 10.0,
            "step": 0.5,
            "seed": 2,
        },
    )
    assert cli_dispatch(
        ["evaluate", "--config", eval_cfg, "--out", str(out), "--checkpoint", str(ckpt)]
    ) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "energy_drift.csv").exists()
    drift_rows = (out / "energy_drift.csv").read_text().strip().split("\n")
    assert drift_rows[0] == "t,drift,drift_per_time"

    # poincare on a trained Henon-Heiles model, whose orbit crosses the section
    x0 = [0.0, 0.1, 0.3, 0.05]
    poin_cfg = _write_cfg(tmp_path, "poin.json", {"delta_t": 1.0, "horizon": 30.0, "x0": x0})
    argv = ["poincare", "--config", poin_cfg, "--out", str(out), "--checkpoint", str(HH_CHECKPOINT)]
    assert cli_dispatch(argv) == 0
    lines = (out / "poincare.csv").read_text().strip().split("\n")
    assert lines[0] == "t,q_y,p_y"
    path = ev.rollout_path(sio.load_checkpoint(HH_CHECKPOINT), ev.RolloutSpec(1.0, 30.0, 0.01, np.array(x0)))
    t_cross, crossings = ev.poincare_crossings(path)
    assert len(t_cross) >= 3
    want = np.column_stack([t_cross, crossings[:, 1], crossings[:, 3]]).tolist()
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == want


def test_cli_train_deterministic_outputs(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "train.json",
        {
            "system": "sho",
            "model_kind": "mlp",
            "regime": "regularized",
            "epochs": 4,
            "layers": 2,
            "hidden": 4,
            "batch_collocation": 8,
            "batch_matching": 8,
            "omega": [-1.2, 1.2],
            "delta_t": 1.0,
            "seed": 11,
        },
    )
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_dispatch(["train", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "model.json").read_text() == (outs[1] / "model.json").read_text()
    assert (
        (outs[0] / "loss_history.csv").read_text()
        == (outs[1] / "loss_history.csv").read_text()
    )
    # the MLP's energy_reg term runs in a forked worker wherever one may be forked
    forks = tr._can_fork_worker()
    for out in outs:
        report = json.loads((out / "train_report.json").read_text())
        assert report["epochs_run"] == 4
        assert report["second_term_worker"] is forks
        assert (report["second_term_wait_s"] > 0) == forks
        assert (report["second_term_busy_s"] > 0) == forks


def test_cli_seed_override(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "gen.json",
        {
            "system": "sho",
            "omega": [-1.0, 1.0],
            "n_trajectories": 2,
            "m_samples": 2,
            "delta_t": 1.0,
            "seed": 5,
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_dispatch(["generate-data", "--config", cfg, "--out", str(out1)]) == 0
    assert cli_dispatch(
        ["generate-data", "--config", cfg, "--out", str(out2), "--seed", "6"]
    ) == 0
    assert (out1 / "ics.csv").read_text() != (out2 / "ics.csv").read_text()


def test_cli_evaluate_writes_failed_and_nonfinite_counts(tmp_path):
    # Henon-Heiles on (-0.5, 0.5)^4, seed 0: the third sampled orbit escapes
    # and its reference solve fails at t = 13.2, before 15 windows.
    ckpt = tmp_path / "model.json"
    sio.save_checkpoint(sfm.random_sympflow(2, 1, np.random.default_rng(0), h=3), ckpt)
    cfg = _write_cfg(
        tmp_path,
        "eval.json",
        {"system": "henon_heiles", "omega": [-0.5, 0.5], "delta_t": 1.0, "n_eval_samples": 4, "k_steps": [1, 15], "seed": 0},
    )
    out = tmp_path / "eval"
    assert cli_dispatch(["evaluate", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 0
    rows = (out / "metrics.csv").read_text().strip().split("\n")
    assert rows[0] == "k,relative_error,energy_variation,skipped_error,skipped_energy,nonfinite,failed"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "15"]
    assert all(r.split(",")[-2:] == ["0", "1"] for r in rows[1:])
    summary = json.loads((out / "evaluation.json").read_text())
    assert summary["failed"] == 1
    assert summary["nonfinite"] == {"1": 0, "15": 0}
