"""Command-line interface.

Subcommands: ``generate-data``, ``train``, ``rollout``, ``evaluate``,
``poincare``.  Each reads a flat JSON config (see :mod:`sympflow.io`),
writes CSV/JSON artifacts into the output directory, and exits 0 on
success or nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import io as sio
from . import systems as sysmod
from .errors import ConfigError
from .integrate import generate_dataset
from .io import _fmt
from .train import TrainConfig, build_model, train as run_training

__all__ = ["main", "cli_dispatch"]


def _build_system(cfg: dict):
    name = cfg.get("system")
    if name is None:
        raise ConfigError("config needs a 'system' key")
    params = {}
    if "mass" in cfg:
        params["m"] = cfg["mass"]
    if "spring_k" in cfg:
        params["k"] = cfg["spring_k"]
    if "damping" in cfg:
        params["lam"] = cfg["damping"]
    return sysmod.system_from_name(name, **params)


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"config is missing required keys: {', '.join(missing)}")


def _train_config(cfg: dict) -> TrainConfig:
    kwargs = {f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig) if f.name in cfg}
    if "omega" in kwargs:
        kwargs["omega"] = tuple(tuple(b) if isinstance(b, list) else b for b in kwargs["omega"])
    return TrainConfig(**kwargs)


def _project_fn(cfg: dict):
    return sysmod.physical_limit_project if cfg.get("project_physical") else None


def _cmd_generate_data(cfg: dict, out: Path, args) -> int:
    _require(cfg, "system", "omega", "n_trajectories", "m_samples", "delta_t")
    system = _build_system(cfg)
    ds = generate_dataset(
        system,
        cfg["omega"],
        cfg["n_trajectories"],
        cfg["m_samples"],
        cfg["delta_t"],
        noise_std=cfg.get("noise_std", 0.0),
        seed=cfg.get("seed", 0),
    )
    sio.save_dataset(ds, out)
    print(f"wrote {ds.n_trajectories} initial conditions, {ds.n_samples} samples to {out}")
    return 0


def _cmd_train(cfg: dict, out: Path, args) -> int:
    _require(cfg, "system", "model_kind", "regime", "epochs")
    system = _build_system(cfg)
    config = _train_config(cfg)
    model = build_model(config, system.d)
    dataset = None
    if config.regime == "supervised":
        _require(cfg, "dataset_dir")
        dataset = sio.load_dataset(cfg["dataset_dir"])
    ckpt_path = out / "model.json"

    def checkpoint_fn(epoch, current):
        sio.save_checkpoint(current, out / f"model-{epoch:06d}.json", seed=config.seed)

    trained, report = run_training(
        model,
        config,
        sys=system,
        dataset=dataset,
        checkpoint_fn=checkpoint_fn if config.checkpoint_every else None,
    )
    sio.save_checkpoint(trained, ckpt_path, seed=config.seed)
    with open(out / "loss_history.csv", "w") as fh:
        keys = sorted(report.loss_history)
        fh.write("epoch," + ",".join(keys) + "\n")
        for i in range(report.epochs_run):
            row = [
                _fmt(report.loss_history[k][i]) if i < len(report.loss_history[k]) else ""
                for k in keys
            ]
            fh.write(f"{i}," + ",".join(row) + "\n")
    summary = {
        "epochs_run": report.epochs_run,
        "final_loss": report.final_loss,
        "wall_clock_s": report.wall_clock_s,
        "seed": report.seed,
        "second_term_worker": report.second_term_worker,
        "second_term_wait_s": report.second_term_wait_s,
        "second_term_busy_s": report.second_term_busy_s,
    }
    (out / "train_report.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"trained {config.model_kind} for {report.epochs_run} epochs, "
          f"final loss {report.final_loss:.6g}; checkpoint at {ckpt_path}")
    return 0


def _load_model(cfg: dict, args):
    if args.checkpoint is None:
        raise ConfigError("this command needs --checkpoint <path>")
    return sio.load_checkpoint(args.checkpoint)


def _cmd_rollout(cfg: dict, out: Path, args) -> int:
    _require(cfg, "delta_t", "horizon", "step", "x0")
    model = _load_model(cfg, args)
    spec = ev.RolloutSpec(
        delta_t=cfg["delta_t"],
        horizon=cfg["horizon"],
        step=cfg["step"],
        x0=np.asarray(cfg["x0"], dtype=float),
    )
    times, states = ev.rollout_path(model, spec, project=_project_fn(cfg))
    with open(out / "rollout.csv", "w") as fh:
        dim = states.shape[1]
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(dim)) + "\n")
        for t, row in zip(times, states):
            fh.write(_fmt(t) + "," + ",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {len(times)} rollout samples to {out / 'rollout.csv'}")
    return 0


def _cmd_evaluate(cfg: dict, out: Path, args) -> int:
    _require(cfg, "system", "omega", "delta_t")
    system = _build_system(cfg)
    model = _load_model(cfg, args)
    drift_x0 = np.asarray(cfg["x0"], dtype=float) if "x0" in cfg else None
    report = ev.evaluate_model(
        model,
        system,
        cfg["omega"],
        cfg["delta_t"],
        n_samples=cfg.get("n_eval_samples", 100),
        ks=cfg.get("k_steps", [1, 10, 100]),
        seed=cfg.get("seed", 0),
        drift_x0=drift_x0,
        drift_horizon=cfg.get("horizon"),
        drift_step=cfg.get("step", 0.1),
        project=_project_fn(cfg),
    )
    with open(out / "metrics.csv", "w") as fh:
        fh.write("k,relative_error,energy_variation,skipped_error,skipped_energy,nonfinite,failed\n")
        for k in sorted(report.relative_errors):
            fh.write(
                f"{k},{_fmt(report.relative_errors[k])},{_fmt(report.energy_variations[k])},"
                f"{report.skipped_error[k]},{report.skipped_energy[k]},"
                f"{report.nonfinite[k]},{report.failed}\n"
            )
    if report.drift_times is not None:
        with open(out / "energy_drift.csv", "w") as fh:
            # raw drift plus the drift-per-elapsed-time column
            fh.write("t,drift,drift_per_time\n")
            for t, v in zip(report.drift_times, report.drift_values):
                per_time = v / t if t > 0 else 0.0
                fh.write(f"{_fmt(t)},{_fmt(v)},{_fmt(per_time)}\n")
    summary = {
        "n_samples": report.n_samples,
        "relative_errors": {str(k): v for k, v in report.relative_errors.items()},
        "energy_variations": {str(k): v for k, v in report.energy_variations.items()},
        "nonfinite": {str(k): v for k, v in report.nonfinite.items()},
        "failed": report.failed,
        "drift_slope": report.drift_slope,
    }
    (out / "evaluation.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote metrics to {out / 'metrics.csv'}")
    return 0


def _cmd_poincare(cfg: dict, out: Path, args) -> int:
    _require(cfg, "delta_t", "horizon", "x0")
    model = _load_model(cfg, args)
    spec = ev.RolloutSpec(
        delta_t=cfg["delta_t"],
        horizon=cfg["horizon"],
        step=cfg.get("step", 0.01),
        x0=np.asarray(cfg["x0"], dtype=float),
    )
    path = ev.rollout_path(model, spec, project=_project_fn(cfg))
    t_cross, states = ev.poincare_crossings(path)
    with open(out / "poincare.csv", "w") as fh:
        fh.write("t,q_y,p_y\n")
        for t, row in zip(t_cross, states):
            fh.write(f"{_fmt(t)},{_fmt(row[1])},{_fmt(row[3])}\n")
    print(f"wrote {len(t_cross)} section points to {out / 'poincare.csv'}")
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "train": _cmd_train,
    "rollout": _cmd_rollout,
    "evaluate": _cmd_evaluate,
    "poincare": _cmd_poincare,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympflow",
        description="Symplectic neural flow maps: data, training, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--checkpoint", default=None, help="model checkpoint path")
    return parser


def cli_dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        cfg = sio.load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args)
    except Exception as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def main() -> int:
    return cli_dispatch(_sys.argv[1:])
