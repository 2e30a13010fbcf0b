"""Command-line interface: ``sympflow`` when installed, else ``python -m sympflow``.

Subcommands: ``generate-data``, ``train``, ``rollout``, ``evaluate``,
``poincare``.  Each reads a flat JSON config (see :mod:`sympflow.io`),
writes CSV/JSON artifacts into the output directory through
:mod:`sympflow.io`, and exits 0 on success or nonzero with a one-line
diagnostic.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys as _sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import io as sio
from . import systems as sysmod
from .errors import ConfigError
from .integrate import generate_dataset
from .train import TrainConfig, build_model, train as run_training

__all__ = ["main", "cli_dispatch"]

# Config key -> keyword of the system constructors.
_SYSTEM_PARAMS = {"mass": "m", "spring_k": "k", "damping": "lam"}


def _build_system(cfg: dict):
    params = {kw: cfg[key] for key, kw in _SYSTEM_PARAMS.items() if key in cfg}
    return sysmod.system_from_name(cfg["system"], **params)


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
    """The damped system's projection, if ``project_physical`` is set; ConfigError on another system or none."""
    if not cfg.get("project_physical"):
        return None
    if cfg.get("system") != "damped":
        raise ConfigError(f"project_physical needs system 'damped', got {cfg.get('system')!r}")
    return sysmod.physical_limit_project


def _load_model(args):
    if args.checkpoint is None:
        raise ConfigError("this command needs --checkpoint <path>")
    return sio.load_checkpoint(args.checkpoint)


def _rollout_path(cfg: dict, args, default_step=None):
    """The checkpoint's rollout path from ``x0``; ``step`` is required when there is no default."""
    _require(cfg, "delta_t", "horizon", *(["step"] if default_step is None else []), "x0")
    project = _project_fn(cfg)
    model = _load_model(args)
    x0 = np.asarray(cfg["x0"], dtype=float)
    spec = ev.RolloutSpec(delta_t=cfg["delta_t"], horizon=cfg["horizon"], step=cfg.get("step", default_step), x0=x0)
    return ev.rollout_path(model, spec, project=project)


def _cmd_generate_data(cfg: dict, out: Path, args) -> None:
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


def _cmd_train(cfg: dict, out: Path, args) -> None:
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
    history, keys = report.loss_history, sorted(report.loss_history)
    rows = ([i, *(history[k][i] if i < len(history[k]) else "" for k in keys)] for i in range(report.epochs_run))
    sio.write_csv(out / "loss_history.csv", ["epoch", *keys], rows)
    summary = {k: v for k, v in dataclasses.asdict(report).items() if k != "loss_history"}
    sio.write_json(out / "train_report.json", summary)
    print(f"trained {config.model_kind} for {report.epochs_run} epochs, "
          f"final loss {report.final_loss:.6g}; checkpoint at {ckpt_path}")


def _cmd_rollout(cfg: dict, out: Path, args) -> None:
    times, states = _rollout_path(cfg, args)
    header = ["t"] + [f"x_{i + 1}" for i in range(states.shape[1])]
    sio.write_csv(out / "rollout.csv", header, ([t, *row] for t, row in zip(times, states)))
    print(f"wrote {len(times)} rollout samples to {out / 'rollout.csv'}")


def _cmd_evaluate(cfg: dict, out: Path, args) -> None:
    _require(cfg, "system", "omega", "delta_t")
    system = _build_system(cfg)
    project = _project_fn(cfg)
    model = _load_model(args)
    report = ev.evaluate_model(
        model,
        system,
        cfg["omega"],
        cfg["delta_t"],
        n_samples=cfg.get("n_eval_samples", 100),
        ks=cfg.get("k_steps", [1, 10, 100]),
        seed=cfg.get("seed", 0),
        drift_x0=np.asarray(cfg["x0"], dtype=float) if "x0" in cfg else None,
        drift_horizon=cfg.get("horizon"),
        drift_step=cfg.get("step", 0.1),
        project=project,
    )
    per_k = ("relative_errors", "energy_variations", "skipped_error", "skipped_energy", "nonfinite")
    rows = ([k, *(getattr(report, name)[k] for name in per_k), report.failed] for k in sorted(report.relative_errors))
    sio.write_csv(out / "metrics.csv", ["k", "relative_error", "energy_variation", *per_k[2:], "failed"], rows)
    if report.drift_times is not None:
        rows = ([t, v, v / t if t > 0 else 0.0] for t, v in zip(report.drift_times, report.drift_values))
        sio.write_csv(out / "energy_drift.csv", ["t", "drift", "drift_per_time"], rows)
    keys = ("n_samples", "relative_errors", "energy_variations", "nonfinite", "failed", "drift_slope")
    sio.write_json(out / "evaluation.json", {key: getattr(report, key) for key in keys})
    print(f"wrote metrics to {out / 'metrics.csv'}")


def _cmd_poincare(cfg: dict, out: Path, args) -> None:
    t_cross, states = ev.poincare_crossings(_rollout_path(cfg, args, default_step=0.01))
    rows = ([t, row[1], row[3]] for t, row in zip(t_cross, states))
    sio.write_csv(out / "poincare.csv", ["t", "q_y", "p_y"], rows)
    print(f"wrote {len(t_cross)} section points to {out / 'poincare.csv'}")


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
        _COMMANDS[args.command](cfg, out, args)
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def main() -> int:
    return cli_dispatch(_sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
