"""The on-disk formats: checkpoints, CSV and JSON artifacts, and configs.

Checkpoint format: a JSON object with ``magic: "sympflow-ckpt-v1"``,
``kind`` ("sympflow" or "mlp"), ``d``, ``L``, ``h`` (the hidden width),
``seed``, and ``params``: base64 of the IEEE-754 little-endian float64
parameter vector in canonical order (per net A1 row-major, b1, A2, b2, A3,
b3; nets ordered Vq_1, Vp_1, ..., Vq_L, Vp_L; MLP affine layers in order).
Saving reads the model's ``kind`` and loading the stored one; each takes
the kind's kernel module (whose ``params_to_vector`` and
``model_with_params`` do the rest), and loading its zero constructor, from
:func:`sympflow.train._kind`.  Round-trips are bit-exact.

:func:`write_csv` writes every CSV artifact, floats with 17 significant
digits (they read back bit for bit): a dataset's ``ics.csv`` (header
``traj_id,x_1..x_{2d}``) and ``samples.csv`` (``traj_id,t,y_1..y_{2d}``),
and the CLI's ``loss_history.csv``, ``rollout.csv``, ``metrics.csv``,
``energy_drift.csv`` and ``poincare.csv``.  :func:`write_json` writes
``train_report.json`` and ``evaluation.json``, with a non-finite float as
``null`` (JSON has no NaN).

Configs are flat JSON objects; unknown keys are rejected.  ``CONFIG_KEYS``
holds every ``TrainConfig`` field, typed as its default, and the other
commands' keys.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError, KindMismatchError
from .integrate import TrajectoryDataset
from .train import MODEL_KINDS, TrainConfig, _kind

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_dataset",
    "load_dataset",
    "load_config",
    "write_csv",
    "write_json",
    "CONFIG_KEYS",
]

MAGIC = "sympflow-ckpt-v1"


def _encode(vec: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(vec, dtype="<f8").tobytes()).decode("ascii")


def _decode(blob: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob.encode("ascii")), dtype="<f8").astype(float)


def save_checkpoint(model_obj, path, seed: int = 0) -> None:
    """Write the model to a JSON checkpoint (bit-exact round trip)."""
    kind = getattr(model_obj, "kind", None)
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"cannot checkpoint object of type {type(model_obj).__name__}")
    payload = {
        "magic": MAGIC,
        "kind": kind,
        "d": model_obj.d,
        "L": model_obj.n_layers,
        "h": model_obj.h,
        "seed": int(seed),
        "params": _encode(_kind(kind)[0].params_to_vector(model_obj)),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_checkpoint(path, expect_kind: str | None = None):
    """Load a model from a checkpoint; optionally enforce the stored kind."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise CheckpointError(f"{path} is not a {MAGIC} checkpoint")
    kind = payload.get("kind")
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise KindMismatchError(f"expected a {expect_kind} checkpoint, found {kind}")
    try:
        d, L, h, blob = (payload[key] for key in ("d", "L", "h", "params"))
        if not (all(type(v) is int for v in (d, L, h)) and isinstance(blob, str)):
            raise ValueError(f"d, L and h must be integers and params a string, got {d!r}, {L!r}, {h!r}")
        vec = _decode(blob)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    kernels, _, zero, *_ = _kind(kind)
    try:
        skeleton = zero(d, L, h)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header d={d}, L={L}, h={h} describes no model: {exc}") from exc
    if vec.size != kernels.param_count(skeleton):
        raise CheckpointError("parameter vector length does not match the header")
    try:
        return kernels.model_with_params(skeleton, vec)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} holds invalid parameters: {exc}") from exc


def _cell(v) -> str:
    return format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path, header, rows) -> None:
    """Write a CSV file: floats with 17 significant digits, integers and strings as they are."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, summary: dict) -> None:
    """Write a JSON summary, indented by two spaces; a non-finite float becomes null."""
    Path(path).write_text(json.dumps(_finite_or_null(summary), indent=2, allow_nan=False) + "\n")


def save_dataset(dataset: TrajectoryDataset, out_dir) -> None:
    """Write ics.csv, samples.csv (see :func:`write_csv`) and meta.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = dataset.ics.shape[1]
    write_csv(
        out / "ics.csv",
        ["traj_id"] + [f"x_{i + 1}" for i in range(dim)],
        ([n, *row] for n, row in enumerate(dataset.ics)),
    )
    write_csv(
        out / "samples.csv",
        ["traj_id", "t"] + [f"y_{i + 1}" for i in range(dim)],
        ([tid, t, *row] for tid, t, row in zip(dataset.sample_traj, dataset.sample_t, dataset.sample_y)),
    )
    meta = {"delta_t": dataset.delta_t, "noise_std": dataset.noise_std, "seed": dataset.seed}
    (out / "meta.json").write_text(json.dumps(meta) + "\n")


def _read_table(path: Path, lead: list, prefix: str):
    """Rows of a dataset CSV with header ``lead..., prefix_1..prefix_n``.

    Returns ``(n, ids, values)``: the trailing column count, the integer
    first column and the remaining columns as floats.  A wrong header, a row
    with another column count or an unparsable entry raises
    :class:`ConfigError` naming the file and the line.
    """
    try:
        lines = path.read_text().strip().split("\n")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    header = lines[0].split(",")
    n = len(header) - len(lead)
    if n < 1 or header != lead + [f"{prefix}_{i + 1}" for i in range(n)]:
        want = ",".join(lead) + f",{prefix}_1..{prefix}_n"
        raise ConfigError(f"{path}:1: header must be {want}, got {lines[0]!r}")
    ids, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} columns, got {len(parts)}")
        try:
            ids.append(int(parts[0]))
            values.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return n, ids, np.array(values, dtype=float).reshape(len(values), len(header) - 1)


def load_dataset(in_dir) -> TrajectoryDataset:
    """Read a dataset written by :func:`save_dataset`; anything malformed raises ConfigError naming its file."""
    src = Path(in_dir)
    n_ics, _, ics = _read_table(src / "ics.csv", ["traj_id"], "x")
    n_samples, traj, samples = _read_table(src / "samples.csv", ["traj_id", "t"], "y")
    if n_samples != n_ics:
        raise ConfigError(
            f"{src / 'samples.csv'}:1: {n_samples} state columns, but ics.csv has {n_ics}"
        )
    ts = samples[:, 0]
    meta_path = src / "meta.json"
    try:
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        if not isinstance(meta, dict):
            raise ValueError(f"must hold a JSON object, got {type(meta).__name__}")
        delta_t = float(meta.get("delta_t", ts.max() if ts.size else 1.0))
        noise_std = float(meta.get("noise_std", 0.0))
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"{meta_path}: {exc}") from exc
    try:
        return TrajectoryDataset(
            ics=ics,
            sample_traj=np.array(traj, dtype=int),
            sample_t=ts,
            sample_y=samples[:, 1:],
            delta_t=delta_t,
            noise_std=noise_std,
            seed=meta.get("seed"),
        )
    except ValueError as exc:
        raise ConfigError(f"{src}: {exc}") from exc


# Every key a config file may carry; commands require the subset they need.
CONFIG_KEYS = {
    "system": str,
    "mass": float,
    "spring_k": float,
    "damping": float,
    **{f.name: list if isinstance(f.default, tuple) else type(f.default) for f in dataclasses.fields(TrainConfig)},
    "n_trajectories": int,
    "m_samples": int,
    "noise_std": float,
    "dataset_dir": str,
    "horizon": float,
    "step": float,
    "x0": list,
    "n_eval_samples": int,
    "k_steps": list,
    "project_physical": bool,
}


def load_config(path) -> dict:
    """Read a flat JSON config; unknown keys are rejected, types checked.

    String, list and boolean keys take values of that JSON type; number keys
    take JSON numbers, and integer keys integral ones (2.0, not 2.5).
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, val in raw.items():
        want = CONFIG_KEYS[key]
        if want in (list, bool, str):
            ok = isinstance(val, want)
        else:
            ok = isinstance(val, int) and not isinstance(val, bool) or (
                isinstance(val, float) and (want is float or val.is_integer())
            )
        if not ok:
            raise ConfigError(f"config key {key!r}: expected {want.__name__}, got {val!r}")
        out[key] = want(val)
    return out
