"""Checkpoints, dataset CSV files, and config parsing.

Checkpoint format: a JSON object with ``magic: "sympflow-ckpt-v1"``,
``kind`` ("sympflow" or "mlp"), ``d``, ``L``, ``h`` (the hidden width),
``seed``, and ``params``: base64 of the IEEE-754 little-endian float64
parameter vector in canonical order (per net A1 row-major, b1, A2, b2, A3,
b3; nets ordered Vq_1, Vp_1, ..., Vq_L, Vp_L; MLP affine layers in order).
Saving reads the model's ``kind`` attribute and loading the stored one;
either looks the kind's kernel module up in ``_KINDS``, whose
``params_to_vector`` and ``model_with_params`` do the rest.  Round-trips
are bit-exact.

Datasets are two CSV files: ``ics.csv`` (header ``traj_id,x_1..x_{2d}``) and
``samples.csv`` (header ``traj_id,t,y_1..y_{2d}``), floats written with 17
significant digits.

Configs are flat JSON objects; unknown keys are rejected.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from . import mlp as mlpmod
from . import model as sfm
from .errors import CheckpointError, ConfigError, KindMismatchError
from .integrate import TrajectoryDataset

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_dataset",
    "load_dataset",
    "load_config",
    "CONFIG_KEYS",
]

MAGIC = "sympflow-ckpt-v1"

# The kernel module and the zero-model constructor of each model kind.
_KINDS = {
    "sympflow": (sfm, sfm.zero_sympflow),
    "mlp": (mlpmod, mlpmod.zero_mlp_flow),
}


def _encode(vec: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(vec, dtype="<f8").tobytes()).decode("ascii")


def _decode(blob: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob.encode("ascii")), dtype="<f8").astype(float)


def save_checkpoint(model_obj, path, seed: int = 0) -> None:
    """Write the model to a JSON checkpoint (bit-exact round trip)."""
    kind = getattr(model_obj, "kind", None)
    if kind not in _KINDS:
        raise CheckpointError(f"cannot checkpoint object of type {type(model_obj).__name__}")
    payload = {
        "magic": MAGIC,
        "kind": kind,
        "d": model_obj.d,
        "L": model_obj.n_layers,
        "h": model_obj.h,
        "seed": int(seed),
        "params": _encode(_KINDS[kind][0].params_to_vector(model_obj)),
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
    if kind not in _KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise KindMismatchError(f"expected a {expect_kind} checkpoint, found {kind}")
    try:
        d, L, h = int(payload["d"]), int(payload["L"]), int(payload["h"])
        vec = _decode(payload["params"])
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    kernels, zero = _KINDS[kind]
    try:
        skeleton = zero(d, L, h)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header d={d}, L={L}, h={h} describes no model: {exc}") from exc
    if vec.size != kernels.param_count(skeleton):
        raise CheckpointError("parameter vector length does not match the header")
    return kernels.model_with_params(skeleton, vec)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_dataset(dataset: TrajectoryDataset, out_dir) -> None:
    """Write ics.csv and samples.csv with 17-significant-digit floats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = dataset.ics.shape[1]
    with open(out / "ics.csv", "w") as fh:
        fh.write("traj_id," + ",".join(f"x_{i + 1}" for i in range(dim)) + "\n")
        for n, row in enumerate(dataset.ics):
            fh.write(str(n) + "," + ",".join(_fmt(v) for v in row) + "\n")
    with open(out / "samples.csv", "w") as fh:
        fh.write("traj_id,t," + ",".join(f"y_{i + 1}" for i in range(dim)) + "\n")
        for tid, t, row in zip(dataset.sample_traj, dataset.sample_t, dataset.sample_y):
            fh.write(f"{tid},{_fmt(t)}," + ",".join(_fmt(v) for v in row) + "\n")
    meta = {
        "delta_t": dataset.delta_t,
        "noise_std": dataset.noise_std,
        "seed": dataset.seed,
    }
    (out / "meta.json").write_text(json.dumps(meta) + "\n")


def _read_table(path: Path, lead: list, prefix: str):
    """Rows of a dataset CSV with header ``lead..., prefix_1..prefix_n``.

    Returns ``(n, ids, values)``: the trailing column count, the integer
    first column and the remaining columns as floats.  A wrong header, a row
    with another column count or an unparsable entry raises
    :class:`ConfigError` naming the file and the line.
    """
    lines = path.read_text().strip().split("\n")
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
    """Read a dataset written by :func:`save_dataset`; headers and row widths are checked."""
    src = Path(in_dir)
    n_ics, _, ics = _read_table(src / "ics.csv", ["traj_id"], "x")
    n_samples, traj, samples = _read_table(src / "samples.csv", ["traj_id", "t"], "y")
    if n_samples != n_ics:
        raise ConfigError(
            f"{src / 'samples.csv'}:1: {n_samples} state columns, but ics.csv has {n_ics}"
        )
    ts = samples[:, 0]
    meta_path = src / "meta.json"
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return TrajectoryDataset(
        ics=ics,
        sample_traj=np.array(traj, dtype=int),
        sample_t=ts,
        sample_y=samples[:, 1:],
        delta_t=float(meta.get("delta_t", ts.max() if ts.size else 1.0)),
        noise_std=float(meta.get("noise_std", 0.0)),
        seed=meta.get("seed"),
    )


# Every key a config file may carry; commands require the subset they need.
CONFIG_KEYS = {
    "system": str,
    "mass": float,
    "spring_k": float,
    "damping": float,
    "model_kind": str,
    "regime": str,
    "epochs": int,
    "fine_tune_epochs": int,
    "learning_rate": float,
    "batch_collocation": int,
    "batch_matching": int,
    "delta_t": float,
    "omega": list,
    "seed": int,
    "derivative_mode": str,
    "layers": int,
    "hidden": int,
    "checkpoint_every": int,
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
