"""The golden corpus of training and evaluation outputs, and the script that writes it.

    PYTHONPATH=src python tests/golden/make_golden.py [SLICE ...]

writes ``<slice>.npz`` (each array of the slice's corpus function) for each
named slice, or for every slice when none is named, and records in
``manifest.json`` the environment and the git commit each slice was made at.
``tests/test_golden.py`` recomputes every slice and compares it with them.
A change that means to move these numbers writes its slices again in the
same commit.

* ``mlp``: the loss history and the final parameters of ``train()`` on an
  MLP at fixed seeds and small sizes: supervised at the benchmark's shape
  (64-row minibatches of a 20 x 8 SHO dataset, L = 3, h = 10, 200 epochs),
  supervised on the full batch, and each other regime on the SHO and on
  Henon-Heiles.
* ``sympflow``: the same of ``train()`` on small SympFlow models (L = 2,
  h = 6) in every regime, regularized both over several epochs (where the
  machine allows, with the forked worker) and over one (in process); the
  flow map, its time derivative and Jacobian, the extracted Hamiltonian
  and its gradient, every tail inverse, ``evaluate_model``'s means and a
  ``rollout_path`` of the benchmark's Henon-Heiles checkpoint; one
  ``integrate`` orbit; and the sha256 of the checkpoint bytes of a trained
  model of each kind.
"""

import hashlib
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
HH_CHECKPOINT = HERE.parent.parent / "benchmarks" / "hh_sympflow.json"


def environment() -> dict:
    """What the bits of the corpus may depend on besides the code."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _train_runs(kind, runs, base) -> dict:
    """Train each run from the seeded init: ``{<run>.history.<part>: array, <run>.params: array}``."""
    from sympflow import mlp
    from sympflow import model as sfm
    from sympflow import train as tr
    from sympflow.integrate import generate_dataset
    from sympflow.systems import HenonHeiles, Sho

    kernels = {"mlp": mlp, "sympflow": sfm}[kind]
    sho_data = generate_dataset(Sho(), (-1.2, 1.2), 20, 8, 1.0, seed=1)
    out = {}
    for name, (kwargs, d) in runs.items():
        cfg = tr.TrainConfig(**{"model_kind": kind, **base, **kwargs})
        data = dict(dataset=sho_data) if cfg.regime == "supervised" else dict(sys=Sho() if d == 1 else HenonHeiles())
        trained, report = tr.train(tr.build_model(cfg, d), cfg, **data)
        for part, values in report.loss_history.items():
            out[f"{name}.history.{part}"] = np.array(values)
        out[f"{name}.params"] = kernels.params_to_vector(trained)
    return out


def mlp_corpus() -> dict:
    """``{name: array}``: each MLP run's ``<run>.history.<part>`` and ``<run>.params``."""
    base = dict(learning_rate=1e-2, seed=5, layers=2, hidden=8)
    runs = {
        "supervised-benchmark": (dict(regime="supervised", epochs=200, batch_collocation=64, layers=3, hidden=10), 1),
        "supervised-full-batch": (dict(regime="supervised", epochs=20, batch_collocation=160, layers=2, hidden=6), 1),
    }
    for sys_name, d in (("sho", 1), ("hh", 2)):
        box = dict(omega=((-0.5, 0.5),) * (2 * d))
        runs[f"residual_only-{sys_name}"] = (dict(regime="residual_only", epochs=6, batch_collocation=32, **box), d)
        runs[f"regularized-{sys_name}"] = (
            dict(regime="regularized", epochs=6, batch_collocation=32, batch_matching=24, **box), d
        )
        runs[f"mixed-{sys_name}"] = (
            dict(regime="mixed", epochs=4, fine_tune_epochs=3, batch_collocation=32, batch_matching=24, **box), d
        )
    return _train_runs("mlp", runs, base)


def sympflow_corpus() -> dict:
    """``{name: array}``: SympFlow runs as in :func:`mlp_corpus`, the benchmark model's maps, an orbit and hashes."""
    from sympflow import evaluate as ev
    from sympflow import extraction as ex
    from sympflow import io as sio
    from sympflow import model as sfm
    from sympflow import train as tr
    from sympflow.integrate import integrate
    from sympflow.systems import HenonHeiles, Sho

    hh_box = dict(omega=((-0.5, 0.5),) * 4)
    base = dict(learning_rate=1e-2, seed=3, layers=2, hidden=6, batch_collocation=16, batch_matching=12)
    runs = {
        "regularized-hh": (dict(regime="regularized", epochs=4, **hh_box), 2),
        "regularized-1-epoch-hh": (dict(regime="regularized", epochs=1, **hh_box), 2),
        "residual_only-sho": (dict(regime="residual_only", epochs=5), 1),
        "mixed-hh": (dict(regime="mixed", epochs=3, fine_tune_epochs=2, **hh_box), 2),
        "supervised-sho": (dict(regime="supervised", epochs=6), 1),
    }
    out = _train_runs("sympflow", runs, base)

    model = sio.load_checkpoint(HH_CHECKPOINT, expect_kind="sympflow")
    x = np.random.default_rng(11).uniform(-0.25, 0.25, size=(5, 4))
    t = np.linspace(0.0, 1.0, len(x))
    out["hh.forward"] = sfm.forward(model, t, x)
    out["hh.time_derivative"] = sfm.time_derivative(model, 0.7, x)
    out["hh.jacobian"] = sfm.jacobian(model, 0.7, x[0])
    out["hh.extract"] = ex.extract(model, 0.7, x)
    out["hh.extract_gradient"] = ex.extract_gradient(model, 0.7, x)
    for i in range(1, model.n_layers + 2):
        out[f"hh.tail_inverse.{i}"] = ex.tail_inverse(model, i, 0.7, x)
    hh = HenonHeiles()
    report = ev.evaluate_model(model, hh, ((-0.25, 0.25),) * 4, 1.0, n_samples=3, ks=(1, 5), seed=2)
    for k in (1, 5):
        out[f"hh.evaluate.relative_error.{k}"] = np.array(report.relative_errors[k])
        out[f"hh.evaluate.energy_variation.{k}"] = np.array(report.energy_variations[k])
    spec = ev.RolloutSpec(delta_t=1.0, horizon=5.0, step=0.1, x0=x[1])
    out["hh.rollout_path"] = np.stack(ev.rollout_path(model, spec)[1])
    out["hh.integrate.ys"] = integrate(hh, x[2], 10.0).ys

    with tempfile.TemporaryDirectory() as tmp:
        for kind in tr.MODEL_KINDS:
            cfg = tr.TrainConfig(model_kind=kind, regime="residual_only", epochs=2, seed=4, layers=2, hidden=5,
                                 batch_collocation=8, learning_rate=1e-2)
            trained, _ = tr.train(tr.build_model(cfg, 1), cfg, sys=Sho())
            path = Path(tmp) / f"{kind}.json"
            sio.save_checkpoint(trained, path, seed=4)
            out[f"checkpoint.{kind}.sha256"] = np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), np.uint8)
    return out


SLICES = {"mlp": mlp_corpus, "sympflow": sympflow_corpus}


def _git(*args) -> str:
    done = subprocess.run(["git", "-C", str(HERE), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(names):
    path = HERE / "manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    for name in names or SLICES:
        arrays = SLICES[name]()
        np.savez_compressed(HERE / f"{name}.npz", **arrays)
        manifest[name] = {
            "environment": environment(),
            "git_sha": _git("rev-parse", "HEAD"),
            "src_modified": bool(_git("status", "--porcelain", "--", "src")),
            "arrays": len(arrays),
        }
        print(f"{name}: wrote {len(arrays)} arrays", file=sys.stderr)
    path.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
