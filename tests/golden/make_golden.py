"""The golden corpus of MLP training outputs, and the script that writes it.

    PYTHONPATH=src python tests/golden/make_golden.py

writes ``mlp.npz`` (each array of :func:`corpus`) and ``manifest.json`` (the
environment and the git commit it was made at) next to this file.
``tests/test_golden.py`` recomputes the corpus and compares it with them.
The corpus is the loss history and the final parameters of ``train()`` on
an MLP at fixed seeds and small sizes: supervised at the benchmark's shape
(64-row minibatches of a 20 x 8 SHO dataset, L = 3, h = 10, 200 epochs),
supervised on the full batch, and each other regime on the SHO and on
Henon-Heiles.  A change that means to move these numbers writes the corpus
again in the same commit.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def environment() -> dict:
    """What the bits of the corpus may depend on besides the code."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def corpus() -> dict:
    """``{name: array}``: each run's ``<run>.history.<part>`` and ``<run>.params``."""
    from sympflow import mlp
    from sympflow import train as tr
    from sympflow.integrate import generate_dataset
    from sympflow.systems import HenonHeiles, Sho

    sho_data = generate_dataset(Sho(), (-1.2, 1.2), 20, 8, 1.0, seed=1)
    base = dict(model_kind="mlp", learning_rate=1e-2, seed=5)
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
    out = {}
    for name, (kwargs, d) in runs.items():
        cfg = tr.TrainConfig(**{**base, "layers": 2, "hidden": 8, **kwargs})
        data = dict(dataset=sho_data) if cfg.regime == "supervised" else dict(sys=Sho() if d == 1 else HenonHeiles())
        trained, report = tr.train(tr.build_model(cfg, d), cfg, **data)
        for part, values in report.loss_history.items():
            out[f"{name}.history.{part}"] = np.array(values)
        out[f"{name}.params"] = mlp.params_to_vector(trained)
    return out


def _git(*args) -> str:
    done = subprocess.run(["git", "-C", str(HERE), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    arrays = corpus()
    np.savez_compressed(HERE / "mlp.npz", **arrays)
    manifest = {
        "environment": environment(),
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "arrays": len(arrays),
    }
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(arrays)} arrays", file=sys.stderr)


if __name__ == "__main__":
    main()
