"""Write the fixed SympFlow model that the ``eval_hh`` workload evaluates.

    PYTHONPATH=src python3 benchmarks/make_checkpoint.py

The checkpoint is kept with the benchmark, so that ``eval_hh`` evaluates the
same model bit for bit on every commit; re-running this script on a commit
whose training numerics differ writes a different model.  It trains
SympFlow (L=3, h=10) on Henon-Heiles in the regularized regime for 200
epochs from seed 0.
"""

import importlib

from workloads import HH_CHECKPOINT, HH_TRAIN_BOX


def main():
    train = importlib.import_module("sympflow.train")
    io = importlib.import_module("sympflow.io")
    systems = importlib.import_module("sympflow.systems")
    config = train.TrainConfig(
        model_kind="sympflow", regime="regularized", epochs=200, omega=HH_TRAIN_BOX, seed=0
    )
    model, report = train.train(train.build_model(config, 2), config, sys=systems.HenonHeiles())
    io.save_checkpoint(model, HH_CHECKPOINT, seed=config.seed)
    print(f"wrote {HH_CHECKPOINT} (final loss {report.final_loss:.6g})")


if __name__ == "__main__":
    main()
