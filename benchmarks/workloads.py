"""The benchmark's three workloads: set-up, one block of operations, checks.

Every workload is a closed loop in one process: the next block starts when
the previous one has returned.  A block's inputs come from
``block_seed(seed, i)``, so the same seed and block index give the same
inputs.  Operations are timed around sympflow's public entry points only;
the checks that follow each block are not timed, and run with tracing
paused (``self.unobserved``).  A raised exception or a failed check counts
as a failed operation and the loop carries on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
HH_CHECKPOINT = HERE / "hh_sympflow.json"

# Initial weights of the training workloads: fixed, so that the final loss
# depends on the seed only through the sampled batches.
INIT_SEED = 20241222
HH_TRAIN_BOX = [(-0.5, 0.5)] * 4
# H < 1/6 (the escape energy) on the whole box, so every orbit is bound.
HH_BOUND_BOX = [(-0.25, 0.25)] * 4
SHO_BOX = [(-1.2, 1.2)] * 2

RTOL = 1e-10  # integrate()'s default
ENERGY_DRIFT_TOL = 1e3 * RTOL
SYMPLECTIC_TOL = 1e-12
ANALYTIC_TOL = 1e-7
MAX_TRACEBACKS = 3

clock = time.perf_counter


def block_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclasses.dataclass
class Block:
    op_s: list  # wall time of each operation that completed
    attempted: int
    failed: int
    units: int  # epochs trained or initial conditions evaluated
    quality: float = math.nan


def symplectic_defect(sf, model, t, points) -> float:
    """max |J^T Omega J - Omega| over the points, J = model.jacobian."""
    omega = sf.model.symplectic_matrix(model.d)
    worst = 0.0
    for x in points:
        J = sf.model.jacobian(model, t, x)
        worst = max(worst, float(np.max(np.abs(J.T @ omega @ J - omega))))
    return worst


class Workload:
    name = ""
    unit = ""
    quality_blocks = 1  # result_err is the median over the first blocks
    trace_blocks = 1  # a traced run repeats exactly this many blocks

    def __init__(self, sf, seed: int):
        self.sf = sf
        self.seed = seed
        self.unobserved = contextlib.nullcontext
        self.failures: list[str] = []

    def block(self, i: int) -> Block:
        raise NotImplementedError

    def warmup(self):
        self.block(2**31 - 1)

    def _fail(self, what: str):
        self.failures.append(what)
        if len(self.failures) <= MAX_TRACEBACKS:
            print(f"[{self.name}] failed: {what}", file=sys.stderr)

    def _fail_exc(self, i: int):
        self._fail(f"block {i}: " + traceback.format_exc(limit=4))

    def _check(self, ok: bool, what: str) -> int:
        if not ok:
            self._fail(what)
        return 0 if ok else 1


class TrainSfHh(Workload):
    """SympFlow, regularized regime, Henon-Heiles: the paper's main cost.

    One operation is one epoch of the real ``train()`` loop; a block is one
    fixed-length ``train()`` call from the fixed initial weights.
    """

    name = "train_sf_hh"
    unit = "epoch"
    quality_blocks = 3
    trace_blocks = 3

    def __init__(self, sf, seed, batch=1024, epochs=20, probes=3):
        super().__init__(sf, seed)
        self.probes = probes
        self.sys = sf.systems.HenonHeiles()
        self.config = sf.train.TrainConfig(
            model_kind="sympflow",
            regime="regularized",
            epochs=epochs,
            batch_collocation=batch,
            batch_matching=batch,
            delta_t=1.0,
            omega=HH_TRAIN_BOX,
            seed=INIT_SEED,
            layers=3,
            hidden=10,
            derivative_mode="exact",
            checkpoint_every=1,
        )
        self.init = sf.train.build_model(self.config, 2)

    def warmup(self):
        config = dataclasses.replace(self.config, epochs=2)
        self.sf.train.train(self.init, config, sys=self.sys)

    def block(self, i):
        s = block_seed(self.seed, i)
        config = dataclasses.replace(self.config, seed=s)
        marks = []
        start = clock()
        try:
            trained, report = self.sf.train.train(
                self.init, config, sys=self.sys, checkpoint_fn=lambda epoch, m: marks.append(clock())
            )
        except Exception:
            self._fail_exc(i)
            return Block(np.diff([start] + marks).tolist(), len(marks) + 1, 1, len(marks))
        ops = np.diff([start] + marks).tolist()
        with self.unobserved():
            losses = np.asarray(report.loss_history.get("total", []))
            failed = self._check(
                losses.size == config.epochs and bool(np.all(np.isfinite(losses))),
                f"block {i}: non-finite or missing epoch losses",
            )
            probes = np.random.default_rng(s).uniform(-0.5, 0.5, size=(self.probes, 4))
            defect = symplectic_defect(self.sf, trained, config.delta_t, probes)
            failed += self._check(defect < SYMPLECTIC_TOL, f"block {i}: symplecticity defect {defect:.3g}")
        return Block(ops, len(ops), min(failed, len(ops)), len(ops), report.final_loss)


class SupervisedMlpSho(Workload):
    """MLP baseline trained supervised on a freshly generated SHO dataset.

    One operation is one fit request: ``generate_dataset`` (many short
    reference solves) followed by a fixed-length ``train()`` call on it.
    """

    name = "supervised_mlp_sho"
    unit = "epoch"
    quality_blocks = 100
    trace_blocks = 50

    def __init__(self, sf, seed, n_trajectories=20, m_samples=8, epochs=200, batch=64):
        super().__init__(sf, seed)
        self.sys = sf.systems.Sho()
        self.n_trajectories = n_trajectories
        self.m_samples = m_samples
        self.config = sf.train.TrainConfig(
            model_kind="mlp",
            regime="supervised",
            epochs=epochs,
            batch_collocation=batch,
            delta_t=1.0,
            omega=SHO_BOX,
            seed=INIT_SEED,
            layers=3,
            hidden=10,
        )
        self.init = sf.train.build_model(self.config, 1)

    def block(self, i):
        s = block_seed(self.seed, i)
        start = clock()
        try:
            data = self.sf.integrate.generate_dataset(
                self.sys, SHO_BOX, self.n_trajectories, self.m_samples, self.config.delta_t, seed=s
            )
            trained, report = self.sf.train.train(
                self.init, dataclasses.replace(self.config, seed=s), dataset=data
            )
        except Exception:
            self._fail_exc(i)
            return Block([], 1, 1, 0)
        op = clock() - start
        with self.unobserved():
            exact = np.concatenate(
                [
                    self.sf.systems.analytic_solution(self.sys, data.ics[n], data.sample_t[data.sample_traj == n])
                    for n in range(data.n_trajectories)
                ]
            )
            order = np.argsort(data.sample_traj, kind="stable")
            err = float(np.max(np.abs(data.sample_y[order] - exact)))
            failed = self._check(err < ANALYTIC_TOL, f"block {i}: dataset off the exact SHO flow by {err:.3g}")
            losses = np.asarray(report.loss_history.get("total", []))
            failed += self._check(
                losses.size == self.config.epochs and bool(np.all(np.isfinite(losses))),
                f"block {i}: non-finite or missing epoch losses",
            )
            # The last epoch's loss is taken on a minibatch; the loss on the
            # whole dataset varies less from seed to seed.
            quality = self.sf.train.loss_supervised(trained, data)
        return Block([op], 1, min(failed, 1), self.config.epochs, quality)


class EvalHh(Workload):
    """One fixed SympFlow model evaluated on bound Henon-Heiles orbits.

    One operation is one evaluation request of three calls: ``evaluate_model``
    over a few initial conditions, a ``rollout_path``, and a direct
    ``integrate``.  The model is the checkpoint kept with the benchmark, so
    it is identical bit for bit across runs and commits.
    """

    name = "eval_hh"
    unit = "ic"
    quality_blocks = 100
    trace_blocks = 30

    def __init__(self, sf, seed, n_ics=2, ks=(1, 10), path_horizon=10.0, solve_horizon=10.0):
        super().__init__(sf, seed)
        self.sys = sf.systems.HenonHeiles()
        self.model = sf.io.load_checkpoint(HH_CHECKPOINT, expect_kind="sympflow")
        self.n_ics = n_ics
        self.ks = ks
        self.path_horizon = path_horizon
        self.solve_horizon = solve_horizon

    def block(self, i):
        s = block_seed(self.seed, i)
        box = np.asarray(HH_BOUND_BOX)
        x_path, x_solve = np.random.default_rng(s).uniform(box[:, 0], box[:, 1], size=(2, 4))
        ev = self.sf.evaluate
        start = clock()
        try:
            report = ev.evaluate_model(self.model, self.sys, HH_BOUND_BOX, 1.0, n_samples=self.n_ics, ks=self.ks, seed=s)
            spec = ev.RolloutSpec(delta_t=1.0, horizon=self.path_horizon, step=0.1, x0=x_path)
            _, states = ev.rollout_path(self.model, spec)
            sol = self.sf.integrate.integrate(self.sys, x_solve, self.solve_horizon, rtol=RTOL)
        except Exception:
            self._fail_exc(i)
            return Block([], 1, 1, 0)
        op = clock() - start
        with self.unobserved():
            entries = [report.relative_errors[k] for k in self.ks] + [report.energy_variations[k] for k in self.ks]
            failed = self._check(bool(np.all(np.isfinite(entries))), f"block {i}: non-finite metric {entries}")
            failed += self._check(bool(np.all(np.isfinite(states))), f"block {i}: non-finite rollout state")
            h0 = self.sys.hamiltonian(x_solve)
            drift = abs(self.sys.hamiltonian(sol.ys[-1]) - h0) / max(abs(h0), 1e-3)
            failed += self._check(drift < ENERGY_DRIFT_TOL, f"block {i}: integrate energy drift {drift:.3g}")
            defect = symplectic_defect(self.sf, self.model, 1.0, [x_path])
            failed += self._check(defect < SYMPLECTIC_TOL, f"block {i}: symplecticity defect {defect:.3g}")
        quality = report.relative_errors[max(self.ks)]
        return Block([op], 1, min(failed, 1), self.n_ics, quality)


WORKLOAD_CLASSES = {w.name: w for w in (TrainSfHh, EvalHh, SupervisedMlpSho)}
