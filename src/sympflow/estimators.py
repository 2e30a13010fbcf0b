"""Scikit-learn style estimators wrapping the training machinery.

Both estimators follow the fit/predict protocol with ``get_params`` /
``set_params``, so they compose with pipeline and model-selection tooling
that relies on duck typing (no scikit-learn dependency).

Rows of ``X`` are ``[t, x_1, ..., x_{2d}]``: an evaluation time followed by
the initial condition; ``y`` rows are the observed states at those times.
Supervised fitting minimises the mean squared error on ``(X, y)``.  When a
benchmark ``system`` is configured and ``y`` is omitted, fitting is
unsupervised on that system's equations of motion.  ``predict`` evaluates
the long-time extension, so times beyond the training window are valid.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import evaluate as ev
from .train import TrainConfig, build_model, train as run_training
from .errors import ConfigError, DimensionError
from .integrate import TrajectoryDataset
from .systems import HamiltonianSystem

__all__ = ["SympFlowRegressor", "MlpFlowRegressor"]


class _FlowRegressorBase:
    _kind = "sympflow"

    def __init__(
        self,
        system: HamiltonianSystem | None = None,
        regime: str = "supervised",
        layers: int = 5,
        hidden: int = 10,
        epochs: int = 2000,
        fine_tune_epochs: int = 0,
        learning_rate: float = 1e-3,
        batch_collocation: int = 1024,
        batch_matching: int = 1024,
        delta_t: float = 1.0,
        omega=(-1.2, 1.2),
        seed: int = 0,
    ):
        self.system = system
        self.regime = regime
        self.layers = layers
        self.hidden = hidden
        self.epochs = epochs
        self.fine_tune_epochs = fine_tune_epochs
        self.learning_rate = learning_rate
        self.batch_collocation = batch_collocation
        self.batch_matching = batch_matching
        self.delta_t = delta_t
        self.omega = omega
        self.seed = seed

    # -- sklearn protocol ---------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        """The hyperparameters, named once: the keyword arguments of ``__init__``."""
        names = inspect.signature(type(self).__init__).parameters
        return {name: getattr(self, name) for name in names if name != "self"}

    def set_params(self, **params):
        for key, val in params.items():
            if key not in self.get_params():
                raise ConfigError(f"unknown parameter {key!r} for {type(self).__name__}")
            setattr(self, key, val)
        return self

    # -- helpers ------------------------------------------------------------

    def _validate_X(self, X, d: int | None = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] < 3 or X.shape[1] % 2 == 0:
            raise DimensionError(
                "X must have shape (n_samples, 1 + 2d): time followed by the state"
            )
        if not np.all(np.isfinite(X)):
            raise DimensionError("X contains non-finite entries")
        if d is not None and X.shape[1] != 1 + 2 * d:
            raise DimensionError(f"X must have {1 + 2 * d} columns, got {X.shape[1]}")
        return X

    def _config(self) -> TrainConfig:
        """Every hyperparameter but ``system`` is a :class:`TrainConfig` field."""
        params = self.get_params()
        del params["system"]
        return TrainConfig(model_kind=self._kind, **params)

    # -- estimation ---------------------------------------------------------

    def fit(self, X=None, y=None):
        """Train on (X, y) pairs, or on the configured system when y is None."""
        config = self._config()
        if y is None:
            if self.system is None:
                raise ConfigError("unsupervised fitting needs a configured system")
            if config.regime == "supervised":
                raise ConfigError("regime 'supervised' needs targets y")
            d = self.system.d
            model = build_model(config, d)
            self.model_, self.report_ = run_training(model, config, sys=self.system)
        else:
            X = self._validate_X(X)
            y = np.asarray(y, dtype=float)
            d = (X.shape[1] - 1) // 2
            if y.shape != (X.shape[0], 2 * d):
                raise DimensionError(f"y must have shape ({X.shape[0]}, {2 * d})")
            if config.regime != "supervised":
                raise ConfigError("fitting with targets requires regime='supervised'")
            dataset = TrajectoryDataset(
                ics=X[:, 1:],
                sample_traj=np.arange(X.shape[0]),
                sample_t=X[:, 0],
                sample_y=y,
                delta_t=max(self.delta_t, float(X[:, 0].max())),
            )
            model = build_model(config, d)
            self.model_, self.report_ = run_training(model, config, dataset=dataset)
        self.d_ = d
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise ConfigError("estimator is not fitted; call fit() first")

    def predict(self, X) -> np.ndarray:
        """States at the requested times via the long-time extension.

        The rows that share a time are rolled out as one batch.
        """
        self._check_fitted()
        X = self._validate_X(X, self.d_)
        out = np.empty((X.shape[0], 2 * self.d_))
        for t in np.unique(X[:, 0]):
            rows = X[:, 0] == t
            out[rows] = ev.rollout(self.model_, self.delta_t, t, X[rows, 1:])
        return out

    def rollout_path(self, x0, horizon: float, step: float = 0.1, project=None):
        """Convenience wrapper for a sampled long-time rollout from x0."""
        self._check_fitted()
        spec = ev.RolloutSpec(
            delta_t=self.delta_t, horizon=horizon, step=step, x0=np.asarray(x0, float)
        )
        return ev.rollout_path(self.model_, spec, project=project)


class SympFlowRegressor(_FlowRegressorBase):
    """Symplectic flow-map estimator (shear-layer model)."""

    _kind = "sympflow"


class MlpFlowRegressor(_FlowRegressorBase):
    """Unconstrained baseline flow-map estimator."""

    _kind = "mlp"
