"""The MLP's value-only program: the arithmetic of the general sweeps, bound once per train() call."""

import itertools
import threading

import numpy as np
import pytest

from sympflow import mlp
from sympflow import train as tr
from sympflow.integrate import TrajectoryDataset

from _oracles import mlp_supervised_unbound, mlp_supervised_unbound_loss, train_rebuilding, weight_arrays

SHAPES = list(itertools.product((1, 2), (1, 2, 3), (1, 10)))  # (d, layers, hidden)
ROWS = (1, 2, 5, 64, 1025)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _case(d, layers, hidden, rows, seed=0):
    rng = np.random.default_rng([seed, d, layers, hidden, rows])
    model = mlp.random_mlp_flow(d, layers, rng, hidden=hidden)
    ics = rng.uniform(-1, 1, (rows, 2 * d))
    t, y = rng.uniform(0, 1, rows), rng.uniform(-1, 1, (rows, 2 * d))
    return model, TrajectoryDataset(ics, np.arange(rows), t, y, delta_t=1.0)


def _config(layers, hidden, batch, epochs=4, seed=3):
    return tr.TrainConfig(
        model_kind="mlp", regime="supervised", epochs=epochs, batch_collocation=batch,
        learning_rate=1e-2, layers=layers, hidden=hidden, seed=seed,
    )


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("d,layers,hidden", SHAPES)
def test_the_supervised_entries_give_the_unbound_sweeps_bits(d, layers, hidden, rows):
    model, data = _case(d, layers, hidden, rows)
    want_value, want_grad = mlp_supervised_unbound(model, tr._samples(data))
    value, grad, parts = tr.loss_and_grad(model, "supervised", dataset=data)
    assert same_bits(value, want_value) and parts == {"supervised": value}
    assert same_bits(grad, want_grad)
    assert same_bits(tr.total_loss(model, "supervised", dataset=data), want_value)
    assert same_bits(tr.loss_supervised(model, data), want_value)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("d,layers,hidden", SHAPES)
def test_train_gives_the_unbound_sweeps_bits(d, layers, hidden, rows):
    # Full batches of `rows` rows, and minibatches of `rows` rows from a larger dataset.
    for n_data in (rows, rows + 7):
        model, data = _case(d, layers, hidden, n_data)
        cfg = _config(layers, hidden, batch=rows)
        want_params, want_history = train_rebuilding(model, cfg, dataset=data, loss=mlp_supervised_unbound_loss)
        trained, report = tr.train(model, cfg, dataset=data)
        assert report.loss_history == want_history
        assert all(same_bits(report.loss_history["total"][i], v) for i, v in enumerate(want_history["total"]))
        assert same_bits(mlp.params_to_vector(trained), want_params)


def _counted_binds(monkeypatch):
    """The programs bound from now on, in order."""
    progs, bind = [], mlp._bind
    monkeypatch.setattr(mlp, "_bind", lambda *args: progs.append(bind(*args)) or progs[-1])
    return progs


@pytest.mark.parametrize("rows", [5, 64], ids=["minibatch", "full-batch"])
def test_train_binds_one_program_per_call_not_per_epoch(rows, monkeypatch):
    progs = _counted_binds(monkeypatch)
    model, data = _case(1, 2, 3, 64)
    for epochs in (1, 30):
        progs.clear()
        _, report = tr.train(model, _config(2, 3, rows, epochs=epochs), dataset=data)
        assert report.epochs_run == epochs
        assert len(progs) == 1 and progs[0].x.shape == (rows, 3)
    for entry in (tr.loss_and_grad, tr.total_loss):
        progs.clear()
        entry(model, "supervised", dataset=data)
        assert len(progs) == 1


def _buffers(prog):
    """Every array a program holds: its input, gradient, layer buffers and the weight views it reads."""
    arrays = [prog.x, prog.grad] + [a for _, args in prog._fwd + prog._back for a in args]
    return [a for a in arrays if isinstance(a, np.ndarray) and a.ndim]


def test_no_result_of_train_shares_memory_with_the_program(monkeypatch):
    progs = _counted_binds(monkeypatch)
    model, data = _case(2, 3, 4, 12)
    seen = []
    cfg = tr.TrainConfig(**{**vars(_config(3, 4, batch=5)), "checkpoint_every": 1})
    trained, report = tr.train(model, cfg, dataset=data, checkpoint_fn=lambda epoch, m: seen.append(m))
    (prog,) = progs
    assert len(seen) == cfg.epochs
    results = [w for m in [trained, *seen] for w in weight_arrays(m)]
    assert not any(np.shares_memory(r, b) for r in results for b in _buffers(prog))
    assert all(type(v) is float for values in report.loss_history.values() for v in values)


def test_two_threads_training_mlps_at_once_give_the_histories_of_one_after_the_other():
    runs = [(_case(1, 3, 10, 160, seed=1), _config(3, 10, 64, epochs=300)), (_case(2, 2, 5, 40), _config(2, 5, 40, 300))]
    alone = [tr.train(model, cfg, dataset=data) for (model, data), cfg in runs]
    together, start = [None, None], threading.Barrier(2)

    def run(i):
        (model, data), cfg = runs[i]
        start.wait()
        together[i] = tr.train(model, cfg, dataset=data)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(60.0)
    assert not any(th.is_alive() for th in threads) and None not in together
    for (want, want_report), (got, got_report) in zip(alone, together):
        assert got_report.loss_history == want_report.loss_history
        assert same_bits(mlp.params_to_vector(got), mlp.params_to_vector(want))
