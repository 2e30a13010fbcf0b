"""Spans around sympflow's inter-module call sites, and per-layer metrics.

A :class:`Tracer` replaces, for the time it is installed, every name through
which one sympflow layer reaches another: a function imported with
``from .x import f`` is replaced in the importing module, and a module
imported as ``from . import x as alias`` is replaced by a proxy whose
functions are wrapped.  Calls inside a module stay unwrapped, except the few
sites listed in ``MODULE_SITES``; calls between layers that go through a
system object are caught on :class:`HamiltonianSystem`'s public methods.
Nothing under ``src/`` changes.

Each wrapped call appends a span (name, start, end, parent, rows) to lists
held in memory.  Counts are taken at the same boundaries by per-function
hooks.  :func:`layer_metrics` turns the spans into the per-layer metrics; a
layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import time
import types

import numpy as np

# The modules the per-layer metrics are reported for.  io, cli, estimators,
# validation and errors are thin wrappers that no workload stresses.
LAYERS = ("_jet", "potential", "model", "mlp", "extraction", "train", "systems", "integrate", "evaluate")

# Calls made through the module object itself: by the benchmark (the entry
# points it times) or inside the module (``sample_states`` calls the
# module-level ``integrate``; ``train`` calls ``adam_step``).
MODULE_SITES = (
    ("train", "train"),
    ("train", "adam_step"),
    ("integrate", "integrate"),
    ("integrate", "generate_dataset"),
    ("evaluate", "evaluate_model"),
    ("evaluate", "rollout_path"),
)

SYSTEM_METHODS = ("hamiltonian", "gradient", "vector_field", "vector_field_jacobian")

# Counts that must repeat exactly between two traced runs of the same code.
EXACT_COUNTS = ("jet.sweeps", "integrate.steps", "systems.calls", "evaluate.window_maps")

PER_LAYER_UNITS = {
    "jet.sweeps": "count",
    "jet.pullbacks": "count",
    "jet.rows": "rows",
    "jet.rows_per_sweep": "rows",
    "jet.gemm_mflop": "MFLOP",
    "jet.tape_mb": "MB",
    "jet.self_ms": "ms",
    "potential.calls": "count",
    "potential.self_ms": "ms",
    "model.calls": "count",
    "model.self_ms": "ms",
    "extraction.calls": "count",
    "extraction.self_ms": "ms",
    "mlp.calls": "count",
    "mlp.self_ms": "ms",
    "train.self_ms": "ms",
    "train.adam_ms": "ms",
    "systems.calls": "count",
    "systems.rows_per_call": "rows",
    "systems.self_ms": "ms",
    "integrate.steps": "count",
    "integrate.rejected": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.fevals_per_step": "count",
    "integrate.failed": "count",
    "integrate.self_ms": "ms",
    "evaluate.window_maps": "count",
    "evaluate.rows_per_map": "rows",
    "evaluate.nonfinite": "count",
    "evaluate.self_ms": "ms",
    "tracing_overhead_frac": "ratio",
}


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so ``_jet`` reports as ``jet``."""
    return layer.lstrip("_")


def _layer_of(obj) -> str | None:
    name = obj.__name__ if isinstance(obj, types.ModuleType) else getattr(obj, "__module__", "")
    pkg, _, layer = (name or "").partition(".")
    return layer if pkg == "sympflow" and layer in LAYERS else None


def _rows(args) -> int:
    """Batch rows of a call: the leading size of its largest 2-D argument."""
    rows = 0
    for a in args:
        x0 = getattr(a, "x0", None)
        if isinstance(x0, np.ndarray):
            a = x0
        if isinstance(a, np.ndarray):
            rows = max(rows, a.shape[0] if a.ndim == 2 else 1)
    return rows


def _present(jet):
    return tuple(c is not None for c in (jet.x0, jet.xa, jet.xb, jet.xab))


def _forward_cost(args, kwargs, out):
    """(flops, tape bytes) of ``chain_forward(weights, x)``, computed from shapes.

    The jets come back as ``[input, z_1, a_1, ..., z_K]``; affine map k reads
    jet 2k, one matrix product per component that jet carries.
    """
    flops = 0
    for k, (A, _) in enumerate(args[0]):
        x = out[2 * k]
        flops += 2 * sum(_present(x)) * x.x0.shape[0] * A.size
    tape = sum(c.nbytes for jet in out[1:] for c in (jet.x0, jet.xa, jet.xb, jet.xab) if c is not None)
    return flops, tape


def _backward_flops(args, kwargs, out):
    """Flops of ``chain_backward(weights, jets, g_out)``, computed from shapes.

    Per affine map: one product per cotangent component for the input
    gradient, and one per (cotangent, recorded input) pair for the parameter
    gradient.  Which cotangent components a tanh pullback produces follows
    the jet algebra of ``sympflow._jet``.
    """
    weights, jets, g_out = args[:3]
    with_params = kwargs.get("with_params", args[3] if len(args) > 3 else True)
    g = _present(g_out)
    flops, idx = 0, len(jets) - 1
    for k in range(len(weights) - 1, -1, -1):
        if k != len(weights) - 1:
            za, zb, zab = _present(jets[idx - 1])[1:]
            g0, ga, gb, gab = g
            g = (
                g0 or (za and ga) or (zb and gb) or (zab and gab) or (za and zb and gab),
                ga or (zb and gab),
                gb or (za and gab),
                gab,
            )
            idx -= 1
        x = jets[idx - 1]
        n_mm = sum(g)
        if with_params:
            n_mm += sum(a and b for a, b in zip(g, _present(x)))
        flops += 2 * n_mm * x.x0.shape[0] * weights[k][0].size
        idx -= 1
    return flops


def _nonfinite_rows(args, kwargs, out):
    if isinstance(out, np.ndarray) and out.ndim == 2:
        return int(np.count_nonzero(~np.all(np.isfinite(out), axis=1)))
    return 0


def _solution_steps(args, kwargs, out):
    return (out.n_steps, out.n_rejected)


# Per-function hooks: the value they return is stored with the span.
HOOKS = {
    "_jet.chain_forward": _forward_cost,
    "_jet.chain_backward": _backward_flops,
    "model._forward_b": _nonfinite_rows,
    "integrate.integrate": _solution_steps,
}


class Tracer:
    """Records spans while installed and ``active``; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self.active = True
        self._wrappers: dict = {}
        self._proxies: dict = {}
        self._patched: list = []

    def reset(self):
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_rows: list[int] = []
        self.span_post: list[float] = []
        self.span_failed: set[int] = set()
        self.span_extra: dict[int, object] = {}
        self._stack = [-1]

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"sympflow.{layer}") for layer in LAYERS}
        for layer, attr in MODULE_SITES:
            self._patch(mods[layer], attr, self._wrap(layer, getattr(mods[layer], attr)))
        base = mods["systems"].HamiltonianSystem
        for attr in SYSTEM_METHODS:
            self._patch(base, attr, self._wrap("systems", base.__dict__[attr]))
        for here, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                there = _layer_of(val) if not getattr(val, "_bench_span", False) else None
                if there is None or there == here:
                    continue
                if isinstance(val, types.ModuleType):
                    self._patch(mod, attr, self._proxy(val, there))
                elif inspect.isfunction(val):
                    self._patch(mod, attr, self._wrap(there, val))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run unwrapped and leave no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _proxy(self, mod, layer):
        if mod not in self._proxies:
            proxy = types.ModuleType(mod.__name__, mod.__doc__)
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    val = self._wrap(layer, val)
                setattr(proxy, attr, val)
            self._proxies[mod] = proxy
        return self._proxies[mod]

    def _wrap(self, layer, fn):
        if getattr(fn, "_bench_span", False):
            return fn
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = f"{layer}.{fn.__name__}"
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1])
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.span_rows.append(0)
            tracer.span_post.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.span_failed.add(idx)
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                tracer.span_rows[idx] = _rows(args)
            if hook is not None:
                tracer.span_extra[idx] = hook(args, kwargs, out)
            # Counting happens inside the parent's interval; layer_metrics
            # takes it out of the parent's self time.
            tracer.span_post[idx] = clock() - end
            return out

        wrapper._bench_span = True
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        self._wrappers[fn] = wrapper
        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Write the spans as gzipped JSON: a name table and one row per span."""
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_rows)
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_s", "end_s", "parent", "rows"],
                    "spans": [list(r) for r in rows],
                },
                fh,
                separators=(",", ":"),
            )

    def layers_seen(self) -> set[str]:
        return {self.names[n].rsplit(".", 1)[0] for n in set(self.span_name)}


def layer_metrics(tr: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics of the recorded spans, normalised per workload unit.

    Counts and self times are per unit (epoch or evaluated initial
    condition); ratios are not normalised.  A ratio whose denominator is zero
    (the layer did no work) reads 0.
    """
    names = [tr.names[n] for n in tr.span_name]
    layer = [n.rsplit(".", 1)[0] for n in names]
    parent = tr.span_parent
    dur = [e - s for s, e in zip(tr.span_start, tr.span_end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i] + tr.span_post[i]

    self_s = dict.fromkeys(LAYERS, 0.0)
    entries = dict.fromkeys(LAYERS, 0)
    for i, lay in enumerate(layer):
        self_s[lay] += dur[i] - child[i]
        if parent[i] < 0 or layer[parent[i]] != lay:
            entries[lay] += 1

    def total(name, pick=lambda i: 1):
        return sum(pick(i) for i, n in enumerate(names) if n == name)

    sweeps = total("_jet.chain_forward")
    pullbacks = total("_jet.chain_backward")
    jet_rows = total("_jet.chain_forward", lambda i: tr.span_rows[i])
    flops = total("_jet.chain_forward", lambda i: tr.span_extra.get(i, (0, 0))[0]) + total(
        "_jet.chain_backward", lambda i: tr.span_extra.get(i, 0)
    )
    tape = total("_jet.chain_forward", lambda i: tr.span_extra.get(i, (0, 0))[1])

    sys_calls = [i for i, lay in enumerate(layer) if lay == "systems"]
    sys_rows = sum(tr.span_rows[i] for i in sys_calls)
    fevals = sum(1 for i in sys_calls if parent[i] >= 0 and layer[parent[i]] == "integrate")

    solves = [i for i, n in enumerate(names) if n == "integrate.integrate"]
    steps = sum(tr.span_extra[i][0] for i in solves if i in tr.span_extra)
    rejected = sum(tr.span_extra[i][1] for i in solves if i in tr.span_extra)
    solve_failed = sum(1 for i in solves if i in tr.span_failed)

    maps = [
        i for i, lay in enumerate(layer) if lay == "model" and parent[i] >= 0 and layer[parent[i]] == "evaluate"
    ]
    map_rows = sum(tr.span_rows[i] for i in maps)
    nonfinite = sum(tr.span_extra.get(i, 0) for i in maps)

    adam_s = total("train.adam_step", lambda i: dur[i] - child[i])

    def ratio(a, b):
        return a / b if b else 0.0

    u = max(units, 1)
    out = {
        "jet.sweeps": sweeps / u,
        "jet.pullbacks": pullbacks / u,
        "jet.rows": jet_rows / u,
        "jet.rows_per_sweep": ratio(jet_rows, sweeps),
        "jet.gemm_mflop": flops / 1e6 / u,
        "jet.tape_mb": tape / 1e6 / u,
        "systems.calls": len(sys_calls) / u,
        "systems.rows_per_call": ratio(sys_rows, len(sys_calls)),
        "integrate.steps": steps / u,
        "integrate.rejected": rejected / u,
        "integrate.accept_ratio": ratio(steps, steps + rejected),
        "integrate.fevals_per_step": ratio(fevals, steps),
        "integrate.failed": solve_failed / u,
        "evaluate.window_maps": len(maps) / u,
        "evaluate.rows_per_map": ratio(map_rows, len(maps)),
        "evaluate.nonfinite": nonfinite / u,
        "train.adam_ms": 1e3 * adam_s / u,
    }
    for lay in ("potential", "model", "extraction", "mlp"):
        out[f"{lay}.calls"] = entries[lay] / u
    for lay in LAYERS:
        out[f"{metric_prefix(lay)}.self_ms"] = 1e3 * self_s[lay] / u
    return out
