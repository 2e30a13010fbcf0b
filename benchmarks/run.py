"""sympflow benchmark: three closed-loop workloads, end to end or traced.

    python3 benchmarks/run.py --workload train_sf_hh --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 1 --out a.json
    python3 benchmarks/compare.py a.json b.json --check-counts

Run from the repository root; sympflow is imported from ``src/`` next to
this directory and nowhere else.  Workloads (see ``workloads.py``):

* ``train_sf_hh``: epochs of SympFlow training on Henon-Heiles;
* ``eval_hh``: evaluation requests against a fixed SympFlow model;
* ``supervised_mlp_sho``: dataset generation plus MLP fitting on the SHO.

``--trace 0`` repeats blocks of operations for ``--seconds`` (and at least
``MIN_OPS`` operations) and prints the end-to-end metrics:

* ``setup_s``: import, model build or load, and inputs; the median of seven
  set-ups: this process's own and six in fresh processes, half of them
  before the timed region and half after it;
* ``op_ms_p90``: 90th percentile of the wall time of one operation (an
  epoch, a fit request or an evaluation request); every run has at least
  ``MIN_OPS`` operations, so ten or more lie beyond it;
* ``result_err``: over the first blocks, the median final training loss, or
  the median relative error after 10 windows on ``eval_hh``;
* ``peak_rss_mb``: peak resident set of this process.

``--trace 1`` runs a fixed number of blocks, each untraced and traced, and
prints the per-layer metrics of ``tracing.py`` plus ``tracing_overhead_frac``
(traced over untraced operation time, minus one); the spans go to
``.bench_out/``.  The fixed block count makes the counts repeat exactly
between runs of the same code.

The line before the result holds the environment, the operation count, the
throughput and the percentiles of the operation time.  Only the 90th
percentile is an end-to-end metric: on a shared 2-core x86-64 virtual
machine the CPU switches between two speeds some 50% apart for seconds to
minutes at a time, and over ten 40-second runs the median and the
throughput spread (interquartile range over median) by 11-31%, the 90th
percentile by 5-21%.

BLAS runs on one thread.  The last line of stdout is the result object.
``--workload all`` runs every workload in its own process and writes the
collected results to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("train_sf_hh", "eval_hh", "supervised_mlp_sho")
MIN_OPS = 100  # so that op_ms_p90 has at least ten operations beyond it
MAX_SECONDS = 150.0  # stop adding blocks here whatever MIN_OPS says
SETUP_CHILDREN = 3  # before the timed region, and as many again after it

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p90": "ms",
    "result_err": "1",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


class SetupError(RuntimeError):
    pass


def load_sympflow():
    """Import the layer modules from ``src/``; fail if they are not there."""
    import importlib
    import types

    sys.path.insert(0, str(SRC))
    try:
        mods = {
            name: importlib.import_module(f"sympflow.{name}")
            for name in ("train", "model", "mlp", "evaluate", "integrate", "systems", "io")
        }
    except ImportError as exc:
        raise SetupError(f"cannot import sympflow from {SRC}: {exc}") from exc
    origin = Path(sys.modules["sympflow"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"sympflow was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def set_up(name: str, seed: int):
    sf = load_sympflow()
    from workloads import WORKLOAD_CLASSES

    return WORKLOAD_CLASSES[name](sf, seed)


def child_setup_s(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def timed_run(wl, seconds: float):
    """Blocks 0, 1, ... until ``seconds`` have passed, ``MIN_OPS`` operations
    were attempted and the quality blocks are done (or ``MAX_SECONDS``)."""
    ops, quality = [], []
    attempted = failed = 0
    start = clock()
    while True:
        elapsed = clock() - start
        if elapsed >= MAX_SECONDS or (
            elapsed >= seconds and attempted >= MIN_OPS and len(quality) >= wl.quality_blocks
        ):
            break
        b = wl.block(len(quality))
        ops += b.op_s
        attempted += b.attempted
        failed += b.failed
        quality.append(b.quality)
    first = quality[: wl.quality_blocks]
    metrics = {
        "op_ms_p90": 1e3 * percentile(ops, 90) if ops else None,
        "result_err": statistics.median(first) if all(map(_finite, first)) else None,
    }
    info = {
        "ops": len(ops),
        "ops_per_s": len(ops) / sum(ops) if ops else None,
        "op_ms": {f"p{q}": 1e3 * percentile(ops, q) for q in (10, 25, 50, 75, 90, 95)} if ops else None,
    }
    return metrics, attempted, failed, info


def traced_run(wl):
    """Each block twice, untraced and traced, alternating which goes first so
    that drift in machine speed falls on both sides alike."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    wl.unobserved = tracer.paused
    seconds = {False: 0.0, True: 0.0}
    attempted = failed = units = n_ops = 0
    for i in range(wl.trace_blocks):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            with tracer if traced else contextlib.nullcontext():
                b = wl.block(i)
            seconds[traced] += sum(b.op_s)
            attempted += b.attempted
            failed += b.failed
            if traced:
                units += b.units
                n_ops += len(b.op_s)
    metrics = layer_metrics(tracer, units)
    metrics["tracing_overhead_frac"] = seconds[True] / seconds[False] - 1.0 if seconds[False] else None
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.json.gz"
    tracer.write_spans(spans)
    info = {"ops": n_ops, "spans_file": str(spans.relative_to(ROOT))}
    return metrics, attempted, failed, info


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args):
    import platform

    import numpy as np

    blas = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> int:
    t0 = clock()
    try:
        wl = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    own_setup = clock() - t0
    if args.setup_only:
        print(repr(own_setup))
        return 0

    if args.trace:
        wl.warmup()
        metrics, attempted, failed, info = traced_run(wl)
    else:
        setups = [own_setup] + [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
        wl.warmup()
        metrics, attempted, failed, info = timed_run(wl, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
        metrics["setup_s"] = statistics.median(setups)
        info["setup_samples_s"] = setups

    from tracing import PER_LAYER_UNITS

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and all(_finite(metrics[k]) for k in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env = environment(args)
    info.update(env=env, unit=wl.unit, failures=wl.failures)
    if args.out:
        Path(args.out).write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the results collected in --out."""
    if not args.out:
        print("error: --workload all needs --out", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runs = {}
    for name in WORKLOADS:
        part = OUT_DIR / f"part-{name}-seed{args.seed}-trace{args.trace}.json"
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(part)]
        done = subprocess.run(cmd, timeout=600)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        runs[name] = json.loads(part.read_text())
        part.unlink()
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the result, with its environment, to this JSON file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # Before numpy loads, so that BLAS starts with this many threads; child
    # processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
