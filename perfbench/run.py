#!/usr/bin/env python3
"""medlat benchmark: one closed-loop client calling the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload levels|search|report --seed N \\
        --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout.  Every run makes
its inputs from ``--seed``, sets up (cold import plus the library caches
the ops touch), then runs whole cycles of ops until at least ``--seconds``
of op time has passed, checks every answer with an oracle and prints
human-readable lines followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the set-up is traced, each op runs a second time with spans around
medlat's public functions right after its untraced run, and the metrics
are the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3          # set-ups per run: this process plus two fresh children
SETUP_TIMEOUT_S = 120
MIN_OPS = 120              # leaves at least 12 samples above p90
MODULES = ("poset", "algebra", "kernels", "logic", "freedist", "cli")


def import_library():
    """Cold import of medlat; the modules the ops call, by short name."""
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"medlat.{m}") for m in MODULES})


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup(import_library())
    return time.perf_counter() - t0


def setup_probe(workload_name: str) -> float:
    """Set-up time of one fresh interpreter, from cold import to ready."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", workload_name, "--seed", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def call(op):
    """Run one op; returns (latency, result, error)."""
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as e:  # an op that raises is a failed op, not a crash
        out, err = None, e
    return time.perf_counter() - t0, out, err


def timed_phase(workload, seconds: float, tracer=None):
    """Whole cycles until the untraced op time reaches ``seconds`` (and
    MIN_OPS).  With a tracer, each op runs again traced right after its
    untraced run, so both see the same machine state."""
    ops, lat, results, errors, traced = [], [], [], [], []
    index = 0
    while sum(lat) < seconds or len(lat) < MIN_OPS:
        cycle = workload.cycle(index)
        index += 1
        for op in cycle:
            dt, out, err = call(op)
            if tracer is not None:
                tracer.enable()
                tracer.begin_op(len(ops))
                _, _, t_err = call(op)
                traced.append((tracer.end_op(), t_err))
                tracer.disable()
            ops.append(op)
            lat.append(dt)
            results.append(out)
            errors.append(err)
    return ops, lat, results, errors, traced, index


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(xs, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, weighted by a Beta(q(n+1), (1-q)(n+1)) density.  Unlike a
    single order statistic it does not jump when the sample has a gap at
    rank q*n, so it moves smoothly when the host's speed changes during a
    run."""
    x = sorted(xs)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(x))


def kind_latency(ops, lat) -> dict:
    by_kind = {}
    for op, dt in zip(ops, lat):
        by_kind.setdefault(op.kind, []).append(dt * 1e3)
    return {k: round(statistics.median(v), 3) for k, v in sorted(by_kind.items())}


def traffic(ops) -> dict:
    seen = set()
    repeats = 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    answers = Counter(str(op.props.get("valid", op.props.get("exit", "-"))) for op in ops)
    out = {
        "ops": len(ops),
        "kinds": dict(Counter(op.kind for op in ops)),
        "answer_share": {k: v / len(ops) for k, v in sorted(answers.items())},
        "algebra_sizes": dict(sorted(Counter(op.size for op in ops).items())),
        "repeat_share": repeats / len(ops),
    }
    cm = Counter(op.props["cm_size"] for op in ops if "cm_size" in op.props)
    if cm:
        out["smallest_countermodel_sizes"] = {str(k): v for k, v in
                                              sorted(cm.items(), key=lambda kv: str(kv[0]))}
    return out


def machine(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "networkx": version("networkx"),
            "numba": importlib.util.find_spec("numba") is not None, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "medlat" / "__init__.py").is_file():
        print(f"error: no medlat package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    tracer = Tracer() if args.trace else None
    setups = []
    if tracer:
        # Per-layer numbers include the set-up (op id "setup"): that is
        # where the level algebras and the poset enumeration are built.
        lib = import_library()
        tracer.install()
        tracer.begin_op("setup")
        workload.setup(lib)
        tracer.end_op()
        tracer.disable()
    else:
        setups = [setup_probe(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        setups.append(timed_setup(workload))
    setup_failures = workload.check_setup()

    ops, lat, results, errors, traced, cycles = timed_phase(workload, args.seconds, tracer)
    failures = []
    for i, (op, out, err) in enumerate(zip(ops, results, errors)):
        why = f"raised {type(err).__name__}: {err}" if err is not None else op.check(out)
        if why:
            failures.append(f"op {i} {op.kind} {op.key[:1]}: {why}")
    probes = workload.probes()

    total = sum(lat)
    ops_per_s = len(lat) / total
    p50 = quantile(lat, 0.5)
    p90 = quantile(lat, 0.9)
    above = sum(1 for x in lat if x > p90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    info = {"workload": args.workload, "machine": machine(args.seed),
            "cycles": cycles, "samples": len(lat), "samples_above_p90": above,
            "setup_samples_s": setups, "failed_frac": len(failures) / len(ops),
            "failures": (setup_failures + failures)[:20], "traffic": traffic(ops), "probes": probes,
            "median_latency_ms_by_kind": kind_latency(ops, lat),
            "op_latency_ms": [round(x * 1e3, 4) for x in lat]}
    print(f"# workload {args.workload} seed {args.seed}: {len(lat)} ops in {cycles} "
          f"cycles, {total:.2f} s of op time, {above} samples above p90, "
          f"failed_frac {info['failed_frac']:.4g}")
    print(f"# machine {json.dumps(info['machine'])}")
    print(f"# traffic {json.dumps(info['traffic'])}")
    print(f"# median latency (ms) by kind {json.dumps(info['median_latency_ms_by_kind'])}")
    if probes:
        print(f"# probes {json.dumps(probes)}")
    for msg in info["failures"]:
        print(f"# FAILED {msg}")

    if tracer:
        setup_failures += [f"traced run of op {i} raised {e!r}"
                           for i, (_, e) in enumerate(traced) if e is not None]
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (sum(t for t, _ in traced) / total - 1.0, "ratio")
        sums = tracer.op_self_sums()
        info["trace"] = {
            "spans": len(tracer.spans),
            "op_self_sum_over_untraced_wall_median":
                statistics.median(sums[i][0] / lat[i] for i in range(len(ops))),
            "op_self_sum_minus_traced_wall_max_s":
                max(abs(s - w) for s, w in sums.values())}
        print(f"# trace {json.dumps(info['trace'])}")
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    info["metrics"] = metrics
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, default=str))
    print(json.dumps({"correct": not (failures or setup_failures), "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
