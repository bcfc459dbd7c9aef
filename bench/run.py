"""Benchmark harness for coskit: four workloads, best-of-round timings.

Usage, from the root of a coskit checkout:

    python3 bench/run.py --workload descent --seed 1 --seconds 24 --trace 0

Workloads: descent, variation, sweep, splitting (see workloads.py and
README.md).  A run imports coskit from ``src/`` next to this directory,
builds the workload's inputs from the seed, then runs whole rounds of the
workload's operations for about ``--seconds`` seconds.  Every operation
is timed on its own (a "stage"), and just before each stage a reference
kernel (reference.py) is timed to measure the machine's current speed.
``op_s`` is the sum over stages of each stage's fastest time, times the
reference's calibrated time over the fastest reference time taken before
that stage: the fastest repetition filters out short slow spells, and
the scale removes the slow phases of the shared machine that outlast a
run.  The outputs
of the first round are checked against closed forms and properties of
the method, and every later round must reproduce them bit for bit.

``setup_s`` is the median of several set-ups, each but the first in a
fresh interpreter: importing coskit and building the workload's inputs.
It is scaled by the run's overall speed scale, ``op_s`` over the
unscaled sum of stage minima.
``peak_rss_mb`` is the peak resident memory of the run's process.

With ``--trace 1`` rounds alternate between untraced and traced; the
traced rounds give the per-layer metrics (calls and self time of each
coskit function and of the numpy kernels coskit calls), and
``trace.overhead_s`` is the traced minus the untraced ``op_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full run
record (machine, set-up samples, per-stage timings, check results) is
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

# single-threaded: no BLAS thread pool competing for the two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5           # set-ups per run; setup_s is their median
MIN_ROUNDS = 3              # per mode (untraced, traced)
CHILD_TIMEOUT_S = 120


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_workloads():
    """Import coskit from this checkout's src/ and the workload module."""
    if not (SRC / "coskit" / "__init__.py").is_file():
        _fail(f"no coskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import coskit
    if Path(coskit.__file__).resolve().parent != (SRC / "coskit").resolve():
        _fail(f"imported coskit from {coskit.__file__}, not from {SRC}")
    return workloads


def _setup_once(name: str, seed: int):
    """Import coskit and build the inputs; returns (seconds, module, inputs)."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    inputs = workloads.WORKLOADS[name].build(seed)
    return time.perf_counter() - t0, workloads, inputs


def _setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        _fail(f"set-up child failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- timing --------------------------------------------------------------------


class Clock:
    """Times the stages of one round; switches the tracer on inside them.

    Before each stage it times the reference kernel `repeats` times and
    keeps the fastest of those in `reference`.
    """

    def __init__(self, tracer=None, kernel=None, repeats: int = 0):
        self.tracer = tracer
        self.kernel, self.repeats = kernel, repeats
        self.times: dict[str, float] = {}
        self.reference: dict[str, float] = {}
        self.blocks: dict[str, tuple[int, int]] = {}

    @contextlib.contextmanager
    def __call__(self, stage: str):
        if stage in self.times:
            raise ValueError(f"stage {stage!r} timed twice in one round")
        if self.repeats:
            self.reference[stage] = min(_timed(self.kernel) for _ in range(self.repeats))
        tracer = self.tracer
        if tracer is not None:
            lo = len(tracer.spans)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                self.blocks[stage] = (lo, len(tracer.spans))
            self.times[stage] = elapsed


def fingerprint(obj) -> str:
    """SHA-256 over the exact bits of a (nested) output."""
    import numpy as np
    h = hashlib.sha256()

    def feed(o):
        if o is None or isinstance(o, (bool, str)):
            h.update(f"{type(o).__name__}:{o!s};".encode())
        elif isinstance(o, (int, np.integer)):
            h.update(f"i:{int(o)};".encode())
        elif isinstance(o, (float, np.floating)):
            h.update(b"f:" + struct.pack("<d", float(o)))
        elif isinstance(o, np.ndarray):
            h.update(f"a:{o.dtype.str}:{o.shape};".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, dict):
            h.update(b"{")
            for k in sorted(o, key=repr):
                feed(k)
                feed(o[k])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif dataclasses.is_dataclass(o):
            h.update(f"<{type(o).__name__}>".encode())
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        else:
            raise TypeError(f"cannot fingerprint {type(o).__name__}")

    feed(obj)
    return h.hexdigest()


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(workload, inputs, kernel, repeats: int, seconds: float, trace: bool):
    """Run whole rounds for about `seconds`; alternate untraced/traced if tracing."""
    from spans import Tracer
    tracer = Tracer() if trace else None
    modes = (False, True) if trace else (False,)
    rounds = {mode: [] for mode in modes}      # (stage times, span blocks, reference)
    first_out, first_fp, mismatches = None, None, []
    start = time.perf_counter()
    n = 0
    while True:
        traced = modes[n % len(modes)]
        clock = Clock(tracer if traced else None, kernel, repeats)
        if traced:
            tracer.install()
        try:
            out = workload.run_round(inputs, clock)
        finally:
            if traced:
                tracer.uninstall()
        fp = fingerprint(out)
        if first_out is None:
            first_out, first_fp = out, fp
        elif fp != first_fp:
            mismatches.append(f"round {n} ({'traced' if traced else 'untraced'}) "
                              f"outputs differ from round 0")
        rounds[traced].append((clock.times, clock.blocks, clock.reference))
        n += 1
        wall = time.perf_counter() - start
        if n % len(modes) == 0 and n >= MIN_ROUNDS * len(modes) \
                and wall * (n + len(modes)) / n > seconds:
            break
    return rounds, first_out, mismatches, tracer


def best_of(rounds) -> tuple[float, dict[str, float], dict[str, int]]:
    """Sum of per-stage minima, the minima, and the rounds they came from."""
    best, arg = {}, {}
    for stage in rounds[0][0]:
        times = [r[0][stage] for r in rounds]
        arg[stage] = min(range(len(times)), key=times.__getitem__)
        best[stage] = times[arg[stage]]
    return sum(best.values()), best, arg


def scaled_best(rounds, seconds: float) -> tuple[float, dict[str, float]]:
    """Sum over stages of (fastest stage time) * seconds / (fastest reference
    time taken before that stage): each stage is paired with as many
    reference samples, taken at the same moments, as it has samples itself."""
    scales = {stage: seconds / min(r[2][stage] for r in rounds) for stage in rounds[0][0]}
    _, best, _ = best_of(rounds)
    return sum(best[stage] * scales[stage] for stage in best), scales


# -- per-layer metrics -----------------------------------------------------------


def per_layer(traced_rounds, tracer, untraced_op: float, traced_op: float,
              handed_metrics: int, facts: dict):
    """Per-layer metrics from, for each stage, its fastest traced round.

    Also returns the labelled kernel breakdown for the run record:
    calls and self seconds per array shape, einsum subscripts or stencil.
    """
    from spans import SPAN_NAMES, summarize
    _, _, arg = best_of(traced_rounds)
    totals: dict[str, list[float]] = {}
    kernels: dict[str, dict[str, list[float]]] = {}
    for stage, k in arg.items():
        lo, hi = traced_rounds[k][1][stage]
        by_name, by_label = summarize(tracer.spans, lo, hi)
        for name, values in by_name.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, labels in by_label.items():
            for label, values in labels.items():
                acc = kernels.setdefault(name, {}).setdefault(label, [0, 0.0, 0.0])
                for i, v in enumerate(values):
                    acc[i] += v
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s

    def ratio(num, den):
        return num / den if den else 0.0

    calls = {name: acc[0] for name, acc in totals.items()}
    metrics["grids.partial_derivative.mib"] = totals.get("grids.partial_derivative",
                                                         (0, 0.0, 0.0))[2]
    metrics["variational.minimize_energy.evals_per_step"] = ratio(
        calls.get("variational._gap_and_gradient", 0), facts.get("accepted_steps", 0))
    certified = calls.get("cosymplectic.certify_compatible", 0) + handed_metrics
    metrics["tensors.inverse_metric.per_metric"] = ratio(
        calls.get("tensors.inverse_metric", 0), certified)
    metrics["tensors.lie_derivative.per_metric"] = ratio(
        calls.get("tensors.lie_derivative", 0), certified)
    metrics["trace.overhead_s"] = traced_op - untraced_op
    breakdown = {name: {label: {"calls": n, "self_s": t, "total_s": total,
                                "ms_per_call": 1e3 * total / n}
                        for label, (n, t, total) in sorted(labels.items(),
                                                           key=lambda kv: -kv[1][2])}
                 for name, labels in kernels.items()}
    return metrics, breakdown


# -- run record --------------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "coskit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_info() -> dict:
    """BLAS library from numpy's build config; thread count from the library."""
    import ctypes
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    info["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_record(loadavg_start) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "loadavg_start": list(loadavg_start),
        "loadavg_end": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    loadavg_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("descent", "variation", "sweep", "splitting"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        seconds, _, _ = _setup_once(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_first, workloads, inputs = _setup_once(args.workload, args.seed)
    setup_samples = [setup_first] + [_setup_in_child(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
    import reference
    kernel = reference.KERNELS[args.workload]()
    workload = workloads.WORKLOADS[args.workload]

    rounds, first_out, mismatches, tracer = measure(
        workload, inputs, kernel, reference.REPEATS[args.workload], args.seconds,
        bool(args.trace))
    failures, facts = workload.check(inputs, first_out)
    failures += mismatches
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # timings in seconds at the reference kernel's calibrated speed
    calibrated = reference.SECONDS[args.workload]
    untraced = rounds[False]
    raw_op, best, _ = best_of(untraced)
    op_s, op_scales = scaled_best(untraced, calibrated)
    setup_s = statistics.median(setup_samples) * op_s / raw_op
    round_sums = sorted(sum(r[0].values()) for r in untraced)
    stages_per_round = len(untraced[0][0])
    attempted = stages_per_round * sum(len(r) for r in rounds.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_record(loadavg_start),
        "setup": {"samples_s": setup_samples, "median_s": statistics.median(setup_samples),
                  "setup_s": setup_s},
        "op": {"best_s": raw_op, "median_round_s": statistics.median(round_sums),
               "repetitions": len(untraced), "stages": len(best), "stage_best_s": best,
               "stage_scale": op_scales, "scale": op_s / raw_op, "op_s": op_s},
        "checks": {"failures": failures, "facts": facts},
        "attempted": attempted, "failed": 0, "correct": not failures,
    }
    if args.trace:
        traced_op, _ = scaled_best(rounds[True], calibrated)
        record["op"]["traced_op_s"] = traced_op
        record["op"]["traced_repetitions"] = len(rounds[True])
        metrics, record["kernels"] = per_layer(rounds[True], tracer, op_s, traced_op,
                                               workload.handed_metrics, facts)
        from spans import PER_LAYER
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in PER_LAYER}
    else:
        result_metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    record["metrics"] = result_metrics

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for failure in failures:
        print(f"FAILED CHECK: {failure}")
    print(f"{args.workload} seed={args.seed}: op_s={op_s:.4f} (measured {raw_op:.4f} s, "
          f"best of {len(untraced)} rounds, speed scale {op_s / raw_op:.3f}), "
          f"setup_s={setup_s:.4f}, peak_rss_mb={peak_rss_mb:.1f}; "
          f"record in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
