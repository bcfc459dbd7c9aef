"""Span tracing of coskit's layers from outside the package.

A :class:`Tracer` wraps the public functions of coskit's modules, two
members of ``CompatibleMetric`` and the numpy kernels the modules call.
Each call made while the tracer is active becomes a span
``[name, start, end, parent, mib, label]``; spans stay in memory until
the run ends.  ``mib`` is the data a stencil call reads and writes, and
``label`` tells calls of one kernel apart (array shape, einsum
subscripts, stencil signature and axis).  Wrappers are installed on the
defining module and on every other coskit namespace that imported the
same function object, so calls made inside coskit are counted too.  numpy calls are counted only when they
come from coskit: each coskit module gets its own copy of the ``numpy``
namespace whose ``einsum``, ``roll``, ``linalg.inv`` and ``linalg.eigh``
are wrapped, while numpy itself and this harness keep the originals.

Wrappers call the original function with the original arguments, so
traced results are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

# (layer, traced attributes) per coskit module; a layer is named after its module
TRACED = (
    ("grids", ("shift", "partial_derivative", "seam_transport", "integrate")),
    ("tensors", ("gradient", "exterior_derivative", "lie_derivative", "christoffel",
                 "covariant_derivative", "inverse_metric", "sqrtm_spd", "tensor_norm2",
                 "symmetric_eigen", "hodge_star")),
    ("cosymplectic", ("certify_compatible", "d_alpha_plus", "CompatibleMetric.ginv",
                      "CompatibleMetric.h_tensor")),
    ("models", ("build_hyperbolic_model", "critical_metric")),
    ("variational", ("reeb_derivative", "energy", "torsion_report",
                     "euler_lagrange_residual", "first_variation", "exponential_curve",
                     "tangent_project", "deform", "minimize_energy", "_gap_and_gradient")),
    ("dynamics", ("anosov_splitting", "refine_splitting", "splitting_invariance_residual",
                  "contraction_law_residual", "bracket_residuals", "lyapunov_exponents")),
    ("cli", ("run", "convergence_sweep")),
)
NUMPY_TRACED = ("linalg.inv", "linalg.eigh", "einsum", "roll")

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attrs in TRACED for attr in attrs) \
    + tuple(f"numpy.{attr}" for attr in NUMPY_TRACED)

# every per-layer metric of a traced run, with its unit; all lower is better
PER_LAYER = tuple((f"{name}.{kind}", unit) for name in SPAN_NAMES
                  for kind, unit in (("calls", "count"), ("self_s", "s"))) + (
    ("grids.partial_derivative.mib", "MiB"),
    ("variational.minimize_energy.evals_per_step", "evals/step"),
    ("tensors.inverse_metric.per_metric", "calls/metric"),
    ("tensors.lie_derivative.per_metric", "calls/metric"),
    ("trace.overhead_s", "s"),
)

_MIB = 1024.0 * 1024.0


def _stencil_mib(args, kwargs, out) -> float:
    """MiB read plus written by one partial_derivative call, from array sizes."""
    data = args[0] if args else kwargs["data"]
    return (data.nbytes + out.nbytes) / _MIB


def _shape_label(args, kwargs) -> str:
    return str(getattr(args[0], "shape", "")) if args else ""


def _einsum_label(args, kwargs) -> str:
    return args[0] if isinstance(args[0], str) else "operand-list"


def _stencil_label(args, kwargs) -> str:
    data, sig, _, axis = (list(args) + [kwargs.get(k) for k in
                                        ("data", "index_sig", "grid", "axis")][len(args):])
    return f"sig {sig!r} axis {axis} {data.shape}"


_MEASURE = {"grids.partial_derivative": _stencil_mib}
_LABEL = {"grids.partial_derivative": _stencil_label, "numpy.einsum": _einsum_label,
          "numpy.linalg.inv": _shape_label, "numpy.linalg.eigh": _shape_label,
          "numpy.roll": _shape_label}


class Tracer:
    """Records spans of traced calls while ``active`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure, label = _MEASURE.get(name), _LABEL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0,
                    label(args, kwargs) if label is not None else None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, out)
            return out

        return traced

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        """Wrap every traced function; undone by :meth:`uninstall`."""
        import numpy
        package = sys.modules["coskit"]
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "coskit" or n.startswith("coskit.")) and m is not None]
        for layer, attrs in TRACED:
            module = getattr(package, layer)
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[member]
                    if isinstance(original, property):
                        replacement = property(self.wrap(name, original.fget))
                    else:
                        replacement = self.wrap(name, original)
                    self._set(cls, member, replacement)
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, key, wrapped)

        np_proxy = types.ModuleType("numpy")
        np_proxy.__dict__.update(numpy.__dict__)
        linalg_proxy = types.ModuleType("numpy.linalg")
        linalg_proxy.__dict__.update(numpy.linalg.__dict__)
        np_proxy.linalg = linalg_proxy
        for attr in NUMPY_TRACED:
            owner, target = (linalg_proxy, numpy.linalg) if attr.startswith("linalg.") \
                else (np_proxy, numpy)
            leaf = attr.split(".")[-1]
            setattr(owner, leaf, self.wrap(f"numpy.{attr}", getattr(target, leaf)))
        for ns in namespaces:
            if getattr(ns, "np", None) is numpy:
                self._set(ns, "np", np_proxy)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans: list[list], lo: int, hi: int):
    """Calls, self seconds and MiB over spans[lo:hi], per name and per label.

    Returns ``(by_name, by_label)``: ``by_name[name] = [calls, self_s, mib]``
    and ``by_label[name][label] = [calls, self_s, total_s]`` for labelled
    spans, where the total includes the children.
    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            child_time[parent - lo] += spans[i][2] - spans[i][1]
    by_name: dict[str, list[float]] = {}
    by_label: dict[str, dict[str, list[float]]] = {}
    for i in range(lo, hi):
        name, start, end, _, mib, label = spans[i]
        self_s = (end - start) - child_time[i - lo]
        acc = by_name.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += self_s
        acc[2] += mib
        if label is not None:
            acc = by_label.setdefault(name, {}).setdefault(label, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += self_s
            acc[2] += end - start
    return by_name, by_label
