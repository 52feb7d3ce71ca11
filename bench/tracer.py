"""Span recorder and wrappers for the benchmark's traced run.

The wrappers live here, outside the package: ``install`` replaces each
public function of ``cli``, ``linop``, ``means``, ``spectral``, ``ergodic``
and ``spaces`` in its defining module *and* in every ergolab module that
re-binds it with ``from .x import name``; it also wraps the class attributes
``MeanScheme.row`` and ``GramGeometry.__init__/apply_factor/
apply_factor_inverse_right`` and the numpy/scipy kernels the package calls.
``uninstall`` puts every original back, so untraced passes run the
unmodified code.

Every wrapped call records a span (name, start, end, parent, operation id)
in memory.  A span's self time is its duration minus the time covered by
its wrapped children.  Matrix products (``@``) run inside numpy and cannot
be counted from outside the package; kernel counts cover only the calls the
package makes through ``numpy.linalg``, ``scipy.linalg`` and ``numpy.fft``
(numpy's own internal calls, such as the SVD inside ``norm(a, 2)``, are not
counted).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

from ergolab import cli, ergodic, linop, means, spaces, spectral

# (module, attribute, span name) of every wrapped package function.
_FUNCTIONS = [
    (cli, "main", "cli.main"),
    (cli, "write_report", "cli.write_report"),
    (cli, "parse_operator", "cli.parse_operator"),
    (linop, "op_norm", "linop.op_norm"),
    (linop, "as_matrix", "linop.as_matrix"),
    (linop, "power", "linop.power"),
    (means, "apply_mean", "means.apply_mean"),
    (means, "backit_identity_residual", "means.backit_identity_residual"),
    (means, "block_mean_residual", "means.block_mean_residual"),
    (spectral, "resolvent_norm", "spectral.resolvent_norm"),
    (spectral, "kreiss_functional", "spectral.kreiss_functional"),
    (spectral, "partial_sum_functional", "spectral.partial_sum_functional"),
    (spectral, "uniform_kreiss_mean_bound", "spectral.uniform_kreiss_mean_bound"),
    (ergodic, "power_norm_sequence", "ergodic.power_norm_sequence"),
    (ergodic, "power_norm_samples", "ergodic.power_norm_samples"),
    (ergodic, "mean_convergence_report", "ergodic.mean_convergence_report"),
    (ergodic, "ergodic_projection", "ergodic.ergodic_projection"),
    (ergodic, "gamma_quotient", "ergodic.gamma_quotient"),
    (spaces, "h1_mean_norm", "spaces.h1_mean_norm"),
    (spaces, "h1_gram", "spaces.h1_gram"),
    (spaces, "circle_abs_mean", "spaces.circle_abs_mean"),
    (spaces, "shields_report", "spaces.shields_report"),
    (spaces, "m_isometry_defect", "spaces.m_isometry_defect"),
]
_GENERATORS = [
    (spectral, "cesaro_mean_sequence", "spectral.cesaro_mean_sequence"),
]
_METHODS = [
    (means.MeanScheme, "row", "means.MeanScheme.row"),
    (linop.GramGeometry, "__init__", "linop.GramGeometry.init"),
    (linop.GramGeometry, "apply_factor", "linop.GramGeometry.apply_factor"),
    (linop.GramGeometry, "apply_factor_inverse_right",
     "linop.GramGeometry.apply_factor_inverse_right"),
]
_KERNELS = [
    (np.linalg, "svd", "kernel.svd"),
    (np.linalg, "solve", "kernel.solve"),
    (np.linalg, "eigvals", "kernel.eigvals"),
    (np.linalg, "cholesky", "kernel.cholesky"),
    (scipy.linalg, "solve_triangular", "kernel.solve_triangular"),
    (scipy.linalg, "schur", "kernel.schur"),
    (np.fft, "fft", "kernel.fft"),
]


def _svd_flops(a) -> float:
    """Golub-Van Loan count for singular values only, 4mn^2 - 4n^3/3 with
    m >= n; four times that for complex input.  Computed from the shape."""
    a = np.asarray(a)
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    return flops * (4.0 if np.iscomplexobj(a) else 1.0)


class Recorder:
    """In-memory spans plus per-name totals (calls, inclusive and self
    seconds, and the work counters named in ``counters``)."""

    def __init__(self):
        self.operation = None
        self.reset()

    def reset(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        # open spans: [index, start, time covered by children, name, parent]
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([index, time.perf_counter(), 0.0, name, parent])

    def end(self, count_call=True):
        end = time.perf_counter()
        index, start, children, name, parent = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.operation)
        if count_call:
            self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def open_span(self):
        """Name of the innermost span still open, or None."""
        return self._stack[-1][3] if self._stack else None

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,operation\n")
            for name, start, end, parent, operation in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{operation}\n")


def _wrap(recorder, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end()
        if after is not None:
            after(recorder, args, kwargs, result)
        return result
    return wrapper


def _wrap_generator(recorder, name, fn):
    """Time each ``next()`` of the generator, not the (lazy) call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def timed():
            while True:
                recorder.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    recorder.end(count_call=False)
                    return
                except BaseException:
                    recorder.end(count_call=False)
                    raise
                recorder.end()
                recorder.counters[name + ".items"] += 1
                yield item
        return timed()
    return wrapper


def _count_cells(recorder, args, kwargs, result):
    recorder.counters["linop.op_norm.cells"] += float(np.prod(np.shape(args[0])))


def _count_row_terms(recorder, args, kwargs, result):
    terms = result.indices.size
    recorder.counters["means.MeanScheme.row.terms"] += terms
    if recorder.open_span() == "means.apply_mean":
        recorder.counters["means.apply_mean.terms"] += terms


def _count_skipped(recorder, args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    recorder.counters["spectral.kreiss_functional.attempted"] += \
        len(grid.radii) * grid.angles
    recorder.counters["spectral.kreiss_functional.skipped"] += result.skipped


def _count_nodes(recorder, args, kwargs, result):
    nodes = args[1] if len(args) > 1 else kwargs["nodes"]
    recorder.counters["spaces.circle_abs_mean.nodes"] += int(nodes)


def _count_svd(recorder, args, kwargs, result):
    recorder.counters["kernel.svd.flops"] += _svd_flops(args[0])


def _count_fft(recorder, args, kwargs, result):
    recorder.counters["kernel.fft.points"] += result.shape[-1]


_AFTER = {
    "linop.op_norm": _count_cells,
    "means.MeanScheme.row": _count_row_terms,
    "spectral.kreiss_functional": _count_skipped,
    "spaces.circle_abs_mean": _count_nodes,
    "kernel.svd": _count_svd,
    "kernel.fft": _count_fft,
}


def _ergolab_modules():
    return [m for key, m in sys.modules.items()
            if m is not None and (key == "ergolab" or key.startswith("ergolab."))]


class Tracer:
    """Installs and removes the wrappers around one Recorder."""

    def __init__(self):
        self.recorder = Recorder()
        self._restore = []

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        rec = self.recorder
        wrapped = [(module, attr, _wrap(rec, name, getattr(module, attr), _AFTER.get(name)))
                   for module, attr, name in _FUNCTIONS]
        wrapped += [(module, attr, _wrap_generator(rec, name, getattr(module, attr)))
                    for module, attr, name in _GENERATORS]
        modules = _ergolab_modules()
        for module, attr, wrapper in wrapped:
            original = getattr(module, attr)
            # the defining module and every `from .x import name` rebinding
            for holder in modules:
                if getattr(holder, attr, None) is original:
                    self._patch(holder, attr, wrapper)
        for owner, attr, name in _METHODS + _KERNELS:
            original = owner.__dict__[attr]
            self._patch(owner, attr, _wrap(rec, name, original, _AFTER.get(name)))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict:
        """``{metric: (value, unit)}`` for every PER_LAYER metric, over the
        spans recorded since the last reset."""
        rec = self.recorder
        counters = rec.counters
        derived = {
            "means.apply_mean.terms_per_call":
                _ratio(counters["means.apply_mean.terms"], rec.calls["means.apply_mean"]),
            "spectral.kreiss_functional.skipped_ratio":
                _ratio(counters["spectral.kreiss_functional.skipped"],
                       counters["spectral.kreiss_functional.attempted"]),
        }
        out = {}
        for metric, unit in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric in derived:
                value = derived[metric]
            elif kind == "calls":
                value = rec.calls[base]
            elif kind == "s":
                value = rec.total_s[base]
            elif kind == "self_s":
                value = rec.self_s[base]
            else:
                value = counters[metric]
            out[metric] = (float(value), unit)
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# The traced run's per-layer metrics, per pass: ``.calls`` and the other
# counts are work done, ``.s`` inclusive busy time, ``.self_s`` busy time
# minus wrapped children.
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.write_report.s", "s"),
    ("cli.parse_operator.s", "s"),
    ("linop.op_norm.calls", "count"),
    ("linop.op_norm.s", "s"),
    ("linop.op_norm.self_s", "s"),
    ("linop.op_norm.cells", "count"),
    ("linop.as_matrix.calls", "count"),
    ("linop.as_matrix.s", "s"),
    ("linop.GramGeometry.init.calls", "count"),
    ("linop.GramGeometry.init.s", "s"),
    ("linop.GramGeometry.apply_factor.s", "s"),
    ("linop.GramGeometry.apply_factor_inverse_right.s", "s"),
    ("linop.power.calls", "count"),
    ("linop.power.s", "s"),
    ("means.MeanScheme.row.calls", "count"),
    ("means.MeanScheme.row.s", "s"),
    ("means.MeanScheme.row.terms", "count"),
    ("means.apply_mean.calls", "count"),
    ("means.apply_mean.s", "s"),
    ("means.apply_mean.self_s", "s"),
    ("means.apply_mean.terms_per_call", "count"),
    ("means.backit_identity_residual.s", "s"),
    ("means.block_mean_residual.s", "s"),
    ("spectral.resolvent_norm.calls", "count"),
    ("spectral.resolvent_norm.s", "s"),
    ("spectral.resolvent_norm.self_s", "s"),
    ("spectral.kreiss_functional.s", "s"),
    ("spectral.kreiss_functional.skipped_ratio", "ratio"),
    ("spectral.partial_sum_functional.s", "s"),
    ("spectral.partial_sum_functional.self_s", "s"),
    ("spectral.cesaro_mean_sequence.items", "count"),
    ("spectral.cesaro_mean_sequence.s", "s"),
    ("spectral.uniform_kreiss_mean_bound.s", "s"),
    ("ergodic.power_norm_sequence.s", "s"),
    ("ergodic.power_norm_sequence.self_s", "s"),
    ("ergodic.power_norm_samples.s", "s"),
    ("ergodic.power_norm_samples.self_s", "s"),
    ("ergodic.mean_convergence_report.s", "s"),
    ("ergodic.ergodic_projection.calls", "count"),
    ("ergodic.ergodic_projection.s", "s"),
    ("ergodic.gamma_quotient.s", "s"),
    ("ergodic.gamma_quotient.self_s", "s"),
    ("spaces.h1_mean_norm.calls", "count"),
    ("spaces.h1_mean_norm.s", "s"),
    ("spaces.h1_mean_norm.self_s", "s"),
    ("spaces.h1_gram.calls", "count"),
    ("spaces.h1_gram.s", "s"),
    ("spaces.circle_abs_mean.calls", "count"),
    ("spaces.circle_abs_mean.s", "s"),
    ("spaces.circle_abs_mean.nodes", "count"),
    ("spaces.shields_report.s", "s"),
    ("spaces.m_isometry_defect.s", "s"),
    ("kernel.svd.calls", "count"),
    ("kernel.svd.s", "s"),
    ("kernel.svd.flops", "flop_computed"),
    ("kernel.solve.calls", "count"),
    ("kernel.solve.s", "s"),
    ("kernel.eigvals.calls", "count"),
    ("kernel.eigvals.s", "s"),
    ("kernel.cholesky.calls", "count"),
    ("kernel.cholesky.s", "s"),
    ("kernel.solve_triangular.calls", "count"),
    ("kernel.solve_triangular.s", "s"),
    ("kernel.schur.calls", "count"),
    ("kernel.schur.s", "s"),
    ("kernel.fft.calls", "count"),
    ("kernel.fft.points", "count"),
]
