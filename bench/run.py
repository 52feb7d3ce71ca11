#!/usr/bin/env python3
"""Benchmark of the ergolab command line, run from the repository root:

    python3 bench/run.py --workload resolvent_grid --seed 24301 --seconds 20 --trace 0

Workloads are defined in ``bench/workloads.py``.  One process, one client,
closed loop: every operation is an in-process ``ergolab.cli.main(argv)`` call
on generated config files, each started after the previous one returns.
BLAS runs on one thread.  The run

1. times ``SETUP_REPEATS`` fresh interpreters from start until ``ergolab``
   is imported and the workload's input files are written (``setup_s``);
2. runs one warm-up pass, then the known-defect error-path operations once;
3. repeats passes until ``--seconds`` of pass time is measured.

Reported times are the program's own wall and CPU seconds.  ``SpeedProbe``
only chooses which samples count: samples taken while the machine ran at
its transient fast level are dropped (see ``prevailing_cut`` and
``bench/README.md``); no time is rescaled.

With ``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics of the traced passes (see ``bench/tracer.py``).

Every operation goes through a correctness gate: no exception escapes
``cli.main``, the exit code is the expected one, the report holds only
finite numbers, is byte-identical to the operation's first report in the run
and, for inputs that do not depend on the seed (all inputs at the default
seed), every scalar matches ``bench/reference.json`` within
1e-9 * max(1, |ref|).  The last line of standard output is the result
object; lines before it give every metric with its unit, the sample counts
and the environment.  ``--write-reference`` regenerates the reference file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported, here and in children

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 9
MIN_PASSES = 3
REL_TOL = 1e-9
# A sample is kept when its probe reading is at least this share of the
# run's 90th-percentile reading, i.e. taken at the machine's prevailing
# (slower) level rather than during a fast burst.
PREVAILING_SHARE = 0.85
# The traced run fails when the layer a workload is built to load takes less
# than this share of the traced busy time (measured shares: 0.67 to 0.99).
DOMINANT_FLOOR = 0.5


def import_ergolab():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    package = SRC / "ergolab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no ergolab package at {package}")
    sys.path.insert(0, str(SRC))
    import ergolab
    if Path(ergolab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: ergolab imported from {ergolab.__file__}, "
                         f"not from {package}")
    return ergolab


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _leaves(obj, prefix=""):
    """(path, scalar) for every scalar under a parsed JSON value."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def report_scalars(report: dict) -> dict:
    """The scalars a reference pins: the report's values and checks."""
    return dict(_leaves({"values": report["values"], "checks": report["checks"]}))


def _parse_report(data: bytes):
    """Parsed report and whether it holds NaN or +-Infinity."""
    nonfinite = []
    report = json.loads(data, parse_constant=nonfinite.append)
    return report, bool(nonfinite)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare(scalars: dict, reference: dict):
    if scalars.keys() != reference.keys():
        missing = sorted(reference.keys() - scalars.keys())[:3]
        extra = sorted(scalars.keys() - reference.keys())[:3]
        return f"report fields differ from reference (missing {missing}, extra {extra})"
    for path, ref in reference.items():
        value = scalars[path]
        if _is_number(ref) and _is_number(value):
            if abs(value - ref) > REL_TOL * max(1.0, abs(ref)):
                return f"{path} = {value!r}, reference {ref!r}"
        elif value != ref:
            return f"{path} = {value!r}, reference {ref!r}"
    return None


class Gate:
    """Per-operation checks; the first report of each operation in the run is
    the one later passes must reproduce byte for byte."""

    def __init__(self, references: dict, use_seeded_references: bool):
        self.references = references
        self.use_seeded_references = use_seeded_references
        self.first = {}
        self.failures = []          # (pass label, operation, reason)

    def check(self, label, op, code, error, report_path) -> bool:
        reason = self._reason(op, code, error, report_path)
        if reason is not None:
            self.failures.append((label, op.name, reason))
        return reason is None

    def _reason(self, op, code, error, report_path):
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        if code not in op.expect_exit:
            return f"exit code {code}, expected one of {list(op.expect_exit)}"
        if not report_path.exists():
            return None if op.error_path else "no report written"
        data = report_path.read_bytes()
        if op.name in self.first:
            return None if data == self.first[op.name] else "report bytes differ from first pass"
        self.first[op.name] = data
        report, nonfinite = _parse_report(data)
        if nonfinite:
            return "report holds a non-finite number"
        if op.error_path or (op.seeded and not self.use_seeded_references):
            return None
        if op.name not in self.references:
            return "no reference values for this operation"
        return _compare(report_scalars(report), self.references[op.name])


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Reads the machine's momentary speed between operations.

    The machine this benchmark was written on runs most of the time at one
    level and in bursts up to 1.5x faster (shared cores); process CPU time
    changes with it.  The probe times a fixed 0.3 ms numpy kernel (small
    complex products, which are interpreter-bound like the mean and power
    loops, and a small complex SVD) ``AROUND`` times before and after each
    operation.  The median of those readings is the sample's level, which
    ``prevailing_cut`` uses to keep or drop the sample.  Measured times
    are never rescaled by it.
    """

    AROUND = 4

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._mid = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._svd = np.linalg.svd       # bound before any tracing wrapper

    def _kernel(self):
        for _ in range(40):
            self._small @ self._small
        self._svd(self._mid, compute_uv=False)

    def kernel(self) -> float:
        """Time the kernel once, after an untimed run that brings its code
        and data back into cache, so the reading shows machine speed rather
        than what the previous operation evicted."""
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def around(self) -> list:
        return [self.kernel() for _ in range(self.AROUND)]


def prevailing_cut(samples):
    """Lowest probe level of a sample taken at the machine's prevailing
    level: PREVAILING_SHARE of the 90th percentile of the samples' levels.
    Samples below it were taken during a fast burst and are dropped."""
    levels = [s["level"] for s in samples]
    return PREVAILING_SHARE * statistics.quantiles(levels, n=10)[-1]


def prevailing(samples, cut):
    """The samples at or above ``cut``; when there are none, the one sample
    with the highest level, the nearest to the prevailing level."""
    kept = [s for s in samples if s["level"] >= cut]
    return kept or [max(samples, key=lambda s: s["level"])]


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs a workload's operations through ``cli.main``, times them and
    passes every result through the gate."""

    def __init__(self, runs, gate, probe, tracer=None):
        from ergolab import cli
        self.cli = cli
        self.runs = runs
        self.gate = gate
        self.probe = probe
        self.tracer = tracer
        self.calls = 0
        self.failed = 0
        self.op_samples = []

    def call(self, label, op, argv, report_path, sink):
        """One operation; returns its sample: wall and CPU seconds (this
        process plus waited-for children) and the probe level around it."""
        with contextlib.suppress(FileNotFoundError):
            report_path.unlink()
        if self.tracer is not None:
            self.tracer.recorder.operation = op.name
        code = error = None
        before = self.probe.around()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            wall0, cpu0 = time.perf_counter(), time.process_time() + children_cpu()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:      # argparse exits; no traceback
                code = exc.code
            except Exception as exc:       # an escaped exception fails the gate
                error = exc
            wall = time.perf_counter() - wall0
            cpu = time.process_time() + children_cpu() - cpu0
        level = statistics.median(before + self.probe.around())
        sample = {"pass": label, "op": op.name, "wall": wall, "cpu": cpu, "level": level}
        self.op_samples.append(sample)
        ok = self.gate.check(label, op, code, error, report_path)
        if not op.error_path:
            self.calls += 1
            self.failed += not ok
        return sample

    def run_pass(self, label, error_path=False):
        """Every operation of one kind once; returns the pass's samples."""
        gc.collect()
        with open(os.devnull, "w") as sink:
            return [self.call(label, op, argv, report_path, sink)
                    for op, argv, report_path in self.runs if op.error_path == error_path]


def measure_passes(runner, tracer, seconds):
    """Untraced passes (alternating with traced ones when tracing) until
    ``seconds`` of pass time is measured or the next pass would overrun it."""
    untraced, traced, layer_samples, called = [], [], [], set()
    # untraced/traced: one list of operation samples per pass
    measured = last = 0.0
    while True:
        if tracer is None:
            done = len(untraced) >= MIN_PASSES
        else:
            done = min(len(untraced), len(traced)) >= 2
        if done and measured + last > seconds:
            break
        label = f"pass {len(untraced) + len(traced) + 1}"
        if tracer is not None and len(traced) < len(untraced):
            tracer.recorder.reset()
            tracer.install()
            try:
                samples = runner.run_pass(label)
            finally:
                tracer.uninstall()
            traced.append(samples)
            layer_samples.append(tracer.pass_metrics())
            called.update(name for name, n in tracer.recorder.calls.items() if n)
        else:
            samples = runner.run_pass(label)
            untraced.append(samples)
        last = sum(s["wall"] for s in samples)
        measured += last
    return untraced, traced, layer_samples, called


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload, seed, work_dir, probe):
    """Wall seconds from spawning a fresh interpreter until it has imported
    ergolab and written the workload's inputs, SETUP_REPEATS times, each with
    the probe level read just before and after."""
    samples = []
    for k in range(SETUP_REPEATS):
        before = probe.around()
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
               str(work_dir / f"setup{k}"), "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"bench: set-up process failed (exit {proc.returncode})")
        samples.append({"wall": elapsed,
                        "level": statistics.median(before + probe.around())})
    return samples


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as
    (percent, value), or None when there are fewer than 11 samples."""
    beyond = 10
    if len(samples) <= beyond:
        return None
    rank = len(samples) - beyond       # samples at or below the percentile
    return 100.0 * rank / len(samples), sorted(samples)[rank - 1]


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "thread_pin": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_pass(passes, key):
    """Median over passes of the pass total of ``key``."""
    return statistics.median(sum(s[key] for s in samples) for samples in passes)


def prevailing_pass(passes, cut):
    """One pass at the machine's prevailing level: the sum over operations
    of the median wall and CPU seconds of the operation's samples at or
    above ``cut``.  Returns (wall, cpu, samples used, operations none of
    whose samples reached the cut)."""
    by_op = {}
    for samples in passes:
        for s in samples:
            by_op.setdefault(s["op"], []).append(s)
    wall = cpu = 0.0
    used, fallback = 0, []
    for name, samples in by_op.items():
        chosen = prevailing(samples, cut)
        used += len(chosen)
        if chosen[0]["level"] < cut:
            fallback.append(name)
        wall += statistics.median(s["wall"] for s in chosen)
        cpu += statistics.median(s["cpu"] for s in chosen)
    return wall, cpu, used, fallback


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def setup_only(args):
    import_ergolab()
    import workloads
    workloads.write_inputs(args.workload, args.seed, Path(args.setup_only))
    print("ready", flush=True)


def write_reference(args):
    import_ergolab()
    import workloads
    from ergolab import cli
    references = {}
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR))
    try:
        for name in workloads.WORKLOADS:
            runs = workloads.write_inputs(name, workloads.DEFAULT_SEED, work_dir / name)
            for op, argv, report_path in runs:
                if op.error_path:
                    continue
                code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"bench: {name}/{op.name} exited {code}")
                report, nonfinite = _parse_report(report_path.read_bytes())
                if nonfinite:
                    raise SystemExit(f"bench: {name}/{op.name} report is not finite")
                references[op.name] = report_scalars(report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "rel_tol": REL_TOL,
                                     "operations": references},
                                    sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE} ({len(references)} operations)")


def benchmark(args):
    import_ergolab()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    reference = json.loads(REFERENCE.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return _benchmark(args, workloads, reference, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _benchmark(args, workloads, reference, work_dir):
    probe = SpeedProbe()
    setup = measure_setup(args.workload, args.seed, work_dir, probe)
    runs = workloads.write_inputs(args.workload, args.seed, work_dir / "inputs")
    gate = Gate(reference["operations"],
                use_seeded_references=args.seed == reference["seed"])
    tracer = None
    if args.trace:
        import tracer as tracer_module
        tracer = tracer_module.Tracer()
    runner = Runner(runs, gate, probe, tracer)
    runner.run_pass("warm-up")
    runner.run_pass("error-path", error_path=True)
    untraced, traced, layer_samples, called = measure_passes(runner, tracer, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cut = prevailing_cut([s for samples in untraced + traced for s in samples] + setup)
    pass_wall, pass_cpu, used, fallback = prevailing_pass(untraced, cut)
    setup_kept = prevailing(setup, cut)
    end_to_end = {
        "pass_s": _metric(pass_wall, "s"),
        "cpu_s": _metric(pass_cpu, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(statistics.median(s["wall"] for s in setup_kept), "s"),
    }
    failed_ops = sorted({name for _, name, _ in gate.failures})
    failed_ratio = len(failed_ops) / len(runs)
    env = environment(args.seed)
    timed = sum(not op.error_path for op, _, _ in runs)
    lines = [f"workload {args.workload}: {timed} timed operations per pass, "
             f"{len(runs) - timed} error-path operations run once; "
             "closed loop, 1 client, 1 process",
             f"environment {json.dumps(env, sort_keys=True)}"]
    lines += [f"{name} {metric['value']:.6g} {metric['unit']}"
              for name, metric in end_to_end.items()]
    tail = tail_percentile([sum(s["wall"] for s in samples) for samples in untraced])
    levels = [s["level"] for samples in untraced for s in samples]
    lines += [
        f"pass_s samples {len(untraced)} passes, {used} of {len(levels)} operation "
        f"samples used; " + (
            f"p{tail[0]:.1f} of all passes {tail[1]:.6g} s" if tail else
            "no percentile has 10 samples beyond it at this sample count"),
        f"operations with no sample at the prevailing level (their highest-level "
        f"sample is used): {', '.join(fallback) or '-'}",
        f"setup_s samples {len(setup_kept)} of {len(setup)} used",
        f"medians over all passes: {per_pass(untraced, 'wall'):.6g} s wall, "
        f"{per_pass(untraced, 'cpu'):.6g} s cpu; "
        f"setup {statistics.median(s['wall'] for s in setup):.6g} s wall",
        f"speed probe level: cut {cut * 1e3:.4g} ms, median {statistics.median(levels) * 1e3:.4g} ms, "
        f"min {min(levels) * 1e3:.4g} ms, max {max(levels) * 1e3:.4g} ms",
        f"failed_ratio {failed_ratio:.6g} ratio ({len(failed_ops)} of {len(runs)} "
        f"operations: {', '.join(failed_ops) or '-'})",
    ]
    lines.extend(f"  {label}: {name}: {reason}" for label, name, reason in gate.failures[:20])

    correct = runner.failed == 0
    result_metrics = end_to_end
    if tracer is not None:
        layer = {name: _metric(statistics.median(s[name][0] for s in layer_samples), unit)
                 for name, (_, unit) in layer_samples[0].items()}
        overhead = prevailing_pass(traced, cut)[0] / pass_wall - 1.0
        layer["trace.overhead_ratio"] = _metric(overhead, "ratio")
        result_metrics = layer
        silent = [name for name, where in workloads.REQUIRED_CALLS.items()
                  if args.workload in where and name not in called]
        if silent:
            correct = False
            lines.append(f"wrappers with zero calls on {args.workload}: {', '.join(silent)}")
        dominant = workloads.DOMINANT_LAYER[args.workload]
        share = (sum(layer[f"{name}.s"]["value"] for name in dominant)
                 / layer["cli.main.s"]["value"])
        if share < DOMINANT_FLOOR:
            correct = False
            lines.append(f"dominant layer below {DOMINANT_FLOOR} of cli.main.s")
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.recorder.write_spans(spans_path)
        lines += [f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
                  f"trace.overhead_ratio {overhead:.6g} ratio",
                  f"dominant layer {'+'.join(dominant)}: {share:.3f} of cli.main.s",
                  "kernel counts cover the numpy.linalg/scipy.linalg/numpy.fft calls the "
                  "package makes; matrix products (@) are not counted from outside",
                  f"spans of the last traced pass: {spans_path.relative_to(ROOT)}"]

    result = {"correct": correct, "attempted": runner.calls, "failed": runner.failed,
              "metrics": result_metrics}
    record = dict(result, workload=args.workload, trace=args.trace, environment=env,
                  end_to_end=end_to_end, failed_ratio=failed_ratio,
                  failures=gate.failures, setup_samples=setup, prevailing_cut=cut,
                  passes=untraced, traced_passes=traced, op_samples=runner.op_samples)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=24301)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference.json at the default seed")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
