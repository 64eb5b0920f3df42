"""Benchmark of the gibbs-dnls harness on two scaled acceptance workloads.

    python3 perfbench/run.py --workload mc_tails --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  The workload's configs
are generated from --seed and go through the public harness API
(parse_config, then run and emit per config).  Passes over all configs
repeat while another pass fits in --seconds (at least two, so their
output digests can be compared).

The host's speed drifts by up to 1.8x for minutes at a time, so the
timed metrics are normalized: a fixed numpy kernel (_reference) runs
once to warm up, then before the first pass and after every pass.
norm_wall_s is REFERENCE_NOMINAL_S times the run's total pass time
over the total of the mean of the two reference times around each pass.
setup_s is REFERENCE_NOMINAL_S times the median over SETUP_PROBES fresh
interpreters over the median reference time.  The raw figures are
printed in the report as wall_s and raw setup_s.

--trace 0 reports the end-to-end metrics BENCHMARK.json lists;
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics.  Earlier stdout lines are a readable report; the last
line is the JSON result.  Every run is checked: expected verdicts,
seed-independent properties, reference values at the default seed and
byte-identical output across passes.  Exit status is 0 when every check
passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: child interpreters timed from spawn to configs validated; setup_s is
#: their median, normalized
SETUP_PROBES = 25

#: seconds the reference kernel takes on the 2-core VM the baseline was
#: measured on, in its fast state; it only sets the scale of the
#: normalized times
REFERENCE_NOMINAL_S = 0.5

#: thread pools numpy's BLAS or OpenMP could start; pinned to 1 unless set
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.setup(sys.argv[3], int(sys.argv[4])); print('ready', flush=True)")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter until it has validated the configs."""
    cmd = [sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe exited with status {proc.returncode}")
    return elapsed


def _reference() -> float:
    """Seconds one run of a fixed numpy kernel takes: Philox normals, FFT
    products and reductions on row blocks, the mix the workloads spend
    their time in.  It gauges the host's speed at the time of a pass."""
    import numpy as np
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(7))
    for _ in range(60):
        rows = gen.standard_normal((2000, 65))
        spec = np.fft.rfft(rows, n=256, axis=1)
        np.sort(np.abs(np.fft.irfft(spec * spec, n=256, axis=1)).sum(axis=1))
    return time.perf_counter() - t0


def _environment() -> dict:
    import numpy
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "os_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


def _run_pass(api, configs, out_dir: Path):
    """run + emit every config once; returns (seconds in run + emit, results).

    A result is (label, config, record, emitted paths) or, when the run
    raised, (label, config, None, error message).
    """
    wall = 0.0
    results = []
    for label, cfg in configs:
        target = out_dir / label
        shutil.rmtree(target, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            record = api.run(cfg)
            paths = api.emit(record, str(target))
        except Exception as exc:  # a raising run is a failed run, not a crash
            wall += time.perf_counter() - t0
            results.append((label, cfg, None, f"{type(exc).__name__}: {exc}"))
            continue
        wall += time.perf_counter() - t0
        results.append((label, cfg, record, paths))
    return wall, results


class _Checks:
    """Correctness of every run, across all passes of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.expected = {label: exp for label, _, exp in workloads.WORKLOADS[workload]}
        self.default_seed = seed == workloads.DEFAULT_SEED
        self.reference = (workloads.load_reference()[workload]
                          if self.default_seed else None)
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_pass(self, results) -> int:
        """Check one pass; returns the bytes it emitted, less wall_time."""
        emitted = 0
        for label, cfg, record, out in results:
            self.attempted += 1
            if record is None:
                errs = [out]
            else:
                errs = workloads.verdict_problems(record, self.expected[label],
                                                  self.default_seed)
                errs += workloads.property_problems(record, cfg)
                if self.reference is not None:
                    errs += workloads.reference_problems(workloads.summary(record),
                                                         self.reference[label])
                digest, nbytes = workloads.output_digest(out)
                if self.digests.setdefault(label, digest) != digest:
                    errs.append(f"output digest {digest} differs from the "
                                f"first pass ({self.digests[label]})")
                emitted += nbytes
            if errs:
                self.failed += 1
                self.problems += [f"{label}: {e}" for e in errs]
        return emitted


def _live_fraction(results) -> float:
    live = drawn = 0
    for _, cfg, record, _ in results:
        if record is not None and cfg.experiment == "invariance":
            live += record.payload["positive_weights"]
            drawn += record.payload["count"]
    return live / drawn if drawn else 0.0


def _sample_steps(results) -> int:
    return sum(record.payload["positive_weights"] * workloads.rk4_steps(cfg)
               for _, cfg, record, _ in results
               if record is not None and cfg.experiment == "invariance")


def _more(start: float, seconds: float, last_pass: float, done: int, least: int) -> bool:
    return done < least or time.perf_counter() - start + last_pass <= seconds


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "gibbs_dnls" / "__init__.py").is_file():
        print(f"package source not found: {SRC / 'gibbs_dnls'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    if not args.trace:
        raw_setup_s = statistics.median(_probe_setup(args.workload, args.seed)
                                        for _ in range(SETUP_PROBES))

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import gibbs_dnls
    if Path(gibbs_dnls.__file__).resolve().parent != (SRC / "gibbs_dnls").resolve():
        print(f"imported gibbs_dnls from {gibbs_dnls.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer

    tr = tracer.Tracer()
    if args.trace:
        tr.install()
    configs = workloads.setup(args.workload, args.seed)
    tr.uninstall()
    setup_spans = tr.spans()
    parse_s = setup_spans.total(setup_spans.named("harness.parse_config"))

    checks = _Checks(args.workload, args.seed)
    shutil.rmtree(OUT, ignore_errors=True)
    out_dir = OUT / args.workload
    walls, traced_walls, layers, subtracted, refs = [], [], [], [], []
    emitted = 0
    try:
        if not args.trace:
            _reference()    # the first call pays for allocation and FFT set-up
            refs.append(_reference())
        start = time.perf_counter()
        while _more(start, args.seconds,
                    sum(x[-1] for x in (walls, traced_walls, refs) if x),
                    len(walls), 1 if args.trace else 2):
            wall, results = _run_pass(gibbs_dnls, configs, out_dir)
            walls.append(wall)
            emitted = checks.add_pass(results)
            if not args.trace:
                refs.append(_reference())
            else:
                tr.reset()
                with tr:
                    wall, results = _run_pass(gibbs_dnls, configs, out_dir)
                traced_walls.append(wall)
                # spans are net of tracing cost, so shares are over the
                # traced pass less that cost
                spans = tr.spans()
                subtracted.append(float(spans.overhead[spans.parent < 0].sum()))
                m = tracer.layer_metrics(spans, tr.coeffs_built,
                                         wall - subtracted[-1])
                m["harness.emit_bytes"] = checks.add_pass(results)
                m["flow.live_fraction"] = _live_fraction(results)
                layers.append(m)
        env = _environment()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    wall_s = statistics.median(walls)
    rows = sum(workloads.rows_drawn(cfg) for _, cfg in configs)
    if args.trace:
        # counts repeat exactly across passes; keep them whole numbers
        metrics = {k: (statistics.median_low if isinstance(v, int) else
                       statistics.median)([m[k] for m in layers])
                   for k, v in layers[0].items()}
        metrics["harness.parse_s"] = parse_s
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        wanted = spec["per_layer"]
    else:
        norm_wall_s = REFERENCE_NOMINAL_S * sum(walls) / sum(
            (a + b) / 2 for a, b in zip(refs, refs[1:]))
        metrics = {
            "setup_s": REFERENCE_NOMINAL_S * raw_setup_s / statistics.median(refs),
            "norm_wall_s": norm_wall_s,
            "norm_rows_per_s": rows / norm_wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls) + len(traced_walls)} passes, {rows} rows per pass, "
          f"{emitted} bytes emitted per pass")
    print("pass walls s: " + " ".join(f"{w:.3f}" for w in walls)
          + "".join(f" traced {w:.3f}" for w in traced_walls))
    if refs:
        print("reference s: " + " ".join(f"{r:.3f}" for r in refs))
    for label, digest in sorted(checks.digests.items()):
        print(f"digest {label} {digest}")
    if args.trace:
        print(f"tracing cost {1e9 * tr.span_cost:.0f} ns per span, "
              f"{1e9 * tr.init_cost:.0f} ns per counted construction: "
              f"{statistics.median(subtracted):.3f} s taken out of each traced pass")
    for entry in wanted:
        print(f"{entry['name']} {metrics[entry['name']]!r} {entry['unit']}")
    if not args.trace:
        print(f"raw_setup_s {raw_setup_s!r} s (not normalized)")
        print(f"wall_s {wall_s!r} s (raw, not normalized)")
        print(f"rows_per_s {rows / wall_s!r} 1/s (raw)")
        steps = _sample_steps(results)
        if steps:
            print(f"sample_steps_per_s {steps / wall_s!r} 1/s (raw); "
                  f"{steps / metrics['norm_wall_s']!r} 1/s (normalized)")
    print(f"failed_ratio {checks.failed / checks.attempted!r} ratio "
          f"({checks.failed} of {checks.attempted} runs)")
    for problem in checks.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
