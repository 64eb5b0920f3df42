"""Chaos moments, the quartic decomposition, rates, tails, kernel sums."""

import contextlib
import decimal
import math
import os
import pickle
import re
import select
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import gibbs_dnls.chaos as chaos
import gibbs_dnls.sampling as sampling
from gibbs_dnls.chaos import (
    RateFit,
    TailFit,
    cauchy_rate,
    chaos_ratio,
    erfc_fit_r2,
    f_decompose,
    kernel_tail_sum,
    random_coeff_table,
    tail_survival,
    y3_sum,
)
from gibbs_dnls.flow import invariance_experiment
from gibbs_dnls.observables import (
    batch_f_quartic,
    batch_l4_norm,
    batch_mass,
    batch_re_coeff,
    batch_X,
)
from gibbs_dnls.sampling import (
    RESERVED_STREAM,
    SeedSpec,
    _raw_uniforms,
    phi_block,
    sample_phi,
)
from gibbs_dnls.functionals import f_quartic


# --- chaos moment ratios ---------------------------------------------------

def test_chaos_ratio_validation():
    with pytest.raises(ValueError):
        chaos_ratio(0, 4, {(1,): 1.0}, 4, 100, 1)
    with pytest.raises(ValueError):
        chaos_ratio(1, 4, {}, 4, 100, 1)
    with pytest.raises(ValueError):
        chaos_ratio(1, 4, {(1,): 1.0}, 1.5, 100, 1)
    with pytest.raises(ValueError):
        chaos_ratio(2, 4, {(1,): 1.0}, 4, 100, 1)       # wrong length
    with pytest.raises(ValueError):
        chaos_ratio(1, 4, {(5,): 1.0}, 4, 100, 1)       # out of range
    with pytest.raises(ValueError):
        chaos_ratio(2, 4, {(3, 1): 1.0}, 4, 100, 1)     # not sorted


def test_chaos_ratio_refuses_a_non_finite_p():
    # nan gave (nan, nan), and inf a bound of inf that any ratio is below
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^p must be finite and at "
                                             f"least 2, got {p}$"):
            chaos_ratio(1, 4, {(1,): 1.0}, p, 100, 1)


def test_chaos_ratio_refuses_a_corrupt_table():
    # a nan coefficient gave (nan, 2.449...), and a table of zeros raised
    # ZeroDivisionError
    for bad in (math.nan, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match=r"^coefficient .+ of \(2,\) "
                                             r"is not finite$"):
            chaos_ratio(1, 2, {(1,): 1.0, (2,): bad}, 4.0, 100, 1)
    with pytest.raises(ValueError, match="^every coefficient is zero"):
        chaos_ratio(1, 2, {(1,): 0.0, (2,): 0j}, 4.0, 100, 1)
    # scales 1e-300 and 1e-170 raised ZeroDivisionError, 1e160 and 1e200
    # gave (nan, 2.449...) with overflow warnings, and 1e-80, where the
    # L^4 moment is subnormal, gave 1.17926 for the 1.17927 of scale 1;
    # the message names the moment that left the normal float range and
    # the table's scale
    cases = [(4.0, 1e-300, "0.0"), (4.0, 1e-170, "0.0"),
             (4.0, 1e160, "inf"), (4.0, 1e200, "inf"), (6.0, 1e-60, "0.0"),
             (4.0, 1e-80, r"[0-9.]+e-3[0-2][0-9]")]
    for p, c, moment in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    rf"^the L\^{p:g} moment of S is {moment} in floating "
                    rf"point at table scale {re.escape(f'{c:.3g}')} "
                    rf"\(largest")):
                chaos_ratio(1, 2, {(1,): c, (2,): 0.5j * c}, p, 100, 1)


def _ratio_stats(k, d, table, p, seeds, count=50000):
    vals = [chaos_ratio(k, d, table, p, count, s)[0] for s in seeds]
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(len(vals)))


def test_chaos_spot_single_gaussian():
    # S = g_1, p = 4: exact ratio (E|g|^4)^{1/4} = 2^{1/4}
    mean, se = _ratio_stats(1, 4, {(1,): 1.0}, 4.0, range(10))
    assert abs(mean - 2.0 ** 0.25) <= 3.0 * se


def test_chaos_spot_squared_gaussian():
    # S = g_1^2, p = 4: E|S|^4 = E|g|^8 = 24, E|S|^2 = E|g|^4 = 2
    # ratio 24^{1/4} / 2^{1/2} = 6^{1/4}
    mean, se = _ratio_stats(2, 4, {(1, 1): 1.0}, 4.0, range(10))
    assert abs(mean - 6.0 ** 0.25) <= 3.0 * se


def test_chaos_spot_product_pair():
    # S = g_1 g_2, p = 4: E|S|^4 = 2*2 = 4, E|S|^2 = 1, ratio = sqrt(2)
    mean, se = _ratio_stats(2, 4, {(1, 2): 1.0}, 4.0, range(10))
    assert abs(mean - np.sqrt(2.0)) <= 3.0 * se


def test_chaos_bound_value():
    _, bound = chaos_ratio(3, 4, {(1, 2, 3): 1.0}, 6.0, 100, 0)
    assert bound == pytest.approx(np.sqrt(4.0) * 5.0 ** 1.5)


def test_random_coeff_table():
    t1 = random_coeff_table(2, 8, 77)
    t2 = random_coeff_table(2, 8, 77)
    assert t1 == t2
    assert 1 <= len(t1) <= chaos._TABLE_TERMS == 8
    for idx in t1:
        assert len(idx) == 2
        assert all(1 <= m <= 8 for m in idx)
        assert idx[0] <= idx[1]
    assert random_coeff_table(2, 8, 78) != t1
    with pytest.raises(ValueError):
        random_coeff_table(0, 8, 1)


# --- quartic decomposition -------------------------------------------------

def test_f_decompose_reconstruction():
    # two independent computations of the same integral, 50 draws
    worst = 0.0
    for s in range(50):
        S1, S2, X, Y1, Y2 = f_decompose(12, s)
        f = f_quartic(sample_phi(12, SeedSpec(s, 0)), 12)
        worst = max(worst, abs((S1 + S2).imag - f) / max(abs(f), 1e-12))
        assert abs((S1 + S2).real) <= 1e-12 * max(1.0, abs(f))
    assert worst <= 1e-9


def test_f_decompose_chaos_split():
    for s in range(10):
        S1, S2, X, Y1, Y2 = f_decompose(8, s)
        Y3 = y3_sum(8)
        assert abs(S1 - (X + Y1 + Y2 + Y3)) <= 1e-12 * max(1.0, abs(S1))


def test_f_decompose_degenerate_band():
    # a single mode admits no off-multiset quadruples
    S1, S2, X, Y1, Y2 = f_decompose(0, 3)
    assert S2 == 0


def test_y3_exact_zero():
    for N in (1, 4, 16, 32):
        assert y3_sum(N) == 0j


def test_micro_second_moment():
    # band-1 fields: E[f^2] = 42 by direct moment expansion of the
    # quartic sum (complex Gaussian moments E|g|^{2m} = m!)
    count = 300000
    rows = phi_block(4242, 0, count, 1)
    f = batch_f_quartic(rows)
    f2 = f * f
    se = np.std(f2) / np.sqrt(count)
    assert abs(np.mean(f2) - 42.0) <= 4.0 * se


# --- Cauchy rates ----------------------------------------------------------

def test_cauchy_rate_validation():
    with pytest.raises(ValueError):
        cauchy_rate([8], 200, 1)
    with pytest.raises(ValueError):
        cauchy_rate([8, 8], 200, 1)
    with pytest.raises(ValueError):
        cauchy_rate([8, 16], 50, 1)
    with pytest.raises(ValueError):
        cauchy_rate([8, 16], 200, 1, mode="bogus")


def test_cauchy_rate_fit_shape():
    fit = cauchy_rate([4, 8], 200, 5, mode="X_only")
    assert fit.bands == (4, 8)
    assert all(v > 0 for v in fit.values)
    assert fit.ci_low <= fit.slope <= fit.ci_high
    d = fit.to_json_dict()
    assert d["slope"] == fit.slope
    assert fit.to_csv().startswith("band,value\n")


def test_cauchy_rate_matches_index_bootstrap():
    # the fit rebuilt with a resample index matrix: each resample gathers
    # its squared differences by index and gets its own polyfit
    bands, count, seed = [2, 4, 8], 300, 5
    resamples = sampling._BOOTSTRAP_RESAMPLES
    fit = cauchy_rate(bands, count, seed)
    sq_diffs = []
    for j, N in enumerate(bands):
        rows = phi_block(seed, j * count, count, 2 * N)
        d = batch_f_quartic(rows) - batch_f_quartic(rows[:, N: 3 * N + 1])
        sq_diffs.append(d * d)
    values = [float(np.sqrt(np.mean(d2))) for d2 in sq_diffs]
    logb = np.log(np.asarray(bands, dtype=np.float64))
    u = _raw_uniforms(SeedSpec(seed, RESERVED_STREAM), resamples * count)
    idx = np.minimum((u * count).astype(np.int64), count - 1)
    slopes = []
    for r in idx.reshape(resamples, count):
        vals_r = [np.sqrt(np.mean(d2[r])) for d2 in sq_diffs]
        slopes.append(np.polyfit(logb, np.log(vals_r), 1)[0])
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    assert fit.values == tuple(values)
    assert fit.slope == float(np.polyfit(logb, np.log(values), 1)[0])
    assert fit.ci_low == pytest.approx(lo, rel=1e-12)
    assert fit.ci_high == pytest.approx(hi, rel=1e-12)


def test_x_difference_second_moment_closed_form():
    # E (X_2N - X_N)^2 = 160 sum_{n=N+1}^{2N} n^2/(n^2+1)^4, from the
    # independence of |g_n|^2 across modes and Var|g|^4 = 20
    N = 8
    n = np.arange(N + 1, 2 * N + 1, dtype=np.float64)
    want = 160.0 * np.sum(n * n / (n * n + 1.0) ** 4)
    count = 40000
    rows = phi_block(909, 0, count, 2 * N)
    d = batch_X(rows) - batch_X(rows[:, N: 3 * N + 1])
    d2 = d * d
    se = np.std(d2) / np.sqrt(count)
    assert abs(np.mean(d2) - want) <= 4.0 * se


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        RateFit((8, 4), (1.0, 1.0), -1.0, -1.5, -0.5)
    with pytest.raises(ValueError):
        RateFit((4, 8), (1.0, -1.0), -1.0, -1.5, -0.5)


# --- tail fits -------------------------------------------------------------

def test_tail_erfc_control():
    # |Re c_0| is N(0, 1/2): P(|Re c_0| > lam) = erfc(lam) exactly
    import math
    lambdas = [0.5, 0.75, 1.0, 1.25, 1.5]
    fit = tail_survival(lambda rows: np.abs(batch_re_coeff(rows, 0)),
                        0, lambdas, 100000, 161)
    assert fit.theta == 2.0
    assert fit.rate > 0
    assert fit.r_squared >= 0.95
    for lam, s, c in zip(fit.lambdas, fit.survival, fit.counts):
        if c >= 50:
            p = math.erfc(lam)
            assert abs(s - p) <= 5.0 * np.sqrt(p * (1 - p) / fit.total)


def test_tail_survival_monotone_and_serialized():
    fit = tail_survival(batch_mass, 4, [1.0, 1.5, 2.0, 2.5], 20000, 19)
    assert all(b <= a for a, b in zip(fit.survival, fit.survival[1:]))
    csv = fit.to_csv()
    assert csv.startswith("lambda,count,survival\n")
    assert csv.endswith("\n")
    d = fit.to_json_dict()
    assert d["total"] == 20000


@pytest.mark.parametrize("band, kappa, count, lambdas", [
    (4, 0.8, 100000, [0.6, 0.7, 0.8, 0.9]),     # the screen drops most rows
    (16, 2.0, 20000, [1.6, 1.8, 2.0, 2.2]),     # its 3/4 rule fires
])
def test_screened_conditional_tail_equals_the_unscreened_one(
        monkeypatch, band, kappa, count, lambdas):
    fit = tail_survival(batch_l4_norm, band, lambdas, count, 23, kappa=kappa)
    # the rows in the ball, from the whole unscreened draw
    rows = phi_block(23, 0, count, band)
    vals = batch_l4_norm(rows[batch_mass(rows) <= kappa])
    assert fit.total == len(vals) < count
    assert fit.counts == tuple(int(np.count_nonzero(vals > lam))
                               for lam in lambdas)
    # the same fit with every block drawn whole by phi_block
    monkeypatch.setattr(chaos, "phi_block_in_ball",
                        lambda seed, lo, rows, band, radius: (
                            np.arange(rows), phi_block(seed, lo, rows, band)))
    assert tail_survival(batch_l4_norm, band, lambdas, count, 23,
                         kappa=kappa) == fit


_PARTITION_LAMBDAS = [0.6, 0.8, 1.0, 1.2]
#: a band whose blocks of 16 rows or more draw through numpy's Philox
#: re-keyed per stream (sampling._ENGINE_MIN_COUNTERS), width 33
_WIDE_BAND = 16


def _partition_results():
    return (
        tail_survival(batch_l4_norm, 4, _PARTITION_LAMBDAS, 5000, 19),
        tail_survival(batch_l4_norm, 4, _PARTITION_LAMBDAS, 5000, 19,
                      kappa=1.5),
        tail_survival(batch_l4_norm, _WIDE_BAND, [1.5, 2.0, 2.5, 3.0], 600,
                      19),
        cauchy_rate([2, 4], 1000, 5),
    )


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_block_partition_does_not_change_results(monkeypatch, cpus):
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 1)
    serial = _partition_results()
    # at the default budget each tail is one block and each cauchy band
    # one span; 37 rows per block at width 9 and 19 at width 17 make
    # every loop end on a remainder block (5000 = 135*37 + 5,
    # 1000 = 27*37 + 1 and 52*19 + 12); 3 rows at width 9 and 1 at
    # width 17 give 1667 tail blocks and 334 + 1000 cauchy spans, more
    # than the queue has slots, so its entries are runs of 2 spans and
    # the last run is short; `cpus` processes pull them from the queue
    monkeypatch.setattr(chaos, "_cpu_count", lambda: cpus)
    assert _partition_results() == serial
    # 17 rows per block at width 33 put the wide tail's engine in the
    # workers (600 = 35*17 + 5)
    assert sampling._ENGINE_MIN_COUNTERS <= _WIDE_BAND + 1
    assert sampling._BLOCK_MIN_ROWS <= 17
    monkeypatch.setattr(chaos, "_BLOCK_COEFFS", 33 * 17)
    assert _partition_results() == serial
    monkeypatch.setattr(chaos, "_BLOCK_COEFFS", 9 * 37)
    assert _partition_results() == serial
    monkeypatch.setattr(chaos, "_BLOCK_COEFFS", 9 * 3)
    assert len(list(chaos._blocks(5000, 9))) == 1667 > chaos._QUEUE_SLOTS
    assert len(list(chaos._blocks(1000, 9))) + len(
        list(chaos._blocks(1000, 17))) == 1334 > chaos._QUEUE_SLOTS
    assert _partition_results() == serial
    _no_child_left()


def test_workers_are_at_most_one_per_span(monkeypatch):
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 3)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    # no span or one span (a one-block tail run) forks nothing, two spans
    # fork one
    assert chaos._map_blocks(lambda span: span * span, []) == []
    assert chaos._map_blocks(lambda span: span * span, [7]) == [49]
    assert forks == []
    assert chaos._map_blocks(lambda span: span * span, [7, 8]) == [49, 64]
    assert forks == [1]
    _no_child_left()


@contextlib.contextmanager
def _a_worker_takes_a_span():
    """wrap(fn) is fn, except that this process's first call waits (up
    to 10 s) until a worker has begun a span: however fast this process
    could drain the queue alone, a worker then takes one."""
    parent = os.getpid()
    began, tell = os.pipe()
    waited = []

    def wrap(fn):
        def wrapped(span):
            if os.getpid() != parent:
                os.write(tell, b"w")
            elif not waited:
                waited.append(select.select([began], [], [], 10))
            return fn(span)
        return wrapped

    try:
        yield wrap
    finally:
        os.close(began)
        os.close(tell)


def test_block_workers_raise_in_the_caller_and_leave_no_child(monkeypatch):
    monkeypatch.setattr(chaos, "_BLOCK_COEFFS", 9 * 37)
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 2)
    parent = os.getpid()

    def fails_in_a_worker(rows):
        if os.getpid() != parent:
            raise ValueError("observable failed in a worker")
        return batch_l4_norm(rows)

    with pytest.raises(ValueError, match="^observable failed in a worker$"):
        with _a_worker_takes_a_span() as wrap:
            tail_survival(wrap(fails_in_a_worker), 4, _PARTITION_LAMBDAS,
                          5000, 19)
    _no_child_left()

    def fails_here(rows):
        if os.getpid() == parent:
            raise ValueError("observable failed here")
        time.sleep(30)  # unless it is killed, the call waits for this

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^observable failed here$"):
        tail_survival(fails_here, 4, _PARTITION_LAMBDAS, 5000, 19)
    assert time.perf_counter() - t0 < 10
    _no_child_left()

    def dies(span):
        if os.getpid() != parent:
            os._exit(3)
        return span

    with pytest.raises(RuntimeError, match="without a result"):
        with _a_worker_takes_a_span() as wrap:
            chaos._map_blocks(wrap(dies), range(4))
    _no_child_left()

    # without os.fork every block runs here, so nothing raises
    want = tail_survival(batch_l4_norm, 4, _PARTITION_LAMBDAS, 5000, 19)
    monkeypatch.delattr(os, "fork")
    assert tail_survival(fails_in_a_worker, 4, _PARTITION_LAMBDAS,
                         5000, 19) == want


_WITHOUT_FORK = """
import os, pickle, select, sys
del select.PIPE_BUF, os.fork    # as on a platform without fork
import gibbs_dnls.chaos as chaos
from gibbs_dnls.flow import invariance_experiment
from gibbs_dnls.observables import batch_l4_norm, batch_mass
chaos._cpu_count = lambda: 3
# 136 tail blocks: past the 128 slots of a 512-byte PIPE_BUF
chaos._BLOCK_COEFFS = 9 * 37
sys.stdout.buffer.write(pickle.dumps((
    chaos._QUEUE_SLOTS,
    chaos.tail_survival(batch_l4_norm, 4, [0.6, 0.8, 1.0, 1.2], 5000, 19),
    invariance_experiment(2, 1.2, 0.05, 3000, 91, {"m": batch_mass}),
)))
"""


def test_a_platform_without_fork_imports_and_runs_serially():
    src = os.path.dirname(os.path.dirname(chaos.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_FORK],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, check=True, timeout=120).stdout
    assert pickle.loads(out) == (
        512 // chaos._INDEX_BYTES,
        tail_survival(batch_l4_norm, 4, _PARTITION_LAMBDAS, 5000, 19),
        invariance_experiment(2, 1.2, 0.05, 3000, 91, {"m": batch_mass}),
    )


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_block_workers_are_bound_to_cpus_and_the_mask_restored(monkeypatch):
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 3)
    parent = os.getpid()

    def where(span):
        time.sleep(0.002)           # so more than one process takes spans
        return os.getpid(), frozenset(os.sched_getaffinity(0))

    # whichever process pulls a span, it runs there on that process's one
    # CPU: cpus[0] for this process, cpus[w % len(cpus)] for worker w
    seen = chaos._map_blocks(where, range(30))
    pinned = dict(seen)
    assert len(set(seen)) == len(pinned)
    assert pinned.get(parent, {cpus[0]}) == {cpus[0]}
    assert {m for pid, m in pinned.items() if pid != parent} <= {
        frozenset({cpus[w % len(cpus)]}) for w in (1, 2)}
    assert os.sched_getaffinity(0) == mask

    def fails_here(span):
        if span == 0:
            raise ValueError("span 0 failed")
        return span

    with pytest.raises(ValueError, match="^span 0 failed$"):
        chaos._map_blocks(fails_here, range(7))
    assert os.sched_getaffinity(0) == mask
    _no_child_left()


def test_phase_queue_computes_each_span_once_in_span_order(monkeypatch):
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 3)
    parent = os.getpid()
    done, log = os.pipe()           # each computed span writes its index
    spans = list(range(100, 160))

    def first(w, workers):
        return w, workers, os.getpid()

    def between(results, broadcast):
        assert [r[:2] for r in results] == [(0, 3), (1, 3), (2, 3)]
        assert results[0][2] == parent and parent not in {
            r[2] for r in results[1:]}
        broadcast(1000)
        return "kept"

    def then(message, span):
        os.write(log, span.to_bytes(2, "little"))     # atomic: < PIPE_BUF
        time.sleep(0.002)           # so every process takes some spans
        return message + span, os.getpid()

    try:
        kept, out = chaos._map_phases(first, between, then, spans)
    finally:
        os.close(log)
    with open(done, "rb") as pipe:
        computed = pipe.read()
    computed = [int.from_bytes(computed[i:i + 2], "little")
                for i in range(0, len(computed), 2)]
    assert kept == "kept"
    assert sorted(computed) == spans
    assert [value for value, _ in out] == [1000 + s for s in spans]
    assert len({pid for _, pid in out}) > 1
    _no_child_left()


def test_phase_errors_reach_the_caller_and_leave_no_child(monkeypatch):
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 2)
    parent = os.getpid()

    def first(w, workers):
        if os.getpid() != parent:
            raise ValueError("phase 1 failed in a worker")

    with pytest.raises(ValueError, match="^phase 1 failed in a worker$"):
        chaos._map_phases(first, lambda r, b: b(0), None, range(4))
    _no_child_left()


@pytest.mark.parametrize("phases", [False, True])
def test_queue_past_its_slots_computes_each_span_once_in_order(
        monkeypatch, tmp_path, phases):
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 3)
    # 2053 spans in 685 runs of 3 (the last one span) on the 1024 slots
    spans = list(range(2 * chaos._QUEUE_SLOTS + 5))
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def then(message, span):
        os.write(log, span.to_bytes(4, "little"))     # one appended record
        return message, span, os.getpid()

    def between(results, broadcast):
        broadcast(results)
        return "kept"

    try:
        if phases:
            kept, out = chaos._map_phases(lambda w, workers: w, between,
                                          then, spans)
            assert kept == "kept"
        else:
            out = chaos._map_blocks(lambda span: then(None, span), spans)
    finally:
        os.close(log)
    computed = (tmp_path / "log").read_bytes()
    computed = [int.from_bytes(computed[i:i + 4], "little")
                for i in range(0, len(computed), 4)]
    assert sorted(computed) == spans
    message = [0, 1, 2] if phases else None
    assert [m for m, _, _ in out] == [message] * len(spans)
    assert [span for _, span, _ in out] == spans
    _no_child_left()


def test_tail_survival_errors():
    for count in (0, -5):
        with pytest.raises(ValueError, match="^sample_count must be at "
                                             f"least 1, got {count}$"):
            tail_survival(batch_mass, 2, [0.5, 1.0], count, 3)
    with pytest.raises(ValueError, match="exceedances"):
        tail_survival(batch_mass, 2, [50.0, 60.0], 2000, 3)
    with pytest.raises(ValueError, match="rejected"):
        tail_survival(batch_mass, 2, [0.5, 1.0], 2000, 3,
                      kappa=1e-9)
    with pytest.raises(ValueError):
        tail_survival(batch_mass, 2, [1.0], 2000, 3)
    with pytest.raises(ValueError):
        tail_survival(batch_mass, 2, [0.5, 1.0], 2000, 3, theta=3.0)


@pytest.mark.parametrize("kappa", [None, 1.5])
def test_tail_survival_refuses_a_value_count_off_the_rows(kappa):
    # values for half the rows gave a fit with total=2500 out of 5000
    def first_half(rows):
        return batch_mass(rows)[:len(rows) // 2]

    with pytest.raises(ValueError, match=r"^observable 'first_half' gave "
                                         r"values of shape \((\d+),\) for "
                                         r"(\d+) samples, not one value per "
                                         r"sample$") as exc:
        tail_survival(first_half, 2, [0.5, 0.8, 1.0, 1.2], 5000, 3,
                      kappa=kappa)
    got, want = map(int, re.search(r"\((\d+),\) for (\d+)",
                                   str(exc.value)).groups())
    assert got == want // 2
    if kappa is None:
        assert want == 5000


@pytest.mark.parametrize("kappa", [None, 1.5])
def test_tail_survival_refuses_non_finite_values(kappa):
    # nan on every 7th row counted as an exceedance of every threshold:
    # with nan from row 0, counts (4998, 4915, 4637, 4025) out of 5000
    # instead of (4998, 4900, 4567, 3852)
    def every_7th_nan(rows):
        v = batch_mass(rows)
        v[3::7] = np.nan
        return v

    streams = np.arange(5000)
    if kappa is not None:          # the value's stream, not its row
        streams = streams[batch_mass(phi_block(3, 0, 5000, 2)) <= kappa]
        assert streams[3] != 3
    with pytest.raises(ValueError, match=rf"^observable 'every_7th_nan' is "
                                         rf"nan on the sample of stream "
                                         rf"{streams[3]}$"):
        tail_survival(every_7th_nan, 2, [0.5, 0.8, 1.0, 1.2], 5000, 3,
                      kappa=kappa)


def test_tail_survival_refuses_a_non_finite_threshold():
    # no sample exceeds nan, so it read as a threshold of count 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^lambdas must be finite, "
                                             f"got {bad}$"):
            tail_survival(batch_mass, 2, [0.5, 1.0, bad], 2000, 3)


def test_tail_fit_needs_two_thresholds_in_its_window():
    # band 0, |Re c_0| over 2000 samples: counts (974, 0, 0), so only the
    # first threshold has >= 50 exceedances; a line through that one
    # point used to give an arbitrary rate (1.44) and a numpy RankWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="needs two"):
            tail_survival(lambda r: np.abs(r[:, 0].real), 0,
                          [0.5, 3.0, 3.5], 2000, 5)
        one_point = TailFit((0.5, 3.0, 3.5), (0.487, 0.0, 0.0), (974, 0, 0),
                            2.0, 1.44, 0.0, 0.0, 2000)
        with pytest.raises(ValueError, match="needs two"):
            erfc_fit_r2(one_point)


def test_tail_fit_validation():
    with pytest.raises(ValueError):
        TailFit((1.0, 2.0), (0.1, 0.2), (10, 20), 2.0, 1.0, 0.0, 0.9, 100)


# --- kernel sums -----------------------------------------------------------

def test_kernel_tail_sum_against_direct_loop():
    # independent summation path: plain accumulation over a wide window
    for n, N in ((0, 4), (5, 8)):
        total = 0.0
        for n1 in range(-150000, 150001):
            if abs(n1) >= N and abs(n - n1) >= N:
                total += 1.0 / ((n1 * n1 + 1.0) * ((n - n1) ** 2 + 1.0))
        got, _ = kernel_tail_sum(n, N)
        assert got == pytest.approx(total, rel=1e-9)


def test_kernel_tail_sum_frozen_values():
    # correctly rounded sums: every bit is pinned
    got, _ = kernel_tail_sum(0, 4)
    assert got == 0.013673950845816721
    got, _ = kernel_tail_sum(5, 8)
    assert got == 0.0007064630323090486


def test_kernel_tail_sum_correctly_rounded():
    # bit-exact against math.fsum over terms built in a plain Python loop on
    # the same range: an order-dependent reduction drifts in the last bit
    for n, N in ((0, 4), (0, 8), (5, 4), (5, 8)):
        R = 100000 + abs(n)
        terms = [1.0 / ((n1 * n1 + 1.0) * ((n - n1) ** 2 + 1.0))
                 for n1 in range(-R, R + 1)
                 if abs(n1) >= N and abs(n - n1) >= N]
        got, _ = kernel_tail_sum(n, N)
        assert got == math.fsum(terms), (n, N)


def test_kernel_ratio_powers_are_correctly_rounded():
    # every power the ratio takes for |n|, N <= 64 at the eps of the
    # configs, against exp(exponent * ln(base)) at 80 digits rounded once
    exact = decimal.Context(prec=80)
    for eps in (0.1, 0.25, 0.5):
        pairs = [(N, 1.5 - eps) for N in range(1, chaos._KERNEL_MAX + 1)]
        pairs += [(n * n + 1.0, (1.5 + eps) / 2.0)
                  for n in range(chaos._KERNEL_MAX + 1)]
        for base, exponent in pairs:
            want = exact.exp(exact.multiply(decimal.Decimal(exponent),
                                            exact.ln(decimal.Decimal(base))))
            assert chaos._power(base, exponent) == float(want), (base, exponent)
    # the ratio is the sum times the two powers, in that order
    total, ratio = kernel_tail_sum(5, 8, 0.25)
    assert ratio == total * chaos._power(8, 1.25) * chaos._power(26.0, 0.875)


def test_kernel_symmetry_and_monotonicity():
    for N in (4, 8, 16):
        a, _ = kernel_tail_sum(7, N)
        b, _ = kernel_tail_sum(-7, N)
        assert a == b
    s4, _ = kernel_tail_sum(0, 4)
    s8, _ = kernel_tail_sum(0, 8)
    assert s8 < s4


def test_kernel_tail_sum_window_at_largest_inputs():
    # the terms a 20 times wider window adds stay below 1e-9 of the sum
    for n in (64, -64):
        got, _ = kernel_tail_sum(n, 64)
        R = 100000 + abs(n)
        extra = 0.0
        for side in (1.0, -1.0):
            n1 = side * np.arange(R + 1, 20 * R + 1, dtype=np.float64)
            extra += np.sum(1.0 / ((n1 * n1 + 1.0) * ((n - n1) ** 2 + 1.0)))
        assert got == pytest.approx(got + extra, rel=1e-9)


def test_kernel_validation():
    with pytest.raises(ValueError):
        kernel_tail_sum(0, 0)
    for n, N in ((65, 4), (-65, 4), (0, 65)):
        with pytest.raises(ValueError, match="at most 64"):
            kernel_tail_sum(n, N)
    with pytest.raises(ValueError):
        kernel_tail_sum(0, 4, eps=0.75)
    with pytest.raises(ValueError):
        kernel_tail_sum(0, 4, eps=0.0)
