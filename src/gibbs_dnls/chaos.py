"""Statistical checks on the quartic functional and Gaussian chaos.

Covers four kinds of evidence:
 - moment-ratio checks for polynomial chaos (hypercontractive growth),
 - large-deviation tail fits of field observables,
 - coupled-draw Cauchy rates for the truncated quartic functional,
 - the deterministic lattice kernel sum behind the convolution bound.

All randomness flows through sampling's counter-based streams; fits are
plain least squares on log survival / log norms and are deterministic
given the assembled statistics.
"""

from __future__ import annotations

import math
import os
import pickle
import select
from dataclasses import dataclass

import numpy as np

from .observables import batch_f_quartic, batch_mass, batch_X
from .spectral import _integer, _project, _real
from .sampling import (
    _BOOTSTRAP_RESAMPLES,
    _TABLE_INDEX_STREAM,
    _TABLE_VALUE_STREAM,
    SeedSpec,
    _raw_uniforms,
    bootstrap_counts,
    phi_block,
    phi_block_in_ball,
    sample_gaussian,
    sample_phi,
)

__all__ = [
    "TailFit",
    "RateFit",
    "chaos_ratio",
    "random_coeff_table",
    "f_decompose",
    "y3_sum",
    "cauchy_rate",
    "tail_survival",
    "erfc_fit_r2",
    "kernel_tail_sum",
]


@dataclass(frozen=True)
class TailFit:
    """Empirical survival curve with a stretched-exponential fit.

    The regression is log P(S > lambda) ~ intercept - rate * lambda^theta
    over the thresholds with at least 50 exceedances (below that the
    relative error of the empirical survival makes the fit meaningless).
    rate > 0 means decay.
    """

    lambdas: tuple
    survival: tuple
    counts: tuple
    theta: float
    rate: float
    intercept: float
    r_squared: float
    total: int

    def __post_init__(self):
        s = np.asarray(self.survival)
        if np.any(s < 0) or np.any(s > 1):
            raise ValueError("survival probabilities must lie in [0,1]")
        if np.any(np.diff(s) > 0):
            raise ValueError("survival must be non-increasing")

    def to_json_dict(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "survival": list(self.survival),
            "counts": list(self.counts),
            "theta": self.theta,
            "rate": self.rate,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "total": self.total,
        }

    def to_csv(self) -> str:
        lines = ["lambda,count,survival"]
        for lam, cnt, s in zip(self.lambdas, self.counts, self.survival):
            lines.append(f"{lam!r},{cnt},{s!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RateFit:
    """Log-log rate fit of a norm sequence against the band."""

    bands: tuple
    values: tuple
    slope: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        b = np.asarray(self.bands)
        if len(b) >= 2 and np.any(np.diff(b) <= 0):
            raise ValueError("bands must be strictly increasing")
        if np.any(np.asarray(self.values) <= 0):
            raise ValueError("values must be positive")

    def to_json_dict(self) -> dict:
        return {
            "bands": list(self.bands),
            "values": list(self.values),
            "slope": self.slope,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }

    def to_csv(self) -> str:
        lines = ["band,value"]
        for b, v in zip(self.bands, self.values):
            lines.append(f"{b},{v!r}")
        return "\n".join(lines) + "\n"


def chaos_ratio(k: int, d: int, coeffs: dict, p: float, sample_count: int,
                seed: int) -> tuple:
    """Empirical L^p/L^2 ratio of a degree-k Gaussian polynomial vs its bound.

    The polynomial is S = sum over ordered multi-indices (n_1 <= ... <= n_k,
    entries in 1..d) of coeffs[idx] * g_{n_1} ... g_{n_k} with iid complex
    standard Gaussians g.  Returns (ratio, bound) with
    bound = sqrt(k+1) * (p-1)^{k/2}; the ratio can exceed the bound only
    by Monte Carlo noise.
    """
    k = _integer("k", k, 1)
    d = _integer("d", d, 1)
    count = _integer("sample_count", sample_count, 1)
    if not coeffs:
        raise ValueError("empty coefficient table")
    p = _real("p", p, at_least=2)
    for idx in coeffs:
        if len(idx) != k:
            raise ValueError(f"multi-index {idx} does not have length {k}")
        if any(not 1 <= m <= d for m in idx):
            raise ValueError(f"multi-index {idx} outside 1..{d}")
        if any(a > b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"multi-index {idx} is not non-decreasing")
    g = sample_gaussian(SeedSpec(seed, 0), count * d).reshape(count, d)
    S = np.zeros(count, dtype=np.complex128)
    for idx, c in coeffs.items():
        prod = np.ones(count, dtype=np.complex128)
        for m in idx:
            prod = prod * g[:, m - 1]
        S += complex(c) * prod
    absS = np.abs(S)
    lp = float(np.mean(absS ** p) ** (1.0 / p))
    l2 = float(np.sqrt(np.mean(absS ** 2)))
    bound = float(np.sqrt(k + 1) * (p - 1.0) ** (k / 2.0))
    return lp / l2, bound


def random_coeff_table(k: int, d: int, terms: int, seed: int) -> dict:
    """Deterministic random coefficient table for chaos_ratio.

    Draws `terms` ordered multi-indices of length k with entries in 1..d
    and complex Gaussian coefficients, both from reserved counter streams
    of the master seed, so tables are reproducible and independent of the
    evaluation samples.  Colliding indices accumulate.
    """
    k = _integer("k", k, 1)
    d = _integer("d", d, 1)
    terms = _integer("terms", terms, 1)
    u = _raw_uniforms(SeedSpec(seed, _TABLE_INDEX_STREAM), terms * k)
    digits = np.minimum(np.floor(u * d).astype(int) + 1, d).reshape(terms, k)
    values = sample_gaussian(SeedSpec(seed, _TABLE_VALUE_STREAM), terms)
    table: dict = {}
    for row, val in zip(digits, values):
        idx = tuple(sorted(int(m) for m in row))
        table[idx] = table.get(idx, 0j) + complex(val)
    return table


def _pair_sums(n: np.ndarray, a: np.ndarray) -> complex:
    """sum over ordered pairs n1 != n2 of 2i (n1+n2) a_{n1} a_{n2}."""
    sa = np.sum(a)
    sna = np.sum(n * a)
    diag = np.sum(n * a * a)
    return 2j * (2.0 * sna * sa - 2.0 * diag)


def f_decompose(N: int, seed) -> tuple:
    """Split the quartic sum of one Gaussian draw into its chaos pieces.

    For the draw phi_N(seed) with c_n = g_n/<n>, the full convolution sum
    i * f_N splits over index quadruples (n_1, n_2, m_1, m_2) with
    m_1 + m_2 = n_1 + n_2 into

      S1: quadruples where {m_1, m_2} = {n_1, n_2} as multisets,
      S2: everything else (computed here as an explicit lattice sum,
          cubic in the band - keep N modest).

    S1 further splits, writing |g_n|^2 = 1 + G_n and b_n = <n>^{-2}, into
    X (the diagonal n_1 = n_2), Y1 (quadratic in G), Y2 (linear in G) and
    Y3 (constant, identically zero by n -> -n symmetry).  Each unordered
    off-diagonal pair occurs in four quadruple arrangements, so the pair
    terms carry weight 2i(n_1+n_2) per ordered pair and the diagonal
    carries 2in; those weights make S1 = X + Y1 + Y2 + Y3 exact.

    Returns (S1, S2, X, Y1, Y2); S1 + S2 = i * f_N(draw).
    """
    N = _integer("N", N, 0)
    if not isinstance(seed, SeedSpec):
        seed = SeedSpec(seed, 0)
    u = sample_phi(N, seed)
    c = u.coeffs
    n = np.arange(-N, N + 1, dtype=np.float64)
    a = c.real ** 2 + c.imag ** 2          # |c_n|^2
    b = 1.0 / (n * n + 1.0)                # <n>^{-2}
    G = a / b - 1.0                        # |g_n|^2 - 1

    X = 2j * np.sum(n * a * a)
    S1 = _pair_sums(n, a) + X
    Y1 = _pair_sums(n, G * b)
    # linear-in-G pair term: expand (n1+n2)(G1+G2) over the full grid,
    # remove the diagonal (which contributes 4 n G b^2 per n)
    sb = np.sum(b)
    sgb = np.sum(G * b)
    snb = np.sum(n * b)
    sngb = np.sum(n * G * b)
    Y2 = 2j * (2.0 * sngb * sb + 2.0 * snb * sgb - 4.0 * np.sum(n * G * b * b))

    # off-multiset quadruples, fully explicit over the lattice
    ni = np.arange(-N, N + 1)
    n1 = ni[:, None, None]
    n2 = ni[None, :, None]
    m1 = ni[None, None, :]
    m2 = n1 + n2 - m1
    valid = np.abs(m2) <= N
    same = ((m1 == n1) & (m2 == n2)) | ((m1 == n2) & (m2 == n1))
    mask = valid & ~same
    m2c = np.clip(m2 + N, 0, 2 * N)
    term = (
        1j * (n1 + n2)
        * c[n1 + N] * c[n2 + N]
        * np.conj(c[m1 + N]) * np.conj(c[m2c])
    )
    S2 = complex(np.sum(np.where(mask, term, 0.0)))

    return complex(S1), S2, complex(X), complex(Y1), complex(Y2)


def y3_sum(N: int) -> complex:
    """The constant pair term 2i sum_{n_1 != n_2} (n_1 + n_2) b_1 b_2.

    b_n = 1/<n>^2, over every ordered pair of distinct modes.  The sum
    runs in Fractions, so the mirror pairs (n_1, n_2) and (-n_1, -n_2)
    cancel exactly rather than to roundoff dust.
    """
    from fractions import Fraction     # here: the package import skips it
    N = _integer("N", N, 0)
    b = {n: Fraction(1, n * n + 1) for n in range(-N, N + 1)}
    total = sum(2 * (n1 + n2) * b1 * b2 for n1, b1 in b.items()
                for n2, b2 in b.items() if n1 != n2)
    return complex(0, float(total))


#: cauchy_rate's modes, each with the window its log-log slope should
#: fall in: the full quartic difference and its diagonal X part
_RATE_WINDOWS = {"f_full": (-1.8, -1.2), "X_only": (-2.4, -1.6)}

#: coefficients per phi_block call in the Monte Carlo loops (2 MB of rows),
#: so the kernels' FFT temporaries stay in cache at every band
_BLOCK_COEFFS = 1 << 17


def _blocks(count: int, width: int):
    """(lo, hi) row ranges covering count rows of `width` coefficients."""
    step = max(1, _BLOCK_COEFFS // width)
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)


def _affinity() -> list:
    """The CPUs this thread may run on, in order; [] where that is unknown."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where it has one."""
    return len(_affinity()) or os.cpu_count() or 1


def _pin(cpus) -> None:
    """Bind the calling thread to the given CPUs.

    A placement hint only: nothing happens where cpus is empty or the
    system refuses the mask.
    """
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _map_blocks(fn, spans) -> list:
    """[fn(s) for s in spans] in span order: _map_phases without a first
    phase, so every process pulls spans from the queue from the fork on."""
    return _map_phases(None, None, lambda _, span: fn(span), spans)[1]


#: bytes per entry of _map_phases' queue pipe, and the entries that one
#: write of at most PIPE_BUF bytes holds (POSIX's minimum PIPE_BUF, 512,
#: where select has none, as on platforms without os.fork)
_INDEX_BYTES = 4
_QUEUE_SLOTS = getattr(select, "PIPE_BUF", 512) // _INDEX_BYTES


def _map_phases(first, between, then, spans):
    """Spans pulled from one shared queue by one process per CPU, after
    an optional first phase on the same fork.

    The workers processes, the smaller of the CPU count and the number
    of spans (one without os.fork), are this one and workers - 1
    children forked here: fork, not a spawned pool, as a fresh
    interpreter would import numpy again on every call.  With a first
    phase, each process computes first(w, workers), this one being
    w = 0, and between(results, broadcast) runs here on those results in
    process order; it may raise, and it calls broadcast(message) once,
    which sends message to every child.  The children start on the spans
    there and this process after between returns, so what between does
    after its broadcast runs beside them.  With first None there is no
    first phase: message is None and every process starts on the spans
    at the fork.  Every process pulls span indices from the queue pipe
    until it is empty and computes then(message, spans[i]) for each, so
    a process that is done early takes more spans; at one worker this
    one drains the queue alone.  Past _QUEUE_SLOTS spans, each entry of
    the queue is a run of consecutive spans.  Returns (between's result
    or None, [then(message, s) for s in spans]), the second in span
    order whichever process computed each span.  Which process computes
    a span never changes its bits: each is computed whole by a fork of
    this interpreter, with the same numpy build and SIMD dispatch.

    Child w talks to this process over a _Link.  An exception raised in
    a child is sent here and raised again by the recv that reads it; a
    child that exits without the message a recv waits for makes that
    recv raise RuntimeError.  If anything raises here, between or a fork
    included, every child is killed; every child is reaped before the
    call returns or raises.  While the call runs, this thread is bound
    to the first CPU of its affinity mask and child w to the w-th
    (cyclically), so the processes run side by side from the fork on
    instead of sharing a CPU until the scheduler spreads them; the mask
    is restored before the call returns or raises.
    """
    spans = list(spans)
    workers = min(_cpu_count(), len(spans)) if hasattr(os, "fork") else 1
    run = -(-len(spans) // _QUEUE_SLOTS) or 1   # consecutive spans per entry
    cpus = _affinity()
    queue, fill = os.pipe()
    try:
        # every entry is in the pipe before any process reads it, so each
        # read of _INDEX_BYTES takes exactly one entry, or b"" once empty
        os.write(fill, b"".join(i.to_bytes(_INDEX_BYTES, "little")
                                for i in range(0, len(spans), run)))
    finally:
        os.close(fill)

    def pull(message):
        done = {}
        while entry := os.read(queue, _INDEX_BYTES):
            lo = int.from_bytes(entry, "little")
            for i in range(lo, min(lo + run, len(spans))):
                done[i] = then(message, spans[i])
        return done

    links, message = [], None

    def broadcast(sent):
        nonlocal message
        message = sent
        for ln in links:
            try:
                ln.send(sent)
            except BrokenPipeError:
                pass        # the child is gone: reading its reply raises

    try:
        _pin(cpus[:1])
        for w in range(1, workers):
            up, down = os.pipe(), os.pipe()     # (read end, write end)
            try:
                pid = os.fork()
            except OSError:
                for fd in up + down:
                    os.close(fd)
                raise
            if pid == 0:                # child w: leaves with os._exit
                status = 1
                try:
                    for ln in links:    # the parent's ends of earlier children
                        ln.close()
                    os.close(up[0])
                    os.close(down[1])
                    link = _Link(0, down[0], up[1])
                    _pin([cpus[w % len(cpus)]] if cpus else [])
                    try:
                        if first:
                            link.send(first(w, workers))
                            message = link.recv()
                        link.send(pull(message))
                    except BaseException as exc:    # raised in the parent
                        link.send(exc, ok=False)
                    status = 0
                finally:
                    os._exit(status)
            # closed before the next fork, so no later child holds them
            os.close(up[1])
            os.close(down[0])
            links.append(_Link(pid, up[0], down[1]))
        kept = None
        if first:
            results = [first(0, workers)] + [ln.recv() for ln in links]
            kept = between(results, broadcast)
        done = pull(message)
        for ln in links:
            done.update(ln.recv())
        return kept, [done[i] for i in range(len(spans))]
    except BaseException:               # the children's work is lost too
        import signal
        for ln in links:
            if ln.pid:
                os.kill(ln.pid, signal.SIGKILL)
        raise
    finally:
        _pin(cpus)
        os.close(queue)
        for ln in links:
            ln.close()
            if ln.pid:
                ln.reap()


class _Link:
    """Pickled messages both ways between _map_phases' caller and one of
    its children.

    pid is the child's in the caller, None once reaped, and 0 in the
    child itself.
    """

    def __init__(self, pid, inbox, outbox):
        self.pid = pid
        self._in = open(inbox, "rb")
        self._out = outbox

    def send(self, value, ok=True):
        data = memoryview(pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(self._out, data):]

    def recv(self):
        try:
            ok, value = pickle.load(self._in)
        except EOFError:
            if not self.pid:
                raise
            raise RuntimeError(f"a block worker exited without a result "
                               f"(wait status {self.reap()})") from None
        if not ok:
            raise value
        return value

    def reap(self) -> int:
        """Wait for the child to end; its wait status."""
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return status

    def close(self):
        self._in.close()
        os.close(self._out)


def cauchy_rate(bands, sample_count: int, seed: int,
                mode: str = "f_full") -> RateFit:
    """Coupled-draw L^2(d mu) distance between truncations at N and 2N.

    For each N the same Gaussian draw at band 2N is evaluated at both
    truncations (restriction Pi_N), the root mean square of the
    difference estimates the norm, and the log-log slope over the bands
    is fitted with a bootstrap confidence interval: each of the
    _BOOTSTRAP_RESAMPLES resamples of the sample indices, shared by all
    bands, gives one slope.  mode selects the full functional or only
    its diagonal X part.  The (band, block) spans of the squared
    differences are pulled from one shared queue by one forked process
    per CPU (_map_blocks); the fits and the bootstrap run here.
    """
    bands = [_integer("bands", b, 1) for b in bands]
    if len(bands) < 2:
        raise ValueError("need at least two bands for a rate")
    if any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
        raise ValueError("bands must be strictly increasing")
    count = _integer("sample_count", sample_count)
    if count < 100:
        raise ValueError("sample_count below 100: confidence interval meaningless")
    if mode not in _RATE_WINDOWS:
        raise ValueError(f"mode must be one of {tuple(_RATE_WINDOWS)}")

    evaluate = batch_f_quartic if mode == "f_full" else batch_X

    def block(span):
        j, lo, hi = span
        # disjoint stream range per band pair
        rows = phi_block(seed, j * count + lo, hi - lo, 2 * bands[j])
        d = evaluate(rows) - evaluate(_project(rows, bands[j]))
        return d * d

    spans = [(j, lo, hi) for j, N in enumerate(bands)
             for lo, hi in _blocks(count, 4 * N + 1)]
    sq_diffs = [np.empty(count) for _ in bands]
    for (j, lo, hi), d2 in zip(spans, _map_blocks(block, spans)):
        sq_diffs[j][lo:hi] = d2

    values = [float(np.sqrt(np.mean(d2))) for d2 in sq_diffs]
    logb = np.log(np.asarray(bands, dtype=np.float64))
    slope = float(np.polyfit(logb, np.log(values), 1)[0])

    counts = bootstrap_counts(seed, count, _BOOTSTRAP_RESAMPLES,
                              np.arange(count))
    # one column per resample: polyfit fits every column at once
    rms = np.sqrt([(counts * d2).sum(axis=1) / count for d2 in sq_diffs])
    slopes = np.polyfit(logb, np.log(rms), 1)[0]
    lo, hi = np.percentile(slopes, [2.5, 97.5])

    return RateFit(tuple(bands), tuple(values), slope, float(lo), float(hi))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares line y ~ slope x + intercept: (slope, intercept, r^2).

    r^2 is 0 when y is constant, where there is no variance to explain.
    """
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sstot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / sstot if sstot > 0 else 0.0
    return slope, intercept, r2


def _fit_window(counts) -> np.ndarray:
    """Mask of the thresholds that still have >= 50 exceedances.

    A line through fewer than two points has an arbitrary slope, so a
    window that short is refused rather than fitted.
    """
    win = np.asarray(counts) >= 50
    if np.count_nonzero(win) < 2:
        raise ValueError(
            f"only {np.count_nonzero(win)} threshold(s) with >= 50 "
            f"exceedances; a tail fit needs two")
    return win


#: the tail shapes tail_survival fits: log survival linear in lambda^theta
_THETAS = (0.5, 1.0, 2.0)


def tail_survival(observable, N: int, lambdas, sample_count: int, seed: int,
                  kappa: float = None, theta: float = 2.0) -> TailFit:
    """Empirical survival of a field observable with a lambda^theta fit.

    observable acts on coefficient blocks (rows at band N) and returns a
    value per row; samples stream through in blocks so million-sample
    runs stay in memory, and the blocks are pulled from one shared queue
    by one forked process per CPU (_map_blocks), their counts summed as
    integers.  A cutoff radius kappa conditions on the L^2 ball: the
    rows of phi_block with batch_mass at most kappa are kept, drawn by
    phi_block_in_ball, which screens rows before building them.  theta
    in {1/2, 1, 2} selects the candidate tail shape.
    """
    lambdas = np.asarray(sorted(_real("lambdas", x) for x in lambdas))
    if len(lambdas) < 2:
        raise ValueError("need at least two thresholds")
    theta = _real("theta", theta)
    if theta not in _THETAS:
        raise ValueError("theta must be one of 1/2, 1, 2")
    if kappa is not None:
        kappa = _real("kappa", kappa, above=0)
    N = _integer("N", N, 0)
    count = _integer("sample_count", sample_count, 1)

    def block(span):
        lo, hi = span
        if kappa is None:
            rows = phi_block(seed, lo, hi - lo, N)
        else:
            rows = phi_block_in_ball(seed, lo, hi - lo, N, kappa)[1]
            rows = rows[batch_mass(rows) <= kappa]
            if rows.shape[0] == 0:
                return 0, 0
        # one sort per block, then positions of the thresholds
        vals = np.sort(observable(rows))
        above = len(vals) - np.searchsorted(vals, lambdas, side="right")
        return len(vals), above

    exceed = np.zeros(len(lambdas), dtype=np.int64)
    kept = 0
    for n, e in _map_blocks(block, _blocks(count, 2 * N + 1)):
        kept += n
        exceed += e
    if kept == 0:
        raise ValueError(f"the ball of radius kappa = {kappa} rejected "
                         f"every sample")
    if exceed[0] < 50:
        raise ValueError(
            f"only {exceed[0]} exceedances at the smallest threshold; "
            f"insufficient tail data"
        )
    survival = exceed / kept
    win = _fit_window(exceed)
    slope, intercept, r2 = _line_fit(lambdas[win] ** theta,
                                     np.log(survival[win]))
    return TailFit(
        lambdas=tuple(float(x) for x in lambdas),
        survival=tuple(float(s) for s in survival),
        counts=tuple(int(c) for c in exceed),
        theta=theta,
        rate=float(-slope),
        intercept=float(intercept),
        r_squared=r2,
        total=kept,
    )


def erfc_fit_r2(fit: TailFit) -> float:
    """r^2 of log survival against log erfc(lambda) over the fit window.

    |Re c_0| at band 0 survives past lambda with probability exactly
    erfc(lambda), so a sampler with the right tail gives r^2 near 1.
    """
    lam = np.asarray(fit.lambdas)
    win = _fit_window(fit.counts)
    y = np.log(np.asarray(fit.survival)[win])
    x = np.log(np.array([math.erfc(v) for v in lam[win]]))
    return _line_fit(x, y)[2]


#: largest |n| and N kernel_tail_sum accepts
_KERNEL_MAX = 64


def kernel_tail_sum(n: int, N: int, eps: float = 0.25) -> tuple:
    """Exact two-sided tail of the convolution kernel, with its scaled ratio.

    Computes sum over integers n_1 with |n_1| >= N and |n - n_1| >= N of
    <n_1>^{-2} <n - n_1>^{-2} as the correctly rounded sum (math.fsum) of
    the float64 terms, so the result does not depend on numpy's reduction
    order, build or SIMD dispatch; the terms themselves use only IEEE
    +, * and / on exact integers.  The sum runs over the fixed window
    |n_1| <= 100000 + |n|.  The terms outside it are below 1e-9 of the
    sum for |n|, N <= _KERNEL_MAX and grow with N, so larger inputs are
    rejected.
    Returns (sum, sum * N^{3/2-eps} * <n>^{3/2+eps}); the scaled ratio
    staying bounded over (n, N) sweeps is the content of the kernel bound.
    Its two powers come from _power, not from the C library's pow.
    """
    n = _integer("n", n)
    N = _integer("N", N, 1)
    if abs(n) > _KERNEL_MAX or N > _KERNEL_MAX:
        raise ValueError(f"|n| and N must be at most {_KERNEL_MAX}, where the "
                         f"summation window is accurate")
    eps = _real("eps", eps, above=0, at_most=0.5)
    R = 100000 + abs(n)
    n1 = np.arange(-R, R + 1, dtype=np.float64)
    mask = (np.abs(n1) >= N) & (np.abs(n - n1) >= N)
    n1 = n1[mask]
    terms = 1.0 / ((n1 * n1 + 1.0) * ((n - n1) ** 2 + 1.0))
    total = math.fsum(terms)
    ratio = (total * _power(N, 1.5 - eps)
             * _power(n * n + 1.0, (1.5 + eps) / 2.0))
    return total, ratio


def _power(base: float, exponent: float) -> float:
    """base ** exponent for positive base, computed in decimal at 40
    significant digits and rounded once to float64.

    The same on every platform, unlike the C library's pow, which is not
    correctly rounded everywhere.  decimal's power is correctly rounded
    almost always, and 40 digits are 23 more than float64 holds, so the
    final rounding can go wrong only for a value within about 1e-40
    (relative) of a midpoint between two float64s.
    """
    import decimal      # here: only the kernel sums need its start-up cost
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float(decimal.Decimal(base) ** decimal.Decimal(exponent))
