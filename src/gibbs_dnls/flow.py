"""Truncated Hamiltonian flow of the gauged derivative NLS.

The evolution lives on the band-limited range of Pi_N and is generated,
in independent coordinates (u, v), by a skew operator K(u, v) applied to
the variational derivatives of the two-field Hamiltonian

    H(u, v) = int u'v' + (3/4) i int v^2 (u^2)' + 1/2 int u^3 v^3.

On the physical slice v = conj(u) this is the dynamics whose invariant
measure observables.batch_density_G weighs.  The right-hand side is
built two ways: as the literal composition K(grad H) (the source of
truth) and as the expanded single-equation form with its projection
remainder (cross-validation only).  The integrator runs the composition
on coefficient matrices, one field per row (batch_rhs_hamiltonian), so
a whole ensemble moves through one RK4 loop; the FourierCoeffs versions
stay as the reference it is tested against.  Each recorded state logs
mass, energy and F_u by the functionals themselves, which take their
quadrature nodes from the band, so the flow builds no grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from .spectral import (
    FourierCoeffs,
    _antiderivative,
    _band,
    _conjugate,
    _derivative,
    _integer,
    _real,
    antiderivative,
    conjugate,
    derivative,
    inner_product_hermitian,
    multiply,
    project,
)
from .functionals import energy, gauge_F, mass
from .observables import (_finite_values, batch_density_G, batch_mass,
                          batch_multiply)
from .sampling import (
    SeedSpec,
    _bootstrap_chunk,
    _bootstrap_starts,
    phi_block,      # no call here; perfbench's tracer test wraps this binding
    phi_block_in_ball,
)
from .chaos import _map_phases

__all__ = [
    "FlowState",
    "variational_derivatives",
    "apply_K",
    "rhs_hamiltonian",
    "batch_rhs_hamiltonian",
    "rhs_expanded",
    "evolve",
    "gauge_transform",
    "invariance_experiment",
]


@dataclass(frozen=True)
class FlowState:
    """One point of a trajectory: the field, its time, and the logged invariants."""

    u: FourierCoeffs
    t: float
    invariants_log: dict


def variational_derivatives(u: FourierCoeffs, v: FourierCoeffs) -> tuple:
    """Gradients of H(u, v) under the bilinear pairing.

    dH/du = -v'' - (3/2) i u (v^2)' + (3/2) u^2 v^3
    dH/dv = -u'' + (3/2) i v (u^2)' + (3/2) u^3 v^2

    Exact convolution arithmetic; the quintic terms push the output band
    to five times the larger input band.
    """
    u2 = multiply(u, u)
    v2 = multiply(v, v)
    du = (
        derivative(derivative(v)).scale(-1.0)
        + multiply(u, derivative(v2)).scale(-1.5j)
        + multiply(u2, multiply(v2, v)).scale(1.5)
    )
    dv = (
        derivative(derivative(u)).scale(-1.0)
        + multiply(v, derivative(u2)).scale(1.5j)
        + multiply(multiply(u2, u), v2).scale(1.5)
    )
    return du, dv


def apply_K(u: FourierCoeffs, v: FourierCoeffs, w1: FourierCoeffs,
            w2: FourierCoeffs) -> tuple:
    """The skew block operator of the Hamiltonian structure.

    z1 = -u D(u w1) - i w2 + u D(v w2)
    z2 =  i w1 + v D(u w1) - v D(v w2)

    with D the mean-zero antiderivative.  Skew under the bilinear pairing
    sum for any (u, v), which is what makes H formally conserved.
    """
    Duw1 = antiderivative(multiply(u, w1))
    Dvw2 = antiderivative(multiply(v, w2))
    z1 = multiply(u, Duw1).scale(-1.0) + w2.scale(-1j) + multiply(u, Dvw2)
    z2 = w1.scale(1j) + multiply(v, Duw1) + multiply(v, Dvw2).scale(-1.0)
    return z1, z2


def rhs_hamiltonian(u: FourierCoeffs, N: int) -> FourierCoeffs:
    """Time derivative of u on the band: first row of Pi_N K Pi_N grad H.

    The reference right-hand side: project, take gradients at
    (Pi_N u, conj Pi_N u), project them, apply K, project again.
    """
    N = _integer("N", N, 0)
    uN = project(u, N)
    vN = conjugate(uN)
    du, dv = variational_derivatives(uN, vN)
    z1, _ = apply_K(uN, vN, project(du, N), project(dv, N))
    return project(z1, N)


def batch_rhs_hamiltonian(rows: np.ndarray) -> np.ndarray:
    """rhs_hamiltonian of every row of a coefficient matrix, at the rows'
    own band N.

    The same composition on arrays, valid only on the physical slice
    v = conj u: there v^2 = conj(u^2), v^2 v = conj(u^2 u), w2 = conj(w1)
    and D(v w2) = conj(D(u w1)), so six row-wise direct convolutions
    (batch_multiply) suffice: u^2, u^2 u, u w1 and, at band N only,
    u (conj u^2)', u^2 conj(u^2 u) and u (D(v w2) - D(u w1)).  Modes the
    flow cannot reach stay exactly zero; the bits differ from the
    reference's by roundoff only.  Rows of even width have no band and
    are refused.
    """
    N = _band(rows)
    mul = batch_multiply
    u = rows
    u2 = mul(u, u)
    u3 = mul(u2, u)
    # w1 = Pi_N dH/du, as in variational_derivatives, with v = conj u
    w1 = -_derivative(_derivative(_conjugate(u))) \
        - 1.5j * mul(u, _derivative(_conjugate(u2)), band=N) \
        + 1.5 * mul(u2, _conjugate(u3), band=N)
    # Pi_N z1 of apply_K: z1 = u (D(v w2) - D(u w1)) - i w2, w2 = conj w1
    Duw1 = _antiderivative(mul(u, w1))
    return mul(u, _conjugate(Duw1) - Duw1, band=N) - 1j * _conjugate(w1)


def _perp(w: FourierCoeffs, N: int) -> FourierCoeffs:
    """High-frequency part: w minus its band-N projection."""
    return w - project(w, N)


def rhs_expanded(u: FourierCoeffs, N: int) -> tuple:
    """The expanded single-equation right-hand side and its remainder.

    Solves the identity
        i u_t + u_N'' = i Pi_N((|u_N|^2 u_N)') + u_N F(u_N) + R_N(u_N)
    for u_t, where F is the real gauge rate 2 Im int u conj(u)' +
    (3/2) int |u|^4 and R_N collects the projection-mismatch brackets:

        R_N = (3/2) Pi_N( u D[ u P(u (conj(u)^2)') + conj(u) P(conj(u) (u^2)') ] )
            + (3/2) i Pi_N( u D[ u P(|u|^4 conj(u)) - conj(u) P(|u|^4 u) ] )

    with D the mean-zero antiderivative, P the projection complement and
    every u meaning u_N.  Returns (rhs, R_N, discrepancy) where
    discrepancy is the largest coefficient gap against rhs_hamiltonian
    on the same input; the composition form stays the integrator's
    source of truth.
    """
    N = _integer("N", N, 0)
    uN = project(u, N)
    ub = conjugate(uN)
    u2 = multiply(uN, uN)
    ub2 = multiply(ub, ub)
    mod2 = multiply(uN, ub)                      # |u|^2
    mod4 = multiply(mod2, mod2)                  # |u|^4

    # real gauge rate of the projected field
    quartic = float(np.sum(mod2.coeffs.real ** 2 + mod2.coeffs.imag ** 2))
    F = 2.0 * inner_product_hermitian(uN, derivative(uN)).imag + 1.5 * quartic

    cubic = project(derivative(multiply(mod2, uN)), N)

    bracket1 = multiply(uN, _perp(multiply(uN, derivative(ub2)), N)) \
        + multiply(ub, _perp(multiply(ub, derivative(u2)), N))
    bracket2 = multiply(uN, _perp(multiply(mod4, ub), N)) \
        + multiply(ub, _perp(multiply(mod4, uN), N)).scale(-1.0)
    R = project(multiply(uN, antiderivative(bracket1)), N).scale(1.5) \
        + project(multiply(uN, antiderivative(bracket2)), N).scale(1.5j)

    rhs = derivative(derivative(uN)).scale(1j) + cubic \
        + uN.scale(-1j * F) + R.scale(-1j)

    ref = rhs_hamiltonian(u, N)
    discrepancy = float(np.max(np.abs((rhs - ref).coeffs)))
    return rhs, R, discrepancy


def _log_invariants(u: FourierCoeffs) -> dict:
    return {"mass": mass(u), "energy": energy(u), "F_u": gauge_F(u)}


def _rk4(rows: np.ndarray, h: float) -> np.ndarray:
    k1 = batch_rhs_hamiltonian(rows)
    k2 = batch_rhs_hamiltonian(rows + (0.5 * h) * k1)
    k3 = batch_rhs_hamiltonian(rows + (0.5 * h) * k2)
    k4 = batch_rhs_hamiltonian(rows + h * k3)
    return rows + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check(rows: np.ndarray, t: float, mass0: np.ndarray, max_drift: float,
           streams=None) -> None:
    """Raise if a row went non-finite or drifted in mass from mass0.

    The message names the time and, when streams labels the rows, the
    offending row's stream.
    """
    def where(i):
        return "" if streams is None else f" in stream {streams[i]}"

    finite = np.all(np.isfinite(rows.view(np.float64)), axis=1)
    if not np.all(finite):
        raise RuntimeError(
            f"state became non-finite at t = {t:g}{where(int(np.argmin(finite)))}")
    drift = np.abs(batch_mass(rows) - mass0)
    i = int(np.argmax(drift))
    if drift[i] > max_drift:
        raise RuntimeError(
            f"mass drift {drift[i]:.3e} exceeds {max_drift:g} at t = {t:g}{where(i)}")


def _step_sizes(T: float, step: float) -> list:
    """[0, T] as full steps of the given size plus a trailing fractional step.

    ValueError unless T is a finite real number (spectral._real).
    """
    T = _real("T", T)
    h = math.copysign(step, T)
    n_full = int(abs(T) / step + 1e-12)
    rem = T - n_full * h
    return [h] * n_full + ([rem] if abs(rem) > 1e-12 * max(1.0, abs(T)) else [])


def _trajectory(rows: np.ndarray, steps: list, max_drift: float,
                streams=None):
    """Yield (t, rows) after each RK4 step of every row, one step per
    entry of steps (_step_sizes).

    Checks finiteness and the mass drift of every row, against max_drift,
    after every step.
    """
    mass0 = batch_mass(rows)
    t = 0.0
    for h in steps:
        rows = _rk4(rows, h)
        t += h
        _check(rows, t, mass0, max_drift, streams)
        yield t, rows


def evolve(u0: FourierCoeffs, N: int, T: float, step: float,
           max_drift: float = 1e-6) -> list:
    """Fixed-step RK4 trajectory from 0 to T (T < 0 integrates backward).

    Aborts with the offending time if the mass drifts further than
    max_drift from its initial value after any step, the trailing
    fractional step (covering T not divisible by the step) included.
    step and max_drift must be finite and positive real numbers
    (spectral._real): an infinite step takes no steps at all, and a NaN
    or negative bound would switch the guard off or trip it at once.
    These and a T that is no finite real number are refused before
    anything is computed.
    """
    step = _real("step", step, above=0)
    max_drift = _real("max_drift", max_drift, above=0)
    steps = _step_sizes(T, step)
    N = _integer("N", N, 0)
    u0 = project(u0, N)
    traj = [FlowState(u0, 0.0, _log_invariants(u0))]
    for t, rows in _trajectory(u0.coeffs[None, :], steps, max_drift):
        u = FourierCoeffs(N, rows[0])
        traj.append(FlowState(u, t, _log_invariants(u)))
    return traj


def gauge_transform(traj: list) -> list:
    """Phase-rotated trajectory v(t) = exp(i int_0^t F_u ds) u(t).

    The phase integral uses trapezoidal quadrature over the recorded
    F_u samples, so v(0) = u(0) exactly and |v| = |u| pointwise at every
    recorded time; the logged invariants are recomputed on v.
    """
    if not traj:
        return []
    out = []
    phase = 0.0
    prev = traj[0]
    for k, st in enumerate(traj):
        if k > 0:
            phase += 0.5 * (st.t - prev.t) * (
                st.invariants_log["F_u"] + prev.invariants_log["F_u"]
            )
            prev = st
        v = st.u.scale(np.exp(1j * phase)) if k > 0 else st.u
        out.append(FlowState(v, st.t, _log_invariants(v)))
    return out


def _weighted_se(counts: np.ndarray, denom: np.ndarray,
                 wh: np.ndarray) -> float:
    """Bootstrap SE of the self-normalized mean sum(w h) / sum(w).

    Row r of counts says how often resample r draws each live sample
    (see bootstrap_counts), denom[r] = (counts * w).sum(axis=1)[r] is
    its sum of weights, and wh holds the live samples' w * h; resamples
    whose weights sum to zero are left out.  The resample sums are numpy
    pairwise sums, not BLAS products, so their bits do not depend on the
    BLAS kernel.
    """
    good = denom > 0
    reps = (counts * wh).sum(axis=1)[good] / denom[good]
    return float(np.std(reps, ddof=1)) if len(reps) > 1 else 0.0


def invariance_experiment(N: int, kappa: float, t: float, count: int,
                          seed: int, observables: dict,
                          step_size: float = 0.005) -> dict:
    """Push a weighted ensemble through the flow and compare means.

    Draws count Gaussian field samples, weights them by the density of
    cutoff radius kappa, evolves the samples with positive weight to
    time t together (one coefficient matrix through one RK4 loop), and
    reports the self-normalized weighted mean of each observable before
    and after, with a paired bootstrap standard error of the difference.
    Each observable maps a coefficient matrix to one value per row; it is
    called once on the live rows before the flow and once after, and a
    non-finite value on a live row raises ValueError naming it.
    Zero-weight samples never move (they contribute nothing to either
    mean), and the SE is reduced over the live samples' resample counts
    (bootstrap_counts), not over an index matrix of every sample.
    The run forks once, one process per CPU and at most one per resample
    chunk (chaos._map_phases).  In phase 1 each process draws and weighs
    a contiguous shard of the samples and returns its weights and its
    live rows; it builds coefficients and weighs only the rows that
    phi_block_in_ball keeps in the kappa ball, and the rest weigh 0, as
    the density would give them.  This process then combines them,
    raises the errors below, and sends the live indices to the workers.
    In phase 2 it runs the whole-ensemble flow, where its errors (a row
    that goes non-finite or drifts in mass by more than 1e-5) are raised
    and whose moved rows never leave it,
    while the workers draw the bootstrap's resample chunks; every
    process pulls chunks from one shared queue, as the tail and
    Cauchy-rate blocks do, until none is left, and sends them back as
    int32, so count must be below 2^31.  The report is the same at every
    worker count.  Fails fast when every weight is zero, or when the
    effective sample size (sum w)^2 / sum w^2 is below 100: the cutoff
    is then too tight for this ensemble size.  A kappa or t that is no
    finite real number (kappa must also be positive), or a seed that is
    no Philox key, is refused before any fork or draw.
    """
    N = _integer("N", N, 0)
    count = _integer("count", count, 1)
    if count >= 2 ** 31:
        raise ValueError("count must be below 2^31")
    SeedSpec(seed, 0)                   # a Philox key word, before any fork
    kappa = _real("kappa", kappa, above=0)
    t = _real("t", t)
    steps = _step_sizes(t, _real("step_size", step_size, above=0))

    def draw(shard, shards):                    # phase 1, on every process
        lo, hi = count * shard // shards, count * (shard + 1) // shards
        index, rows = phi_block_in_ball(seed, lo, hi - lo, N, kappa)
        inside = batch_density_G(rows, kappa)
        weights = np.zeros(hi - lo)
        weights[index] = inside
        return weights, rows[inside > 0]

    def weigh_and_flow(drawn, broadcast):   # here, between and in phase 2
        w = np.concatenate([weights for weights, _ in drawn])
        total = np.sum(w)
        if total == 0:
            raise ValueError("every sample fell outside the cutoff ball")
        ess = float(total * total / np.sum(w * w))
        if ess < 100.0:
            raise ValueError(
                f"effective sample size {ess:.1f} < 100; "
                f"increase count or loosen the cutoff"
            )
        live = np.flatnonzero(w > 0)
        broadcast(live)                 # the workers start on the chunks
        start = np.concatenate([rows for _, rows in drawn])
        moved = start
        for _, moved in _trajectory(start, steps, 1e-5, streams=live):
            pass
        return w, total, ess, live, start, moved

    def chunk(live, lo):                        # phase 2, on every process
        # sent here as int32: no entry exceeds count < 2^31
        return _bootstrap_chunk(seed, count, live, lo).astype(np.int32)

    (w, total, ess, live, start, moved), chunks = _map_phases(
        draw, weigh_and_flow, chunk, _bootstrap_starts())
    counts = np.concatenate(chunks, dtype=np.int64)
    report = {
        "band": N,
        "kappa": kappa,
        "t": t,
        "count": count,
        "ess": ess,
        "positive_weights": int(len(live)),
        "observables": {},
    }
    # the means are pairwise sums over all count samples, dead ones as
    # zeros, so their bits do not depend on which samples are live
    w_live = w[live]
    denom = (counts * w_live).sum(axis=1)
    before = np.zeros(count)
    after = np.zeros(count)
    for k, observable in observables.items():
        b = before[live] = _finite_values(k, observable(start), live)
        a = after[live] = _finite_values(k, observable(moved), live)
        mb = float(np.sum(w * before) / total)
        ma = float(np.sum(w * after) / total)
        # paired resampling: the SE of the difference, one draw for both
        se = _weighted_se(counts, denom, w_live * (a - b))
        delta = ma - mb
        report["observables"][k] = {
            "before": mb,
            "after": ma,
            "delta": delta,
            "se": se,
            "pass": bool(abs(delta) <= 3.0 * se),
        }
    return report
