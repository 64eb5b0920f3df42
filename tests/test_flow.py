"""Hamiltonian structure, integrator conservation, gauge identities."""

import os
import time

import numpy as np
import pytest

from gibbs_dnls import chaos, flow, sampling
from gibbs_dnls.spectral import (
    FourierCoeffs,
    QuadratureGrid,
    conjugate,
    pairing_bilinear,
    project,
)
from gibbs_dnls.functionals import DensityParams, hamiltonian_H2, mass
from gibbs_dnls.flow import (
    IntegratorConfig,
    apply_K,
    batch_rhs_hamiltonian,
    evolve,
    gauge_transform,
    invariance_experiment,
    rhs_expanded,
    rhs_hamiltonian,
    variational_derivatives,
)
from gibbs_dnls.observables import (
    batch_density_G,
    batch_mass,
    batch_quartic_integral,
)
from gibbs_dnls.sampling import (
    SeedSpec,
    phi_block,
    sample_phi,
)

E1 = FourierCoeffs.from_pairs({1: 1.0})
ZERO1 = FourierCoeffs.zero(1)


def draw(seed, band, scale=None):
    u = sample_phi(band, SeedSpec(seed, 0))
    if scale is not None:
        u = u.scale(scale / mass(u))
    return u


# --- structure -------------------------------------------------------------

def test_variational_derivative_examples():
    du, dv = variational_derivatives(ZERO1, E1)
    # with u = 0 only the -v'' term survives in dH/du
    assert du.coeff(1) == pytest.approx(1.0)
    assert np.max(np.abs((du - E1).coeffs)) <= 1e-15
    du2, dv2 = variational_derivatives(E1, ZERO1)
    assert dv2.coeff(1) == pytest.approx(1.0)


def test_variational_matches_finite_differences():
    # directional derivative of H2 along e^{inx} equals the (-n)-th
    # coefficient of dH/du under the bilinear pairing
    u = draw(21, 4)
    v = conjugate(draw(22, 4))
    grid = QuadratureGrid.for_degree(64)
    du, dv = variational_derivatives(u, v)
    eps = 1e-6
    for n in (-3, 0, 2):
        e_n = FourierCoeffs.from_pairs({n: 1.0})
        plus = hamiltonian_H2(u + e_n.scale(eps), v, grid)
        minus = hamiltonian_H2(u - e_n.scale(eps), v, grid)
        fd = (plus - minus) / (2.0 * eps)
        want = du.coeff(-n)
        assert abs(fd - want) <= 1e-6 * max(1.0, abs(want))
        plus = hamiltonian_H2(u, v + e_n.scale(eps), grid)
        minus = hamiltonian_H2(u, v - e_n.scale(eps), grid)
        fd = (plus - minus) / (2.0 * eps)
        want = dv.coeff(-n)
        assert abs(fd - want) <= 1e-6 * max(1.0, abs(want))


def test_apply_K_examples():
    w1 = FourierCoeffs.from_pairs({1: 1.0})
    w2 = FourierCoeffs.from_pairs({2: 1.0})
    z1, z2 = apply_K(ZERO1, ZERO1, w1, w2)
    # at the origin K reduces to the constant rotation (w1,w2) -> (-iw2, iw1)
    assert np.max(np.abs((z1 - w2.scale(-1j)).coeffs)) == 0
    assert np.max(np.abs((z2 - w1.scale(1j)).coeffs)) == 0
    # u = v = 1: the antiderivative terms activate
    one = FourierCoeffs.from_pairs({0: 1.0})
    z1, z2 = apply_K(one, one, w1, FourierCoeffs.zero(1))
    assert z1.coeff(1) == pytest.approx(1j)
    assert abs(z2.coeff(1)) <= 1e-15


def test_apply_K_skew_symmetry():
    # the bilinear form (w, zeta) -> <K w, zeta> changes sign under swap
    for s in range(5):
        w1 = draw(100 + s, 8)
        w2 = draw(200 + s, 8)
        z1 = draw(300 + s, 8)
        z2 = draw(400 + s, 8)
        u = draw(500 + s, 8, scale=0.5)
        v = conjugate(u)
        k1, k2 = apply_K(u, v, w1, w2)
        m1, m2 = apply_K(u, v, z1, z2)
        fwd = pairing_bilinear(k1, z1) + pairing_bilinear(k2, z2)
        bwd = pairing_bilinear(m1, w1) + pairing_bilinear(m2, w2)
        scale = max(abs(fwd), abs(bwd), 1e-30)
        assert abs(fwd + bwd) <= 1e-10 * scale


# --- right-hand sides ------------------------------------------------------

def test_rhs_single_mode_ode():
    c = 0.3
    u = E1.scale(c)
    rhs = rhs_hamiltonian(u, 4)
    want = 1j * (-1.0 + 3.0 * c ** 2 - 1.5 * c ** 4) * c
    assert rhs.coeff(1) == pytest.approx(want, rel=1e-13)
    for n in range(-4, 5):
        if n != 1:
            assert rhs.coeff(n) == 0


def test_rhs_linear_regime():
    # at amplitude eps the cubic terms are O(eps^3): rhs ~ i u''
    eps = 1e-3
    u = draw(31, 4, scale=eps)
    rhs = rhs_hamiltonian(u, 4)
    n = np.arange(-4, 5)
    linear = FourierCoeffs(4, -1j * n * n * project(u, 4).coeffs)
    gap = np.max(np.abs((rhs - linear).coeffs))
    assert gap <= 4e-9


@pytest.mark.parametrize("band", [0, 1, 2, 4, 8, 16])
@pytest.mark.parametrize("count", [1, 12])
def test_batch_rhs_matches_reference_per_row(band, count):
    # the batch RHS uses the conjugate symmetry of v = conj u; the
    # reference computes both fields' products, so agreement checks it
    rows = phi_block(700 + band, 0, count, band)
    # masses spread from the linear regime to past the cutoff radius
    rows = rows * (np.linspace(0.1, 1.5, count) / batch_mass(rows))[:, None]
    got = batch_rhs_hamiltonian(rows, band)
    assert got.shape == rows.shape
    for j in range(count):
        want = rhs_hamiltonian(FourierCoeffs(band, rows[j]), band).coeffs
        assert np.max(np.abs(got[j] - want)) <= 1e-13 * np.max(np.abs(want)), j


def test_batch_rhs_rejects_other_band():
    with pytest.raises(ValueError, match="band 4"):
        batch_rhs_hamiltonian(phi_block(1, 0, 2, 3), 4)


def test_rhs_pair_conjugacy():
    # both components of the projected vector field: z2 = conj(z1)
    N = 8
    uN = project(draw(33, N, scale=0.7), N)
    vN = conjugate(uN)
    du, dv = variational_derivatives(uN, vN)
    z1, z2 = apply_K(uN, vN, project(du, N), project(dv, N))
    z1, z2 = project(z1, N), project(z2, N)
    gap = np.max(np.abs(z2.coeffs - np.conj(z1.coeffs[::-1])))
    assert gap <= 1e-12


def test_rhs_expanded_matches_composition():
    for s in range(10):
        u = draw(600 + s, 4)
        rhs, R, disc = rhs_expanded(u, 4)
        assert disc <= 1e-10
        direct = rhs_hamiltonian(u, 4)
        assert np.max(np.abs((rhs - direct).coeffs)) <= 1e-10


def test_rhs_expanded_single_mode_correction_vanishes():
    rhs, R, disc = rhs_expanded(E1.scale(0.4), 4)
    assert mass(R) == 0.0
    assert disc <= 1e-14


# --- integration -----------------------------------------------------------

def test_integrator_config_validation():
    inf, nan = float("inf"), float("nan")
    for kwargs in (
        {"step": 0.0},
        {"step": -1e-3},
        {"step": inf},                      # 0 * inf: evolve takes no step
        {"step": nan},
        {"step": 1e-3, "max_drift": nan},   # the guard silently off
        {"step": 1e-3, "max_drift": -1.0},  # trips at the first step
        {"step": 1e-3, "max_drift": 0.0},
        {"step": 1e-3, "max_drift": inf},
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


def test_evolve_zero_time():
    u0 = draw(41, 8, scale=0.1)
    traj = evolve(u0, 8, 0.0, IntegratorConfig(step=1e-3))
    assert len(traj) == 1
    assert traj[0].t == 0.0
    assert np.array_equal(traj[0].u.coeffs, project(u0, 8).coeffs)


def test_evolve_fractional_final_step():
    u0 = draw(41, 4, scale=0.1)
    traj = evolve(u0, 4, 0.0505, IntegratorConfig(step=0.01))
    assert traj[-1].t == pytest.approx(0.0505, abs=1e-15)
    assert len(traj) == 7  # 5 full steps, one fractional


def test_evolve_conservation_short():
    u0 = draw(3, 8, scale=0.1)
    traj = evolve(u0, 8, 0.1, IntegratorConfig(step=1e-3))
    logs = [st.invariants_log for st in traj]
    mass_drift = max(abs(l["mass"] - logs[0]["mass"]) for l in logs)
    energy_drift = max(abs(l["energy"] - logs[0]["energy"]) for l in logs)
    assert mass_drift <= 1e-9
    assert energy_drift <= 1e-8


def test_evolve_drift_abort_names_time():
    u0 = draw(3, 8, scale=0.5)
    with pytest.raises(RuntimeError, match="t ="):
        evolve(u0, 8, 1.0, IntegratorConfig(step=1e-2, max_drift=1e-18))


def test_evolve_fractional_step_checks_drift():
    # T below one step: the only step is the trailing fractional one
    u0 = draw(3, 8, scale=0.5)
    with pytest.raises(RuntimeError, match="t ="):
        evolve(u0, 8, 0.005, IntegratorConfig(step=1e-2, max_drift=1e-18))


def test_evolve_backward_returns():
    u0 = draw(3, 8, scale=0.1)
    cfg = IntegratorConfig(step=1e-3)
    fwd = evolve(u0, 8, 0.5, cfg)
    back = evolve(fwd[-1].u, 8, -0.5, cfg)
    assert back[-1].t == pytest.approx(-0.5)
    gap = np.max(np.abs(back[-1].u.coeffs - project(u0, 8).coeffs))
    assert gap <= 1e-6


def test_single_mode_invariant_manifold():
    traj = evolve(E1.scale(0.3), 8, 1.0, IntegratorConfig(step=1e-3))
    final = traj[-1].u
    for n in range(-8, 9):
        if n != 1:
            assert final.coeff(n) == 0
    drift = max(abs(abs(st.u.coeff(1)) - 0.3) for st in traj)
    assert drift <= 1e-10


# --- gauge transform -------------------------------------------------------

def test_gauge_identities():
    u0 = draw(3, 8, scale=0.3)
    traj = evolve(u0, 8, 0.5, IntegratorConfig(step=1e-3, max_drift=1e-7))
    vtraj = gauge_transform(traj)
    assert np.array_equal(vtraj[0].u.coeffs, traj[0].u.coeffs)
    for st, vt in zip(traj, vtraj):
        assert vt.t == st.t
        # unimodular factor: same modulus up to one rounding
        assert abs(mass(vt.u) - mass(st.u)) <= 4e-16 * max(1.0, mass(st.u))
        assert abs(vt.invariants_log["F_u"] - st.invariants_log["F_u"]) \
            <= 1e-12 * max(1.0, abs(st.invariants_log["F_u"]))


def test_gauge_empty_trajectory():
    assert gauge_transform([]) == []


# --- measure invariance ----------------------------------------------------

def test_invariance_ess_error():
    params = DensityParams(kappa=1.0, band=4)
    obs = {"m": batch_mass}
    with pytest.raises(ValueError, match="effective sample size"):
        invariance_experiment(4, params, 0.1, 300, 77, obs)


def test_invariance_zero_weights_error():
    params = DensityParams(kappa=1e-6, band=4)
    obs = {"m": batch_mass}
    with pytest.raises(ValueError):
        invariance_experiment(4, params, 0.1, 200, 78, obs)


def test_invariance_small_run_passes():
    # moderate cutoff at a small band: decent acceptance, quick flow
    params = DensityParams(kappa=1.2, band=2)
    obs = {
        "l4": batch_quartic_integral,
        "re_c1": lambda rows: rows[:, 3].real,
    }
    rep = invariance_experiment(2, params, 0.05, 3000, 91, obs)
    assert rep["ess"] >= 100
    for name, r in rep["observables"].items():
        assert r["pass"], (name, r)


def test_invariance_rejects_non_finite_values():
    # the observable turns NaN on one live row after the flow only
    calls = []

    def after_flow_nan(rows):
        v = rows[:, 2].real.copy()
        if calls:
            v[3] = np.nan
        calls.append(len(rows))
        return v

    params = DensityParams(kappa=1.2, band=2)
    live = np.flatnonzero(batch_density_G(phi_block(91, 0, 3000, 2), params))
    with pytest.raises(ValueError, match=rf"observable 'l' is nan on the "
                                         rf"sample of stream {live[3]}$"):
        invariance_experiment(2, params, 0.05, 3000, 91,
                              {"m": batch_mass, "l": after_flow_nan})
    assert len(calls) == 2


def test_ensemble_observables_build_no_fourier_coeffs(monkeypatch):
    built = []
    init = FourierCoeffs.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FourierCoeffs, "__init__", counting_init)
    invariance_experiment(2, DensityParams(kappa=1.2, band=2), 0.05, 3000, 91,
                          {"m": batch_mass})
    assert built == []
    FourierCoeffs(0, np.zeros(1))
    assert built == [1]          # the counter itself works


def _reference_rk4(u, N, h):
    k1 = rhs_hamiltonian(u, N)
    k2 = rhs_hamiltonian(u + k1.scale(0.5 * h), N)
    k3 = rhs_hamiltonian(u + k2.scale(0.5 * h), N)
    k4 = rhs_hamiltonian(u + k3.scale(h), N)
    incr = k1 + k2.scale(2.0) + k3.scale(2.0) + k4
    return project(u + incr.scale(h / 6.0), N)


def test_invariance_rows_match_reference_rk4():
    # the parameters of test_invariance_small_run_passes; the observable
    # records the live rows it sees, before and after the flow
    seen = []
    rep = invariance_experiment(
        2, DensityParams(kappa=1.2, band=2), 0.05, 3000, 91,
        {"c": lambda rows: seen.append(rows.copy()) or np.zeros(len(rows))})
    before, after = seen
    assert before.shape == after.shape == (rep["positive_weights"], 5)
    for b, a in zip(before[::4], after[::4]):
        u = FourierCoeffs(2, b)
        for _ in range(10):      # t = 0.05 in steps of the default 0.005
            u = _reference_rk4(u, 2, 0.005)
        gap = np.max(np.abs(a - u.coeffs))
        assert gap <= 1e-13 * np.max(np.abs(u.coeffs))


def test_invariance_drift_names_stream():
    # at h = 0.005 this seed trips the 1e-5 mass-drift guard; the error
    # names the stream, and that stream alone trips it at the same time
    params = DensityParams(kappa=1.0, band=4)
    with pytest.raises(RuntimeError, match=r"at t = 0\.04 in stream (\d+)$") as exc:
        invariance_experiment(4, params, 0.05, 20000, 2046, {"m": batch_mass})
    stream = int(str(exc.value).split()[-1])
    u0 = FourierCoeffs(4, phi_block(2046, stream, 1, 4)[0])
    with pytest.raises(RuntimeError, match=r"at t = 0\.04$"):
        evolve(u0, 4, 0.05, IntegratorConfig(step=0.005, max_drift=1e-5))


_SMALL_RUN = (2, DensityParams(kappa=1.2, band=2), 0.05, 3000, 91)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_forks(monkeypatch) -> list:
    """One entry per os.fork call made by this process from now on."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)             # a child's own entry stays in the child
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("chunk", [None, 1, 3, 16])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_invariance_report_does_not_depend_on_workers_or_chunks(
        monkeypatch, cpus, chunk):
    obs = {"l4": batch_quartic_integral, "re_c1": lambda rows: rows[:, 3].real}
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 1)
    serial = invariance_experiment(*_SMALL_RUN, obs)
    # 200 resamples in chunks of 4 (the default), 1, 3 and 16: the last
    # chunk is short at 3 and 16; the samples are drawn and weighed in
    # `cpus` shards, and the chunks pulled from one queue by `cpus`
    # processes
    monkeypatch.setattr(chaos, "_cpu_count", lambda: cpus)
    if chunk:
        monkeypatch.setattr(sampling, "_BOOTSTRAP_CHUNK", chunk)
    parent = os.getpid()
    pids, layouts = [], []
    trajectory, weighted_se = flow._trajectory, flow._weighted_se

    def recording_trajectory(*args, **kwargs):
        pids.append(os.getpid())    # lost if a worker ran it
        return trajectory(*args, **kwargs)

    def recording_se(w, vals, counts):
        layouts.append(counts.flags.c_contiguous)
        return weighted_se(w, vals, counts)

    monkeypatch.setattr(flow, "_trajectory", recording_trajectory)
    monkeypatch.setattr(flow, "_weighted_se", recording_se)
    forks = _counting_forks(monkeypatch)
    assert invariance_experiment(*_SMALL_RUN, obs) == serial
    # one fork per worker for the whole run, both phases
    assert len(forks) == cpus - 1
    assert pids == [parent]
    # the resample sums run along the rows; their bits follow the layout
    assert layouts == [True, True]
    _no_child_left()


def test_invariance_without_fork_runs_every_chunk_here(monkeypatch):
    obs = {"m": batch_mass}
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 1)
    serial = invariance_experiment(*_SMALL_RUN, obs)
    # with three CPUs but no os.fork, this process is the one worker: it
    # draws every shard and every resample chunk
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 3)
    monkeypatch.delattr(os, "fork")
    pids = []
    chunk = flow._bootstrap_chunk

    def recording_chunk(*args):
        pids.append(os.getpid())
        return chunk(*args)

    monkeypatch.setattr(flow, "_bootstrap_chunk", recording_chunk)
    assert invariance_experiment(*_SMALL_RUN, obs) == serial
    assert pids == [os.getpid()] * len(
        sampling._bootstrap_starts(flow._BOOTSTRAP_RESAMPLES))
    _no_child_left()


def test_invariance_errors_reach_the_caller_from_every_worker(monkeypatch):
    monkeypatch.setattr(chaos, "_cpu_count", lambda: 2)
    # the flow's drift error is raised here, while a worker draws chunks
    test_invariance_drift_names_stream()
    _no_child_left()

    parent = os.getpid()
    chunk = flow._bootstrap_chunk

    def fails_in_a_worker(*args):
        if os.getpid() != parent:
            raise ValueError("chunk failed in a worker")
        return chunk(*args)

    monkeypatch.setattr(flow, "_bootstrap_chunk", fails_in_a_worker)
    with pytest.raises(ValueError, match="^chunk failed in a worker$"):
        invariance_experiment(*_SMALL_RUN, {"m": batch_mass})
    _no_child_left()


def _mask():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.mark.parametrize("cpus", [2, 3])
def test_invariance_errors_between_and_in_the_phases(monkeypatch, cpus):
    monkeypatch.setattr(chaos, "_cpu_count", lambda: cpus)
    mask = _mask()
    forks = _counting_forks(monkeypatch)
    # the weight errors are raised here between the phases, after the
    # fork: the workers have drawn and weighed their shards
    test_invariance_ess_error()
    test_invariance_zero_weights_error()
    assert len(forks) == 2 * (cpus - 1)
    assert _mask() == mask
    _no_child_left()

    # a worker that leaves between the phases, its shard sent
    parent = os.getpid()
    recv = chaos._Link.recv

    def leaves_in_a_worker(link):
        if os.getpid() != parent:
            os._exit(3)
        return recv(link)

    monkeypatch.setattr(chaos._Link, "recv", leaves_in_a_worker)
    with pytest.raises(RuntimeError, match="without a result"):
        invariance_experiment(*_SMALL_RUN, {"m": batch_mass})
    assert _mask() == mask
    _no_child_left()
    monkeypatch.setattr(chaos._Link, "recv", recv)

    # the caller fails in the flow while the workers sleep in a chunk
    def fails_here(*args, **kwargs):
        raise ValueError("flow failed here")

    def sleeps_in_a_worker(*args):
        time.sleep(30)  # unless it is killed, the call waits for this

    monkeypatch.setattr(flow, "_trajectory", fails_here)
    monkeypatch.setattr(flow, "_bootstrap_chunk", sleeps_in_a_worker)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^flow failed here$"):
        invariance_experiment(*_SMALL_RUN, {"m": batch_mass})
    assert time.perf_counter() - t0 < 10
    assert _mask() == mask
    _no_child_left()
