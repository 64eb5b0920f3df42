"""Declarative experiment runner and command-line interface.

Experiments are described by small JSON configs ({"experiment": name,
"parameters": {...}}), validated against per-experiment schemas that
reject unknown keys and list every violation at once, then dispatched
to the library modules.  Each run produces a RunRecord: config echo,
generator name, result payload, pass/fail verdicts, and CSV side tables
whose bytes are deterministic for a given config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .spectral import FourierCoeffs, QuadratureGrid, _modes, _project
from .functionals import (
    DensityParams,
    density_G,
    energy,
    f_quadrature_oracle,
    f_quartic,
    gauge_F,
    mass,
    momentum,
)
from .sampling import (
    GENERATOR_NAME,
    SeedSpec,
    phi_block,
    sample_ensemble,
    sample_phi,
)
from .observables import (
    batch_density_G,
    batch_f_quartic,
    batch_grid_sup_dsq,
    batch_h1_seminorm_sq,
    batch_l4_norm,
    batch_mass,
    batch_quartic_integral,
    batch_re_coeff,
)
from .chaos import (
    _KERNEL_MAX,
    cauchy_rate,
    chaos_ratio,
    erfc_fit_r2,
    kernel_tail_sum,
    random_coeff_table,
    tail_survival,
)
from .flow import IntegratorConfig, evolve, invariance_experiment

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "parse_config",
    "run",
    "emit",
    "main",
]

class ConfigError(ValueError):
    """Invalid experiment config; carries the complete violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict


@dataclass
class RunRecord:
    """Everything one run produced, ready to persist.

    tables maps CSV filenames to their full text; files holds non-CSV
    artifacts (JSON Lines ensembles, snapshots).  wall_time is the only
    non-deterministic field.
    """

    experiment: str
    config: dict
    generator: str
    wall_time: float
    payload: dict
    verdicts: list
    tables: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "generator": self.generator,
            "wall_time": self.wall_time,
            "payload": self.payload,
            "verdicts": self.verdicts,
            "tables": sorted(self.tables),
            "files": sorted(self.files),
        }


# ---------------------------------------------------------------------------
# config validation


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_at_least(lo):
    def check(v):
        if not _is_int(v) or v < lo:
            return f"expected integer >= {lo}, got {v!r}"
    return check


def _seed(v):
    # a Philox key word: larger seeds would alias smaller ones mod 2^64
    if not _is_int(v) or not 0 <= v < 2 ** 64:
        return f"expected integer in 0 .. 2^64 - 1, got {v!r}"


def _number(lo=None, hi=None, lo_strict=False):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            return f"expected finite number, got {v!r}"
        if lo is not None and (v <= lo if lo_strict else v < lo):
            return f"must be {'>' if lo_strict else '>='} {lo}, got {v!r}"
        if hi is not None and v > hi:
            return f"must be <= {hi}, got {v!r}"
    return check


def _choice(*opts):
    def check(v):
        if v not in opts:
            return f"must be one of {opts}, got {v!r}"
    return check


def _int_list(min_len, lo, hi=None, increasing=False):
    bound = f">= {lo}" if hi is None else f"in {lo} .. {hi}"

    def check(v):
        if not isinstance(v, list) or len(v) < min_len:
            return f"expected list of >= {min_len} integers, got {v!r}"
        if any(not _is_int(x) or x < lo or hi is not None and x > hi
               for x in v):
            return f"entries must be integers {bound}, got {v!r}"
        if increasing and any(b <= a for a, b in zip(v, v[1:])):
            return f"entries must be strictly increasing, got {v!r}"
    return check


def _number_list(min_len, lo=None, increasing=False):
    def check(v):
        if not isinstance(v, list) or len(v) < min_len:
            return f"expected list of >= {min_len} numbers, got {v!r}"
        if any(isinstance(x, bool) or not isinstance(x, (int, float))
               or not math.isfinite(x) for x in v):
            return f"entries must be finite numbers, got {v!r}"
        if lo is not None and any(x < lo for x in v):
            return f"entries must be >= {lo}, got {v!r}"
        if increasing and any(b <= a for a, b in zip(v, v[1:])):
            return f"entries must be strictly increasing, got {v!r}"
    return check


def _coeffs_dict(v):
    if not isinstance(v, dict) or set(v) != {"band", "re", "im"}:
        return f"expected {{band, re, im}} coefficient object, got {v!r}"
    if not _is_int(v["band"]) or v["band"] < 0:
        return "band must be a non-negative integer"
    want = 2 * v["band"] + 1
    for key in ("re", "im"):
        if not isinstance(v[key], list) or len(v[key]) != want or any(
                isinstance(x, bool) or not isinstance(x, (int, float))
                or not math.isfinite(x) for x in v[key]):
            return f"{key} must be a list of {want} finite numbers"


#: invariance observables by config name, one value per coefficient row
_INVARIANCE_OBSERVABLES = {
    "l4": batch_quartic_integral,
    "re_c1": lambda rows: batch_re_coeff(rows, 1),
    "h1": batch_h1_seminorm_sq,
    "f_N": batch_f_quartic,
}
_OBSERVABLE_NAMES = tuple(_INVARIANCE_OBSERVABLES)

#: tail observables by config name, one value per coefficient row; each
#: looks its kernel up by module name when called, so a wrapper bound
#: over that name (perfbench's span tracer) still sees the call
_TAIL_OBSERVABLES = {
    "l4_norm": lambda rows: batch_l4_norm(rows),
    "grid_sup_dsq": lambda rows: batch_grid_sup_dsq(rows),
    "re_c0": lambda rows: np.abs(batch_re_coeff(rows, 0)),
}

#: slope windows of the cauchy_rate verdict by mode
_RATE_WINDOWS = {"f_full": (-1.8, -1.2), "X_only": (-2.4, -1.6)}

# each entry: name -> (required?, default, checker)
_SCHEMAS = {
    "sample": {
        "N": (True, None, _int_at_least(0)),
        "count": (True, None, _int_at_least(1)),
        "seed": (True, None, _seed),
    },
    "functionals": {
        "N": (True, None, _int_at_least(0)),
        "count": (True, None, _int_at_least(1)),
        "seed": (True, None, _seed),
        "kappa": (False, 1.0, _number(lo=0, lo_strict=True)),
        "ramp": (False, "linear", _choice("linear", "cosine")),
    },
    "cauchy_rate": {
        "bands": (True, None, _int_list(2, 1, increasing=True)),
        "count": (True, None, _int_at_least(100)),
        "seed": (True, None, _seed),
        "mode": (False, "f_full", _choice(*_RATE_WINDOWS)),
    },
    "chaos": {
        "k": (True, None, _int_at_least(1)),
        "d": (True, None, _int_at_least(1)),
        "p": (True, None, _number(lo=2)),
        "count": (True, None, _int_at_least(1000)),
        "seed": (True, None, _seed),
        "batches": (False, 10, _int_at_least(2)),
        "terms": (False, 8, _int_at_least(1)),
        "coeffs_seed": (False, None, _seed),
    },
    "tails": {
        "observable": (True, None, _choice(*_TAIL_OBSERVABLES)),
        "N": (True, None, _int_at_least(0)),
        "lambdas": (True, None, _number_list(2, lo=0, increasing=True)),
        "count": (True, None, _int_at_least(1000)),
        "seed": (True, None, _seed),
        "theta": (False, 2.0, _choice(0.5, 1, 1.0, 2, 2.0)),
        "condition_kappa": (False, None, _number(lo=0, lo_strict=True)),
        "r2_min": (False, 0.9, _number(lo=0, hi=1)),
    },
    "kernel_sum": {
        "ns": (True, None, _int_list(1, -_KERNEL_MAX, _KERNEL_MAX)),
        "Ns": (True, None, _int_list(1, 1, _KERNEL_MAX)),
        "eps": (False, 0.25, _number(lo=0, hi=0.5, lo_strict=True)),
    },
    "flow": {
        "N": (True, None, _int_at_least(0)),
        "T": (True, None, _number()),
        "h": (True, None, _number(lo=0, lo_strict=True)),
        "max_drift": (False, 1e-6, _number(lo=0, lo_strict=True)),
        "energy_tol": (False, 1e-6, _number(lo=0, lo_strict=True)),
        "u0": (False, None, _coeffs_dict),
        "u0_seed": (False, None, _seed),
        "u0_norm": (False, None, _number(lo=0, lo_strict=True)),
        "snapshot_every": (False, None, _int_at_least(1)),
    },
    "invariance": {
        "N": (True, None, _int_at_least(0)),
        "kappa": (True, None, _number(lo=0, lo_strict=True)),
        "t": (True, None, _number()),
        "count": (True, None, _int_at_least(100)),
        "seed": (True, None, _seed),
        "h": (False, 0.005, _number(lo=0, lo_strict=True)),
        "observables": (False, list(_OBSERVABLE_NAMES), None),
    },
    "gn_lp": {
        "p": (True, None, _number(lo=1)),
        "kappa": (True, None, _number(lo=0, lo_strict=True)),
        "bands": (True, None, _int_list(1, 1, increasing=True)),
        "count": (True, None, _int_at_least(100)),
        "seed": (True, None, _seed),
        "eps_grid": (False, [0.001, 0.01, 0.1], _number_list(1, lo=0, increasing=True)),
    },
}


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config, reporting every violation at once."""
    violations = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])

    extra = set(doc) - {"experiment", "parameters"}
    for key in sorted(extra):
        violations.append(f"unknown top-level key {key!r}")
    name = doc.get("experiment")
    if name not in _SCHEMAS:
        violations.append(
            f"experiment must be one of {tuple(_SCHEMAS)}, got {name!r}")
        raise ConfigError(violations)

    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        violations.append("parameters must be an object")
        raise ConfigError(violations)

    schema = _SCHEMAS[name]
    for key in sorted(set(params) - set(schema)):
        violations.append(f"unknown parameter {key!r} for {name}")
    resolved = {}
    for key, (required, default, check) in schema.items():
        if key not in params:
            if required:
                violations.append(f"missing required parameter {key!r}")
            elif default is not None:
                resolved[key] = default
            continue
        value = params[key]
        msg = check(value) if check is not None else None
        if msg:
            violations.append(f"parameter {key!r}: {msg}")
        else:
            resolved[key] = value

    violations.extend(_cross_checks(name, resolved, params))
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(name, resolved)


def _cross_checks(name: str, p: dict, raw: dict) -> list:
    out = []
    if name == "invariance" and "observables" in raw:
        v = raw["observables"]
        if not isinstance(v, list) or not v or \
                any(x not in _OBSERVABLE_NAMES for x in v):
            out.append(
                f"parameter 'observables': must be a non-empty subset of "
                f"{_OBSERVABLE_NAMES}, got {v!r}")
    if name == "flow":
        explicit = "u0" in raw
        seeded = "u0_seed" in raw or "u0_norm" in raw
        if explicit and seeded:
            out.append("give either u0 or (u0_seed, u0_norm), not both")
        elif not explicit:
            if "u0_seed" not in raw or "u0_norm" not in raw:
                out.append("initial data missing: give u0 or both u0_seed and u0_norm")
    if name == "chaos" and all(k in p for k in ("count", "batches")):
        if p["count"] // p["batches"] < 100:
            out.append("count/batches below 100 samples per batch")
    if name == "chaos" and all(k in p for k in ("seed", "batches")):
        # batch j draws under master seed seed + 1 + j
        if p["seed"] + p["batches"] >= 2 ** 64:
            out.append("parameter 'seed': seed + batches must be below 2^64")
    return out


# ---------------------------------------------------------------------------
# experiment runners


def _fmt(v) -> str:
    return repr(float(v))


def _csv(header: str, rows: list) -> str:
    return "\n".join([header] + rows) + "\n"


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _run_sample(p: dict):
    ens = sample_ensemble(p["N"], p["count"], p["seed"])
    m = ens.coeff_matrix
    n = _modes(m)
    target = 1.0 / (n * n + 1.0)
    second = (m.real ** 2 + m.imag ** 2).mean(axis=0)
    z = (second - target) / (target / np.sqrt(ens.count))
    max_z = float(np.max(np.abs(z)))
    rows = [
        f"{int(n[i])},{_fmt(second[i])},{_fmt(target[i])},{_fmt(z[i])}"
        for i in range(len(n))
    ]
    payload = {"manifest": ens.manifest(), "max_abs_z": max_z}
    tables = {"moments.csv": _csv("mode,second_moment,target,z", rows)}
    files = {"samples.jsonl": ens.to_jsonl()}
    verdicts = [_verdict(
        "second_moments", max_z <= 5.0,
        f"max |z| over modes = {max_z:.2f} (limit 5)")]
    return payload, tables, files, verdicts


def _run_functionals(p: dict):
    N = p["N"]
    params = DensityParams(kappa=p["kappa"], band=N, ramp=p["ramp"])
    grid4 = QuadratureGrid.for_degree(4 * N)
    grid6 = QuadratureGrid.for_degree(6 * N)
    ens = sample_ensemble(N, p["count"], p["seed"])
    rows = []
    worst = 0.0
    sums = np.zeros(6)
    for i in range(ens.count):
        u = ens.sample(i)
        fm = mass(u)
        pm = momentum(u, grid4)
        fq = f_quartic(u, N)
        en = energy(u, grid6)
        gn = density_G(u, params)
        fu = gauge_F(u, grid4)
        oracle = f_quadrature_oracle(u, N, grid4)
        denom = max(abs(fq), abs(oracle))
        worst = max(worst, abs(fq - oracle) / denom if denom else 0.0)
        sums += (fm, pm, fq, en, gn, fu)
        rows.append(f"{i},{_fmt(fm)},{_fmt(pm)},{_fmt(fq)},"
                    f"{_fmt(en)},{_fmt(gn)},{_fmt(fu)}")
    means = sums / ens.count
    payload = {
        "means": {
            "mass": means[0], "momentum": means[1], "f_N": means[2],
            "energy": means[3], "G_N": means[4], "F_u": means[5],
        },
        "f_oracle_max_rel_gap": worst,
    }
    tables = {"functionals.csv": _csv(
        "sample_index,mass,momentum,f_N,energy,G_N,F_u", rows)}
    verdicts = [_verdict(
        "f_oracle_agreement", worst <= 1e-10,
        f"max relative gap spectral vs quadrature = {worst:.3e} (limit 1e-10)")]
    return payload, tables, {}, verdicts


def _run_cauchy(p: dict):
    fit = cauchy_rate(p["bands"], p["count"], p["seed"], p["mode"])
    lo, hi = _RATE_WINDOWS[p["mode"]]
    ok = lo <= fit.slope <= hi
    payload = {"fit": fit.to_json_dict(), "window": [lo, hi], "mode": p["mode"]}
    tables = {"rates.csv": fit.to_csv()}
    verdicts = [_verdict(
        "slope_in_window", ok,
        f"slope {fit.slope:.4f} (bootstrap CI [{fit.ci_low:.4f}, "
        f"{fit.ci_high:.4f}]), window [{lo}, {hi}]")]
    return payload, tables, {}, verdicts


def _run_chaos(p: dict):
    table_seed = p.get("coeffs_seed", p["seed"])
    table = random_coeff_table(p["k"], p["d"], p["terms"], table_seed)
    per_batch = p["count"] // p["batches"]
    ratios = []
    bound = None
    for j in range(p["batches"]):
        r, bound = chaos_ratio(p["k"], p["d"], table, p["p"],
                               per_batch, p["seed"] + 1 + j)
        ratios.append(r)
    mean = float(np.mean(ratios))
    se = float(np.std(ratios, ddof=1) / np.sqrt(len(ratios)))
    ok = mean <= bound + 3.0 * se
    payload = {
        "ratios": ratios, "mean_ratio": mean, "se": se, "bound": bound,
        "samples_per_batch": per_batch,
        "table_size": len(table),
    }
    rows = [f"{j},{_fmt(r)}" for j, r in enumerate(ratios)]
    tables = {"chaos.csv": _csv("batch,ratio", rows)}
    verdicts = [_verdict(
        "moment_ratio_bound", ok,
        f"mean ratio {mean:.4f} vs bound {bound:.4f} + 3*SE ({se:.4f})")]
    return payload, tables, {}, verdicts


def _run_tails(p: dict):
    N = p["N"]
    name = p["observable"]
    obs = _TAIL_OBSERVABLES[name]
    condition = None
    if p.get("condition_kappa") is not None:
        kap = p["condition_kappa"]
        condition = lambda rows: batch_mass(rows) <= kap  # noqa: E731
    fit = tail_survival(obs, N, p["lambdas"], p["count"], p["seed"],
                        condition=condition, theta=float(p["theta"]))
    payload = {"fit": fit.to_json_dict(), "observable": name}
    verdicts = [
        _verdict("fit_quality", fit.r_squared >= p["r2_min"],
                 f"r^2 = {fit.r_squared:.4f} (min {p['r2_min']})"),
        _verdict("tail_decays", fit.rate > 0,
                 f"rate = {fit.rate:.4f} (must be positive)"),
    ]
    if name == "re_c0":
        r2 = erfc_fit_r2(fit)
        payload["erfc_r2"] = r2
        verdicts.append(_verdict(
            "erfc_oracle_match", r2 >= 0.98,
            f"log-survival vs log-erfc r^2 = {r2:.4f} (min 0.98)"))
    tables = {"survival.csv": fit.to_csv()}
    return payload, tables, {}, verdicts


def _run_kernel(p: dict):
    rows = []
    ratios = []
    for n in p["ns"]:
        for N in p["Ns"]:
            s, ratio = kernel_tail_sum(n, N, p["eps"])
            ratios.append(ratio)
            rows.append(f"{n},{N},{_fmt(s)},{_fmt(ratio)}")
    mx = float(np.max(ratios))
    med = float(np.median(ratios))
    ok = mx <= 2.0 * med
    payload = {"eps": p["eps"], "max_ratio": mx, "median_ratio": med,
               "spread": mx / med}
    tables = {"kernel.csv": _csv("n,N,sum,bound_ratio", rows)}
    verdicts = [_verdict(
        "ratio_spread", ok,
        f"max ratio {mx:.4f} vs 2 x median {2 * med:.4f} "
        f"(spread {mx / med:.1f}x)")]
    return payload, tables, {}, verdicts


def _run_flow(p: dict):
    N = p["N"]
    if "u0" in p:
        u0 = FourierCoeffs.from_json_dict(p["u0"])
    else:
        draw = sample_phi(N, SeedSpec(p["u0_seed"], 0))
        u0 = draw.scale(p["u0_norm"] / mass(draw))
    config = IntegratorConfig(step=p["h"], max_drift=p["max_drift"])
    traj = evolve(u0, N, p["T"], config)
    logs = [st.invariants_log for st in traj]
    mass0 = logs[0]["mass"]
    en0 = logs[0]["energy"]
    mass_drift = max(abs(l["mass"] - mass0) for l in logs)
    energy_drift = max(abs(l["energy"] - en0) for l in logs)
    rows = [f"{_fmt(st.t)},{_fmt(l['mass'])},{_fmt(l['energy'])},{_fmt(l['F_u'])}"
            for st, l in zip(traj, logs)]
    payload = {
        "steps": len(traj) - 1,
        "initial": logs[0],
        "final": logs[-1],
        "mass_drift": mass_drift,
        "energy_drift": energy_drift,
    }
    tables = {"trajectory.csv": _csv("t,mass,energy,F_u", rows)}
    files = {}
    every = p.get("snapshot_every")
    if every:
        lines = []
        for k, st in enumerate(traj):
            if k % every == 0 or k == len(traj) - 1:
                d = st.u.to_json_dict()
                d["t"] = st.t
                lines.append(json.dumps(d, separators=(",", ":")))
        files["snapshots.jsonl"] = "\n".join(lines) + "\n"
    verdicts = [
        _verdict("mass_conserved", mass_drift <= p["max_drift"],
                 f"drift {mass_drift:.3e} (limit {p['max_drift']:g})"),
        _verdict("energy_conserved", energy_drift <= p["energy_tol"],
                 f"drift {energy_drift:.3e} (limit {p['energy_tol']:g})"),
    ]
    return payload, tables, files, verdicts


def _run_invariance(p: dict):
    N = p["N"]
    params = DensityParams(kappa=p["kappa"], band=N)
    obs = {k: _INVARIANCE_OBSERVABLES[k] for k in p["observables"]}
    report = invariance_experiment(N, params, p["t"], p["count"], p["seed"],
                                   obs, step_size=p["h"])
    rows = []
    verdicts = []
    for k, r in report["observables"].items():
        rows.append(f"{k},{_fmt(r['before'])},{_fmt(r['after'])},"
                    f"{_fmt(r['delta'])},{_fmt(r['se'])},{int(r['pass'])}")
        verdicts.append(_verdict(
            f"invariant_{k}", r["pass"],
            f"|delta| = {abs(r['delta']):.3e} vs 3*SE = {3 * r['se']:.3e}"))
    verdicts.append(_verdict(
        "effective_sample_size", report["ess"] >= 100.0,
        f"ESS = {report['ess']:.1f} (min 100)"))
    tables = {"invariance.csv": _csv(
        "observable,before,after,delta,se,pass", rows)}
    return report, tables, {}, verdicts


def _run_gn_lp(p: dict):
    kappa = p["kappa"]
    pw = float(p["p"])
    count = p["count"]
    seed = p["seed"]
    eps_grid = [float(e) for e in p["eps_grid"]]
    per_band = {}
    diff_means = []
    rows_main = []
    rows_diff = []
    for j, N in enumerate(p["bands"]):
        base = 2 * j * count
        rows = phi_block(seed, base, count, 2 * N)
        inner = _project(rows, N)
        gN = batch_density_G(inner, DensityParams(kappa=kappa, band=N))
        gM = batch_density_G(rows, DensityParams(kappa=kappa, band=2 * N))
        control = phi_block(seed, base + count, count, N)
        ball = float(np.mean(batch_mass(control) <= kappa))
        frac = float(np.mean(gN > 0))
        moment = float(np.mean(gN ** pw))
        adiff = np.abs(gM - gN)
        dmean = float(np.mean(adiff))
        diff_means.append(dmean)
        exceed = [float(np.mean(adiff > e)) for e in eps_grid]
        per_band[str(N)] = {
            "moment": moment, "frac_positive": frac, "ball_mass": ball,
            "diff_mean": dmean,
            "diff_exceed": dict(zip(map(str, eps_grid), exceed)),
        }
        rows_main.append(f"{N},{_fmt(moment)},{_fmt(frac)},{_fmt(ball)}")
        rows_diff.append(",".join(
            [str(N), _fmt(dmean)] + [_fmt(x) for x in exceed]))

    bands = p["bands"]
    top = bands[len(bands) // 2:]
    vals = [per_band[str(N)]["moment"] for N in top]
    if max(vals) == 0.0:
        variation = 1.0  # all-zero estimates: nothing varies
    elif min(vals) == 0.0:
        variation = float("inf")
    else:
        variation = max(vals) / min(vals)
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(diff_means, diff_means[1:]))
    triv_ok = True
    triv_detail = []
    for N in bands:
        r = per_band[str(N)]
        f, b = r["frac_positive"], r["ball_mass"]
        sigma = math.sqrt(f * (1 - f) / count + b * (1 - b) / count)
        ok = abs(f - b) <= 3.0 * sigma
        triv_ok = triv_ok and ok
        triv_detail.append(f"N={N}: |{f:.4f}-{b:.4f}| vs 3s={3 * sigma:.4f}")

    # JSON has no infinity: an unbounded variation is recorded as null
    payload = {"per_band": per_band, "p": pw, "kappa": kappa,
               "top_half_variation": None if math.isinf(variation) else variation}
    tables = {
        "gn_lp.csv": _csv("N,moment,frac_positive,ball_mass", rows_main),
        "gn_diffs.csv": _csv(
            ",".join(["N", "diff_mean"] + [f"frac_gt_{e}" for e in eps_grid]),
            rows_diff),
    }
    verdicts = [
        _verdict("uniform_boundedness", variation < 2.0,
                 f"top-half variation factor {variation:.3f} (limit 2)"),
        _verdict("density_diffs_decreasing", nonincreasing,
                 "E|G_2N - G_N| over bands: "
                 + ", ".join(f"{d:.3e}" for d in diff_means)),
        _verdict("nontriviality", triv_ok, "; ".join(triv_detail)),
    ]
    return payload, tables, {}, verdicts


_RUNNERS = {
    "sample": _run_sample,
    "functionals": _run_functionals,
    "cauchy_rate": _run_cauchy,
    "chaos": _run_chaos,
    "tails": _run_tails,
    "kernel_sum": _run_kernel,
    "flow": _run_flow,
    "invariance": _run_invariance,
    "gn_lp": _run_gn_lp,
}


def run(config: ExperimentConfig) -> RunRecord:
    """Execute one validated experiment and assemble its record."""
    t0 = time.perf_counter()
    payload, tables, files, verdicts = _RUNNERS[config.experiment](
        config.parameters)
    wall = time.perf_counter() - t0
    return RunRecord(
        experiment=config.experiment,
        config={"experiment": config.experiment,
                "parameters": dict(config.parameters)},
        generator=GENERATOR_NAME,
        wall_time=wall,
        payload=payload,
        verdicts=verdicts,
        tables=tables,
        files=files,
    )


def emit(record: RunRecord, out_dir: str) -> list:
    """Persist a record: record.json plus its side tables and files.

    Every file ends with a newline; writing the same record twice yields
    identical bytes except for the wall_time field of record.json.  All
    files are serialised before any is written, and each is written to a
    temporary name and renamed over its target, so a refused record
    (non-finite values) or a failed write leaves earlier files whole.
    """
    texts = [("record.json", json.dumps(record.to_json_dict(), indent=2,
                                        sort_keys=True, allow_nan=False) + "\n")]
    texts += [(name, record.tables[name]) for name in sorted(record.tables)]
    texts += [(name, record.files[name]) for name in sorted(record.files)]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in texts:
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbs-dnls",
        description="Spectral and Monte Carlo experiments for the cutoff "
                    "Gibbs measure of derivative NLS on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--out", default="gibbs_dnls_out",
                       help="output directory (default: ./gibbs_dnls_out)")
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker hint; results never depend on it")
    run_p.add_argument("--verbose", action="store_true")
    val_p = sub.add_parser("validate", help="validate a config and exit")
    val_p.add_argument("--config", required=True, help="path to JSON config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"invalid config ({len(exc.violations)} problem(s)):",
              file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {config.experiment}")
        return 0

    if args.threads < 1:
        print("--threads must be at least 1", file=sys.stderr)
        return 2
    record = run(config)
    paths = emit(record, args.out)
    if args.verbose:
        print(json.dumps(record.payload, indent=2, sort_keys=True, default=str))
    for v in record.verdicts:
        tag = "pass" if v["passed"] else "FAIL"
        print(f"[{tag}] {v['name']}: {v['detail']}")
    print(f"wrote {len(paths)} file(s) to {args.out}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
