"""Declarative experiment runner and command-line interface.

Experiments are described by small JSON configs ({"experiment": name,
"parameters": {...}}), validated against per-experiment schemas that
reject unknown keys and list every violation at once, then dispatched
to the library modules.  Each parameter is checked on its own; what a
config cannot set (chaos batches, the tail fit's r^2 floor, the
density-difference thresholds, the invariance observables) is a
constant of its runner.  Each run produces a RunRecord: config echo,
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

from .spectral import FourierCoeffs, _integer, _modes, _project, _real
from .functionals import (
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
    ball_probability,
    phi_block,
    sample_phi,
)
from .observables import (
    batch_density_G,
    batch_f_quartic,
    batch_grid_sup_dsq,
    batch_h1_seminorm_sq,
    batch_l4_norm,
    batch_quartic_integral,
    batch_re_coeff,
)
from .chaos import (
    _KERNEL_MAX,
    _RATE_WINDOWS,
    _THETAS,
    cauchy_rate,
    chaos_ratio,
    erfc_fit_r2,
    kernel_tail_sum,
    random_coeff_table,
    tail_survival,
)
from .flow import evolve, invariance_experiment

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
    artifacts (the JSON Lines ensemble of a sample run).  wall_time is
    the only non-deterministic field.
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


# Each checker takes a parameter's key and value and raises ValueError
# on a bad value; integers and reals go through spectral's _integer and
# _real, the public API's own checks.


def _int_at_least(lo, at_most=math.inf):
    def check(key, v):
        if _integer(key, v, lo) > at_most:
            raise ValueError(f"{key} must be at most {at_most}, got {v}")
    return check


def _seed(spare=0):
    # a Philox key word: larger seeds would alias smaller ones mod 2^64;
    # spare leaves room for the master seeds seed + 1 .. seed + spare
    def check(key, v):
        if _integer(key, v, 0) >= 2 ** 64 - spare:
            raise ValueError(f"{key} must be at most 2^64 - {1 + spare}, "
                             f"got {v}")
    return check


def _number(**bounds):
    return lambda key, v: _real(key, v, **bounds)


def _choice(*opts):
    def check(key, v):
        # True == 1 in Python, so a JSON boolean would pass as a number
        if isinstance(v, bool) or v not in opts:
            raise ValueError(f"must be one of {opts}, got {v!r}")
    return check


def _list_of(entry, min_len, increasing=False):
    """A list of at least min_len entries, entry i checked by the checker
    entry under the key f"{key}[{i}]", strictly increasing if asked."""
    def check(key, v):
        if not isinstance(v, list) or len(v) < min_len:
            raise ValueError(f"expected list of >= {min_len} entries, "
                             f"got {v!r}")
        for i, x in enumerate(v):
            entry(f"{key}[{i}]", x)
        if increasing and any(b <= a for a, b in zip(v, v[1:])):
            raise ValueError(f"entries must be strictly increasing, got {v!r}")
    return check


#: the invariance experiment's observables by report name, one value per
#: coefficient row
_INVARIANCE_OBSERVABLES = {
    "l4": batch_quartic_integral,
    "re_c1": lambda rows: batch_re_coeff(rows, 1),
    "h1": batch_h1_seminorm_sq,
    "f_N": batch_f_quartic,
}

#: tail observables by config name, one value per coefficient row; each
#: looks its kernel up by module name when called, so a wrapper bound
#: over that name (perfbench's span tracer) still sees the call
_TAIL_OBSERVABLES = {
    "l4_norm": lambda rows: batch_l4_norm(rows),
    "grid_sup_dsq": lambda rows: batch_grid_sup_dsq(rows),
    "re_c0": lambda rows: np.abs(batch_re_coeff(rows, 0)),
}

#: chaos runs: batches of count // batches samples, batch j under master
#: seed seed + 1 + j, on one coefficient table drawn from seed's
#: reserved streams
_CHAOS_BATCHES = 10

#: thresholds e of the gn_lp table's fractions P(|G_2N - G_N| > e)
_EPS_GRID = (0.001, 0.01, 0.1)

# each entry: name -> (required?, default, checker)
_SCHEMAS = {
    "sample": {
        "N": (True, None, _int_at_least(0)),
        "count": (True, None, _int_at_least(1)),
        "seed": (True, None, _seed()),
    },
    "functionals": {
        "N": (True, None, _int_at_least(0)),
        "count": (True, None, _int_at_least(1)),
        "seed": (True, None, _seed()),
        "kappa": (False, 1.0, _number(above=0)),
    },
    "cauchy_rate": {
        "bands": (True, None, _list_of(_int_at_least(1), 2, increasing=True)),
        "count": (True, None, _int_at_least(100)),
        "seed": (True, None, _seed()),
        "mode": (False, "f_full", _choice(*_RATE_WINDOWS)),
    },
    "chaos": {
        "k": (True, None, _int_at_least(1)),
        "d": (True, None, _int_at_least(1)),
        "p": (True, None, _number(at_least=2)),
        "count": (True, None, _int_at_least(1000)),
        "seed": (True, None, _seed(_CHAOS_BATCHES)),
    },
    "tails": {
        "observable": (True, None, _choice(*_TAIL_OBSERVABLES)),
        "N": (True, None, _int_at_least(0)),
        "lambdas": (True, None, _list_of(_number(at_least=0), 2,
                                        increasing=True)),
        "count": (True, None, _int_at_least(1000)),
        "seed": (True, None, _seed()),
        "theta": (False, 2.0, _choice(*_THETAS)),
        "condition_kappa": (False, None, _number(above=0)),
    },
    "kernel_sum": {
        "ns": (True, None, _list_of(
            _int_at_least(-_KERNEL_MAX, at_most=_KERNEL_MAX), 1)),
        "Ns": (True, None, _list_of(_int_at_least(1, at_most=_KERNEL_MAX), 1)),
        "eps": (False, 0.25, _number(above=0, at_most=0.5)),
    },
    "flow": {
        "N": (True, None, _int_at_least(0)),
        "T": (True, None, _number()),
        "h": (True, None, _number(above=0)),
        "u0_seed": (True, None, _seed()),
        "u0_norm": (True, None, _number(above=0)),
        "max_drift": (False, 1e-6, _number(above=0)),
        "energy_tol": (False, 1e-6, _number(above=0)),
    },
    "invariance": {
        "N": (True, None, _int_at_least(0)),
        "kappa": (True, None, _number(above=0)),
        "t": (True, None, _number()),
        "count": (True, None, _int_at_least(100)),
        "seed": (True, None, _seed()),
        "h": (False, 0.005, _number(above=0)),
    },
    "gn_lp": {
        "p": (True, None, _number(at_least=1)),
        "kappa": (True, None, _number(above=0)),
        "bands": (True, None, _list_of(_int_at_least(1), 1, increasing=True)),
        "count": (True, None, _int_at_least(100)),
        "seed": (True, None, _seed()),
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
        try:
            check(key, value)
        except ValueError as exc:
            violations.append(f"parameter {key!r}: {exc}")
        else:
            resolved[key] = value

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(name, resolved)


# ---------------------------------------------------------------------------
# experiment runners


def _fmt(v) -> str:
    return repr(float(v))


def _csv(header: str, rows: list) -> str:
    return "\n".join([header] + rows) + "\n"


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _run_sample(p: dict):
    N, count, seed = p["N"], p["count"], p["seed"]
    m = phi_block(seed, 0, count, N)
    n = _modes(m)
    target = 1.0 / (n * n + 1.0)
    second = (m.real ** 2 + m.imag ** 2).mean(axis=0)
    z = (second - target) / (target / np.sqrt(count))
    max_z = float(np.max(np.abs(z)))
    rows = [
        f"{int(n[i])},{_fmt(second[i])},{_fmt(target[i])},{_fmt(z[i])}"
        for i in range(len(n))
    ]
    manifest = {"master_seed": seed, "first_stream": 0,
                "generator": GENERATOR_NAME, "band": N, "count": count,
                "weighted": False}
    payload = {"manifest": manifest, "max_abs_z": max_z}
    tables = {"moments.csv": _csv("mode,second_moment,target,z", rows)}
    dump = "".join(
        json.dumps({"stream": i, "re": row.real.tolist(),
                    "im": row.imag.tolist()}, separators=(",", ":")) + "\n"
        for i, row in enumerate(m))
    files = {"samples.jsonl": dump}
    verdicts = [_verdict(
        "second_moments", max_z <= 5.0,
        f"max |z| over modes = {max_z:.2f} (limit 5)")]
    return payload, tables, files, verdicts


def _run_functionals(p: dict):
    N = p["N"]
    block = phi_block(p["seed"], 0, p["count"], N)
    rows = []
    worst = 0.0
    sums = np.zeros(6)
    for i, coeffs in enumerate(block):
        u = FourierCoeffs(N, coeffs)
        fm = mass(u)
        pm = momentum(u)
        fq = f_quartic(u, N)
        en = energy(u)
        gn = density_G(u, p["kappa"])
        fu = gauge_F(u)
        oracle = f_quadrature_oracle(u, N)
        denom = max(abs(fq), abs(oracle))
        worst = max(worst, abs(fq - oracle) / denom if denom else 0.0)
        sums += (fm, pm, fq, en, gn, fu)
        rows.append(f"{i},{_fmt(fm)},{_fmt(pm)},{_fmt(fq)},"
                    f"{_fmt(en)},{_fmt(gn)},{_fmt(fu)}")
    means = sums / len(block)
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
    table = random_coeff_table(p["k"], p["d"], p["seed"])
    per_batch = p["count"] // _CHAOS_BATCHES
    ratios = []
    bound = None
    for j in range(_CHAOS_BATCHES):
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
    fit = tail_survival(_TAIL_OBSERVABLES[name], N, p["lambdas"], p["count"],
                        p["seed"], kappa=p.get("condition_kappa"),
                        theta=p["theta"])
    payload = {"fit": fit.to_json_dict(), "observable": name}
    verdicts = [
        _verdict("fit_quality", fit.r_squared >= 0.9,
                 f"r^2 = {fit.r_squared:.4f} (min 0.9)"),
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
    """Integrate from the field drawn on stream 0 of u0_seed, rescaled to
    L^2 norm u0_norm, and check its mass and energy drifts."""
    N = p["N"]
    draw = sample_phi(N, SeedSpec(p["u0_seed"], 0))
    u0 = draw.scale(p["u0_norm"] / mass(draw))
    traj = evolve(u0, N, p["T"], p["h"], p["max_drift"])
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
    verdicts = [
        _verdict("mass_conserved", mass_drift <= p["max_drift"],
                 f"drift {mass_drift:.3e} (limit {p['max_drift']:g})"),
        _verdict("energy_conserved", energy_drift <= p["energy_tol"],
                 f"drift {energy_drift:.3e} (limit {p['energy_tol']:g})"),
    ]
    return payload, tables, {}, verdicts


def _run_invariance(p: dict):
    N = p["N"]
    report = invariance_experiment(N, p["kappa"], p["t"], p["count"],
                                   p["seed"], _INVARIANCE_OBSERVABLES,
                                   step_size=p["h"])
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
    """Moments of G_N, its band-to-band differences, and its nontriviality.

    Band j draws count band-2N rows from streams 2 j count on.  Its
    ball_mass b is the exact P(||phi_N|| <= kappa), and frac_positive
    must lie within 3 sqrt(b (1 - b) / count) of it.
    """
    kappa = p["kappa"]
    pw = float(p["p"])
    count = p["count"]
    seed = p["seed"]
    per_band = {}
    diff_means = []
    rows_main = []
    rows_diff = []
    triv_ok = True
    triv_detail = []
    for j, N in enumerate(p["bands"]):
        base = 2 * j * count
        rows = phi_block(seed, base, count, 2 * N)
        gN = batch_density_G(_project(rows, N), kappa)
        gM = batch_density_G(rows, kappa)
        ball = ball_probability(N, kappa)
        frac = float(np.mean(gN > 0))
        moment = float(np.mean(gN ** pw))
        sigma = math.sqrt(ball * (1 - ball) / count)
        triv_ok = triv_ok and abs(frac - ball) <= 3.0 * sigma
        triv_detail.append(
            f"N={N}: |{frac:.4f}-{ball:.4f}| vs 3s={3 * sigma:.4f}")
        adiff = np.abs(gM - gN)
        dmean = float(np.mean(adiff))
        diff_means.append(dmean)
        exceed = [float(np.mean(adiff > e)) for e in _EPS_GRID]
        per_band[str(N)] = {
            "moment": moment, "frac_positive": frac, "ball_mass": ball,
            "diff_mean": dmean,
            "diff_exceed": dict(zip(map(str, _EPS_GRID), exceed)),
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

    # JSON has no infinity: an unbounded variation is recorded as null
    payload = {"per_band": per_band, "p": pw, "kappa": kappa,
               "top_half_variation": None if math.isinf(variation) else variation}
    tables = {
        "gn_lp.csv": _csv("N,moment,frac_positive,ball_mass", rows_main),
        "gn_diffs.csv": _csv(
            ",".join(["N", "diff_mean"] + [f"frac_gt_{e}" for e in _EPS_GRID]),
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

    record = run(config)
    try:
        paths = emit(record, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        print(json.dumps(record.payload, indent=2, sort_keys=True, default=str))
    for v in record.verdicts:
        tag = "pass" if v["passed"] else "FAIL"
        print(f"[{tag}] {v['name']}: {v['detail']}")
    print(f"wrote {len(paths)} file(s) to {args.out}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
