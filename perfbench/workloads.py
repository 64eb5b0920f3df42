"""Workload definitions, config generation and output checks.

Each workload is a list of experiment configs built from one workload
seed; the package sees nothing but the JSON text of those configs.  The
sizes are scaled-down copies of two of the slowest acceptance criteria
(A06, A11): big enough that each layer's share of the time is the one
the full protocol has, small enough to rerun many times.

Seed s gives every config the seed of its counterpart in configs/ plus
s, so seed 0 reproduces those configs' streams and is the seed whose
outputs are pinned in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

DEFAULT_SEED = 0

#: reference values hold to this relative tolerance (absolute below 1e-12);
#: integer counts must match exactly
REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_TAILS_L4_LAMBDAS = [2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6]
_TAILS_C0_LAMBDAS = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5]


def _tails(observable, N, lambdas, base_seed):
    return lambda s: {"experiment": "tails", "parameters": {
        "observable": observable, "N": N, "lambdas": lambdas,
        "count": 100000, "seed": base_seed + s, "theta": 2}}


#: 3-SE windows on weighted means; at an arbitrary seed their outcome is a
#: statistical event (workload seed 209 puts invariant_h1 at 3.9 SE), so
#: their expected outcome is checked at the default seed only
SEED_DEPENDENT_VERDICTS = frozenset(
    {"invariant_l4", "invariant_re_c1", "invariant_h1", "invariant_f_N"})

# workload -> [(label, config builder, expected verdicts)]
WORKLOADS = {
    # sampling-bound Monte Carlo at narrow rows: band 0 is pure per-stream
    # overhead, band 32 adds the FFT kernel
    "mc_tails": [
        ("tails_l4", _tails("l4_norm", 32, _TAILS_L4_LAMBDAS, 17),
         {"fit_quality": True, "tail_decays": True}),
        ("tails_re_c0", _tails("re_c0", 0, _TAILS_C0_LAMBDAS, 23),
         {"fit_quality": True, "tail_decays": True, "erfc_oracle_match": True}),
    ],
    # the flow and its spectral products dominate; cut short in time
    # rather than in samples, because fewer samples push the effective
    # sample size below 100.  Four RK4 steps keep a pass near 4.5 s, so
    # several passes fit in one run.  h = 0.0025: at the default h = 0.005
    # some seeds (2046 among them) trip the 1e-5 mass-drift guard within
    # 0.05 time units and the whole experiment raises
    "flow_invariance": [
        ("invariance_n4", lambda s: {"experiment": "invariance", "parameters": {
            "N": 4, "kappa": 1.0, "t": 0.01, "h": 0.0025, "count": 20000,
            "seed": 2024 + s}},
         {"invariant_l4": True, "invariant_re_c1": True, "invariant_h1": True,
          "invariant_f_N": True, "effective_sample_size": True}),
    ],
}


def setup(workload: str, seed: int) -> list:
    """Generate and validate the workload's configs: [(label, config)]."""
    import gibbs_dnls
    return [(label, gibbs_dnls.parse_config(json.dumps(build(seed), sort_keys=True)))
            for label, build, _ in WORKLOADS[workload]]


def rows_drawn(config) -> int:
    """Field rows one run of the config samples."""
    return config.parameters["count"]


def rk4_steps(config) -> int:
    """RK4 steps per evolved sample, as flow.evolve splits [0, t]."""
    p = config.parameters
    t, h = abs(float(p["t"])), float(p["h"])
    full = int(t / h + 1e-12)
    return full + (abs(t - full * h) > 1e-12 * max(1.0, t))


# ---------------------------------------------------------------------------
# checks


def summary(record) -> dict:
    """The record's checked numbers: exact integers and approximate floats."""
    pl = record.payload
    if record.experiment == "tails":
        fit = pl["fit"]
        approx = {k: fit[k] for k in ("survival", "rate", "intercept", "r_squared")}
        if "erfc_r2" in pl:
            approx["erfc_r2"] = pl["erfc_r2"]
        return {"exact": {"counts": fit["counts"], "total": fit["total"]},
                "approx": approx}
    if record.experiment == "invariance":
        approx = {"ess": pl["ess"]}
        for name, r in sorted(pl["observables"].items()):
            for k in ("before", "after", "delta", "se"):
                approx[f"{name}.{k}"] = r[k]
        return {"exact": {"positive_weights": pl["positive_weights"],
                          "count": pl["count"]},
                "approx": approx}
    raise ValueError(f"no summary for experiment {record.experiment!r}")


def _floats(v):
    if isinstance(v, bool):
        return
    if isinstance(v, (int, float)):
        yield float(v)
    elif isinstance(v, dict):
        for x in v.values():
            yield from _floats(x)
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _floats(x)


def verdict_problems(record, expected: dict, default_seed: bool) -> list:
    """Verdicts whose outcome differs from the expected one."""
    got = {v["name"]: v["passed"] for v in record.verdicts}
    if set(got) != set(expected):
        return [f"verdicts {sorted(got)} != expected {sorted(expected)}"]
    return [f"verdict {name} passed={got[name]}, expected {want}"
            for name, want in expected.items()
            if got[name] != want
            and (default_seed or name not in SEED_DEPENDENT_VERDICTS)]


def property_problems(record, config) -> list:
    """Checks that hold at every seed; returns what failed."""
    out = []
    if not all(math.isfinite(x) for x in _floats(record.payload)):
        out.append("non-finite value in payload")
    p = config.parameters
    pl = record.payload
    if record.experiment == "tails":
        fit = pl["fit"]
        counts = fit["counts"]
        if fit["total"] != p["count"]:
            out.append(f"rows kept {fit['total']} != rows drawn {p['count']}")
        if len(counts) != len(p["lambdas"]):
            out.append("one exceedance count per threshold expected")
        if any(b > a for a, b in zip(counts, counts[1:])) or counts[0] > fit["total"]:
            out.append(f"exceedance counts not nested: {counts}")
        if fit["survival"] != [c / fit["total"] for c in counts]:
            out.append("survival != counts / rows")
    elif record.experiment == "invariance":
        if pl["ess"] < 100.0:
            out.append(f"ESS {pl['ess']} < 100")
        if not 0 < pl["positive_weights"] <= p["count"] or pl["count"] != p["count"]:
            out.append(f"live samples {pl['positive_weights']} of {pl['count']}")
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def reference_problems(summ: dict, ref: dict) -> list:
    """Differences between a summary and its pinned reference."""
    out = []
    for k, want in ref["exact"].items():
        if summ["exact"].get(k) != want:
            out.append(f"{k}: {summ['exact'].get(k)} != reference {want}")
    for k, want in ref["approx"].items():
        got = list(_floats(summ["approx"].get(k)))
        want_f = list(_floats(want))
        if len(got) != len(want_f) or not all(map(_close, got, want_f)):
            out.append(f"{k}: {summ['approx'].get(k)} != reference {want} "
                       f"(rel tol {REL_TOL:g})")
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


_WALL_TIME = re.compile(rb'"wall_time": [^,\n}]*')


def output_digest(paths) -> tuple:
    """(sha256, bytes) of the emitted files as written, with the value of
    record.json's wall_time blanked to one character.

    Blanking keeps the varying width of the timing out of both figures;
    every other byte, formatting and final newlines included, counts.
    """
    h = hashlib.sha256()
    nbytes = 0
    for path in sorted(paths, key=lambda p: Path(p).name):
        path = Path(path)
        data = path.read_bytes()
        if path.name == "record.json":
            data = _WALL_TIME.sub(b'"wall_time": -', data)
        nbytes += len(data)
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), nbytes
