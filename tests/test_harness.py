"""Config validation, run determinism, emit idempotence, CLI exit codes."""

import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gibbs_dnls.sampling import GENERATOR_NAME, phi_block
from gibbs_dnls.harness import (
    _SCHEMAS,
    ConfigError,
    emit,
    main,
    parse_config,
    run,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")


def cfg_text(experiment, **params):
    return json.dumps({"experiment": experiment, "parameters": params})


# --- parsing ---------------------------------------------------------------

def test_parse_minimal_sample():
    c = parse_config(cfg_text("sample", N=4, count=10, seed=1))
    assert c.experiment == "sample"
    assert c.parameters == {"N": 4, "count": 10, "seed": 1}


def test_parse_applies_defaults():
    c = parse_config(cfg_text("functionals", N=4, count=10, seed=1))
    assert c.parameters["kappa"] == 1.0


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError) as err:
        parse_config('{"experiment": "bogus"}')
    assert any("bogus" in v for v in err.value.violations)


def test_parse_lists_every_violation():
    text = json.dumps({
        "experiment": "cauchy_rate",
        "parameters": {"count": 10, "bogus": 1},
        "extra": True,
    })
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    joined = "\n".join(err.value.violations)
    assert len(err.value.violations) == 5
    assert "extra" in joined
    assert "bogus" in joined
    assert "bands" in joined
    assert "count" in joined
    assert "seed" in joined


def test_parse_rejects_non_json_and_non_object():
    with pytest.raises(ConfigError):
        parse_config("not json at all")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")
    with pytest.raises(ConfigError):
        parse_config('{"experiment": "sample", "parameters": 7}')


def test_parse_type_checks():
    with pytest.raises(ConfigError):
        parse_config(cfg_text("sample", N=4.5, count=10, seed=1))
    with pytest.raises(ConfigError):
        parse_config(cfg_text("sample", N=True, count=10, seed=1))
    with pytest.raises(ConfigError):
        parse_config(cfg_text("sample", N=-1, count=10, seed=1))
    with pytest.raises(ConfigError):
        parse_config(cfg_text("cauchy_rate", bands=[8, 8], count=200, seed=1))
    with pytest.raises(ConfigError):
        parse_config(cfg_text("tails", observable="mass", N=4,
                              lambdas=[1.0, 2.0], count=10000, seed=1))
    # kernel sums are accurate for |n|, N <= 64 only
    parse_config(cfg_text("kernel_sum", ns=[-64, 64], Ns=[64]))
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_text("kernel_sum", ns=[0, -65], Ns=[4, 65]))
    assert [v.split(":")[0] for v in err.value.violations] == \
        ["parameter 'ns'", "parameter 'Ns'"]


def test_parse_flow_initial_data_rules():
    # the initial datum is the seeded draw, rescaled to L^2 norm u0_norm
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_text("flow", N=4, T=1.0, h=0.001, u0_norm=0.1))
    assert err.value.violations == ["missing required parameter 'u0_seed'"]
    c = parse_config(cfg_text("flow", N=1, T=0.01, h=0.001,
                              u0_seed=1, u0_norm=0.1))
    assert (c.parameters["u0_seed"], c.parameters["u0_norm"]) == (1, 0.1)


def test_parse_choice_rejects_booleans():
    # True == 1 in Python: "theta": true must not fit at theta 1
    tails = dict(observable="l4_norm", N=4, lambdas=[1.0, 2.0],
                 count=10000, seed=1)
    for bad in (True, False):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text("tails", **tails, theta=bad))
        assert err.value.violations[0].startswith("parameter 'theta'")
    for ok in (1, 2.0):
        c = parse_config(cfg_text("tails", **tails, theta=ok))
        assert c.parameters["theta"] == ok


_TOP = 2 ** 64 - 1      # largest seed a 64-bit Philox key word holds
_CHAOS = dict(k=1, d=4, p=4, count=1000)
_FLOW = dict(N=1, T=0.01, h=0.001, u0_norm=0.1)


@pytest.mark.parametrize("experiment, params, field", [
    ("sample", dict(N=2, count=5), "seed"),
    ("gn_lp", dict(p=2, kappa=1.0, bands=[4], count=100), "seed"),
    ("flow", _FLOW, "u0_seed"),
])
def test_parse_rejects_seeds_that_alias(experiment, params, field):
    # seed 2^64 would draw exactly seed 0's numbers
    for bad in (_TOP + 1, 2 ** 70):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(experiment, **params, **{field: bad}))
        assert any(v.startswith(f"parameter {field!r}") and "2^64" in v
                   for v in err.value.violations)
    c = parse_config(cfg_text(experiment, **params, **{field: _TOP}))
    assert c.parameters[field] == _TOP


def test_parse_chaos_batch_seeds_stay_below_2_64():
    # batch j of 10 draws under master seed seed + 1 + j
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_text("chaos", **_CHAOS, seed=_TOP - 9))
    assert err.value.violations == [
        f"parameter 'seed': expected integer in 0 .. 2^64 - 11, got {_TOP - 9}"]
    parse_config(cfg_text("chaos", **_CHAOS, seed=_TOP - 10))


# --- run determinism -------------------------------------------------------

def test_run_twice_identical():
    c = parse_config(cfg_text("sample", N=4, count=10, seed=1))
    a = run(c)
    b = run(c)
    assert a.payload == b.payload
    assert a.tables == b.tables
    assert a.files == b.files
    assert a.verdicts == b.verdicts


def test_run_record_fields():
    c = parse_config(cfg_text("kernel_sum", ns=[0], Ns=[4, 8]))
    rec = run(c)
    assert rec.experiment == "kernel_sum"
    assert rec.generator == "philox4x64-boxmuller-v1"
    assert rec.wall_time >= 0
    assert rec.config["parameters"]["eps"] == 0.25
    d = rec.to_json_dict()
    assert d["tables"] == ["kernel.csv"]


def test_sample_dump_rows_are_the_streams_draws():
    rec = run(parse_config(cfg_text("sample", N=3, count=8, seed=101)))
    text = rec.files["samples.jsonl"]
    assert text.endswith("\n")
    recs = [json.loads(line) for line in text.splitlines()]
    assert [r["stream"] for r in recs] == list(range(8))
    got = np.array([np.array(r["re"]) + 1j * np.array(r["im"]) for r in recs])
    want = phi_block(101, 0, 8, 3)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rec.payload["manifest"] == {
        "master_seed": 101, "first_stream": 0, "generator": GENERATOR_NAME,
        "band": 3, "count": 8, "weighted": False}


# --- golden files ----------------------------------------------------------

@pytest.mark.parametrize("name", ["sample", "functionals", "kernel_sum"])
def test_golden(name):
    d = os.path.join(GOLDEN, name)
    with open(os.path.join(d, "config.json")) as fh:
        rec = run(parse_config(fh.read()))
    with open(os.path.join(d, "payload.json")) as fh:
        assert json.loads(json.dumps(rec.payload, sort_keys=True)) == json.load(fh)
    for fname in sorted(os.listdir(d)):
        if fname in ("config.json", "payload.json"):
            continue
        with open(os.path.join(d, fname), newline="") as fh:
            want = fh.read()
        got = rec.tables.get(fname, rec.files.get(fname))
        assert got == want, fname


# --- shipped configs --------------------------------------------------------

def _shipped_configs():
    return sorted(f for f in os.listdir(CONFIGS) if f.endswith(".json"))


def _readme_catalog():
    """{config file: (experiment, exit code)} from README's config catalog."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Config catalog\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\w+) \|.* \| (\d) \|$", section,
                      flags=re.M)
    catalog = {name: (experiment, int(code)) for name, experiment, code in rows}
    assert len(rows) == len(catalog), "a config is listed twice"
    return catalog


@pytest.mark.parametrize("name", _shipped_configs())
def test_shipped_config_parses(name):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        config = parse_config(fh.read())
    assert config.experiment == _readme_catalog()[name][0]


def test_readme_catalog_lists_exactly_the_shipped_configs():
    assert sorted(_readme_catalog()) == _shipped_configs()


#: shipped configs whose exact computation an acceptance test already runs
#: (same experiment, seeds and sizes), so their exit codes are not rerun
_RUN_BY_ACCEPTANCE = {
    "tails_l4.json": "A06, test_criterion_06_gaussian_tails (about 16 s)",
    "invariance_n4.json": "A11, test_criterion_11_invariance",
    "flow_conservation.json": "A10's reference_trajectory fixture",
}


@pytest.mark.parametrize("name", [n for n in _shipped_configs()
                                  if n not in _RUN_BY_ACCEPTANCE])
def test_shipped_config_exits_as_catalogued(name, tmp_path, capsys):
    code = main(["run", "--config", os.path.join(CONFIGS, name),
                 "--out", str(tmp_path)])
    assert code == _readme_catalog()[name][1], capsys.readouterr().out


def _workload_configs():
    """The benchmark workloads' configs at their default seed."""
    path = os.path.join(REPO, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [build(workloads.DEFAULT_SEED)
            for cases in workloads.WORKLOADS.values() for _, build, _ in cases]


def _configs_in_use():
    paths = [os.path.join(CONFIGS, name) for name in _shipped_configs()]
    paths += [os.path.join(GOLDEN, name, "config.json")
              for name in sorted(os.listdir(GOLDEN))]
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs + _workload_configs()


#: optional parameters that no shipped config, golden or benchmark
#: workload sets, each with the reason it stays
_UNSET_OPTIONS_KEPT = {
    ("tails", "condition_kappa"):
        "ROADMAP item 2: the tilted companion of A07 fits the tail "
        "conditioned on the mass ball, which this option selects",
}


def test_every_option_is_set_by_a_config_in_use():
    used = {(doc["experiment"], key)
            for doc in _configs_in_use() for key in doc["parameters"]}
    optional = {(name, key) for name, schema in _SCHEMAS.items()
                for key, (required, _, _) in schema.items() if not required}
    assert optional - used == set(_UNSET_OPTIONS_KEPT)


# --- emit ------------------------------------------------------------------

def test_emit_idempotent(tmp_path):
    c = parse_config(cfg_text("sample", N=2, count=5, seed=3))
    rec = run(c)
    out = tmp_path / "run1"
    paths = emit(rec, str(out))
    assert sorted(os.path.basename(p) for p in paths) == [
        "moments.csv", "record.json", "samples.jsonl"]
    first = {p: Path(p).read_bytes() for p in paths}
    for blob in first.values():
        assert blob.endswith(b"\n")
    emit(rec, str(out))
    for p, blob in first.items():
        assert Path(p).read_bytes() == blob
    with open(out / "record.json") as fh:
        doc = json.load(fh)
    assert doc["experiment"] == "sample"
    assert doc["config"]["parameters"]["seed"] == 3


def _reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def test_emit_writes_strict_json_for_unbounded_variation(tmp_path):
    # one band's moment estimate is 0 and another's is not, so the
    # top-half variation is unbounded: recorded as null, verdict fails
    rec = run(parse_config(cfg_text(
        "gn_lp", p=2, kappa=0.9, bands=[1, 2, 16], count=100, seed=3)))
    emit(rec, str(tmp_path))
    with open(tmp_path / "record.json") as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    assert doc["payload"]["top_half_variation"] is None
    verdict = {v["name"]: v for v in doc["verdicts"]}["uniform_boundedness"]
    assert not verdict["passed"]
    assert verdict["detail"] == "top-half variation factor inf (limit 2)"


def test_emit_refuses_non_finite_values(tmp_path):
    rec = run(parse_config(cfg_text("sample", N=2, count=5, seed=3)))
    rec.payload["bad"] = float("nan")
    with pytest.raises(ValueError):
        emit(rec, str(tmp_path))


def test_refused_emit_leaves_earlier_files(tmp_path):
    rec = run(parse_config(cfg_text("sample", N=2, count=5, seed=3)))
    paths = emit(rec, str(tmp_path))
    before = {p: Path(p).read_bytes() for p in paths}
    rec.payload["bad"] = float("nan")
    with pytest.raises(ValueError):
        emit(rec, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, paths))
    for p, blob in before.items():
        assert Path(p).read_bytes() == blob


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    rec = run(parse_config(cfg_text("sample", N=2, count=5, seed=3)))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        emit(rec, str(tmp_path))
    assert os.listdir(tmp_path) == []


# --- CLI -------------------------------------------------------------------

def write_config(tmp_path, text, name="c.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_validate_ok(tmp_path, capsys):
    p = write_config(tmp_path, cfg_text("sample", N=2, count=3, seed=1))
    assert main(["validate", "--config", p]) == 0
    assert "ok: sample" in capsys.readouterr().out


def test_cli_validate_lists_violations(tmp_path, capsys):
    p = write_config(tmp_path, '{"experiment": "sample", "parameters": {}}')
    assert main(["validate", "--config", p]) == 2
    err = capsys.readouterr().err
    assert "N" in err and "count" in err and "seed" in err


def test_cli_missing_file(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_run_pass_and_outputs(tmp_path, capsys):
    p = write_config(tmp_path, cfg_text("sample", N=2, count=5, seed=3))
    out = tmp_path / "out"
    assert main(["run", "--config", p, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[pass]" in stdout
    assert (out / "record.json").exists()
    assert (out / "samples.jsonl").exists()


def test_cli_run_failing_verdict(tmp_path, capsys):
    # the kernel ratio spread is known to exceed 2x its median
    p = write_config(tmp_path, cfg_text(
        "kernel_sum", ns=[0, 5, 20], Ns=[4, 8, 16, 32, 64]))
    out = tmp_path / "out"
    assert main(["run", "--config", p, "--out", str(out)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    p = write_config(tmp_path, cfg_text("sample", N=2, count=3, seed=1))
    out = tmp_path / "taken"
    out.write_text("a regular file, not a directory\n")
    assert main(["run", "--config", p, "--out", str(out)]) == 2
    assert "cannot write output:" in capsys.readouterr().err
    assert out.read_text() == "a regular file, not a directory\n"
