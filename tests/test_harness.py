"""Config validation, run determinism, emit idempotence, CLI exit codes."""

import json
import os

import pytest

from gibbs_dnls.harness import (
    ConfigError,
    emit,
    main,
    parse_config,
    run,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
    assert c.parameters["ramp"] == "linear"


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
    with pytest.raises(ConfigError, match="initial data"):
        parse_config(cfg_text("flow", N=4, T=1.0, h=0.001))
    with pytest.raises(ConfigError, match="not both"):
        parse_config(cfg_text(
            "flow", N=1, T=1.0, h=0.001, u0_seed=1, u0_norm=0.1,
            u0={"band": 1, "re": [0, 0, 1], "im": [0, 0, 0]}))
    c = parse_config(cfg_text(
        "flow", N=1, T=0.01, h=0.001,
        u0={"band": 1, "re": [0.0, 0.0, 0.1], "im": [0.0, 0.0, 0.0]}))
    assert c.parameters["u0"]["band"] == 1
    with pytest.raises(ConfigError):
        parse_config(cfg_text(
            "flow", N=1, T=0.01, h=0.001,
            u0={"band": 1, "re": [0.0, 0.0], "im": [0.0, 0.0, 0.0]}))


def test_parse_invariance_observables_subset():
    with pytest.raises(ConfigError):
        parse_config(cfg_text("invariance", N=4, kappa=1.0, t=0.5,
                              count=200, seed=1, observables=["energy"]))
    c = parse_config(cfg_text("invariance", N=4, kappa=1.0, t=0.5,
                              count=200, seed=1, observables=["l4"]))
    assert c.parameters["observables"] == ["l4"]


def test_parse_chaos_batch_floor():
    with pytest.raises(ConfigError, match="batches"):
        parse_config(cfg_text("chaos", k=1, d=4, p=4, count=1000,
                              seed=1, batches=20))


_TOP = 2 ** 64 - 1      # largest seed a 64-bit Philox key word holds
_CHAOS = dict(k=1, d=4, p=4, count=1000)
_FLOW = dict(N=1, T=0.01, h=0.001, u0_norm=0.1)


@pytest.mark.parametrize("experiment, params, field", [
    ("sample", dict(N=2, count=5), "seed"),
    ("chaos", dict(_CHAOS, seed=1), "coeffs_seed"),
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
    # batch j draws under master seed seed + 1 + j
    with pytest.raises(ConfigError, match="seed \\+ batches"):
        parse_config(cfg_text("chaos", **_CHAOS, seed=_TOP - 9, batches=10))
    parse_config(cfg_text("chaos", **_CHAOS, seed=_TOP - 10, batches=10))


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


# --- emit ------------------------------------------------------------------

def test_emit_idempotent(tmp_path):
    c = parse_config(cfg_text("sample", N=2, count=5, seed=3))
    rec = run(c)
    out = tmp_path / "run1"
    paths = emit(rec, str(out))
    assert sorted(os.path.basename(p) for p in paths) == [
        "moments.csv", "record.json", "samples.jsonl"]
    first = {p: open(p, "rb").read() for p in paths}
    for blob in first.values():
        assert blob.endswith(b"\n")
    emit(rec, str(out))
    for p, blob in first.items():
        assert open(p, "rb").read() == blob
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
    before = {p: open(p, "rb").read() for p in paths}
    rec.payload["bad"] = float("nan")
    with pytest.raises(ValueError):
        emit(rec, str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, paths))
    for p, blob in before.items():
        assert open(p, "rb").read() == blob


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


def test_cli_threads_do_not_change_results(tmp_path):
    p = write_config(tmp_path, cfg_text("sample", N=3, count=8, seed=5))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", p, "--out", str(out1)]) == 0
    assert main(["run", "--config", p, "--out", str(out2),
                 "--threads", "4"]) == 0
    a = (out1 / "samples.jsonl").read_bytes()
    b = (out2 / "samples.jsonl").read_bytes()
    assert a == b
    with open(out1 / "record.json") as fh:
        ra = json.load(fh)
    with open(out2 / "record.json") as fh:
        rb = json.load(fh)
    ra.pop("wall_time"), rb.pop("wall_time")
    assert ra == rb


def test_cli_bad_threads(tmp_path):
    p = write_config(tmp_path, cfg_text("sample", N=2, count=3, seed=1))
    assert main(["run", "--config", p, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2
