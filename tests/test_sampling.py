"""Determinism and distributional checks for the Gaussian field sampler."""

import json

import numpy as np
import pytest

from gibbs_dnls.sampling import (
    GENERATOR_NAME,
    Ensemble,
    SeedSpec,
    bootstrap_indices,
    ensemble_stats,
    gaussian_block,
    phi_block,
    sample_ensemble,
    sample_gaussian,
    sample_phi,
)

# exact second moment of the band-4 field: sum over |n| <= 4 of <n>^{-2}
SIGMA_4 = 231.0 / 85.0


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1, 0)
    with pytest.raises(ValueError):
        SeedSpec(0, -2)


def test_generator_name_is_pinned():
    assert GENERATOR_NAME == "philox4x64-boxmuller-v1"


def test_streams_deterministic_and_distinct():
    a = sample_gaussian(SeedSpec(5, 7), 16)
    b = sample_gaussian(SeedSpec(5, 7), 16)
    c = sample_gaussian(SeedSpec(5, 8), 16)
    d = sample_gaussian(SeedSpec(6, 7), 16)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_prefix_stability():
    # a longer request from the same stream extends, never reshuffles
    short = sample_gaussian(SeedSpec(11, 3), 8)
    long = sample_gaussian(SeedSpec(11, 3), 32)
    assert np.array_equal(long[:8], short)


def test_gaussian_moments():
    n = 200000
    g = sample_gaussian(SeedSpec(12345, 0), n)
    a2 = np.abs(g) ** 2
    # E g = 0 with component variance 1/2
    assert abs(np.mean(g)) <= 5.0 / np.sqrt(n)
    # E|g|^2 = 1 with Var|g|^2 = 1
    assert abs(np.mean(a2) - 1.0) <= 5.0 / np.sqrt(n)
    # E|g|^4 = 2 with Var|g|^4 = 20
    assert abs(np.mean(a2 ** 2) - 2.0) <= 5.0 * np.sqrt(20.0 / n)
    # real part is N(0, 1/2): kurtosis 3
    re = g.real
    kurt = np.mean(re ** 4) / np.mean(re ** 2) ** 2
    assert abs(kurt - 3.0) <= 0.15


def test_sample_phi_layout():
    u = sample_phi(4, SeedSpec(9, 0))
    assert u.band == 4
    g = sample_gaussian(SeedSpec(9, 0), 9)
    n = np.arange(-4, 5)
    assert np.array_equal(u.coeffs, g / np.sqrt(n * n + 1.0))


def test_phi_block_matches_per_stream():
    rows = phi_block(77, 5, 4, 3)
    for j in range(4):
        u = sample_phi(3, SeedSpec(77, 5 + j))
        assert np.array_equal(rows[j], u.coeffs)


def test_gaussian_block_matches_per_stream():
    rows = gaussian_block(42, 2, 3, 10)
    for j in range(3):
        assert np.array_equal(rows[j], sample_gaussian(SeedSpec(42, 2 + j), 10))


def test_field_second_moments():
    count = 20000
    rows = phi_block(2718, 0, count, 4)
    second = np.mean(np.abs(rows) ** 2, axis=0)
    n = np.arange(-4, 5)
    target = 1.0 / (n * n + 1.0)
    z = (second - target) / (target / np.sqrt(count))
    assert np.max(np.abs(z)) <= 5.0
    # Var(Re c_n) = 1/(2 <n>^2), checked at n = 3
    var_re = np.var(rows[:, 7].real)
    want = 0.5 / 10.0
    assert abs(var_re - want) <= 5.0 * want * np.sqrt(2.0 / count)
    # total mass oracle: E sum |c_n|^2 = 231/85 at band 4
    mass2 = np.sum(np.abs(rows) ** 2, axis=1)
    se = np.std(mass2) / np.sqrt(count)
    assert abs(np.mean(mass2) - SIGMA_4) <= 5.0 * se


def test_sample_ensemble_round_trip():
    ens = sample_ensemble(3, 8, 101)
    assert ens.band == 3
    assert ens.count == 8
    assert len(ens) == 8
    man = ens.manifest()
    assert man["generator"] == GENERATOR_NAME
    assert man["master_seed"] == 101
    text = ens.to_jsonl()
    assert text.endswith("\n")
    back = Ensemble.from_jsonl(man, text)
    assert np.array_equal(back.coeff_matrix, ens.coeff_matrix)
    # individual samples match the stream convention
    u0 = ens.sample(0)
    assert np.array_equal(u0.coeffs, sample_phi(3, SeedSpec(101, 0)).coeffs)


def test_from_jsonl_rejects_wrong_generator():
    ens = sample_ensemble(2, 3, 5)
    man = dict(ens.manifest())
    man["generator"] = "other-rng"
    with pytest.raises(ValueError):
        Ensemble.from_jsonl(man, ens.to_jsonl())


def _relabel(text, streams):
    """The jsonl records of text with their stream fields replaced in order."""
    recs = [json.loads(line) for line in text.strip().split("\n")]
    for rec, s in zip(recs, streams):
        rec["stream"] = s
    return "\n".join(json.dumps(r) for r in recs) + "\n"


def _ensemble_at_stream_5():
    rows = phi_block(9, 5, 3, 2)
    return Ensemble(2, rows, SeedSpec(9, 5))


def test_from_jsonl_accepts_offset_streams():
    ens = _ensemble_at_stream_5()
    back = Ensemble.from_jsonl(ens.manifest(), _relabel(ens.to_jsonl(), [7, 5, 6]))
    assert np.array_equal(back.coeff_matrix, ens.coeff_matrix[[1, 2, 0]])


@pytest.mark.parametrize("streams, bad", [
    ([5, 6, 6], 6),     # duplicate: stream 7 missing, its row left all zero
    ([4, 6, 7], 4),     # below first_stream: would land in the last row
    ([5, 6, 8], 8),     # at first_stream + count
    ([5, 6, 40], 40),   # above
])
def test_from_jsonl_rejects_bad_stream(streams, bad):
    ens = _ensemble_at_stream_5()
    text = _relabel(ens.to_jsonl(), streams)
    with pytest.raises(ValueError, match=f"stream {bad}\\b"):
        Ensemble.from_jsonl(ens.manifest(), text)


def test_weights_validation():
    ens = sample_ensemble(2, 4, 1)
    with pytest.raises(ValueError):
        ens.with_weights(np.array([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ens.with_weights(np.array([1.0, np.inf, 0.0, 0.0]))


def test_ensemble_stats_unweighted():
    ens = sample_ensemble(2, 500, 7)
    vals = np.abs(ens.coeff_matrix[:, 2]) ** 2  # |c_0|^2 per sample
    mean, se = ensemble_stats(ens, lambda u: abs(u.coeff(0)) ** 2)
    assert mean == pytest.approx(np.mean(vals))
    assert se == pytest.approx(np.std(vals, ddof=1) / np.sqrt(500))


def test_ensemble_stats_weighted():
    ens = sample_ensemble(2, 400, 8)
    w = (np.abs(ens.coeff_matrix[:, 2]) < 1.0).astype(float)
    wens = ens.with_weights(w)
    vals = np.abs(ens.coeff_matrix[:, 3]) ** 2
    mean, se = ensemble_stats(wens, lambda u: abs(u.coeff(1)) ** 2)
    assert mean == pytest.approx(np.sum(w * vals) / np.sum(w))
    assert se > 0
    # deterministic bootstrap
    mean2, se2 = ensemble_stats(wens, lambda u: abs(u.coeff(1)) ** 2)
    assert (mean, se) == (mean2, se2)


def test_ensemble_stats_zero_weights_error():
    ens = sample_ensemble(2, 10, 9).with_weights(np.zeros(10))
    with pytest.raises(ValueError):
        ensemble_stats(ens, lambda u: 1.0)


def test_bootstrap_indices():
    idx = bootstrap_indices(55, 300, 20)
    assert idx.shape == (20, 300)
    assert idx.min() >= 0 and idx.max() <= 299
    assert np.array_equal(idx, bootstrap_indices(55, 300, 20))


def test_jsonl_weight_field():
    ens = sample_ensemble(1, 3, 4).with_weights(np.array([0.0, 1.5, 2.0]))
    lines = ens.to_jsonl().strip().split("\n")
    rec = json.loads(lines[1])
    assert rec["weight"] == 1.5
    assert rec["stream"] == 1
