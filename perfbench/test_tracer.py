"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py

Checks the span arithmetic on a synthetic tree with known self times,
that wrapping reaches every binding of a public function and is undone,
that the output digest sees every emitted byte but wall_time's value,
and that every metric name the benchmark can emit is well formed.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import gibbs_dnls  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# harness.run [0, 10]
#   sampling.phi_block [1, 4]
#     sampling.sample_gaussian [2, 3]
#   observables.batch_l4_norm [5, 9]
#     observables.batch_square [6, 8]
#       functionals.chi [6.5, 7]
#   flow.step [9, 9.75]
#     functionals.mass [9.25, 9.5]
NAMES = ["harness.run", "sampling.phi_block", "sampling.sample_gaussian",
         "observables.batch_l4_norm", "observables.batch_square",
         "functionals.chi", "flow.step", "functionals.mass"]
PARENT = [-1, 0, 1, 0, 3, 4, 0, 6]
START = [0.0, 1.0, 2.0, 5.0, 6.0, 6.5, 9.0, 9.25]
END = [10.0, 4.0, 3.0, 9.0, 8.0, 7.0, 9.75, 9.5]
SELF = [10 - 3 - 4 - 0.75, 2.0, 1.0, 2.0, 1.5, 0.5, 0.5, 0.25]
# (rows, values, bytes, fft points) on the outermost sampling and
# observables spans and on the FFT kernel
WORK = {1: (10, 330, 5280, 0), 3: (10, 330, 5360, 0),
        4: (10, 330, 6400, 1280)}


def synthetic():
    return tracer.Spans(NAMES, range(len(NAMES)), PARENT, START, END, WORK)


def test_self_time_is_duration_minus_child_coverage():
    s = synthetic()
    assert s.self_time == pytest.approx(SELF)
    # self times partition the root span
    assert float(np.sum(s.self_time)) == pytest.approx(END[0] - START[0])


def test_outermost_and_ancestry():
    s = synthetic()
    assert list(np.nonzero(s.outermost("sampling"))[0]) == [1]
    assert list(np.nonzero(s.outermost("observables"))[0]) == [3]
    assert list(np.nonzero(s.outermost("functionals"))[0]) == [5, 7]
    assert list(np.nonzero(s.below(s.named("flow.step")))[0]) == [7]
    assert list(np.nonzero(s.below(s.in_layer("observables")))[0]) == [4, 5]


def test_layer_metrics_on_known_tree():
    m = tracer.layer_metrics(synthetic(), coeffs_built=40, wall_s=10.0)
    assert m["sampling.calls"] == 1
    assert m["sampling.busy_s"] == pytest.approx(3.0)
    assert m["sampling.coeffs"] == 330
    assert m["sampling.ns_per_coeff"] == pytest.approx(3e9 / 330)
    assert m["observables.calls"] == 1
    assert m["observables.busy_s"] == pytest.approx(4.0)
    assert m["observables.bytes_moved"] == 5360
    assert m["observables.fft_points"] == 1280
    assert m["functionals.calls"] == 2
    assert m["functionals.busy_s"] == pytest.approx(0.75)
    assert m["functionals.under_flow_s"] == pytest.approx(0.25)
    assert m["flow.steps"] == 1
    assert m["flow.step_busy_s"] == pytest.approx(0.75)
    assert m["flow.step_self_s"] == pytest.approx(0.5)
    assert m["spectral.coeffs_built_per_step"] == pytest.approx(40.0)
    assert m["harness.run_s"] == pytest.approx(10.0)
    assert m["sampling.self_share"] == pytest.approx(0.3)
    assert m["harness.self_share"] == pytest.approx(0.225)


def test_tracing_cost_is_taken_out_of_every_span_that_paid_it():
    # 0.1 s per child span, 0.05 s per construction; span 1 built two
    built = [0, 2, 0, 0, 0, 0, 0, 0]
    s = tracer.Spans(NAMES, range(len(NAMES)), PARENT, START, END, WORK,
                     built, span_cost=0.1, init_cost=0.05)
    own = [0.3, 0.1 + 2 * 0.05, 0, 0.1, 0.1, 0, 0.1, 0]
    assert s.self_time == pytest.approx([a - b for a, b in zip(SELF, own)])
    assert s.overhead[0] == pytest.approx(sum(own))
    assert s.overhead[3] == pytest.approx(0.2)
    assert float(np.sum(s.self_time)) == pytest.approx(s.duration[0])
    assert s.duration[0] == pytest.approx(10.0 - sum(own))


def test_parent_must_precede_child():
    with pytest.raises(ValueError):
        tracer.Spans(["harness.run"], [0, 0], [1, -1], [0.0, 0.0], [1.0, 1.0])


def test_wrapping_reaches_every_binding_and_is_undone():
    phi_block = gibbs_dnls.sampling.phi_block
    multiply = gibbs_dnls.spectral.multiply
    init = gibbs_dnls.spectral.FourierCoeffs.__init__
    tr = tracer.Tracer()
    with tr:
        for ns in (gibbs_dnls.harness, gibbs_dnls.chaos, gibbs_dnls.flow,
                   gibbs_dnls.sampling):
            assert ns.phi_block is not phi_block
            assert ns.phi_block.__wrapped_by_tracer__ is phi_block
        assert gibbs_dnls.flow.multiply.__wrapped_by_tracer__ is multiply
        assert gibbs_dnls.multiply.__wrapped_by_tracer__ is multiply
        rows = gibbs_dnls.harness.phi_block(7, 0, 3, 2)
        gibbs_dnls.observables.batch_l4_norm(rows)
        u = gibbs_dnls.sample_phi(2, gibbs_dnls.SeedSpec(7, 0))
        gibbs_dnls.flow.multiply(u, u)
    assert gibbs_dnls.harness.phi_block is phi_block
    assert gibbs_dnls.flow.multiply is multiply
    assert gibbs_dnls.spectral.FourierCoeffs.__init__ is init

    s = tr.spans()
    names = [s.names[i] for i in s.name_id]
    assert names == [
        "sampling.phi_block", "sampling.gaussian_block",
        "sampling.sample_gaussian", "sampling.sample_gaussian",
        "sampling.sample_gaussian",
        "observables.batch_l4_norm", "observables.batch_quartic_integral",
        "observables.batch_square",
        "sampling.sample_phi", "sampling.sample_gaussian",
        "spectral.multiply",
    ]
    assert list(s.parent) == [-1, 0, 1, 1, 1, -1, 5, 6, -1, 8, -1]
    assert tr.coeffs_built == 2                  # sample_phi, multiply
    assert list(tr.built[1:]) == [0] * 8 + [1, 0, 1]
    assert 0 < tr.span_cost < 1e-4 and 0 < tr.init_cost < 1e-4
    assert np.all(s.self_time >= 0)
    assert tr.work[0][:2] == (3, 15)             # phi_block: 3 rows of 5
    assert tr.work[7][3] == 2 * 3 * 16           # 9 wide -> 16-point FFTs


def test_output_digest_covers_every_byte_but_wall_time(tmp_path):
    def digest(wall_time, tail):
        path = tmp_path / "record.json"
        path.write_text('{\n  "seed": 7,\n  "wall_time": %r\n}%s' % (wall_time, tail))
        return workloads.output_digest([path]), path.stat().st_size

    (d1, n1), size = digest(1.25, "\n")
    assert n1 == size - len("1.25") + 1
    assert digest(3.5e-05, "\n")[0] == (d1, n1)
    (d2, n2), _ = digest(1.25, "")
    assert d2 != d1 and n2 == n1 - 1


def test_names_are_well_formed_and_match_the_benchmark():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    emitted = set(tracer.layer_metrics(synthetic(), 0, 1.0)) | {
        "harness.emit_bytes", "flow.live_fraction", "harness.parse_s",
        "trace.overhead_s"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
