"""The public API's arguments: one integer check and one real check.

Every size, band and seed argument goes through spectral._integer, which
refuses a float, a bool and a value below the argument's range with a
message that names the argument, and accepts numpy integers as Python
ones.  Every real argument goes through spectral._real, which refuses a
bool, a non-number, a nan or infinity and a value outside the
argument's range, and accepts numpy floats as Python ones.  The AST
guard keeps int(), which truncates, and float(), which takes a bool as
a number, away from the package's parameters.
"""

import ast
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from gibbs_dnls.chaos import (
    cauchy_rate,
    chaos_ratio,
    f_decompose,
    kernel_tail_sum,
    random_coeff_table,
    tail_survival,
    y3_sum,
)
from gibbs_dnls.flow import (
    IntegratorConfig,
    evolve,
    invariance_experiment,
    rhs_expanded,
    rhs_hamiltonian,
)
from gibbs_dnls.functionals import density_G, f_quadrature_oracle, f_quartic
from gibbs_dnls.observables import (
    batch_density_G,
    batch_mass,
    batch_re_coeff,
    chi,
)
from gibbs_dnls.sampling import (
    SeedSpec,
    ball_probability,
    bootstrap_counts,
    gaussian_block,
    phi_block,
    phi_block_in_ball,
    sample_gaussian,
    sample_phi,
)
from gibbs_dnls.spectral import FourierCoeffs, QuadratureGrid, lp_norm, project

SRC = Path(__file__).resolve().parent.parent / "src" / "gibbs_dnls"

U = FourierCoeffs.from_pairs({-1: 0.2, 1: 0.1j})
TABLE = {(1,): 1.0, (2,): 0.5}
KAPPA = 1.2
STEP = IntegratorConfig(step=0.01)

#: (entry point, argument, call with the argument set to v, a valid value,
#: the value just below the argument's range, None where it has no floor)
CASES = [
    ("sample_gaussian", "count",
     lambda v: sample_gaussian(SeedSpec(1, 0), v), 3, 0),
    ("sample_phi", "N", lambda v: sample_phi(v, SeedSpec(1, 0)), 2, -1),
    *[(fn.__name__, arg, call, 3, low)
      for fn in (gaussian_block, phi_block)
      for arg, call, low in (
          ("master_seed", lambda v, fn=fn: fn(v, 0, 2, 3), -1),
          ("first_stream", lambda v, fn=fn: fn(1, v, 2, 3), -1),
          ("rows", lambda v, fn=fn: fn(1, 0, v, 3), -1))],
    ("gaussian_block", "count", lambda v: gaussian_block(1, 0, 2, v), 3, 0),
    ("phi_block", "band", lambda v: phi_block(1, 0, 2, v), 3, -1),
    ("phi_block_in_ball", "master_seed",
     lambda v: phi_block_in_ball(v, 0, 20, 2, 1.0), 3, -1),
    ("phi_block_in_ball", "first_stream",
     lambda v: phi_block_in_ball(1, v, 20, 2, 1.0), 3, -1),
    ("phi_block_in_ball", "rows",
     lambda v: phi_block_in_ball(1, 0, v, 2, 1.0), 20, -1),
    ("phi_block_in_ball", "band",
     lambda v: phi_block_in_ball(1, 0, 20, v, 1.0), 2, -1),
    ("bootstrap_counts", "count", lambda v: bootstrap_counts(1, v, 8, [0, 2]),
     5, 0),
    ("bootstrap_counts", "resamples",
     lambda v: bootstrap_counts(1, 5, v, [0, 2]), 8, 0),
    ("ball_probability", "N", lambda v: ball_probability(v, 0.8), 2, -1),
    ("FourierCoeffs", "band", lambda v: FourierCoeffs(v, np.zeros(5)), 2, -1),
    ("FourierCoeffs.coeff", "n", lambda v: U.coeff(v), 1, None),
    ("project", "M", lambda v: project(U, v), 2, -1),
    ("QuadratureGrid", "size", lambda v: QuadratureGrid(v), 4, 0),
    ("f_quartic", "N", lambda v: f_quartic(U, v), 2, -1),
    ("f_quadrature_oracle", "N",
     lambda v: f_quadrature_oracle(U, v, QuadratureGrid(9)), 2, -1),
    ("batch_re_coeff", "n",
     lambda v: batch_re_coeff(phi_block(1, 0, 3, 2), v), 1, None),
    ("chaos_ratio", "k", lambda v: chaos_ratio(v, 2, TABLE, 4, 100, 1), 1, 0),
    ("chaos_ratio", "d", lambda v: chaos_ratio(1, v, TABLE, 4, 100, 1), 2, 0),
    ("chaos_ratio", "sample_count",
     lambda v: chaos_ratio(1, 2, TABLE, 4, v, 1), 100, 0),
    ("chaos_ratio", "seed", lambda v: chaos_ratio(1, 2, TABLE, 4, 100, v),
     1, -1),
    *[("random_coeff_table", arg, call, 2, low) for arg, call, low in (
        ("k", lambda v: random_coeff_table(v, 3, 4, 1), 0),
        ("d", lambda v: random_coeff_table(2, v, 4, 1), 0),
        ("terms", lambda v: random_coeff_table(2, 3, v, 1), 0),
        ("seed", lambda v: random_coeff_table(2, 3, 4, v), -1))],
    ("f_decompose", "N", lambda v: f_decompose(v, 1), 2, -1),
    ("f_decompose", "seed", lambda v: f_decompose(2, v), 1, -1),
    ("y3_sum", "N", lambda v: y3_sum(v), 2, -1),
    ("cauchy_rate", "bands", lambda v: cauchy_rate([v, 2], 100, 1), 1, 0),
    ("cauchy_rate", "sample_count", lambda v: cauchy_rate([1, 2], v, 1),
     100, 99),
    ("cauchy_rate", "seed", lambda v: cauchy_rate([1, 2], 100, v), 1, -1),
    *[("tail_survival", arg, call, valid, low) for arg, call, valid, low in (
        ("N", lambda v: tail_survival(batch_mass, v, [0.5, 1.0], 500, 3),
         2, -1),
        ("sample_count",
         lambda v: tail_survival(batch_mass, 2, [0.5, 1.0], v, 3), 500, 0),
        ("seed", lambda v: tail_survival(batch_mass, 2, [0.5, 1.0], 500, v),
         3, -1))],
    ("kernel_tail_sum", "n", lambda v: kernel_tail_sum(v, 4), 3, -65),
    ("kernel_tail_sum", "N", lambda v: kernel_tail_sum(3, v), 4, 0),
    ("rhs_hamiltonian", "N", lambda v: rhs_hamiltonian(U, v), 2, -1),
    ("rhs_expanded", "N", lambda v: rhs_expanded(U, v), 2, -1),
    ("evolve", "N", lambda v: evolve(U, v, 0.02, STEP), 2, -1),
    *[("invariance_experiment", arg, call, valid, low)
      for arg, call, valid, low in (
          ("N", lambda v: invariance_experiment(v, KAPPA, 0.01, 2000, 91, {}),
           2, -1),
          ("count", lambda v: invariance_experiment(2, KAPPA, 0.01, v, 91, {}),
           2000, 0),
          ("seed",
           lambda v: invariance_experiment(2, KAPPA, 0.01, 2000, v, {}),
           91, -1))],
]


@pytest.mark.parametrize("name, arg, call, valid, low", CASES,
                         ids=[f"{name}-{arg}" for name, arg, *_ in CASES])
def test_integer_arguments_are_checked_once(name, arg, call, valid, low):
    # the message names the argument; a seed is named by its Philox key
    # word, master_seed, wherever it reaches SeedSpec
    names = re.compile(rf"(?<![A-Za-z]){re.escape(arg)}\b")
    for bad in (2.5, True) + (() if low is None else (low,)):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert names.search(str(exc.value)), (bad, str(exc.value))
    # a numpy integer is the Python integer it holds, in every result
    want = pickle.dumps(call(valid))
    for kind in (np.int64, np.uint64):
        assert pickle.dumps(call(kind(valid))) == want, kind


#: (entry point, real argument, call with the argument set to v, a valid
#: value, the values outside the argument's range, infinities included)
REAL_CASES = [
    ("chi", "kappa", lambda v: chi(0.3, v), 1.2, (math.inf, 0.0)),
    ("batch_density_G", "kappa",
     lambda v: batch_density_G(phi_block(1, 0, 3, 2), v), 1.2,
     (math.inf, -1.0)),
    ("density_G", "kappa", lambda v: density_G(U, v), 1.2, (math.inf, 0.0)),
    ("IntegratorConfig", "step", lambda v: IntegratorConfig(step=v), 0.01,
     (math.inf, 0.0)),
    ("IntegratorConfig", "max_drift",
     lambda v: IntegratorConfig(step=0.01, max_drift=v), 1e-5,
     (math.inf, -1e-5)),
    ("evolve", "T", lambda v: evolve(U, 2, v, STEP), 0.02,
     (math.inf, -math.inf, 10 ** 400)),     # the int overflows a float
    *[("invariance_experiment", arg, call, valid, bad)
      for arg, call, valid, bad in (
          ("kappa", lambda v: invariance_experiment(2, v, 0.01, 2000, 91, {}),
           1.2, (math.inf, 0.0)),
          ("t", lambda v: invariance_experiment(2, 1.2, v, 2000, 91, {}),
           0.01, (math.inf, -math.inf)),
          ("step_size",
           lambda v: invariance_experiment(2, 1.2, 0.01, 2000, 91, {}, v),
           0.005, (math.inf, 0.0)))],
    ("lp_norm", "p", lambda v: lp_norm(U, v, QuadratureGrid(9)), 4.0,
     (-math.inf, 0.5)),
    ("ball_probability", "radius", lambda v: ball_probability(2, v), 0.8,
     (math.inf, -0.1)),
    ("phi_block_in_ball", "radius",
     lambda v: phi_block_in_ball(1, 0, 20, 2, v), 1.0, (math.inf, -1.0)),
    *[("tail_survival", arg, call, valid, bad)
      for arg, call, valid, bad in (
          ("lambdas", lambda v: tail_survival(batch_mass, 2, [0.5, v], 500, 3),
           1.0, (math.inf, -math.inf)),
          ("kappa",
           lambda v: tail_survival(batch_mass, 2, [0.5, 1.0], 500, 3, kappa=v),
           2.0, (math.inf, 0.0)),
          ("theta",
           lambda v: tail_survival(batch_mass, 2, [0.5, 1.0], 500, 3, theta=v),
           1.0, (math.inf, 3.0)))],
    ("chaos_ratio", "p", lambda v: chaos_ratio(1, 2, TABLE, v, 100, 1), 4.0,
     (math.inf, 1.5)),
    ("kernel_tail_sum", "eps", lambda v: kernel_tail_sum(3, 4, v), 0.25,
     (math.inf, 0.0, 0.75)),
]


@pytest.mark.parametrize("name, arg, call, valid, bad", REAL_CASES,
                         ids=[f"{name}-{arg}" for name, arg, *_ in REAL_CASES])
def test_real_arguments_are_checked_once(name, arg, call, valid, bad):
    # the message starts with the argument's name
    for v in (True, math.nan) + bad:
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(arg)} must be "):
            call(v)
    # a numpy float is the Python float it holds, in every result
    assert pickle.dumps(call(np.float64(valid))) == pickle.dumps(call(valid))


#: functions allowed to call float() on a parameter, each with its reason
_FLOAT_OF_A_PARAMETER = {
    "_real": "the real-argument check itself, once the value is a number",
    "_fmt": "formats a computed value for a CSV table, not an argument",
}


def _cast_of_a_parameter(source: str) -> list:
    """(function, line) of each int(p) or float(p) call on a parameter p
    of an enclosing function, nested functions and lambdas included."""
    found = []

    def visit(node, params, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = params | {x.arg for x in a.posonlyargs + a.args
                               + a.kwonlyargs + [a.vararg, a.kwarg] if x}
            where = getattr(node, "name", where)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("int", "float") and node.args
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id in params
              and not (node.func.id == "float"
                       and where in _FLOAT_OF_A_PARAMETER)):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, params, where)

    visit(ast.parse(source), frozenset(), "<module>")
    return found


def test_the_guard_finds_int_of_a_parameter():
    source = ("def f(N, seed):\n"
              "    N = int(N)\n"
              "    def block(span):\n"
              "        return g(int(seed), int(span), int(len(span)))\n"
              "    return int(N + 1)\n")
    assert _cast_of_a_parameter(source) == [("f", 2), ("block", 4),
                                            ("block", 4)]


def test_the_guard_finds_float_of_a_parameter():
    source = ("def evolve(u, T, step):\n"
              "    steps = sizes(float(T), float(step * 2))\n"
              "    return [float(t) for t in steps]\n"
              "def _real(name, v):\n"
              "    return float(v), int(v)\n")
    assert _cast_of_a_parameter(source) == [("evolve", 2), ("_real", 5)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_parameter_passes_through_int(path):
    # int() truncates 2.5 to 2 and True to 1, and float() reads True as
    # 1.0: sizes, bands and seeds go through spectral._integer and real
    # arguments through spectral._real instead
    assert _cast_of_a_parameter(path.read_text(encoding="utf-8")) == []
