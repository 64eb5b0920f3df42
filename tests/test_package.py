"""The package namespace and the dependency floor it declares."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gibbs_dnls

REPO = Path(__file__).resolve().parent.parent
LAYERS = sorted(p.stem for p in (REPO / "src" / "gibbs_dnls").glob("*.py")
                if not p.stem.startswith("__"))


def test_package_all_resolves_without_duplicates():
    names = gibbs_dnls.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gibbs_dnls, name), name


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_resolves_without_duplicates(layer):
    # perfbench/tracer.py wraps every name a layer lists, so a stale entry
    # would fail a benchmark run as well as this test
    module = importlib.import_module(f"gibbs_dnls.{layer}")
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), name


def test_star_import_binds_every_name():
    ns = {}
    exec("from gibbs_dnls import *", ns)
    assert set(gibbs_dnls.__all__) <= set(ns)


def test_importing_the_package_leaves_fractions_and_decimal_unloaded():
    # only the exact oracles (ball_probability, y3_sum, the kernel sums'
    # powers) need them, and they import them when first called
    src = str(REPO / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, gibbs_dnls; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[]\n"


def _release(version):
    """(major, minor, ...) of a version string: its leading numeric fields."""
    return tuple(int(f) for f in re.match(r"[0-9.]*[0-9]", version)[0].split("."))


def test_installed_numpy_meets_the_declared_floor():
    # the FFT kernels transform back in place: np.fft.ifft(..., out=)
    # exists from numpy 2.0 on
    with open(REPO / "pyproject.toml", encoding="utf-8") as fh:
        (floor,) = re.findall(r'"numpy>=([0-9.]+)"', fh.read())
    assert _release(floor) >= (2, 0)
    assert _release(np.__version__) >= _release(floor)
    with open(REPO / "README.md", encoding="utf-8") as fh:
        assert f"numpy >= {floor}" in fh.read()
