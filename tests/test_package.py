"""The package namespace: what gibbs_dnls.__all__ promises exists."""

import gibbs_dnls


def test_package_all_resolves_without_duplicates():
    names = gibbs_dnls.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gibbs_dnls, name), name


def test_star_import_binds_every_name():
    ns = {}
    exec("from gibbs_dnls import *", ns)
    assert set(gibbs_dnls.__all__) <= set(ns)
