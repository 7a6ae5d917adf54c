"""The package's public name list."""

import gammadep


def test_every_exported_name_resolves():
    missing = [name for name in gammadep.__all__ if not hasattr(gammadep, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(gammadep.__all__) == len(set(gammadep.__all__))


def test_star_import_into_a_fresh_namespace():
    namespace = {}
    exec("from gammadep import *", namespace)
    assert set(gammadep.__all__) <= set(namespace)
