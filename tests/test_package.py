"""The package surface: ``tropgeo`` finds each public name in its home module on
first access, binds it, and behaves like a package that imported them all."""

import sys

import pytest

import tropgeo


PUBLIC_NAMES = [
    "Classification", "DimensionError", "DocumentError", "Flavor", "FlavorError", "KleeneStar",
    "MatrixDocument", "MidpointReport", "Polytope", "PreconditionError", "TropMatrix", "TropVector",
    "as_scalar", "bracket", "classify", "dominates_at", "dominates_polytope_at", "dominator",
    "duality_chi", "duality_rho", "format_rational", "format_vector", "is_kleene_star",
    "is_min_plus_convex", "mat", "mat_from_columns", "member", "min_plus_hull", "negate_transpose",
    "parse_matrix_document", "parse_rational", "parse_vector", "polytope_equal",
    "principal_projection", "projectivise", "reduce_generators", "sample_euclidean_midpoints",
    "serialize_matrix_document", "trop_mat_mul", "vec", "verify_dominator_relation",
]


def test_all_is_the_pinned_surface():
    # adding or removing a public name is a change to this list
    assert sorted(tropgeo.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", ["trop_add", "trop_sum", "scale"])
def test_deleted_helpers_are_attribute_errors(name):
    # the componentwise max/min and the scaling of Fraction vectors live in tests/oracles.py
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(tropgeo, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tropgeo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tropgeo.__all__)


@pytest.mark.parametrize("name", tropgeo.__all__)
def test_each_name_is_its_home_modules_object(name):
    obj = getattr(tropgeo, name)
    home = obj.__module__
    assert home.startswith("tropgeo.") and getattr(sys.modules[home], name) is obj


def test_submodules_and_their_names_agree():
    from tropgeo import polytope

    assert tropgeo.classify is tropgeo.kleene.classify
    assert tropgeo.reduce_generators is polytope.reduce_generators
    assert tropgeo.verify_dominator_relation is tropgeo.kleene.verify_dominator_relation


def test_dir_covers_all():
    assert set(tropgeo.__all__) <= set(dir(tropgeo))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        tropgeo.nope


def test_a_name_is_looked_up_once(monkeypatch):
    calls = []
    lookup = tropgeo.__getattr__

    def counting(name):
        calls.append(name)
        return lookup(name)

    monkeypatch.delattr(tropgeo, "classify")  # restored after the test
    monkeypatch.setattr(tropgeo, "__getattr__", counting)
    assert tropgeo.classify is tropgeo.classify is tropgeo.kleene.classify
    assert calls == ["classify"]
