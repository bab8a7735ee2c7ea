"""The value classes: construction, equality, hashing, immutability, slots, copying and validation."""

import copy
import pickle
from fractions import Fraction

import pytest

from tropgeo import (
    Classification,
    DimensionError,
    DocumentError,
    Flavor,
    KleeneStar,
    MatrixDocument,
    MidpointReport,
    Polytope,
    TropMatrix,
    TropVector,
    mat,
    mat_from_columns,
    vec,
)
from tropgeo.core import Lattice, _Over, matrix_from_lattice, vector_from_ints

F = Fraction
STAR = mat([[0, -1], [1, 0]])  # a Kleene star in both flavors
OTHER_STAR = mat([[0, -2], [2, 0]])

# class, field names, field values, and for each field a different valid value
CASES = [
    (Lattice, ("scale", "cols"), (2, ((1, 2), (3, 4))), (6, ((1, 2), (3, 5)))),
    (TropVector, ("entries",), ((F(0), F(1, 2)),), ((F(0), F(1, 3)),)),
    (TropMatrix, ("entries",), (((F(0), F(1)), (F(2), F(3))),), (((F(0), F(1)), (F(2), F(4))),)),
    (Polytope, ("flavor", "generators"), (Flavor.MAX_PLUS, STAR), (Flavor.MIN_PLUS, OTHER_STAR)),
    (KleeneStar, ("flavor", "matrix"), (Flavor.MAX_PLUS, STAR), (Flavor.MIN_PLUS, OTHER_STAR)),
    (
        Classification,
        ("dominator", "is_polytrope", "witness"),
        (KleeneStar(Flavor.MAX_PLUS, STAR), False, vec(0, 1)),
        (KleeneStar(Flavor.MAX_PLUS, OTHER_STAR), True, None),
    ),
    (
        MidpointReport,
        ("trials", "seed", "violations", "certificates"),
        (3, 7, (vec(1, 0),), ((vec(0, 1), vec(2, 0), F(1, 2)),)),
        (4, 8, (), ()),
    ),
    (
        MatrixDocument,
        ("flavor", "rows", "cols", "entries", "role"),
        (Flavor.MAX_PLUS, 1, 2, (F(0), F(1)), "matrix"),
        (Flavor.MIN_PLUS, 2, 1, (F(0), F(2)), "generators-as-columns"),
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values, others):
    a, b = cls(*values), cls(*values)
    assert a == b and hash(a) == hash(b)
    for k in range(len(values)):
        changed = values[:k] + (others[k],) + values[k + 1 :]
        assert cls(*changed) != a, names[k]


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_other_classes_with_equal_fields_are_not_equal(cls, names, values, others):
    obj = cls(*values)
    twin = type("Twin", (cls,), {})(*values)
    assert obj != twin and twin != obj
    assert obj != values


def test_polytope_and_kleene_star_over_one_matrix_differ():
    assert Polytope(Flavor.MAX_PLUS, STAR) != KleeneStar(Flavor.MAX_PLUS, STAR)


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_fields_are_immutable(cls, names, values, others):
    obj = cls(*values)
    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(obj, name, other)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(*values)


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, others):
    obj = cls(**dict(zip(names, values)))
    assert obj == cls(*values)
    assert tuple(getattr(obj, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_bad_arguments_raise_type_error_naming_the_class(cls, names, values, others):
    bad_calls = {
        "missing field": (values[:-1], {}),
        "one value too many": (values + (values[-1],), {}),
        "field by position and keyword": (values, {names[0]: values[0]}),
        "unknown keyword": (values, {"bogus": 1}),
    }
    for what, (args, kwargs) in bad_calls.items():
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)
            pytest.fail(what)
    twin_cls = type("Twin", (cls,), {})
    twin = twin_cls(**dict(zip(names, values)))
    assert type(twin) is twin_cls and twin == twin_cls(*values)
    assert tuple(getattr(twin, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, names, values, others):
    obj = cls(*values)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert twin == obj and hash(twin) == hash(obj)


def test_repr_names_the_class_and_its_fields():
    assert repr(Lattice(2, ((1,),))) == "Lattice(scale=2, cols=((1,),))"
    assert repr(Polytope(Flavor.MAX_PLUS, STAR)) == (
        "Polytope(flavor=<Flavor.MAX_PLUS: 'max-plus'>, generators=mat[0,-1; 1,0])"
    )
    assert repr(vec(0, "1/2")) == "vec(0, 1/2)"


def test_validation_still_raises():
    with pytest.raises(TypeError):
        TropVector((F(0), 1))
    with pytest.raises(DimensionError):
        TropVector(())
    with pytest.raises(DimensionError):
        TropMatrix(((F(0), F(1)), (F(2),)))
    with pytest.raises(ValueError, match="not idempotent"):
        KleeneStar(Flavor.MAX_PLUS, mat([[0, 1], [1, 0]]))
    with pytest.raises(DimensionError, match=r"^matrix must be at least 1x1$"):
        TropMatrix(())
    with pytest.raises(TypeError, match=r"^matrix entry 1 is not a Fraction$"):
        TropMatrix(((F(0), 1),))
    with pytest.raises(DimensionError, match=r"^need at least one column$"):
        mat_from_columns([])
    with pytest.raises(DimensionError, match=r"^columns have unequal lengths$"):
        mat_from_columns([vec(0, 1), vec(0)])
    with pytest.raises(ValueError, match=r"^not a max-plus Kleene star: matrix is 2x3, not square$"):
        KleeneStar(Flavor.MAX_PLUS, mat([[0, 1, 2], [1, 0, 2]]))
    roles = r"\('matrix', 'generators-as-columns'\)"
    with pytest.raises(DocumentError, match=rf"^role: expected one of {roles}, got 'rows'$"):
        MatrixDocument.from_matrix(STAR, Flavor.MAX_PLUS, role="rows")


def test_matrix_from_lattice_keeps_the_lattice():
    lat = Lattice(2, ((1, 2), (3, 4)))  # columns
    m = matrix_from_lattice(lat)
    assert m.lattice is lat
    assert m == mat([["1/2", "3/2"], [1, 2]])
    assert pickle.loads(pickle.dumps(m)).lattice == lat


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_instances_have_no_dict(cls, names, values, others):
    obj = cls(*values)
    assert not hasattr(obj, "__dict__")
    if isinstance(obj, TropMatrix):
        assert obj.lattice == Lattice(1, ((0, 2), (1, 3)))
        assert not hasattr(obj, "__dict__") and not hasattr(obj.lattice, "__dict__")
        assert not hasattr(matrix_from_lattice(obj.lattice), "__dict__")


def test_copies_of_a_matrix_keep_its_lattice():
    m = mat([["1/2", 1, "-2/3"], [0, "5/6", 2]])
    lat = m.lattice
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and twin.lattice == lat


# Int-born values and their Fraction-born twins.  Each maker returns a fresh
# instance that holds only its int form, so every check starts from there.
INT_BORN = {
    "matrix": (lambda: matrix_from_lattice(Lattice(2, ((1, 2), (3, 4)))), mat([["1/2", "3/2"], [1, 2]])),
    "matrix, scale not reduced": (
        lambda: matrix_from_lattice(Lattice(4, ((2, 4), (6, 8)))),
        mat([["1/2", "3/2"], [1, 2]]),
    ),
    "vector": (lambda: vector_from_ints(2, (1, 3, -4)), vec("1/2", "3/2", -2)),
    "vector, scale not reduced": (lambda: vector_from_ints(6, (3, 9, -12)), vec("1/2", "3/2", -2)),
    "vector, negative scale": (lambda: vector_from_ints(-2, (-1, -3, 4)), vec("1/2", "3/2", -2)),
}


@pytest.mark.parametrize("make, twin", INT_BORN.values(), ids=INT_BORN)
def test_int_born_values_match_their_fraction_born_twins(make, twin):
    entries = type(twin).entries
    assert make() == twin and twin == make()
    assert hash(make()) == hash(twin)
    assert repr(make()) == repr(twin)
    assert make().entries == twin.entries
    for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        obj = make()
        clone = copier(obj)
        assert type(clone) is type(twin) and clone == twin and hash(clone) == hash(twin)
        entries.__get__(clone)  # a copy goes through the constructor, with entries
    obj = make()
    assert obj == obj and not obj != obj  # equal to itself with no field read
    with pytest.raises(AttributeError):
        entries.__get__(obj)  # nothing above built this instance's entries


def test_a_fraction_born_vector_builds_its_int_form_once():
    v = vec("1/2", "-3/4", 2)
    assert v.lattice == (4, (2, -3, 8)) and v.lattice[1] is v.lattice[1]


def test_reading_the_entries_of_a_vector_born_from_ints_drops_the_ints():
    v = vector_from_ints(-6, (-3, -9, 12))
    assert v.lattice == (-6, (-3, -9, 12))
    assert v.entries == vec("1/2", "3/2", -2).entries
    with pytest.raises(AttributeError):
        TropVector._lattice.__get__(v)  # they went when the entries were built
    assert v.lattice == (2, (1, 3, -4))  # built again, on the entries' least scale


def test_the_length_of_a_vector_born_from_ints_reads_the_ints():
    # residuation._check_same_length and dominates_polytope_at take len() of such vectors
    v = vector_from_ints(6, (3, 9, -12))
    assert len(v) == 3
    with pytest.raises(AttributeError):
        TropVector.entries.__get__(v)  # len() built no entries
    assert len(vec("1/2", 2)) == 2  # a vector of entries alone reads them


def test_vectors_over_one_scale_share_a_fraction_for_each_equal_entry():
    over = _Over(6)
    a, b = vector_from_ints(over, (3, 4)), vector_from_ints(over, (4, 9))
    assert a.entries[1] is b.entries[0] == F(2, 3)


def test_reading_vectors_that_share_a_scale_probes_only_their_own_ints(monkeypatch):
    # the shared _Over grows with each vector read, so a read that walked its keys,
    # as set.difference does for a dict subclass, would make reading them all quadratic
    probes = []
    monkeypatch.setattr(_Over, "__iter__", lambda self: (probes.append(x) or x for x in dict.__iter__(self)))
    monkeypatch.setattr(_Over, "__contains__", lambda self, x: probes.append(x) or dict.__contains__(self, x))
    over = _Over(7)
    vectors = [vector_from_ints(over, (k, k + 1, 0)) for k in range(0, 600, 2)]
    assert [v.entries for v in vectors][-1] == (F(598, 7), F(599, 7), F(0))
    assert len(probes) <= 3 * len(vectors)


@pytest.mark.parametrize("cls", [TropMatrix, TropVector])
def test_a_value_with_neither_form_raises_attribute_error(cls):
    empty = object.__new__(cls)  # neither entries nor the int form is set
    for name in ("entries", "_lattice", "lattice", "bogus"):
        with pytest.raises(AttributeError):
            getattr(empty, name)
    with pytest.raises(AttributeError):
        repr(empty)
