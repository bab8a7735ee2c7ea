"""Seeded tests of the lazy polytrope decision, which stops at a failing dominator column 0.

``is_min_plus_convex``, ``verify_dominator_relation`` and the sampler's guided
pairs read dominator column 0 off p's shifted generators first, with no fold,
and stop there when it is not in p; past it, and in ``dominator`` and
``classify``, one kernel call folds every column, and one ``KleeneStar`` is
built, unchecked, which the decisions build only on a "yes".
These tests compare the early answers with ``classify`` and with the Fraction
oracles in ``oracles.py``, in both flavors (min-plus by negation): on inputs
that fail at column 0, on inputs that fail only at their last column (an
input with one failing column, its coordinates permuted), at n = 1 and m = 1,
on dominators and on polytropes padded with span members.  Counting through
the module's ``_lanes``, its packed min-plus product ``_lanewise_min`` and
``_star``, they check that a "no" at column 0 folds and packs nothing and
builds no star, that a "yes" packs p's generators once, that ``classify``
folds every column in one kernel call, and that only a "yes", ``dominator``
or ``classify`` builds a star, exactly one.  Counting through the star check
``_star_defect``, they check that no library call checks the star it builds,
and that a caller's ``KleeneStar``, ``copy``, ``deepcopy`` and a pickle round
trip check it once each.  Counting the
columns drawn from ``_inside``, which tests one column on the fold's lanes
per draw, they check that ``classify`` tests column 0 alone when it fails,
every column of a polytrope and no column after the first failing one, and
that a "no" at column 0 tests column 0 on p's generators alone.
Through the ``entries`` slot descriptor, they check that ``classify``,
``dominator``, ``min_plus_hull``, ``principal_projection``,
``projectivise_generators`` and the sampler return values that hold no
``Fraction`` until a caller reads them, that a read report shares one
``Fraction`` per value over each scale, and that ``member`` builds none for
a vector outside the polytope.
They need neither pytest nor hypothesis, so any Python the package supports
can run them as a script:

    PYTHONPATH=src:tests python tests/test_lazy_decision.py
"""

import copy
import pickle
import random
from fractions import Fraction
from itertools import islice

from tropgeo import (
    Flavor,
    KleeneStar,
    Polytope,
    PreconditionError,
    TropMatrix,
    TropVector,
    classify,
    dominator,
    is_min_plus_convex,
    member,
    min_plus_hull,
    principal_projection,
    sample_euclidean_midpoints,
    verify_dominator_relation,
)
from tropgeo import core, kleene, polytope

from oracles import (
    direct_max_plus_projection,
    direct_member,
    direct_min_plus_projection,
    dominator_columns,
    fold_over_ordered_pairs,
    reference_random_member,
)

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS

# a 3x4 max-plus polytope, generators as columns, whose only failing dominator
# column is the last, (-5/2, -5/2, 0)
LAST_ONLY = (("-3/2", 0, 1), (0, 0, 1), ("3/2", -2, 0), ("1/2", -2, "1/2"))


def polytope_of(flavor: Flavor, cols) -> Polytope:
    return Polytope(flavor, TropMatrix(tuple(zip(*[tuple(map(Fraction, c)) for c in cols]))))


def negated(p: Polytope) -> Polytope:
    return Polytope(MIN, TropMatrix(tuple(tuple(-e for e in r) for r in p.generators.entries)))


def permuted(p: Polytope, order) -> Polytope:
    """p with coordinate ``order[i]`` moved to place i."""
    return Polytope(p.flavor, TropMatrix(tuple(p.generators.entries[i] for i in order)))


def random_polytope(rng: random.Random, n: int, m: int, num: int = 20, den: int = 10) -> Polytope:
    cols = [[Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n)] for _ in range(m)]
    return polytope_of(MAX, cols)


def failing_by_oracle(p: Polytope) -> list:
    """The indices of p's dominator columns outside p, in Fraction loops."""
    return [i for i, c in enumerate(dominator_columns(p)) if not direct_member(p, TropVector(c))]


def decide(p: Polytope) -> list:
    """Check every decision on max-plus p and on min-plus -p against the
    oracles; return the failing indices."""
    failing = failing_by_oracle(p)
    for q in (p, negated(p)):
        assert failing_by_oracle(q) == failing, q
        result = classify(q)
        assert result.is_polytrope == (not failing), q
        assert result.dominator.matrix.lattice.cols == fold_over_ordered_pairs(q), q
        witness = None if not failing else dominator_columns(q)[failing[0]]
        assert (None if result.witness is None else result.witness.entries) == witness, q
        assert is_min_plus_convex(q) == result.is_polytrope, q
        assert list(kleene._failing_columns(q)) == failing, q
        assert columns_tested(classify, q) == (failing[0] + 1 if failing else q.ambient_dim), q
        if failing:
            try:
                verify_dominator_relation(q)
            except PreconditionError:
                pass
            else:
                raise AssertionError(f"no precondition error on {q}")
        else:
            assert verify_dominator_relation(q), q
    return failing


def counted(name: str, replacement, call, p) -> int:
    """How often ``call(p)`` calls ``kleene.<name>``: the module's binding is
    swapped for a counting wrapper of ``replacement`` while it runs."""
    count = 0
    original = getattr(kleene, name)

    def counting(*args):
        nonlocal count
        count += 1
        return replacement(*args)

    setattr(kleene, name, counting)
    try:
        call(p)
    except PreconditionError:
        pass
    finally:
        setattr(kleene, name, original)
    return count


def columns_folded(call, p: Polytope) -> list:
    """The dominator columns each call of the packed product folds during ``call(p)``,
    in order: one int per row of its shifts, every column, n of them."""
    folded = []

    def kernel(*args):
        columns = lanewise_min(*args)
        folded.append(len(columns))
        return columns

    lanewise_min = kleene._lanewise_min
    counted("_lanewise_min", kernel, call, p)
    return folded


def columns_tested(call, p: Polytope) -> int:
    """Dominator columns tested on the fold's lanes during ``call(p)``: the answers
    drawn from ``kleene._inside``, which tests one column per draw."""
    tested = 0

    def inside(*args):
        nonlocal tested
        for answer in original(*args):
            tested += 1
            yield answer

    original = kleene._inside
    counted("_inside", inside, call, p)
    return tested


def tuples_shifted(call, p: Polytope) -> int:
    """Vectors shifted to first coordinate 0 as tuples during ``call(p)``: p's
    generators, for the column-0 test that folds nothing."""
    return counted("_normalised", kleene._normalised, call, p)


def lanes_packed(call, p: Polytope) -> int:
    """Times p's generators, or a matrix to check, are packed into lanes during ``call(p)``."""
    return counted("_lanes", kleene._lanes, call, p)


def stars_built(call, p: Polytope) -> int:
    """Dominators built as a ``KleeneStar`` from a fold during ``call(p)``."""
    return counted("_star", kleene._star, call, p)


def stars_checked(call, x) -> int:
    """Kleene-star checks run during ``call(x)``."""
    return counted("_star_defect", kleene._star_defect, call, x)


def guided_pairs(k: int):
    def call(p: Polytope) -> list:
        cols = p.generators.lattice.cols_times(p.flavor.sign)
        return list(islice(polytope._scaled_generator_pairs(p, cols), k))

    return call


def test_inputs_that_fail_at_column_0():
    rng = random.Random(1801)
    seen = 0
    for n, m in ((2, 3), (3, 4), (5, 6), (8, 10), (16, 20)):
        for _ in range(6):
            p = random_polytope(rng, n, m)
            failing = decide(p)
            if failing[:1] != [0]:
                continue
            seen += 1
            for q in (p, negated(p)):
                assert columns_folded(is_min_plus_convex, q) == []
                assert columns_folded(verify_dominator_relation, q) == []
                assert columns_folded(guided_pairs(1), q) == []
                assert lanes_packed(is_min_plus_convex, q) == lanes_packed(guided_pairs(1), q) == 0
                assert columns_folded(classify, q) == [n]
                assert columns_tested(classify, q) == 1
                # column 0 is the min of the generators' shifted forms, and no lane is tested
                assert tuples_shifted(is_min_plus_convex, q) == m
                assert columns_tested(is_min_plus_convex, q) == columns_tested(guided_pairs(1), q) == 0
                assert stars_built(is_min_plus_convex, q) == 0
                assert stars_built(verify_dominator_relation, q) == 0
                assert stars_checked(classify, q) == 0
    assert seen >= 20


def test_inputs_that_fail_only_at_the_last_column():
    p = polytope_of(MAX, LAST_ONLY)
    assert decide(p) == [2]
    assert classify(p).witness == TropVector((Fraction(-5, 2), Fraction(-5, 2), Fraction(0)))
    for q in (p, negated(p)):
        assert columns_folded(is_min_plus_convex, q) == [3]
        assert columns_folded(classify, q) == [3]
        assert columns_tested(classify, q) == 3
        assert columns_tested(is_min_plus_convex, q) == 2
        assert stars_built(is_min_plus_convex, q) == 0
    rng = random.Random(1802)
    seen = 0
    for n, m in ((2, 2), (3, 3), (3, 4), (4, 4), (4, 6)):
        for _ in range(40):
            p = random_polytope(rng, n, m, num=4, den=2)
            failing = decide(p)
            if len(failing) != 1:
                continue
            k = failing[0]
            order = list(range(n))
            order[k], order[-1] = order[-1], order[k]
            assert decide(permuted(p, order)) == [n - 1]
            seen += 1
    assert seen >= 20


def test_n1_m1_dominators_and_padded_polytropes():
    rng = random.Random(1803)
    assert decide(polytope_of(MAX, [("7/3",)])) == []
    assert decide(polytope_of(MAX, [(3,), (-1,), ("5/2",)])) == []
    assert decide(polytope_of(MAX, [(1, "-1/2", 3)])) == []
    for n, m in ((1, 4), (2, 3), (4, 5), (8, 10)):
        for _ in range(4):
            star = dominator(random_polytope(rng, n, m))
            assert decide(Polytope(MAX, star.matrix)) == []
            base = Polytope(MAX, star.matrix)
            cols = [*base, *(reference_random_member(rng, base) for _ in range(m))]
            rng.shuffle(cols)
            padded = Polytope(MAX, TropMatrix(tuple(zip(*[c.entries for c in cols]))))
            assert decide(padded) == []


def test_a_drained_fold_builds_one_unchecked_star():
    """A fold of every column builds one star for ``dominator``, ``classify`` and a
    "yes", and checks none; the sampler's guided pairs build none.  A star that a
    caller builds, copies or unpickles is checked once."""
    rng = random.Random(1804)
    for n, m in ((1, 1), (3, 4), (6, 8)):
        star = dominator(random_polytope(rng, n, m))
        for q in (Polytope(MAX, star.matrix), negated(Polytope(MAX, star.matrix))):
            assert stars_built(dominator, q) == 1
            assert stars_built(classify, q) == 1
            assert stars_built(is_min_plus_convex, q) == 1
            assert stars_built(guided_pairs(5), q) == 0  # the sampler reads no star
            # its own dominator, and that of the presentation in the other flavor
            assert stars_built(verify_dominator_relation, q) == 2
            for call in (dominator, classify, min_plus_hull, is_min_plus_convex, verify_dominator_relation):
                assert stars_checked(call, q) == 0, call
            d = dominator(q)
            assert stars_checked(lambda d: KleeneStar(d.flavor, d.matrix), d) == 1
            assert stars_checked(lambda d: pickle.loads(pickle.dumps(d)), d) == 1
            assert stars_checked(copy.copy, d) == stars_checked(copy.deepcopy, d) == 1
            assert copy.copy(d) == copy.deepcopy(d) == pickle.loads(pickle.dumps(d)) == d
            assert columns_folded(is_min_plus_convex, q) == [n]
            assert lanes_packed(is_min_plus_convex, q) == lanes_packed(classify, q) == 1
            assert columns_folded(dominator, q) == [n]
            assert columns_tested(classify, q) == n
            assert columns_tested(is_min_plus_convex, q) == n - 1  # column 0 is tested on tuples
            assert tuples_shifted(classify, q) == 0
    p = random_polytope(rng, 8, 10)
    assert failing_by_oracle(p)
    assert stars_built(dominator, p) == stars_built(classify, p) == 1
    assert stars_checked(dominator, p) == stars_checked(classify, p) == stars_checked(min_plus_hull, p) == 0


def unread(value) -> bool:
    """True iff ``value``, a TropMatrix or TropVector, holds no entries yet: its slot,
    read through the descriptor, raises where ``value.entries`` would build them."""
    try:
        type(value).entries.__get__(value)
    except AttributeError:
        return True
    return False


def test_results_build_no_fraction_until_read():
    """The kernels' results hold only lattice ints, so a caller that reads no
    entries pays for no ``Fraction``; once read, the entries are the oracle's."""
    rng = random.Random(1805)
    witnesses = violations = projections = 0
    for n, m in ((3, 4), (5, 6), (8, 10)):
        for _ in range(3):
            p = random_polytope(rng, n, m)
            y = TropVector(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)))
            for q in (p, negated(p)):
                result = classify(q)
                star = dominator(q).matrix
                projection = principal_projection(q, y)  # y itself when y is in q
                report = sample_euclidean_midpoints(q, 40, n)
                certified = [vector for u, v, _ in report.certificates for vector in (u, v)]
                values = [
                    result.dominator.matrix,
                    star,
                    min_plus_hull(q).generators,
                    *polytope.projectivise_generators(q),
                    *report.violations,
                    *certified,
                ]
                if result.witness is not None:
                    values.append(result.witness)
                    witnesses += 1
                if projection is not y:
                    values.append(projection)
                    projections += 1
                violations += len(report.violations)
                assert all(map(unread, values)), q
                # once read, the violations over one scale share one Fraction per value
                shared: dict = {}
                for scale, z in [(z.lattice[0], z) for z in report.violations]:
                    assert all(shared.setdefault((scale, e), e) is e for e in z.entries)
                assert [list(r) for r in zip(*star.entries)] == [list(c) for c in dominator_columns(q)]
                direct = direct_max_plus_projection if q.flavor is MAX else direct_min_plus_projection
                assert projection.entries == direct(q, y)
    assert witnesses >= 6 and violations >= 20 and projections >= 12


def test_a_non_member_builds_no_fraction():
    """The projection of a member is y itself, so ``member`` tests identity and
    a y outside q reads no entry of its projection: counted through
    ``core._Over.__missing__``, no ``Fraction`` is built over any scale."""
    rng = random.Random(1806)
    missing = core._Over.__missing__
    built = outside = 0

    def counting(over, x):
        nonlocal built
        built += 1
        return missing(over, x)

    for n, m in ((3, 4), (5, 6), (8, 10), (32, 40)):
        for _ in range(3):
            p = random_polytope(rng, n, m)
            y = TropVector(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)))
            for q in (p, negated(p)):
                if direct_member(q, y):
                    continue
                core._Over.__missing__ = counting
                try:
                    assert not member(q, y)
                finally:
                    core._Over.__missing__ = missing
                outside += 1
    assert built == 0 and outside >= 16


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
