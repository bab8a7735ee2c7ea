"""Differential tests of the integer-lattice kernels against the Fraction oracles.

The library runs dominators, Kleene-star checks, the failing-column scan,
projections, membership and reduction in ints over the lcm of the input's denominators.  These tests
compare every one of them with the plain-Fraction formulas in ``oracles.py``,
up to 16x20, with denominators that are large and pairwise coprime so that
the common denominator, and every int, grows.  One checks that each kernel
keeps its result's lattice column-major.  One checks the fact behind the
scan: a dominator column is in p iff it is a shifted generator.  One checks
what the extremal theorem says of reduction: the kept generators are
irredundant, reducing again keeps them all, and the classes kept do not
depend on the order of the input.  On a polytrope they are exactly the classes
of the dominator's columns.  The midpoint sampler is compared with the
Fraction sampler it replaced, which shares no kernel with it.  The last two
tests check the paper's three theorems, and reduction, on seeded 48x60
inputs.
"""

import random
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from tropgeo import (
    Flavor,
    Polytope,
    TropMatrix,
    TropVector,
    classify,
    dominator,
    is_kleene_star,
    mat_from_columns,
    member,
    negate_transpose,
    principal_projection,
    reduce_generators,
    sample_euclidean_midpoints,
    trop_mat_mul,
)
from tropgeo.kleene import _failing_columns

from helpers import DENOMINATORS, columns, polytopes, random_non_polytrope, rationals_over
from oracles import (
    affine_point,
    bumped,
    direct_max_plus_projection,
    direct_member,
    direct_min_plus_projection,
    dominator_columns,
    failing_columns_of_star,
    first_failing_glb_column,
    glb_column_fold,
    is_shifted_generator,
    is_star_by_product,
    lub_column_fold,
    naive_mat_mul,
    potential_star,
    reduce_by_rescanning,
    reference_sample_midpoints,
)

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS

@st.composite
def polytropes(draw, n_max: int = 16, m_max: int = 20):
    """The min-fold columns of a random polytope, padded with members, shuffled.

    Built with oracle arithmetic only, so the answer (a polytrope) is known
    without the library.
    """
    base = draw(polytopes(MAX, n_max, m_max))
    n = base.ambient_dim
    cols = [TropVector(glb_column_fold(base.generators, i)) for i in range(n)]
    for _ in range(draw(st.integers(0, max(0, m_max - n)))):
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        lams = draw(st.lists(rationals_over(draw(st.sampled_from(DENOMINATORS))), min_size=len(picks), max_size=len(picks)))
        cols.append(TropVector(tuple(max(cols[k][i] + lam for k, lam in zip(picks, lams)) for i in range(n))))
    order = draw(st.permutations(range(len(cols))))
    return Polytope(MAX, mat_from_columns([cols[k] for k in order]))


def queries(p: Polytope):
    """A random point of the ambient space, or a random generator of p."""
    free = (
        st.sampled_from(DENOMINATORS)
        .flatmap(lambda den: st.lists(rationals_over(den), min_size=p.ambient_dim, max_size=p.ambient_dim))
        .map(lambda es: TropVector(tuple(es)))
    )
    return st.one_of(free, st.sampled_from(list(p)))


@given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(1, 5))
def test_kernel_lattices_are_column_major(data, n, extra, m):
    """Each kernel builds its result's lattice in ints and the entries from
    it: the entries must match the Fraction formula, and entry (i, j) must be
    ``cols[j][i] / scale``.  ``a`` is n x (n + extra), never square, and its
    random entries make every product and dominator non-symmetric."""
    a = mat_from_columns(data.draw(columns(n, n + extra)))
    b = mat_from_columns(data.draw(columns(n + extra, m)))
    neg_t = [[-a.entries[i][j] for i in range(a.n_rows)] for j in range(a.n_cols)]
    built = [
        (trop_mat_mul(MAX, a, b), naive_mat_mul(True, a, b)),
        (trop_mat_mul(MIN, a, b), naive_mat_mul(False, a, b)),
        (negate_transpose(a), neg_t),
        (dominator(Polytope(MAX, a)).matrix, [list(r) for r in zip(*dominator_columns(Polytope(MAX, a)))]),
        (dominator(Polytope(MIN, a)).matrix, [list(r) for r in zip(*dominator_columns(Polytope(MIN, a)))]),
    ]
    for out, expected in built:
        assert [list(r) for r in out.entries] == expected
        lat = out._lattice  # the form the kernel built, not one recomputed from the entries
        assert len(lat.cols) == out.n_cols
        for j, col in enumerate(lat.cols):
            assert [Fraction(x, lat.scale) for x in col] == [r[j] for r in out.entries]


@given(polytopes())
def test_dominator_matches_min_fold(p):
    star = dominator(p)
    assert star.matrix.entries == tuple(zip(*(glb_column_fold(p.generators, i) for i in range(p.ambient_dim))))
    assert naive_mat_mul(True, star.matrix, star.matrix) == [list(r) for r in star.matrix.entries]


@given(polytopes(MIN))
def test_dominator_dual_matches_max_fold(p):
    star = dominator(p)
    assert star.matrix.entries == tuple(zip(*(lub_column_fold(p.generators, i) for i in range(p.ambient_dim))))
    assert naive_mat_mul(False, star.matrix, star.matrix) == [list(r) for r in star.matrix.entries]


@given(st.one_of(polytopes(), polytropes()))
def test_classify_decision_and_witness(p):
    result = classify(p)
    failing = first_failing_glb_column(p)
    assert result.is_polytrope == (failing is None)
    assert (None if result.witness is None else result.witness.entries) == failing


def negated(p: Polytope) -> Polytope:
    """The min-plus polytope -P: the negation of p's max-plus span."""
    return Polytope(MIN, mat_from_columns([-g for g in p]))


@given(st.one_of(polytopes(), polytropes(), polytopes(MIN), polytropes().map(negated)))
def test_failing_columns_match_direct_membership(p):
    star = dominator(p)
    expected = [i for i, c in enumerate(star.matrix.columns()) if not direct_member(p, c)]
    assert failing_columns_of_star(p, star) == expected
    assert list(_failing_columns(p)) == expected


@given(st.one_of(polytopes(), polytropes(), polytopes(MIN), polytropes().map(negated)))
def test_dominator_column_in_p_iff_shifted_generator(p):
    """The slice argument behind the scan, in Fraction loops only: dominator
    column i is in p iff it is a generator v shifted by ``-v_i``."""
    for i, c in enumerate(dominator_columns(p)):
        assert direct_member(p, TropVector(c)) == is_shifted_generator(p, i, c)


@given(polytropes())
def test_polytropes_by_construction_classify_true(p):
    assert classify(p).is_polytrope


@given(st.data(), st.sampled_from([MAX, MIN]))
def test_projection_and_member_match_direct_formulas(data, flavor):
    p = data.draw(polytopes(flavor))
    y = data.draw(queries(p))
    direct = direct_max_plus_projection if flavor is MAX else direct_min_plus_projection
    assert principal_projection(p, y).entries == direct(p, y)
    assert member(p, y) == direct_member(p, y)


@st.composite
def with_scaled_copies(draw, base):
    """A polytope from ``base`` with up to four tropical scalings of its
    generators inserted anywhere, before or after the original."""
    p = draw(base)
    cols = list(p)
    for _ in range(draw(st.integers(0, 4))):
        g = draw(st.sampled_from(cols))
        lam = draw(rationals_over(draw(st.sampled_from(DENOMINATORS))))
        cols.insert(draw(st.integers(0, len(cols))), TropVector(tuple(e + lam for e in g)))
    return Polytope(p.flavor, mat_from_columns(cols))


@st.composite
def one_class(draw, flavor):
    """1 to 6 tropical scalings of one vector of dimension 1 to 4."""
    den = draw(st.sampled_from(DENOMINATORS))
    g = draw(st.lists(rationals_over(den), min_size=1, max_size=4))
    lams = draw(st.lists(rationals_over(den), min_size=1, max_size=6))
    return Polytope(flavor, mat_from_columns([TropVector(tuple(e + lam for e in g)) for lam in lams]))


def _poly(flavor, *cols):
    return Polytope(flavor, mat_from_columns([TropVector(tuple(map(Fraction, c))) for c in cols]))


# Both flavors: random polytopes, polytropes padded with span members, n = 1,
# and single scaling classes, each with scaled copies inserted.
reduce_inputs = st.sampled_from([MAX, MIN]).flatmap(
    lambda f: with_scaled_copies(
        st.one_of(
            polytopes(f, m_max=12),
            polytropes(m_max=12).map(lambda p: p if f is MAX else negated(p)),
            polytopes(f, n_max=1, m_max=6),
            one_class(f),
        )
    )
)
REDUCE_EXAMPLES = [
    _poly(MAX, (3, 4, 3), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, 3)),  # a copy of (0,1,0) before it
    _poly(MIN, (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, 3), (1, 2, 1)),  # copies after the originals
    _poly(MAX, (0, 1), (1, 0), (0, 0)),  # a span member
    _poly(MAX, (3,), (-1,), (5,)),  # n = 1: one class
    _poly(MIN, (2,)),  # n = 1, m = 1
    _poly(MAX, (2, 2, 2)),  # m = 1, all entries equal
    _poly(MIN, (0, 0), (1, 1), (-1, -1)),  # one class of constant vectors
    _poly(MAX, (0, 1, 2), (1, 2, 3), (-1, 0, 1)),  # one class
]


def _examples(*args):
    """Each of ``REDUCE_EXAMPLES``, followed by ``args``, as an explicit example."""

    def add(test):
        for p in REDUCE_EXAMPLES:
            test = example(p, *args)(test)
        return test

    return add


@given(reduce_inputs)
@_examples()
def test_reduce_generators_matches_rescan(p):
    kept = reduce_by_rescanning(p)
    assert reduce_generators(p).generators == mat_from_columns([p.generator(k) for k in kept])


def _classes(p: Polytope) -> set:
    """The scaling classes of p's generators, each as the generator shifted to first coordinate 0."""
    return {tuple(e - g[0] for e in g) for g in p}


@given(reduce_inputs, st.randoms(use_true_random=False))
@_examples(random.Random(0))
def test_reduce_generators_keeps_the_extremals(p, rng):
    """The kept generators are extremal: none is a member of the span of the
    others, reducing again drops nothing, and the scaling classes kept are
    the same in any order of the input."""
    reduced = reduce_generators(p)
    assert reduce_generators(reduced) == reduced
    cols = list(reduced)
    for j in range(len(cols)):
        others = cols[:j] + cols[j + 1 :]
        assert not (others and direct_member(Polytope(p.flavor, mat_from_columns(others)), cols[j]))
    order = list(range(p.n_generators))
    rng.shuffle(order)
    shuffled = Polytope(p.flavor, mat_from_columns([p.generator(k) for k in order]))
    assert _classes(reduce_generators(shuffled)) == _classes(reduced)


@given(polytropes(n_max=8, m_max=12), st.sampled_from([MAX, MIN]))
def test_reduce_generators_keeps_the_dominator_classes_of_a_polytrope(p, flavor):
    """On a polytrope, reduction keeps exactly the scaling classes of the
    dominator's columns.  Each column of a Kleene star is the least point of
    its slice, so it is extremal in the column space, which is P; and each
    is a shifted generator.  Min-plus by negation; the reference forms no
    bracket."""
    if flavor is MIN:
        p = negated(p)
    star = dominator(p)
    assert _classes(reduce_generators(p)) == _classes(Polytope(flavor, star.matrix))


small = {"n_max": 4, "m_max": 6}


def seeded_non_polytropes(test):
    """Explicit examples, run every time: seeded non-polytropes in both
    flavors, with budgets well past their guided pairs, so that every kind of
    trial reports violations."""
    rng = random.Random(11)
    for seed in range(6):
        p = random_non_polytrope(rng, n_max=4, m_max=5)
        for q in (p, negated(p)):
            test = example(q, 200, seed)(test)
    return test


@given(
    st.one_of(
        polytopes(**small),
        polytropes(**small),
        polytopes(MIN, **small),
        polytropes(**small).map(negated),
        polytopes(MIN, n_min=3, **small),  # min-plus non-polytropes, mostly
    ),
    st.integers(1, 120),
    st.integers(0, 2**32),
)
@seeded_non_polytropes
def test_sampler_matches_fraction_reference(p, trials, seed):
    """Same rng draws, same results: the integer sampler against the Fraction one."""
    for max_violations in (None, 1, 3):
        report = sample_euclidean_midpoints(p, trials, seed, max_violations)
        assert report == reference_sample_midpoints(p, trials, seed, max_violations)


LARGE_PRIMES = tuple(den for den in DENOMINATORS if den > 10**4)


@given(polytopes(n_max=8, m_max=8), st.sampled_from([MAX, MIN]), st.data())
def test_kleene_star_check_matches_product(p, flavor, data):
    """The star check agrees with ``A (x) A == A`` on dominators, their bumps
    by the smallest lattice step 1/L, stars built from potentials, and
    zero-diagonal matrices of integer noise and of rational noise over
    distinct large primes, whose ints exceed 64 bits."""
    d = dominator(p).matrix
    n = d.n_rows
    step = Fraction(1, d.lattice.scale)

    def zero_diagonal(values):
        return TropMatrix(tuple(tuple(Fraction(0) if i == j else Fraction(values[i * n + j]) for j in range(n)) for i in range(n)))

    ints = data.draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    primes = data.draw(st.permutations(LARGE_PRIMES))
    nums = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=n * n, max_size=n * n))
    rational_noise = [Fraction(num, primes[k % len(primes)]) for k, num in enumerate(nums)]
    x, y = (data.draw(st.lists(rationals_over(data.draw(st.sampled_from(DENOMINATORS))), min_size=n, max_size=n)) for _ in "xy")
    star = potential_star(x, y)
    negated = TropMatrix(tuple(tuple(-e for e in r) for r in d.entries))
    candidates = [d, negated, bumped(d, (0, n - 1), step), bumped(d, (n - 1, 0), -step), star]
    candidates += [bumped(star, (n - 1, 0), Fraction(by, star.lattice.scale)) for by in (-1, 1)]
    candidates += [zero_diagonal(ints), zero_diagonal(rational_noise)]
    for a in candidates:
        assert is_kleene_star(flavor, a) == is_star_by_product(flavor is MAX, a)


def _seeded_polytopes(seed: int, n: int, m: int) -> tuple[Polytope, Polytope]:
    """A 48x60-style polytrope by construction and a random polytope."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 10))

    def random_matrix(cols):
        return mat_from_columns([TropVector(tuple(rational() for _ in range(n))) for _ in range(cols)])

    base = random_matrix(m - 8)
    cols = [TropVector(glb_column_fold(base, i)) for i in range(n)]
    while len(cols) < m:
        picks = rng.sample(range(n), rng.randint(1, n))
        lams = [rational() for _ in picks]
        cols.append(TropVector(tuple(max(cols[k][i] + lam for k, lam in zip(picks, lams)) for i in range(n))))
    rng.shuffle(cols)
    return Polytope(MAX, mat_from_columns(cols)), Polytope(MAX, random_matrix(m))


def test_paper_theorems_at_48x60():
    polytrope, random_polytope = _seeded_polytopes(4860, 48, 60)
    for p, convex in ((polytrope, True), (random_polytope, False)):
        v = p.generators
        d = dominator(p).matrix
        dual = dominator(negated(p)).matrix
        # 1. the dominator is a Kleene star whose columns are the min-folds, in both flavors
        assert is_kleene_star(MAX, d) and is_kleene_star(MIN, dual)
        assert all(d.col(i).entries == glb_column_fold(v, i) for i in range(d.n_cols))
        # 2. its column space is the min-plus hull: it holds P, its columns are
        # min-plus combinations of P, and it is min-plus convex
        hull = Polytope(MAX, d)
        assert all(member(hull, g) for g in p)
        assert all(member(Polytope(MIN, v), c) for c in d.columns())
        hull_class = classify(hull)
        assert hull_class.is_polytrope and hull_class.dominator.matrix == d
        # 3. P is a polytrope iff every dominator column lies in P
        result = classify(p)
        failing = next((c for c in d.columns() if not direct_member(p, c)), None)
        assert result.is_polytrope is convex and (failing is None) is convex
        assert result.witness == failing
        # 4. on a polytrope, reduction keeps exactly the classes of the
        # dominator's columns, in both flavors
        if convex:
            assert _classes(reduce_generators(p)) == _classes(hull)
            assert _classes(reduce_generators(negated(p))) == _classes(Polytope(MIN, dual))
        # column i lies in P iff it is a generator v shifted by -v_i
        for i, c in enumerate(d.columns()):
            assert direct_member(p, c) == is_shifted_generator(p, i, c)
    # a non-polytrope is not Euclidean convex: the sampler's first violation re-checks
    report = sample_euclidean_midpoints(random_polytope, trials=40, seed=0, max_violations=1)
    assert report.violations
    (u, w, t), z = report.certificates[0], report.violations[0]
    assert direct_member(random_polytope, u) and direct_member(random_polytope, w)
    assert affine_point(u, w, t) == z and not direct_member(random_polytope, z)
    # a budget far below the guided pairs available: every violation still re-checks
    report = sample_euclidean_midpoints(random_polytope, trials=50, seed=0)
    assert report.trials == 50 and report.violations
    assert all(t == Fraction(1, 2) for _, _, t in report.certificates)  # all trials guided
    for z, (u, w, t) in zip(report.violations, report.certificates):
        assert member(random_polytope, u) and member(random_polytope, w)
        assert affine_point(u, w, t) == z and not member(random_polytope, z)
    # min-plus is max-plus under negation: guided trials on -V give the negated report
    dual_report = sample_euclidean_midpoints(negated(random_polytope), trials=50, seed=0)
    assert dual_report.violations == tuple(-z for z in report.violations)
    assert dual_report.certificates == tuple((-u, -w, t) for u, w, t in report.certificates)


def test_reduce_generators_matches_rescan_at_48x60():
    """The seeded 48x60 polytrope, whose span members are dropped, with scaled
    copies inserted before and after their originals."""
    rng = random.Random(4861)
    polytrope, _ = _seeded_polytopes(4861, 48, 60)
    cols = list(polytrope)
    for k in (0, 7, 30, 59):
        lam = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        cols.insert(rng.randint(0, len(cols)), TropVector(tuple(e + lam for e in cols[k])))
    p = Polytope(MAX, mat_from_columns(cols))
    kept = reduce_by_rescanning(p)
    assert len(kept) == 48  # the dominator columns: every span member and copy is dropped
    assert reduce_generators(p).generators == mat_from_columns([p.generator(k) for k in kept])
