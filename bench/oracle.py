"""Independent exact reference for checking tropgeo results.

Nothing here imports tropgeo: vectors are tuples of ``Fraction`` and a
generator set is a list of such tuples (one per generator).  The formulas
are the textbook ones, written as directly as possible, so that a result
the benchmark accepts has been re-derived without trusting the code under
test.  Min-plus is handled by negation: a min-plus span is the negation of
the max-plus span of the negated generators.
"""

from __future__ import annotations

import random
from fractions import Fraction

Vector = tuple  # tuple[Fraction, ...]


def neg(x: Vector) -> Vector:
    return tuple(-e for e in x)


def projection(gens: list, y: Vector, min_plus: bool = False) -> Vector:
    """Principal projection of y onto the span of ``gens``."""
    if min_plus:
        return neg(projection([neg(g) for g in gens], neg(y)))
    scaled = []
    for g in gens:
        lam = min(b - a for a, b in zip(g, y))
        scaled.append([lam + a for a in g])
    return tuple(max(column) for column in zip(*scaled))


def is_member(gens: list, y: Vector, min_plus: bool = False) -> bool:
    return projection(gens, y, min_plus) == tuple(y)


def dominator_rows(gens: list, min_plus: bool = False) -> list:
    """Rows of the dominator: entry (j, i) is min over generators of g_j - g_i.

    For a min-plus generator set the dual dominator uses max instead.
    """
    pick = max if min_plus else min
    n = len(gens[0])
    return [[pick(g[j] - g[i] for g in gens) for i in range(n)] for j in range(n)]


def column(rows: list, i: int) -> Vector:
    return tuple(r[i] for r in rows)


def first_failing_column(gens: list, rows=None):
    """Index and value of the first max-plus dominator column outside the span, or None."""
    rows = rows or dominator_rows(gens)
    for i in range(len(rows)):
        c = column(rows, i)
        if not is_member(gens, c):
            return i, c
    return None


def affine(u: Vector, v: Vector, t: Fraction) -> Vector:
    return tuple(t * a + (1 - t) * b for a, b in zip(u, v))


def random_rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_vector(rng: random.Random, n: int, num: int, den: int) -> Vector:
    return tuple(random_rational(rng, num, den) for _ in range(n))


_YARDSTICK_RNG = random.Random(0)
_YARDSTICK = [random_vector(_YARDSTICK_RNG, 8, 20, 10) for _ in range(10)]


def yardstick() -> None:
    """A fixed exact computation that times the machine itself.

    It uses no tropgeo code, so a change to the program cannot move it:
    two dominators of one fixed 8x10 generator set, a few milliseconds.
    """
    for _ in range(2):
        dominator_rows(_YARDSTICK)


def random_member(rng: random.Random, gens: list, num: int, den: int) -> Vector:
    """Max-plus combination of a random non-empty subset of ``gens``."""
    picks = rng.sample(range(len(gens)), rng.randint(1, len(gens)))
    scaled = []
    for k in picks:
        lam = random_rational(rng, num, den)
        scaled.append([lam + a for a in gens[k]])
    return tuple(max(column) for column in zip(*scaled))


def polytrope(rng: random.Random, n: int, m: int, num: int, den: int) -> list:
    """A max-plus polytrope by construction, with max(n, m) generators.

    The dominator columns of a random n x m generator set span a polytrope
    (the min-plus hull).  Padding with random members of that span keeps the
    set and hides the structure; the shuffle hides the order.
    """
    base = [random_vector(rng, n, num, den) for _ in range(m)]
    rows = dominator_rows(base)
    gens = [column(rows, i) for i in range(n)]
    hull = list(gens)
    while len(gens) < m:
        gens.append(random_member(rng, hull, num, den))
    rng.shuffle(gens)
    return gens


def non_polytrope(rng: random.Random, n: int, m: int, num: int, den: int) -> list:
    """A random max-plus generator set that the reference shows is not a polytrope.

    Needs n >= 3 and m >= 2: in dimension 2 every tropical polytope is a
    segment of the projective line, hence convex.
    """
    if n < 3 or m < 2:
        raise ValueError(f"no non-polytrope with {n} coordinates and {m} generators")
    while True:
        gens = [random_vector(rng, n, num, den) for _ in range(m)]
        if first_failing_column(gens) is not None:
            return gens


def fmt_vector(x: Vector) -> str:
    """The CLI's vector form: ``(p,q/r,...)``."""
    return "(%s)" % ",".join(str(e) for e in x)


def parse_vector(text: str) -> Vector:
    return tuple(Fraction(s) for s in text.strip("()").split(","))
