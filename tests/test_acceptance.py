"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
Every assertion is exact rational equality; there are no tolerances anywhere.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

from tropgeo import (
    Flavor,
    Polytope,
    bracket,
    classify,
    dominates_at,
    dominator,
    duality_chi,
    duality_rho,
    is_kleene_star,
    mat,
    mat_from_columns,
    member,
    min_plus_hull,
    polytope_equal,
    sample_euclidean_midpoints,
    vec,
    verify_dominator_relation,
    negate_transpose,
)

from helpers import (
    random_fraction,
    random_non_polytrope,
    random_polytope,
    random_polytrope,
    random_vector,
    transpose,
)
from oracles import glb_column_fold, is_star_by_product, join, meet, reference_random_member, shifted

MAX = Flavor.MAX_PLUS
MIN = Flavor.MIN_PLUS


def report(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}", flush=True)
    assert ok, f"criterion {num:02d} failed: {name}"


def poly(flavor, *gens):
    return Polytope(flavor, mat_from_columns([vec(*g) for g in gens]))


def corpus(seed: int, count: int, **kw):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_polytope(rng, **kw)


def test_criterion_01_bracket_identity_suite():
    rng = random.Random(1001)
    failures = 0
    for _ in range(10_000):
        n = rng.randint(1, 6)
        x = random_vector(rng, n)
        x2 = random_vector(rng, n)
        y = random_vector(rng, n)
        y2 = random_vector(rng, n)
        lam = random_fraction(rng)
        bxy = bracket(x, y)
        ok = bracket(shifted(x, lam), y) == bxy - lam
        ok = ok and bracket(x, shifted(y, -lam)) == bxy - lam
        join_x = bracket(join(x, x2), y)
        ok = ok and min(bxy, bracket(x2, y)) == join_x
        ok = ok and join_x <= bxy <= bracket(x, join(y, y2))
        meet_y = bracket(x, meet(y, y2))
        ok = ok and min(bxy, bracket(x, y2)) == meet_y
        ok = ok and meet_y <= bxy <= bracket(meet(x, x2), y)
        if not ok:
            failures += 1
    report(1, "bracket identities on 10,000 random triples", failures == 0)


def test_criterion_02_domination_closure_suite():
    rng = random.Random(1002)
    failures = 0
    for _ in range(1_000):
        n = rng.randint(2, 5)
        x = random_vector(rng, n)
        i = rng.randrange(n)
        pair = []
        while len(pair) < 2:
            candidate = random_vector(rng, n)
            if dominates_at(x, candidate, i):
                pair.append(candidate)
        u, v = pair
        den = rng.randint(1, 12)
        t = Fraction(rng.randint(0, den), den)
        affine = vec(*(t * a + (1 - t) * b for a, b in zip(u, v)))
        ok = dominates_at(x, join(u, v), i)
        ok = ok and dominates_at(x, meet(u, v), i)
        ok = ok and dominates_at(x, affine, i)
        if not ok:
            failures += 1
    report(2, "dominated sets closed under both sums and affine combinations", failures == 0)


def test_criterion_03_dominator_is_kleene_star():
    failures = 0
    for p in corpus(1003, 1_000, n_max=6, m_max=8, num_bound=20, den_bound=10):
        star = dominator(p)
        ok = is_kleene_star(MAX, star.matrix)
        v = p.generators
        dual = dominator(Polytope(MIN, v)).matrix  # the min-plus dominator of the same generators
        ok = ok and is_kleene_star(MIN, dual)
        ok = ok and is_star_by_product(True, star.matrix) and is_star_by_product(False, dual)
        for i in range(star.size):
            column = star.matrix.col(i)
            ok = ok and column.entries == glb_column_fold(v, i)
        if not ok:
            failures += 1
    report(3, "1,000 dominators in each flavor are Kleene stars, max-plus ones with min-fold columns", failures == 0)


def test_criterion_04_hull_correctness():
    failures = 0
    for p in corpus(1003, 1_000, n_max=6, m_max=8, num_bound=20, den_bound=10):
        hull = min_plus_hull(p)
        ok = all(member(hull, g) for g in p)
        ok = ok and min_plus_hull(hull).generators == hull.generators
        if ok and p.ambient_dim <= 3:
            v = p.generators
            rows = v.entries
            for i in range(p.ambient_dim):
                scaled = [shifted(v.col(k), -rows[i][k]) for k in range(v.n_cols)]
                for size in (2, 3):
                    for combo in itertools.combinations(scaled, min(size, len(scaled))):
                        z = meet(*combo)
                        if not member(hull, z):
                            ok = False
        if not ok:
            failures += 1
    report(4, "hulls contain generators, are idempotent, absorb brute-force min-combos", failures == 0)


def test_criterion_05_star_column_space_round_trip():
    failures = 0
    for p in corpus(1005, 500, n_max=6, m_max=8, num_bound=20, den_bound=10):
        k = dominator(p).matrix
        result = classify(Polytope(MAX, k))
        if not (result.is_polytrope and result.dominator.matrix == k):
            failures += 1
    report(5, "500 Kleene-star column spaces classify as polytropes with the same star", failures == 0)


def test_criterion_06_swap_matrix_counterexample():
    swap = mat([[0, 1], [1, 0]])
    ok = not is_kleene_star(MAX, swap)
    space = Polytope(MAX, swap)
    ok = ok and dominator(space).matrix == mat([[0, -1], [-1, 0]])
    ok = ok and classify(space).is_polytrope
    report(6, "[[0,1],[1,0]]: convex column space but not a Kleene star", ok)


def test_criterion_07_triangle_counterexample_at_finite_resolution():
    expected = mat([[0, 0, 0], [-2, 0, -1], [-1, 0, 0]])
    witness = vec(0, -1, 0)
    ok = True
    for k in (1, 2, 4, 8):
        gens = [vec(1, 0, 0)] + [
            vec(Fraction(j, k), -Fraction(j, k), 0) for j in range(k + 1)
        ]
        p = Polytope(MAX, mat_from_columns(gens))
        result = classify(p)
        ok = ok and result.dominator.matrix == expected
        ok = ok and not result.is_polytrope
        ok = ok and result.witness == witness
        ok = ok and not member(p, witness)
    report(7, "triangle grids k=1,2,4,8: same dominator, witness (0,-1,0)", ok)


def test_criterion_08_tropical_segment_example():
    p = poly(MAX, (0, 0, 0), (0, 1, 2))
    result = classify(p)
    ok = result.dominator.matrix == mat([[0, -1, -2], [0, 0, -1], [0, 0, 0]])
    ok = ok and not result.is_polytrope
    ok = ok and result.witness == vec(-1, 0, 0)
    ok = ok and not member(p, vec(0, "1/2", 1))
    report(8, "segment {(0,0,0),(0,1,2)}: dominator, witness, failing midpoint", ok)


def test_criterion_09_duality_suite():
    rng = random.Random(1009)
    failures = 0
    for p in corpus(1909, 500, n_max=5, m_max=6, num_bound=12, den_bound=8):
        k = dominator(p).matrix
        col_space = Polytope(MAX, k)
        row_space = Polytope(MAX, transpose(k))
        x = reference_random_member(rng, col_space)
        r = reference_random_member(rng, row_space)
        ok = duality_chi(k, x) == -x
        ok = ok and duality_rho(k, r) == -r
        ok = ok and duality_rho(k, duality_chi(k, x)) == x
        ok = ok and duality_chi(k, duality_rho(k, r)) == r
        ok = ok and polytope_equal(col_space, Polytope(MIN, negate_transpose(k)))
        if not ok:
            failures += 1
    report(9, "duality maps negate on 500 Kleene stars; column space = dual column space", failures == 0)


def test_criterion_10_dominator_relation():
    failures = 0
    for p in corpus(1010, 500, n_max=5, m_max=6, num_bound=12, den_bound=8):
        polytrope = Polytope(MAX, dominator(p).matrix)
        if not verify_dominator_relation(polytrope):
            failures += 1
    report(10, "dual dominator equals negated transpose on 500 polytropes", failures == 0)


def test_criterion_11_euclidean_sampling_consistency():
    rng = random.Random(1011)
    false_positives = 0
    for _ in range(200):
        p = random_polytrope(rng, n_max=4, m_max=5, num_bound=8, den_bound=4)
        found = sample_euclidean_midpoints(p, trials=500, seed=rng.randint(0, 10**9))
        if found.violations:
            false_positives += 1
    misses = 0
    for _ in range(200):
        p = random_non_polytrope(rng, n_max=4, m_max=5, num_bound=8, den_bound=4)
        found = sample_euclidean_midpoints(
            p, trials=2_000, seed=rng.randint(0, 10**9), max_violations=1
        )
        if not found.violations:
            misses += 1
    report(
        11,
        "sampler: 0 false positives on 200 polytropes, 200/200 violations found",
        false_positives == 0 and misses == 0,
    )


def _cli(*argv: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "tropgeo.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_criterion_12_cli_round_trip(tmp_path):
    gens_path = tmp_path / "segment.json"
    gens_path.write_text(
        json.dumps(
            {
                "flavor": "max-plus",
                "rows": 3,
                "cols": 2,
                "entries": ["0", "0", "0", "1", "0", "2"],
                "role": "generators-as-columns",
            }
        )
    )
    code, out = _cli("classify", "--file", str(gens_path))
    ok = code == 0
    result = json.loads(out)
    ok = ok and result["is_polytrope"] is False
    ok = ok and result["witness"] == "(-1,0,0)"

    dom_path = tmp_path / "dominator.json"
    dom_path.write_text(json.dumps(result["dominator"]))
    code, star_out = _cli("star-check", "--file", str(dom_path))
    ok = ok and code == 0 and star_out.strip() == "true"

    code, member_out = _cli("member", "--file", str(gens_path), "--y", result["witness"])
    ok = ok and code == 0 and json.loads(member_out)["member"] is False

    code, out_again = _cli("classify", "--file", str(gens_path))
    ok = ok and code == 0 and out_again == out

    code, sample1 = _cli("sample-midpoints", "--file", str(gens_path), "--trials", "30", "--seed", "3")
    code2, sample2 = _cli("sample-midpoints", "--file", str(gens_path), "--trials", "30", "--seed", "3")
    ok = ok and code == 0 and code2 == 0 and sample1 == sample2
    ok = ok and json.loads(sample1)["violations"]

    report(12, "CLI classify output re-verified via star-check/member; byte-identical reruns", ok)
