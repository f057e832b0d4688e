"""Chart presentations of the local model and the section that proves them."""

import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

from lmlab.groebner import Ideal, deadline, eliminate, ideal_contains, ideal_equal, ideal_member, quotient
from lmlab.lattice import normal_form
import lmlab.localmodel
from lmlab.localmodel import (
    _Zn,
    _entries,
    _first_outside_small,
    _mapped,
    _mat_add,
    _mat_mul,
    _naive_relations,
    _oracle_failures,
    _outside_span,
    _rank_at_most_one,
    _rank_one_samples,
    _scaled_at_samples,
    _small_maps,
    _sym_mul,
    _verify_complete,
    big_ring,
    block_substitution,
    build_naive_chart_ideal,
    build_U_ideals,
    flatness_and_dimension,
    named_matrix,
    trace_form,
    verify_annihilator,
    verify_presentation,
    x_ring,
)
from lmlab.poly import Block, Polynomial, PolyRing, RingMap, minors, parse_poly
from lmlab.report import checking
from lmlab.suite import report_payload, run_check, strip_timings

GRID = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]

ZA1_SOUND_GOLDEN = Path(__file__).parent / "data" / "za1_sound_golden.json"


def za1_sound_payloads():
    """strip_timings JSON of za1 sound on 5:1, 5:2, 6:1 at seeds 7 and 11.

    tests/data/za1_sound_golden.json holds this text; it gates changes to za1
    that must keep its reports byte-identical.  Rewrite it only for an
    intended report change, with ``PYTHONPATH=src python tests/test_localmodel.py``.
    """
    out = {}
    for seed in (7, 11):
        for d, delta in ((5, 1), (5, 2), (6, 1)):
            reports = run_check("za1", d, delta, mode="sound", seed=seed)
            out["%d:%d seed %d" % (d, delta, seed)] = strip_timings(report_payload(reports))
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def test_naive_generator_count_5_1():
    nf = normal_form(5, 1)
    chart = build_naive_chart_ideal(nf)
    assert len(chart.generators) == 350


def test_naive_entry_example_5_1():
    nf = normal_form(5, 1)
    chart = build_naive_chart_ideal(nf)
    ring = chart.ring
    expected = parse_poly("2*x_1_1*x_5_1 + 2*x_2_1*x_4_1 - 2*pi*x_5_1", ring)
    assert expected in chart.generators


def test_worst_point_kills_all_generators():
    # X = Y = 0 with pi left free: the extra point of the naive chart
    nf = normal_form(5, 1)
    chart = build_naive_chart_ideal(nf)
    tgt = PolyRing(["pi"])
    images = {v: tgt.zero() for v in chart.ring.variables}
    images["pi"] = tgt.var("pi")
    to_pt = RingMap(chart.ring, tgt, images)
    for g in chart.generators:
        assert to_pt(g).is_zero


def test_trace_form_examples():
    nf = normal_form(5, 1)
    T = trace_form(nf)
    R = T.ring
    assert T == parse_poly("z_1_1*z_1_4 + z_1_2*z_1_3", R)

    nf = normal_form(6, 2)
    T = trace_form(nf)
    R = T.ring
    assert T == parse_poly("z_1_1*z_2_4 + z_1_2*z_2_3 + z_1_3*z_2_2 + z_1_4*z_2_1", R)


@pytest.mark.parametrize("d,delta", GRID)
def test_trace_form_block_cross_check(d, delta):
    # za1 proves that the closed formula equals the trace of the section's
    # diagonal block
    nf = normal_form(d, delta)
    psi = block_substitution(nf)
    assert trace_form(nf, psi.target) == sum(psi.images["x_%d_%d" % (a, a)] for a in nf.Delta)
    rep = verify_presentation(nf)
    assert rep.status == "pass" and "block_trace" not in rep.details


def test_U_ideal_5_1_single_quadric():
    nf = normal_form(5, 1)
    U, small = build_U_ideals(nf)
    assert len(U.generators) == 1
    assert str(U.generators[0]) == "z_1_2*z_1_3 + z_1_1*z_1_4 + 2*pi"
    assert len(small.generators) == 4


def test_U_ideal_6_2_counts():
    nf = normal_form(6, 2)
    U, _ = build_U_ideals(nf)
    assert len(U.generators) == 7  # six minors plus the quadric


def test_small_ideal_vanishes_at_origin():
    nf = normal_form(6, 2)
    _, small = build_U_ideals(nf)
    tgt = PolyRing(["pi"])
    images = {v: tgt.zero() for v in small.ring.variables}
    images["pi"] = tgt.var("pi")
    to_pt = RingMap(small.ring, tgt, images)
    for g in small.generators:
        assert to_pt(g).is_zero


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (7, 3)])
def test_dt_equals_u(d, delta):
    (rep,) = run_check("dt-equals-u", d, delta)
    assert rep.status == "pass", rep.details
    assert rep.unit_notes == ["displayed sum equals 2*(trace quadric + 2 pi)"]


def test_U_ideal_plus_Z_is_Z_plus_pi():
    nf = normal_form(6, 2)
    U, _ = build_U_ideals(nf)
    ring = U.ring
    zvars = [ring.var(v) for v in ring.variables if v != "pi"]
    lhs = Ideal(ring, list(U.generators) + zvars)
    rhs = Ideal(ring, zvars + [ring.var("pi")])
    assert ideal_equal(lhs, rhs)


def test_quad_times_entry_in_U_ideal():
    nf = normal_form(6, 2)
    U, _ = build_U_ideals(nf)
    ring = U.ring
    quad = trace_form(nf, ring) + 2 * ring.var("pi")
    for v in ring.variables:
        if v != "pi":
            ok, _ = ideal_member(quad * ring.var(v), U)
            assert ok


def test_z_cells_case_I_verbatim():
    nf = normal_form(6, 2)
    cells = dict(nf.z_cells)
    # Z = [B1|B2]: band rows, side columns in order
    assert cells[(1, 1)] == (3, 1)
    assert cells[(1, 3)] == (3, 5)
    assert cells[(2, 4)] == (4, 6)


def test_z_cells_case_II_erased_column():
    nf = normal_form(6, 3)
    cells = dict(nf.z_cells)
    assert nf.parity_case == "II"
    assert 4 not in nf.Delta
    # middle Z column is the erased X column d // 2 + 1 = 4
    assert cells[(1, 2)] == (2, 4)


def test_psi_identity_on_z_positions():
    nf = normal_form(6, 2)
    psi = block_substitution(nf)
    br = big_ring(nf)
    for (i, j), (a, b) in nf.z_cells:
        assert psi(br.var("x_%d_%d" % (a, b))) == psi.target.var("z_%d_%d" % (i, j))


def test_psi_examples_6_2():
    nf = normal_form(6, 2)
    psi = block_substitution(nf)
    br = big_ring(nf)
    zr = psi.target
    assert psi(br.var("x_3_1")) == zr.var("z_1_1")
    expected_a = zr.var("z_1_4") * zr.var("z_2_1") + zr.var("z_1_3") * zr.var("z_2_2")
    assert psi(br.var("x_3_3")) == expected_a
    expected_d = (
        zr.var("z_1_4") * zr.var("z_2_1") + zr.var("z_1_1") * zr.var("z_2_4")
    ) * Fraction(-1, 2)
    assert psi(br.var("x_1_1")) == expected_d


def test_psi_kills_skew_relation_exactly():
    # psi(Y + X^t) = 0 before any Groebner reduction
    nf = normal_form(5, 1)
    psi = block_substitution(nf)
    br = big_ring(nf)
    for a in range(1, 6):
        for b in range(1, 6):
            g = br.var("y_%d_%d" % (a, b)) + br.var("x_%d_%d" % (b, a))
            assert psi(g).is_zero


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 3)])
def test_presentation_sound(d, delta):
    rep = verify_presentation(normal_form(d, delta), mode="sound")
    assert rep.status == "pass"
    assert rep.details["reduced_to_zero"] == rep.details["generators"]


def test_za1_sound_reports_match_golden():
    assert za1_sound_payloads() == ZA1_SOUND_GOLDEN.read_text()


# ------------------------------------------------------- za1 rank-one oracle


def reference_oracle_failures(nf, images, oracle_samples, seed):
    """The per-image oracle that verify_presentation ran before the matrix-level
    one, copied unchanged: every image psi(g) is evaluated at every sample."""
    _, small = build_U_ideals(nf)
    zr = small.ring
    delta, m = nf.delta, nf.d - nf.delta
    T = trace_form(nf, zr)
    bad = 0
    for a, b in _rank_one_samples(nf, oracle_samples, seed):
        assign = {"z_%d_%d" % (i, j): a[i - 1] * b[j - 1]
                  for i in range(1, delta + 1) for j in range(1, m + 1)}
        assign["pi"] = 0
        assign["pi"] = -T.evaluate(assign) / 2
        for img in images:
            if img.evaluate(assign) != 0:
                bad += 1
                break
    return bad


def corrupted_section(nf, kind="diagonal"):
    """block_substitution made wrong while Y = -X^t still holds.

    diagonal: pi is added at the first diagonal x entry that is not a Z
    position (and so subtracted at its y entry), which breaks rank one.
    scaled: every image is doubled, which keeps rank one and X^t Y = 0 but
    breaks the four S-relations.
    """
    psi = block_substitution(nf)
    images = dict(psi.images)
    if kind == "diagonal":
        z_positions = {ab for _, ab in nf.z_cells}
        a = next(a for a in range(1, nf.d + 1) if (a, a) not in z_positions)
        pi = psi.target.var("pi")
        images["x_%d_%d" % (a, a)] = images["x_%d_%d" % (a, a)] + pi
        images["y_%d_%d" % (a, a)] = images["y_%d_%d" % (a, a)] - pi
    else:
        images = {v: img * 2 if v != "pi" else img for v, img in images.items()}
    return RingMap(psi.source, psi.target, images)


def random_matrix(rng, d, den):
    return [[Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, den))
             for _ in range(d)] for _ in range(d)]


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 3)])
def test_matrix_relations_are_the_naive_generators(d, delta):
    # at random points (pi, X, Y) the relations are the generators' values,
    # generator by generator
    nf = normal_form(d, delta)
    gens = build_naive_chart_ideal(nf).generators
    rng = random.Random(100 * d + delta)
    for _ in range(2):
        pi = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        X, Y = random_matrix(rng, d, 4), random_matrix(rng, d, 4)
        point = {"pi": pi}
        for a in range(d):
            for b in range(d):
                point["x_%d_%d" % (a + 1, b + 1)] = X[a][b]
                point["y_%d_%d" % (a + 1, b + 1)] = Y[a][b]
        assert list(_naive_relations(nf, X, Y, pi)) == [g.evaluate(point) for g in gens]


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 3)])
def test_integer_relations_are_scaled_fraction_relations(d, delta):
    # on (L X, L Y, L pi) every relation comes out as an int: L times its
    # value for Y + X^t, L^3 for X^t S1 X - 2 pi S X and Y^t S2 Y - 2 pi sy,
    # and L^2 for X^t Y, the minors and the other two S-relations
    nf = normal_form(d, delta)
    rng = random.Random(1000 * d + delta)
    minors = math.comb(d, 2) ** 2
    ks = [1] * d * d + [2] * (d * d + 2 * minors)
    ks += [k for k in (3, 2, 2, 3) for _ in range(d * d)]
    for _ in range(3):
        pi = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        X, Y = random_matrix(rng, d, 6), random_matrix(rng, d, 6)
        L = math.lcm(pi.denominator, *(v.denominator for M in (X, Y) for row in M for v in row))
        Xn, Yn = ([[int(v * L) for v in row] for row in M] for M in (X, Y))
        exact = list(_naive_relations(nf, X, Y, pi))
        scaled = list(_naive_relations(nf, Xn, Yn, int(pi * L), L))
        assert len(exact) == len(ks)
        assert all(type(v) is int for v in scaled)
        assert scaled == [L**k * v for k, v in zip(ks, exact)]


def reference_naive_relations(nf, X, Y, pi, L=1):
    """_naive_relations as it was before it reused the minors of X at
    Y = -X^t and formed the quadratic parts from their upper triangles,
    copied unchanged: the reference for its values."""
    Xt = [list(col) for col in zip(*X)]
    Yt = [list(col) for col in zip(*Y)]
    LS1 = [[L * v for v in row] for row in nf.S1]
    LS2 = [[L * v for v in row] for row in nf.S2]
    zero = pi * 0  # the ring's zero, or the int 0
    yield from _entries(_mat_add(Y, Xt))
    yield from _entries(_mat_mul(Xt, Y, zero))
    yield from minors(X, 2)
    yield from minors(Y, 2)
    LS1X, S2X = _mat_mul(LS1, X, zero), _mat_mul(nf.S2, X, zero)
    SX = _mat_add(LS1X, S2X, pi)
    yield from _entries(_mat_add(_mat_mul(Xt, LS1X, zero), SX, -2 * pi))
    yield from _entries(_mat_add(_mat_mul(Xt, S2X, zero), SX, 2))
    LS2Y, S1Y = _mat_mul(LS2, Y, zero), _mat_mul(nf.S1, Y, zero)
    sy = _mat_add(LS2Y, S1Y, pi)
    yield from _entries(_mat_add(_mat_mul(Yt, S1Y, zero), sy, 2))
    yield from _entries(_mat_add(_mat_mul(Yt, LS2Y, zero), sy, -2 * pi))


def minus_transpose(X):
    return [[-v for v in col] for col in zip(*X)]


def section_matrices(nf, corrupt):
    """(X, Y, pi) of block_substitution, of corrupted_section(nf, corrupt),
    or, for corrupt == "one-y", of the section with pi added to y_1_2 alone,
    so that Y != -X^t."""
    psi = block_substitution(nf) if corrupt in (None, "one-y") else corrupted_section(nf, corrupt)
    X, Y = (named_matrix(psi.images.__getitem__, stem, nf.d) for stem in "xy")
    pi = psi.images["pi"]
    if corrupt == "one-y":
        Y[0][1] = Y[0][1] + pi
    return X, Y, pi


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 3)])
def test_relations_equal_the_reference_at_random_points(d, delta):
    # independent (X, Y), and (X, -X^t) in Fractions and in scaled ints
    nf = normal_form(d, delta)
    rng = random.Random(10000 * d + delta)
    for _ in range(3):
        pi = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        X, Y = random_matrix(rng, d, 6), random_matrix(rng, d, 6)
        for Y in (Y, minus_transpose(X)):
            assert list(_naive_relations(nf, X, Y, pi)) == list(reference_naive_relations(nf, X, Y, pi))
        L = math.lcm(pi.denominator, *(v.denominator for row in X for v in row))
        Xn, Ln = [[int(v * L) for v in row] for row in X], int(pi * L)
        scaled = list(_naive_relations(nf, Xn, minus_transpose(Xn), Ln, L))
        assert all(type(v) is int for v in scaled)
        assert scaled == list(reference_naive_relations(nf, Xn, minus_transpose(Xn), Ln, L))


def product_ring_batch(nf, rng, n, skew_everywhere):
    """n samples (X, Y, pi, L) of ints: sample 0 all zero, sample 1 with X
    of rank one, the rest random with zeros among their entries.  Y = -X^t
    at every sample, or, unless skew_everywhere, only at sample 0 and the
    odd ones."""
    d = nf.d
    samples = []
    for s in range(n):
        if s == 0:
            X, pi = [[0] * d for _ in range(d)], 0
        elif s == 1:
            a, b = ([rng.choice([0, rng.randint(-4, 4)]) for _ in range(d)] for _ in "ab")
            X, pi = [[ai * bj for bj in b] for ai in a], rng.randint(-4, 4)
        else:
            X = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(d)] for _ in range(d)]
            pi = rng.randint(-5, 5)
        if skew_everywhere or s % 2 or s == 0:
            Y = minus_transpose(X)
        else:
            Y = [[rng.choice([0, rng.randint(-5, 5)]) for _ in range(d)] for _ in range(d)]
        samples.append((X, Y, pi, rng.choice([-3, -2, -1, 1, 2, 5])))
    return samples


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 3), (7, 3)])
def test_relations_over_the_product_ring_are_the_per_sample_relations(d, delta):
    # _naive_relations over Z^n holds at each coordinate the integer that it
    # gives at that sample alone, with Y = -X^t at every sample (the skew
    # branch) and at only some of them (the general one)
    nf = normal_form(d, delta)
    rng = random.Random(100 * d + delta)
    n = 7

    for skew_everywhere in (True, False):
        samples = product_ring_batch(nf, rng, n, skew_everywhere)
        X, Y = ([[_Zn([S[k][i][j] for S in samples]) for j in range(d)] for i in range(d)]
                for k in (0, 1))
        pi, L = (_Zn([S[k] for S in samples]) for k in (2, 3))
        got = [tuple(r.v) for r in _naive_relations(nf, X, Y, pi, L)]
        per_sample = [list(_naive_relations(nf, *sample)) for sample in samples]
        assert got == [tuple(col) for col in zip(*per_sample)]
        # the skew block is zero at every coordinate exactly when Y = -X^t
        # at every sample
        assert any(map(any, got[: d * d])) != skew_everywhere
        # the all-zero sample kills every relation, the random ones do not,
        # and some relation vanishes at some samples and not at others
        assert not any(v[0] for v in got) and all(any(v[s] for v in got) for s in range(2, n))
        assert any(0 in v and any(v) for v in got)


def test_product_ring_truth_value_and_operations():
    # an element is false iff every coordinate is 0; the operations act
    # coordinatewise, also against an int from either side
    assert not _Zn([0, 0, 0]) and not _Zn([])
    assert all(_Zn(v) for v in ([1, 0, 0], [0, 0, -2], [0, 7, 0]))
    a, b = _Zn([2, 0, -3]), _Zn([5, 4, 0])
    cases = [
        (a + b, (7, 4, -3)), (a - b, (-3, -4, -3)), (a * b, (10, 0, 0)), (-a, (-2, 0, 3)),
        (a + 1, (3, 1, -2)), (1 + a, (3, 1, -2)), (a - 1, (1, -1, -4)), (1 - a, (-1, 1, 4)),
        (a * -2, (-4, 0, 6)), (-2 * a, (-4, 0, 6)), (a * 0, (0, 0, 0)),
    ]
    for got, want in cases:
        assert type(got) is _Zn and tuple(got.v) == want and bool(got) == any(want)
    # no operation changes its operands
    assert (a.v, b.v) == ([2, 0, -3], [5, 4, 0])


@pytest.mark.parametrize("corrupt", [None, "diagonal", "scaled", "one-y"])
@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 3)])
def test_relations_on_sections_equal_the_reference(d, delta, corrupt):
    nf = normal_form(d, delta)
    X, Y, pi = section_matrices(nf, corrupt)
    assert (Y == minus_transpose(X)) == (corrupt != "one-y")
    assert list(_naive_relations(nf, X, Y, pi)) == list(reference_naive_relations(nf, X, Y, pi))


@pytest.mark.parametrize("where", ["section", "x_ring"])
@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 3)])
def test_y_minors_at_minus_x_transpose_are_the_x_minor_objects(d, delta, where):
    # the minor of -X^t at rows (i, j) and columns (k, l) is the X-minor at
    # rows (k, l) and columns (i, j), yielded again as the same object; the
    # Y + X^t block is the ring's zero
    nf = normal_form(d, delta)
    if where == "section":
        X, Y, pi = section_matrices(nf, None)
    else:
        xr = x_ring(nf)
        X = named_matrix(xr.var, "x", d)
        Y, pi = minus_transpose(X), xr.var("pi")
    relations = list(_naive_relations(nf, X, Y, pi))
    pairs = list(combinations(range(d), 2))
    n = len(pairs)
    x_minors = relations[2 * d * d : 2 * d * d + n * n]
    y_minors = relations[2 * d * d + n * n : 2 * d * d + 2 * n * n]
    for r in range(n):
        for c in range(n):
            assert y_minors[r * n + c] is x_minors[c * n + r]
    assert all(type(v) is Polynomial and v.is_zero for v in relations[: d * d])


@pytest.mark.parametrize("d,delta", [(6, 2), (6, 3)])
def test_a_passing_sound_za1_computes_no_groebner_basis(monkeypatch, d, delta):
    # the two ring maps decide every relation: a passing sound za1 runs no
    # Buchberger, asks for no basis and tests no membership
    from lmlab import groebner

    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(groebner, "buchberger", spy("buchberger", groebner.buchberger))
    monkeypatch.setattr(groebner.Ideal, "gb", spy("gb", groebner.Ideal.gb))
    monkeypatch.setattr(lmlab.localmodel, "ideal_member", spy("ideal_member", ideal_member))
    [rep] = run_check("za1", d, delta)
    assert rep.status == "pass"
    assert rep.details["reduced_to_zero"] == rep.details["generators"]
    assert calls == []


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_a_passing_complete_za1_computes_only_the_small_basis(monkeypatch, d, delta):
    # small in E comes from the span of the low images, so the one basis is
    # small's, for contraction_generators, and no membership is tested
    from lmlab import groebner

    runs, members = [], []
    real = groebner.buchberger

    def counted(ideal, *args, **kwargs):
        runs.append(ideal)
        return real(ideal, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    monkeypatch.setattr(lmlab.localmodel, "ideal_member", lambda *args: members.append(args))
    [rep] = run_check("za1", d, delta, mode="complete")
    assert rep.status == "pass"
    [small] = runs
    assert small.generators == build_U_ideals(normal_form(d, delta))[1].generators
    assert rep.details["contraction_generators"] == len(small.gb())
    assert members == []


def test_outside_span_is_linear_algebra_over_q():
    R = PolyRing(["x", "y", "z"])
    x, y, z = (R.var(v) for v in "xyz")
    vectors = [x * y + Fraction(1, 3) * z, 2 * x - y, y * y, x * y]
    inside = [z, x * Fraction(2, 7) - y * Fraction(1, 7) + 5 * y * y, R.zero()]
    outside = [x, x * z, R.one()]
    assert _outside_span(vectors, inside + outside) == outside
    assert _outside_span([], inside) == inside[:2]


def test_rank_at_most_one_is_the_vanishing_of_every_minor():
    # over the domains Z and Q[x, y]: rank-one products with zero entries,
    # their sums, the zero matrix and random matrices
    rng = random.Random(3)
    R = PolyRing(["x", "y"])
    polys = [R.zero(), R.one(), R.var("x"), R.var("y") - 2, R.var("x") * R.var("y") + 1]
    for entries in ([0, 0, 0, 1, -2, 3], polys):
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            u = [rng.choice(entries) for _ in range(n)]
            v = [rng.choice(entries) for _ in range(m)]
            M = [[a * b for b in v] for a in u]
            assert _rank_at_most_one(M)
            other = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
            for N in (other, [[a + b for a, b in zip(r, s)] for r, s in zip(M, other)]):
                assert _rank_at_most_one(N) == (not any(minors(N, 2)))


def test_a_failing_repeated_image_is_named_at_its_x_minor(monkeypatch):
    # a section with X = E_12 + E_34, nilpotent of rank two, and Y = -X^t:
    # every relation before the minors is zero, and the first nonzero minor,
    # an X-minor image that comes again as a Y-minor, fails at its first
    # occurrence, under the X-minor generator, with the residue of its image;
    # only that one image is reduced
    d, delta = 6, 2
    nf = normal_form(d, delta)
    psi = block_substitution(nf)
    R = psi.target
    images = {"pi": R.var("pi")}
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            x = R.one() if (a, b) in ((1, 2), (3, 4)) else R.zero()
            images["x_%d_%d" % (a, b)], images["y_%d_%d" % (b, a)] = x, -x
    section = RingMap(psi.source, R, images)
    X, Y = (named_matrix(images.__getitem__, stem, d) for stem in "xy")
    relations = list(_naive_relations(nf, X, Y, images["pi"]))
    k = next(i for i, r in enumerate(relations) if not r.is_zero)
    start = 2 * d * d
    assert start <= k < start + math.comb(d, 2) ** 2
    target = relations[k]
    assert sum(r is target for r in relations) >= 2

    reduced = []

    def counting(p, ideal):
        reduced.append(p)
        return ideal_member(p, ideal)

    monkeypatch.setattr(lmlab.localmodel, "ideal_member", counting)
    monkeypatch.setattr(lmlab.localmodel, "block_substitution", lambda nf: section)
    rep = verify_presentation(nf)
    assert rep.status == "fail"
    assert rep.details["offending_generator"] == str(build_naive_chart_ideal(nf).generators[k])
    assert "x_" in rep.details["offending_generator"] and "y_" not in rep.details["offending_generator"]
    assert reduced == [target]
    assert rep.details["residue"] == str(ideal_member(target, build_U_ideals(nf)[1])[1].residue)
    assert rep.details["residue"] != "0"
    assert rep.details["reduced_to_zero"] == k


def sound_section(nf, corrupt):
    """block_substitution, corrupted_section(nf, corrupt), or, for "one-y",
    the section with pi added to y_1_2 alone, so that Y != -X^t."""
    if corrupt != "one-y":
        return corrupted_section(nf, corrupt) if corrupt else block_substitution(nf)
    psi = block_substitution(nf)
    pi = psi.images["pi"]
    return RingMap(psi.source, psi.target, dict(psi.images, y_1_2=psi.images["y_1_2"] + pi))


def reference_sound_report(nf, psi, seed=7):
    """verify_presentation's sound mode before it reduced the section's
    entries first, copied unchanged with the section passed in: every image
    psi(g) is reduced in generator order, each object once."""
    instance = {"d": nf.d, "delta": nf.delta, "mode": "sound"}
    with checking("za1", instance) as report:
        naive = build_naive_chart_ideal(nf)
        if trace_form(nf, psi.target) != sum(psi.images["x_%d_%d" % (a, a)] for a in nf.Delta):
            report.status = "fail"
            report.details["block_trace"] = False
        _, small = build_U_ideals(nf)
        X, Y = (named_matrix(psi.images.__getitem__, stem, nf.d) for stem in "xy")
        images = _naive_relations(nf, X, Y, psi.images["pi"])
        reduced_zero = 0
        passed = {}
        for g, img in zip(naive.generators, images, strict=True):
            if img.is_zero or passed.get(id(img)) is img:
                reduced_zero += 1
                continue
            ok, cert = ideal_member(img, small)
            if ok:
                passed[id(img)] = img
                reduced_zero += 1
            else:
                report.status = "fail"
                report.details["offending_generator"] = str(g)
                report.details["residue"] = str(cert.residue)
                break
        report.details["generators"] = len(naive.generators)
        report.details["reduced_to_zero"] = reduced_zero

        if report.status == "pass":
            bad = _oracle_failures(nf, psi, 20, seed)
            report.details["oracle_samples"] = 20
            if bad:
                report.status = "fail"
                report.details["oracle_failures"] = bad
    return report


@pytest.mark.parametrize("corrupt", ["diagonal", "scaled", "one-y"])
@pytest.mark.parametrize("d,delta", [(5, 1), (5, 2), (6, 2), (6, 3)])
def test_a_wrong_section_fails_as_its_direct_reduction_does(monkeypatch, d, delta, corrupt):
    # reducing the entries first must not hide a wrong section or change
    # how it fails: the report equals that of reducing every psi(g) itself
    nf = normal_form(d, delta)
    psi = sound_section(nf, corrupt)
    expected = reference_sound_report(nf, psi)
    monkeypatch.setattr(lmlab.localmodel, "block_substitution", lambda nf: psi)
    rep = verify_presentation(nf, mode="sound")
    assert rep.status == "fail" and "offending_generator" in rep.details
    assert strip_timings(report_payload([rep])) == strip_timings(report_payload([expected]))
    # complete mode fails it the same way, before its own claims
    complete = verify_presentation(nf, mode="complete")
    assert (complete.status, complete.details) == (rep.status, rep.details)


def section_residues(nf, psi, small):
    """The normal forms modulo `small` of the section's X and Y, as lists of rows."""
    return [[[ideal_member(v, small)[1].residue for v in row]
             for row in named_matrix(psi.images.__getitem__, stem, nf.d)] for stem in "xy"]


@pytest.mark.parametrize("d,delta", [(6, 2), (6, 3)])
def test_each_section_entry_is_certified_to_its_normal_form(d, delta):
    # psi(x_ab) = sum(c_i b_i) + its residue over small.gb(), and no term of
    # the residue is divisible by a leading term of the basis
    nf = normal_form(d, delta)
    psi = block_substitution(nf)
    _, small = build_U_ideals(nf)
    X, Y = section_residues(nf, psi, small)
    leads = [b.lm() for b in small.gb()]
    for row, reduced in zip(named_matrix(psi.images.__getitem__, "x", d), X):
        for v, r in zip(row, reduced):
            _, cert = ideal_member(v, small)
            assert cert.verify(v)
            assert cert.residue == r
            assert not any(all(a >= b for a, b in zip(e, lt)) for e in r.numerators() for lt in leads)
    assert Y == minus_transpose(X)


@pytest.mark.parametrize("corrupt", [None, "diagonal", "one-y"])
def test_relations_at_the_normal_forms_share_each_image_normal_form(corrupt):
    # at 5:2, psi(g) and the relation at the reduced entries have one
    # normal form modulo the small ideal, for every generator g
    nf = normal_form(5, 2)
    psi = sound_section(nf, corrupt)
    _, small = build_U_ideals(nf)
    X, Y = section_residues(nf, psi, small)
    at_residues = _naive_relations(nf, X, Y, psi.images["pi"])
    for g, rel in zip(build_naive_chart_ideal(nf).generators, at_residues, strict=True):
        assert ideal_member(psi(g), small)[1].residue == ideal_member(rel, small)[1].residue


UP_TO_7 = [(d, delta) for d in (5, 6, 7) for delta in range(1, d // 2 + 1)]


def two_map_verdict(maps, f):
    """True iff f maps to zero under both maps of _small_maps."""
    return not any(m(f) for m in maps)


@pytest.mark.parametrize("d,delta", UP_TO_7)
def test_two_maps_decide_every_relation_as_the_basis_does(d, delta):
    # at the true, diagonal, scaled and one-y sections, and at one with
    # q = T + 2 pi added at x_1_1 (and taken from y_1_1), a naive relation is
    # zero under both maps iff its image lies in small by the basis, and
    # _first_outside_small names the first that does not; the q section
    # fails only at Z = 0, since q is zero under the Segre map.  Every
    # relation vanishes at X = Y = 0, which lets sound mode pass over that
    # point
    nf = normal_form(d, delta)
    _, small = build_U_ideals(nf)
    naive = build_naive_chart_ideal(nf)
    line = PolyRing(["pi"])
    at_zero = {v: line.zero() for v in naive.ring.variables}
    at_zero["pi"] = line.var("pi")
    assert not any(RingMap(naive.ring, line, at_zero)(g) for g in naive.generators)

    maps = _small_maps(nf, small.ring)
    member = {}
    for corrupt in (None, "diagonal", "scaled", "one-y", "q"):
        if corrupt == "q":
            psi = block_substitution(nf)
            q = trace_form(nf, psi.target) + 2 * psi.images["pi"]
            psi = RingMap(psi.source, psi.target, dict(
                psi.images, x_1_1=psi.images["x_1_1"] + q, y_1_1=psi.images["y_1_1"] - q))
        else:
            psi = sound_section(nf, corrupt)
        X, Y = (named_matrix(psi.images.__getitem__, stem, d) for stem in "xy")
        pi = psi.images["pi"]
        points = [(MX, MY, f(pi)) for f, MX, MY in zip(maps, _mapped(maps, X), _mapped(maps, Y))]
        verdicts = [not any(values) for values in zip(*(_naive_relations(nf, *p) for p in points))]
        expected = []
        for img in _naive_relations(nf, X, Y, pi):
            if img not in member:
                member[img] = ideal_member(img, small)[0]
            expected.append(member[img])
        assert len(verdicts) == len(naive.generators)
        assert verdicts == expected
        first = next((k for k, ok in enumerate(expected) if not ok), None)
        assert _first_outside_small(nf, points) == first
        assert (first is None) == (corrupt is None)
        if corrupt == "q":
            segre = _naive_relations(nf, *points[1])
            assert not any(segre)


@pytest.mark.parametrize("d,delta", UP_TO_7)
def test_two_maps_decide_membership_of_random_polynomials(d, delta):
    # seeded polynomials in Q[pi, Z]: combinations of small's generators are
    # members by both tests, and random polynomials, and members moved by a
    # term outside small, get one verdict from the maps and from the basis
    nf = normal_form(d, delta)
    _, small = build_U_ideals(nf)
    ring = small.ring
    maps = _small_maps(nf, ring)
    rng = random.Random(1000 * d + delta)
    variables = [ring.var(v) for v in ring.variables]

    def random_poly(degree, terms):
        f = ring.zero()
        for _ in range(terms):
            t = ring.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(rng.randint(0, degree)):
                t = t * rng.choice(variables)
            f = f + t
        return f

    gens = small.generators
    members = [sum((g * random_poly(2, 3) for g in rng.sample(gens, min(3, len(gens)))), ring.zero())
               for _ in range(6)]
    pi, z = variables[0], variables[1:]
    moved = [f + rng.choice([pi, rng.choice(z) ** 2, rng.choice(z) * pi]) for f in members]
    others = [random_poly(3, 4) for _ in range(6)]
    for f in members:
        assert two_map_verdict(maps, f) and ideal_member(f, small)[0]
    verdicts = [(two_map_verdict(maps, f), ideal_member(f, small)[0]) for f in moved + others]
    assert all(a == b for a, b in verdicts)
    assert not any(a for a, _ in verdicts[: len(moved)])


@pytest.mark.parametrize("d,delta", [(d, delta) for d in (8, 9) for delta in range(1, 5)])
def test_presentation_sound_at_d_8_and_9(d, delta):
    [rep] = run_check("za1", d, delta, mode="sound")
    assert rep.status == "pass"
    assert rep.details["reduced_to_zero"] == rep.details["generators"]
    assert rep.details["oracle_samples"] == 20 and "oracle_failures" not in rep.details


@lru_cache(maxsize=None)
def section_and_images(d, delta, corrupt):
    nf = normal_form(d, delta)
    psi = corrupted_section(nf, corrupt) if corrupt else block_substitution(nf)
    return psi, [psi(g) for g in build_naive_chart_ideal(nf).generators]


@pytest.mark.parametrize("corrupt", [None, "diagonal", "scaled"])
@pytest.mark.parametrize("d,delta", [(5, 1), (5, 2), (6, 2)])
def test_relations_commute_with_the_section(d, delta, corrupt):
    # a ring map commutes with _naive_relations: evaluating it on the images
    # of X, Y and pi gives psi of every generator, in order
    nf = normal_form(d, delta)
    psi, images = section_and_images(d, delta, corrupt)
    X, Y = (named_matrix(psi.images.__getitem__, stem, d) for stem in "xy")
    assert list(_naive_relations(nf, X, Y, psi.images["pi"])) == images


@pytest.mark.parametrize("d,delta", GRID)
def test_relations_at_y_equal_minus_x_transpose_and_none_is_zero(d, delta):
    # on (X, -X^t) in x_ring, the relations are the generators mapped by
    # Y = -X^t; and no big-ring relation is zero, so each generator of the
    # naive ideal is one relation, in order
    nf = normal_form(d, delta)
    naive = build_naive_chart_ideal(nf)
    big = naive.ring
    X = named_matrix(big.var, "x", d)
    Y = named_matrix(big.var, "y", d)
    relations = list(_naive_relations(nf, X, Y, big.var("pi")))
    assert not any(r.is_zero for r in relations)
    assert relations == list(naive.generators)

    xr = x_ring(nf)
    images = {"pi": xr.var("pi")}
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            images["x_%d_%d" % (a, b)] = xr.var("x_%d_%d" % (a, b))
            images["y_%d_%d" % (a, b)] = -xr.var("x_%d_%d" % (b, a))
    y_to_minus_xt = RingMap(big, xr, images)
    Xx = named_matrix(xr.var, "x", d)
    at_minus_xt = _naive_relations(nf, Xx, [[-v for v in col] for col in zip(*Xx)], xr.var("pi"))
    assert list(at_minus_xt) == [y_to_minus_xt(g) for g in naive.generators]


@pytest.mark.parametrize("d,delta", GRID)
def test_relations_are_ring_elements_with_zero_factors_skipped(d, delta):
    # every relation over the big ring, and every image under the section,
    # is a Polynomial of that ring, zero ones included, never the int 0
    nf = normal_form(d, delta)
    big = big_ring(nf)
    X, Y = (named_matrix(big.var, stem, d) for stem in "xy")
    relations = list(_naive_relations(nf, X, Y, big.var("pi")))
    assert all(type(r) is Polynomial and r.ring == big for r in relations)
    psi = block_substitution(nf)
    X, Y = (named_matrix(psi.images.__getitem__, stem, d) for stem in "xy")
    images = list(_naive_relations(nf, X, Y, psi.images["pi"]))
    assert all(type(r) is Polynomial and r.ring == psi.target for r in images)
    assert any(r.is_zero for r in images)
    # a zero row of S gives zero entries of the ring, and zero is falsy
    zero = big.zero()
    S1X = _mat_mul(nf.S1, named_matrix(big.var, "x", d), zero)
    assert all(type(v) is Polynomial for row in S1X for v in row)
    for s_row, row in zip(nf.S1, S1X):
        assert all(bool(v) == any(s_row) for v in row)
    assert _mat_add([[zero]], [[zero]], big.var("pi")) == [[zero]]


def _dense_product(A, B, zero):
    return [[sum((a * b for a, b in zip(row, col)), zero) for col in zip(*B)] for row in A]


@pytest.mark.parametrize("d,delta", [(5, 1), (5, 2), (6, 3)])
def test_products_equal_the_dense_product(d, delta):
    # _mat_mul and _sym_mul walk only the nonzero entries of each left row;
    # their products must be the dense ones, on ints and on polynomials with
    # zero and one entries, for the S-matrices and for full matrices
    nf = normal_form(d, delta)
    rng = random.Random(d * 10 + delta)
    R = PolyRing(["a", "b", "pi"])
    entries = [0, 1, R.zero(), R.one(), R.var("a"), R.var("b") + 3, R.var("a") * R.var("pi")]
    for zero, choices in ((0, [0, 0, 1, -1, 3]), (R.zero(), entries)):
        X, Y = ([[rng.choice(choices) for _ in range(d)] for _ in range(d)] for _ in "XY")
        Xt = [list(col) for col in zip(*X)]
        for A, B in ((nf.S1, X), (nf.S2, Y), (Xt, Y), (X, nf.S2)):
            assert _mat_mul(A, B, zero) == _dense_product(A, B, zero)
        for S in (nf.S1, nf.S2, [[3 * v for v in row] for row in nf.S1]):
            SX = _mat_mul(S, X, zero)
            assert _sym_mul(Xt, SX, zero) == _dense_product(Xt, SX, zero)


@pytest.mark.parametrize("corrupt", [None, "diagonal", "scaled"])
@pytest.mark.parametrize("seed", [7, 11, 13])
@pytest.mark.parametrize("d,delta", [(5, 1), (5, 2), (6, 2), (6, 3), (7, 3)])
def test_matrix_oracle_matches_per_image_oracle(d, delta, seed, corrupt):
    nf = normal_form(d, delta)
    psi, images = section_and_images(d, delta, corrupt)
    bad = _oracle_failures(nf, psi, 20, seed)
    assert bad == reference_oracle_failures(nf, images, 20, seed)
    assert (bad > 0) == (corrupt is not None)


@pytest.mark.parametrize("corrupt", [None, "diagonal"])
@pytest.mark.parametrize("d,delta", [(5, 1), (6, 3)])
def test_scaled_samples_are_the_per_sample_integers(d, delta, corrupt):
    # coordinate s of (L X, L pi, L) is sample s on its own: L the lcm of the
    # denominators of pi and of the x-images' values there, as the oracle
    # computed it one sample at a time (the diagonal section puts pi into X)
    nf = normal_form(d, delta)
    psi = corrupted_section(nf, corrupt) if corrupt else block_substitution(nf)
    R = psi.target
    T = trace_form(nf, R)
    X = named_matrix(psi.images.__getitem__, "x", d)
    points = []
    for a, b in _rank_one_samples(nf, 20, 7):
        assign = {"z_%d_%d" % (i + 1, j + 1): ai * bj
                  for i, ai in enumerate(a) for j, bj in enumerate(b)}
        assign["pi"] = 0
        assign["pi"] = -T.evaluate(assign) / 2
        points.append(R.point(assign))
    LX, Lpi, L = _scaled_at_samples(R, X, points)
    for s, point in enumerate(points):
        pi = Fraction(point[1][R.index["pi"]], point[0])
        Xs = [[img.at(point) for img in row] for row in X]
        Ls = math.lcm(pi.denominator, *(v.denominator for row in Xs for v in row))
        assert (L.v[s], Lpi.v[s]) == (Ls, pi * Ls)
        assert [[v.v[s] for v in row] for row in LX] == [[v * Ls for v in row] for row in Xs]


def test_oracle_fail_branch(monkeypatch):
    # with the two-map proof forced to pass only the oracle can catch the
    # section
    monkeypatch.setattr(lmlab.localmodel, "_first_outside_small", lambda nf, points: None)
    monkeypatch.setattr(lmlab.localmodel, "block_substitution", corrupted_section)
    rep = verify_presentation(normal_form(5, 1), mode="sound")
    assert rep.status == "fail"
    assert rep.details["reduced_to_zero"] == rep.details["generators"]
    assert rep.details["oracle_samples"] == 20
    assert rep.details["oracle_failures"] > 0


def test_presentation_complete_5_1():
    rep = verify_presentation(normal_form(5, 1), mode="complete")
    assert rep.status == "pass"
    assert rep.details["surjectivity_certified"] == rep.details["surjectivity_targets"]


@pytest.mark.parametrize("corrupt", [False, True])
def test_complete_mode_fails_a_section_that_misses_one_entry(corrupt):
    # the sound half would reject this section first, so the complete half
    # is called on its own: x_1_1 - (psi(x_1_1) + 1) is not in the ideal
    nf = normal_form(5, 1)
    assert (1, 1) not in {ab for _, ab in nf.z_cells}
    psi = block_substitution(nf)
    if corrupt:
        images = dict(psi.images, x_1_1=psi.images["x_1_1"] + 1)
        psi = RingMap(psi.source, psi.target, images)
    _, small = build_U_ideals(nf)
    with checking("za1", {"d": 5, "delta": 1, "mode": "complete"}) as rep:
        _verify_complete(nf, psi, small, rep)
    if corrupt:
        assert rep.status == "fail"
        # y_1_1 still goes to minus the old x_1_1 image, no longer to minus
        # the transposed x image, so it is not certified either
        assert rep.details["surjectivity_failures"] == ["x_1_1", "y_1_1"]
        assert "contraction_generators" not in rep.details
    else:
        assert rep.status == "pass"
        assert "surjectivity_failures" not in rep.details
        assert rep.details["contraction_generators"] > 0


def test_annihilator_examples():
    assert verify_annihilator(normal_form(5, 1)).status == "pass"
    assert verify_annihilator(normal_form(6, 2)).status == "pass"


@pytest.mark.parametrize("change", ["larger", "smaller"])
def test_annihilator_witness_is_a_non_member(monkeypatch, change):
    # the witness lies outside the other ideal, whichever way the two differ
    nf = normal_form(5, 1)
    ring = build_U_ideals(nf)[1].ring
    zvars = [ring.var(v) for v in ring.variables if v != "pi"]
    ann = zvars + [ring.var("pi")] if change == "larger" else zvars[1:]
    monkeypatch.setattr(lmlab.localmodel, "quotient", lambda I, f: Ideal(ring, ann))
    rep = verify_annihilator(nf)
    assert rep.status == "fail"
    assert rep.details["annihilator"] == [str(g) for g in ann]
    assert rep.details["witness"] == ("pi" if change == "larger" else str(zvars[0]))


def test_annihilator_sanity_strict_containment():
    nf = normal_form(5, 1)
    _, small = build_U_ideals(nf)
    ring = small.ring
    q = quotient(small, ring.var("z_1_1"))
    assert ideal_contains(q, small)
    assert not ideal_contains(small, q)


def test_flatness_and_dimension_examples():
    nf = normal_form(5, 1)
    U, _ = build_U_ideals(nf)
    rep = flatness_and_dimension(U, nf.d - 2)
    assert rep.status == "pass"


def test_flatness_counterexample():
    ring = PolyRing(["pi", "z_1_1"])
    bad = Ideal(ring, ["pi*z_1_1"])
    rep = flatness_and_dimension(bad, 1)
    assert rep.status == "fail"
    assert rep.details["flat"] is False


def test_timeout_surfaces_in_report():
    with deadline(1e-9):
        rep = verify_presentation(normal_form(6, 2), mode="sound")
    assert rep.status == "timeout"
    assert "timeout" in rep.details



@pytest.mark.parametrize("corrupt", ["diagonal", "scaled", "one-y"])
@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_complete_mode_fails_a_wrong_section(monkeypatch, d, delta, corrupt):
    nf = normal_form(d, delta)
    psi = sound_section(nf, corrupt)
    monkeypatch.setattr(lmlab.localmodel, "block_substitution", lambda nf: psi)
    rep = verify_presentation(nf, mode="complete")
    assert rep.status == "fail"
    # on its own the complete half fails such a section at its wrong entries
    _, small = build_U_ideals(nf)
    with checking("za1", {"d": d, "delta": delta, "mode": "complete"}) as alone:
        _verify_complete(nf, psi, small, alone)
    assert alone.status == "fail"
    failures = alone.details["surjectivity_failures"]
    assert failures and all(name in psi.images for name in failures)
    if corrupt == "diagonal":
        a = next(a for a in range(1, d + 1) if (a, a) not in {ab for _, ab in nf.z_cells})
        assert failures == ["x_%d_%d" % (a, a)]
    if corrupt == "one-y":
        # the x images are right; y_1_2 alone is not minus its transposed x image
        assert failures == ["y_1_2"]


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_contraction_generators_count_the_elimination_basis(d, delta):
    # the earlier route: eliminate every target from H under the block order
    # on the targets in x_ring order; the count of its basis in Q[pi, Z] is
    # the count complete mode reads off the small ideal's basis, and the
    # eliminated ideal is the small ideal, renamed
    nf = normal_form(d, delta)
    xr = x_ring(nf)
    X = named_matrix(xr.var, "x", d)
    H = Ideal(xr, _naive_relations(nf, X, [[-v for v in col] for col in zip(*X)], xr.var("pi")))
    z_of_x = {"x_%d_%d" % ab: "z_%d_%d" % ij for ij, ab in nf.z_cells}
    targets = [v for v in xr.variables if v != "pi" and v not in z_of_x]
    E = eliminate(Ideal(xr.with_order(Block(targets)), H.generators), targets)
    [rep] = run_check("za1", d, delta, mode="complete")
    assert rep.status == "pass"
    assert len(E.generators) == rep.details["contraction_generators"]
    _, small = build_U_ideals(nf)
    rename = RingMap(E.ring, small.ring, {v: small.ring.var(z_of_x.get(v, v)) for v in E.ring.variables})
    assert ideal_equal(Ideal(small.ring, [rename(g) for g in E.generators]), small)


def _x_ring_relations_changed(change):
    """_naive_relations, with each x_ring relation r replaced by change(r)."""
    real = lmlab.localmodel._naive_relations

    def changed(nf, X, Y, pi, *args, **kwargs):
        if pi.ring != x_ring(nf):
            yield from real(nf, X, Y, pi, *args, **kwargs)
            return
        for r in real(nf, X, Y, pi, *args, **kwargs):
            yield change(r)

    return changed


def _complete_half_alone(nf):
    _, small = build_U_ideals(nf)
    with checking("za1", {"d": nf.d, "delta": nf.delta, "mode": "complete"}) as rep:
        _verify_complete(nf, block_substitution(nf), small, rep)
    return rep



def test_complete_mode_fails_a_target_no_generator_solves(monkeypatch):
    # x_1_1^2 added to every relation that uses x_1_1: none solves for it
    nf = normal_form(5, 1)
    assert (1, 1) not in {ab for _, ab in nf.z_cells}
    v = x_ring(nf).var("x_1_1")
    monkeypatch.setattr(lmlab.localmodel, "_naive_relations", _x_ring_relations_changed(
        lambda r: r + v * v if "x_1_1" in r.variables_used() else r))
    rep = _complete_half_alone(nf)
    assert rep.status == "fail"
    assert "x_1_1" in rep.details["unsolved_targets"]
    assert rep.details["unsolved_targets"] == sorted(rep.details["unsolved_targets"])
    assert "surjectivity_certified" not in rep.details
    assert "contraction_generators" not in rep.details

def test_complete_mode_fails_a_relation_outside_the_small_ideal(monkeypatch):
    # 1 added to every relation that uses x_1_1 moves the retraction off the
    # section, and a relation at the moved entries leaves the small ideal
    nf = normal_form(5, 1)
    monkeypatch.setattr(lmlab.localmodel, "_naive_relations", _x_ring_relations_changed(
        lambda r: r + 1 if "x_1_1" in r.variables_used() else r))
    rep = _complete_half_alone(nf)
    assert rep.status == "fail"
    [name] = rep.details["contraction_failures"]
    assert "x_" in name
    assert "surjectivity_certified" not in rep.details


def test_complete_mode_fails_when_the_small_ideal_is_not_reached(monkeypatch):
    # every relation without a linear term times pi: the chain still solves
    # every target, but pi times a minor of Z does not give the minor
    nf = normal_form(6, 2)
    monkeypatch.setattr(lmlab.localmodel, "_naive_relations", _x_ring_relations_changed(
        lambda r: r if any(sum(e) == 1 for e in r.numerators()) else r * r.ring.var("pi")))
    rep = _complete_half_alone(nf)
    assert rep.status == "fail"
    unreached = rep.details["unreached_small_generators"]
    _, small = build_U_ideals(nf)
    minors_of_z = {str(m) for m in minors(lmlab.localmodel.z_matrix(nf, small.ring), 2)}
    assert unreached and set(unreached) <= {str(g) for g in small.generators}
    assert minors_of_z & set(unreached)
    assert "surjectivity_certified" not in rep.details


def test_z_positions_keep_the_x_ring_order():
    # complete mode reads the contraction's basis off the small ideal's, which
    # needs the renaming of z_ij to its x entry to keep the variable order
    for d in range(5, 13):
        for delta in range(1, d // 2 + 1):
            nf = normal_form(d, delta)
            xr = x_ring(nf)
            at = [xr.index["x_%d_%d" % ab] for _, ab in nf.z_cells]
            assert at == sorted(at), (d, delta)


def test_one_memo_builds_u_once_for_za1_and_dt_equals_u(monkeypatch):
    # each check gets its own normal form from run_check; the memo, keyed
    # on the normal form, finds the first check's U under the second's
    # because equal normal forms hash equal
    from lmlab import groebner, suite
    from lmlab.suite import run_instance

    forms, built = [], []
    real_form, raw = suite.normal_form, lmlab.localmodel.build_U_ideals.__wrapped__

    def normal_form_spy(d, delta):
        forms.append(real_form(d, delta))
        return forms[-1]

    def build_U_ideals(nf):
        built.append(nf)
        return raw(nf)

    monkeypatch.setattr(suite, "normal_form", normal_form_spy)
    monkeypatch.setattr(lmlab.localmodel, "build_U_ideals", groebner._once_per_memo(build_U_ideals))
    reports = run_instance(["za1", "dt-equals-u"], 6, 1)
    assert [(r.check, r.status) for r in reports] == [("za1", "pass"), ("dt-equals-u", "pass")]
    assert len(forms) == 2 and forms[0] is not forms[1]
    assert len(built) == 1


if __name__ == "__main__":
    ZA1_SOUND_GOLDEN.write_text(za1_sound_payloads())
