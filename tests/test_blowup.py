"""Blow-up charts, resolution charts, and their matching."""

import json

import pytest

from lmlab.blowup import (
    _pivot_to_z,
    build_B_blowup_charts,
    build_DT_blowup_chart,
    build_M_chart,
    chart_match,
    exceptional_locus,
    linking_multipliers,
)
from lmlab.groebner import (
    Ideal,
    ideal_equal,
    ideal_member,
    is_nonzerodivisor,
    krull_dim,
    quotient,
    reduce_poly,
)
from lmlab.lattice import LatticeError, normal_form, q1_form, q2_form
from lmlab.poly import PolyRing, RingMap, parse_poly
from lmlab.quadric import build_basic_scheme


def test_b_blowup_charts_build_and_membership():
    b = build_basic_scheme()
    (chart1, map1), (chart2, map2) = build_B_blowup_charts(b)
    assert [str(g) for g in chart1.generators] == ["u*v - pi"]
    assert [str(g) for g in chart2.generators] == ["w1*w2*y^2 + pi"]
    for chart, fmap in ((chart1, map1), (chart2, map2)):
        assert fmap.source.variables == b.ring.variables and fmap.target is chart.ring
        assert all(ideal_member(fmap(g), chart)[0] for g in b.generators)


def test_dt_blowup_5_1_reduced_equation():
    nf = normal_form(5, 1)
    bc = build_DT_blowup_chart(nf, 1, 1)
    ring = bc.chart.ring
    # 2 pi + z^2 (bu_1_4 + bu_1_2 bu_1_3), after dividing by the unit 2
    expect = Ideal(
        ring, ["2*pi + z_1_1^2*bu_1_4 + z_1_1^2*bu_1_2*bu_1_3"]
    )
    assert ideal_equal(bc.chart, expect)
    assert str(bc.row_sum) == "1"


def test_dt_blowup_6_2_unit_four():
    nf = normal_form(6, 2)
    bc = build_DT_blowup_chart(nf, 1, 1)
    ring = bc.chart.ring
    expect = parse_poly(
        "4*pi + 4*z_1_1^2*bu_2_1*bu_1_4 + 4*z_1_1^2*bu_2_1*bu_1_2*bu_1_3", ring
    )
    assert bc.chart.generators[0] == expect


def test_dt_blowup_pivot_out_of_range():
    nf = normal_form(5, 1)
    with pytest.raises(LatticeError):
        build_DT_blowup_chart(nf, 2, 1)


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_dt_blowup_flatness_every_pivot(d, delta):
    nf = normal_form(d, delta)
    for s in range(1, delta + 1):
        for t in range(1, d - delta + 1):
            bc = build_DT_blowup_chart(nf, s, t)
            assert is_nonzerodivisor(bc.chart, bc.chart.ring.var("pi")), (s, t)
            assert krull_dim(bc.chart) == d - 1, (s, t)


def test_ambient_chart_contains_displayed_relations():
    nf = normal_form(6, 2)
    bc = build_DT_blowup_chart(nf, 2, 3)
    amb = bc.ambient.ring
    gens = list(bc.ambient.generators)
    assert parse_poly("bu_2_3 - 1", amb) in gens
    # homogeneous relation family present for every matrix position
    assert parse_poly("bu_1_1 - bu_2_1*bu_1_3", amb) in gens
    assert parse_poly("bu_1_4 - bu_2_4*bu_1_3", amb) in gens


def test_m_chart_5_1_reduced_ideal():
    nf = normal_form(5, 1)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.reduced.ring
    expect = Ideal(
        ring,
        [
            "1/2*lambda^2*y_2*y_4 + 1/2*lambda^2*y_1*y_5 + pi",
            "x_3 - 1",
            "y_1 - 1",
        ],
    )
    assert ideal_equal(mc.reduced, expect)


def test_m_chart_5_1_k_generator_flip():
    # x_1 + (1/2) lambda y_5 sits in the full ideal (index flip d+1-i)
    nf = normal_form(5, 1)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.full.ring
    p = parse_poly("x_1 + 1/2*lambda*y_5", ring)
    ok, _ = ideal_member(p, mc.full)
    assert ok


def test_m_chart_6_2_reduced_equation():
    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.reduced.ring
    expect = parse_poly(
        "lambda^2*x_3*x_4*y_2*y_5 + lambda^2*x_3*x_4*y_1*y_6 + pi", ring
    )
    assert mc.reduced.generators[0] == expect


def _reduced_ring_generators(nf, s, t):
    # the reduced M chart built on its own in the reduced ring, with its
    # own Q1 and Q2: the reference for the generators taken from the full ring
    names = ["pi", "lambda"] + ["x_%d" % i for i in range(1, nf.d + 1)]
    names += ["y_%d" % j for j in range(1, nf.d + 1)]
    removed = {"x_%d" % i for i in nf.DeltaC} | {"y_%d" % j for j in nf.Delta}
    red = PolyRing([v for v in names if v not in removed])
    q2 = q2_form(nf, red, var="x")
    q1 = q1_form(nf, red, var="y")
    eq = red.var("lambda") ** 2 * q2 * q1 + red.var("pi")
    return red, [eq, red.var("x_%d" % s) - 1, red.var("y_%d" % t) - 1]


def test_m_chart_reduced_generators_match_the_reduced_ring_construction():
    pivots = 0
    for d in range(5, 10):
        for delta in range(1, d // 2 + 1):
            nf = normal_form(d, delta)
            for _, (s, t) in nf.z_cells:
                reduced = build_M_chart(nf, s, t).reduced
                red, expect = _reduced_ring_generators(nf, s, t)
                assert reduced.ring == red
                assert [(g.ring, g.terms, g.den) for g in reduced.generators] == [
                    (g.ring, g.terms, g.den) for g in expect
                ], (d, delta, s, t)
                pivots += 1
    assert pivots == 170


def test_m_chart_pivot_validation():
    nf = normal_form(6, 2)
    with pytest.raises(LatticeError):
        build_M_chart(nf, 1, 1)
    with pytest.raises(LatticeError):
        build_M_chart(nf, 3, 4)
    # chart_match and linking_multipliers share the range check
    with pytest.raises(LatticeError):
        chart_match(nf, 9, 9)
    with pytest.raises(LatticeError):
        linking_multipliers(nf, 1, 1)


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_chart_match_every_pivot(d, delta):
    nf = normal_form(d, delta)
    for s in nf.Delta:
        for t in nf.DeltaC:
            rep = chart_match(nf, s, t)
            assert rep.status == "pass", (s, t, rep.details)
            assert rep.details["unit_4"]


def test_chart_match_negative_control_wrong_dictionary():
    # a dictionary with the y assignment reversed must leave a residue;
    # note the literal x/y swap only typechecks on square Z, where it is an
    # exact symmetry of the position-form structure, so the control mangles
    # the index pairing instead
    nf = normal_form(6, 2)
    s, t = 3, 1
    sz, tz = _pivot_to_z(nf, s, t)
    bchart = build_DT_blowup_chart(nf, sz, tz)
    mchart = build_M_chart(nf, s, t)
    bring, mring = bchart.chart.ring, mchart.reduced.ring
    bad = {"pi": mring.var("pi"), bchart.z_var: mring.var("lambda")}
    for i, a in enumerate(nf.Delta, start=1):
        if i != sz:
            bad["bu_%d_%d" % (i, tz)] = mring.var("x_%d" % a)
    cols = [j for j in range(1, nf.d - nf.delta + 1) if j != tz]
    targets = [nf.DeltaC[j - 1] for j in cols]
    for j, b in zip(cols, reversed(targets)):
        bad["bu_%d_%d" % (sz, j)] = mring.var("y_%d" % b)
    D_bad = RingMap(bring, mring, bad)
    img = D_bad(bchart.chart.generators[0])
    nf_img, _ = reduce_poly(img, list(mchart.reduced.gb()))
    assert not nf_img.is_zero


def test_swapped_roles_on_square_z_is_a_symmetry():
    # documented quirk: on (6,3) the x/y role swap maps the blow-up equation
    # into the chart ideal because both halved forms are the antidiagonal
    # form in sorted-position coordinates
    nf = normal_form(6, 3)
    s, t = 2, 1
    sz, tz = _pivot_to_z(nf, s, t)
    bchart = build_DT_blowup_chart(nf, sz, tz)
    mchart = build_M_chart(nf, s, t)
    bring, mring = bchart.chart.ring, mchart.reduced.ring
    swapped = {"pi": mring.var("pi"), bchart.z_var: mring.var("lambda")}
    for i, a in enumerate(nf.Delta, start=1):
        if i != sz:
            swapped["bu_%d_%d" % (i, tz)] = mring.var("y_%d" % nf.DeltaC[i - 1])
    for j, b in enumerate(nf.DeltaC, start=1):
        if j != tz:
            swapped["bu_%d_%d" % (sz, j)] = mring.var("x_%d" % nf.Delta[j - 1])
    D_swap = RingMap(bring, mring, swapped)
    img = D_swap(bchart.chart.generators[0])
    nf_img, _ = reduce_poly(img, list(mchart.reduced.gb()))
    assert nf_img.is_zero


def test_exceptional_locus_5_1_free_variables():
    nf = normal_form(5, 1)
    rep = exceptional_locus(nf, 3, 1)
    assert rep.status == "pass"
    assert rep.details["free_variables"] == 3  # A^0 x A^3 chart of P^0 x P^3


def test_exceptional_locus_6_2_free_variables():
    nf = normal_form(6, 2)
    rep = exceptional_locus(nf, 3, 1)
    assert rep.status == "pass"
    assert rep.details["free_variables"] == 4  # P^1 x P^3 chart


def _corrupt_m_chart(monkeypatch, nf, s, t, edit):
    """Make blowup's `build_M_chart` at (nf, s, t) return the chart whose
    full generators are edit(ring, generators); the reduced chart stays."""
    import lmlab.blowup as blowup

    mchart = build_M_chart(nf, s, t)
    ring = mchart.full.ring
    full = Ideal(ring, edit(ring, list(mchart.full.generators)))
    monkeypatch.setattr(blowup, "build_M_chart", lambda nf, s, t: mchart._replace(full=full))
    return ring


def _solving(ring, gens, name):
    """Index of the generator that solves for the coordinate `name`."""
    return next(k for k, g in enumerate(gens) if g.lm() == ring.var(name).lm())


def test_exceptional_witness_is_searched_both_ways(monkeypatch):
    # x_4 in the chart makes the locus too small: the chart's generator x_4
    # is outside the expected locus, and is named
    nf = normal_form(6, 2)
    _corrupt_m_chart(monkeypatch, nf, 3, 1, lambda ring, gens: gens + [ring.var("x_4")])
    rep = exceptional_locus(nf, 3, 1)
    assert rep.status == "fail" and rep.details["locus_is_product_chart"] is False
    assert rep.details["offending_generator"] == "x_4"
    # lambda is still a nonzerodivisor of Q[free]/(x_4): no verdict is given
    assert "lambda_nonzerodivisor" not in rep.details
    # without the generator that solves for y_3 the locus is too large: the
    # expected coordinate y_3 is missing, and is named the other way
    monkeypatch.undo()
    _corrupt_m_chart(monkeypatch, nf, 3, 1,
                     lambda ring, gens: [g for g in gens if g.lm() != ring.var("y_3").lm()])
    rep = exceptional_locus(nf, 3, 1)
    assert rep.status == "fail" and rep.details["locus_is_product_chart"] is False
    assert rep.details["offending_generator"] == "y_3"
    assert "lambda_nonzerodivisor" not in rep.details


def test_exceptional_decides_without_a_basis(monkeypatch):
    # the check once searched its witness by membership tests under the
    # check's budget; now it reads each generator at lambda = 0 and
    # substitutes, so neither a pass nor a fail runs any Groebner operation
    import lmlab.groebner as groebner

    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda *a, **k: calls.append(a) or real(*a, **k))
    nf = normal_form(5, 1)
    assert exceptional_locus(nf, 3, 1).status == "pass"

    # a solved value that lambda does not divide: x_1 + (1/2) lambda y_5 + y_5
    def shifted(ring, gens):
        k = _solving(ring, gens, "x_1")
        return gens[:k] + [gens[k] + ring.var("y_5")] + gens[k + 1:]

    _corrupt_m_chart(monkeypatch, nf, 3, 1, shifted)
    rep = exceptional_locus(nf, 3, 1)
    assert rep.status == "fail"
    assert rep.details["offending_generator"] == "x_1 + 1/2*lambda*x_3^2*y_5 + y_5"
    assert rep.details["locus_is_product_chart"] is False
    assert "lambda_nonzerodivisor" not in rep.details
    assert calls == []


def test_lambda_nonzerodivisor_false_means_not_shown_by_substitution(monkeypatch):
    # x_1 (1 + lambda x_4 y_6) in place of x_1's solving generator keeps the
    # locus (it is x_1 at lambda = 0), and lambda is still a nonzerodivisor,
    # but x_1 is not solved: the claim fails naming that generator
    nf = normal_form(6, 2)

    def own_tail(ring, gens):
        k = _solving(ring, gens, "x_1")
        x1, x4, y6, lam = (ring.var(n) for n in ("x_1", "x_4", "y_6", "lambda"))
        return gens[:k] + [x1 + lam * x1 * x4 * y6] + gens[k + 1:]

    _corrupt_m_chart(monkeypatch, nf, 3, 1, own_tail)
    rep = exceptional_locus(nf, 3, 1)
    assert rep.status == "fail"
    assert list(rep.details) == ["free_variables", "locus_is_product_chart",
                                 "offending_generator", "lambda_nonzerodivisor"]
    assert (rep.details["locus_is_product_chart"], rep.details["lambda_nonzerodivisor"]) == (
        True, False)
    assert "x_1*x_4*y_6" in rep.details["offending_generator"]


def _affine_with(monkeypatch, edit):
    from lmlab.blowup import affine_chart

    nf = normal_form(6, 2)
    monkeypatch.undo()
    _corrupt_m_chart(monkeypatch, nf, 3, 1, edit)
    rep = affine_chart(nf, 3, 1)
    assert rep.status == "fail" and rep.details["elimination_equality"] is False
    return rep.details["offending_generator"]


def test_a_chart_that_is_no_graph_names_the_offending_generator(monkeypatch):
    # 6:2 at (3, 1) eliminates x_1, x_2, x_5, x_6, y_3 and y_4; each has one
    # generator that solves for it, such as x_1 + lambda x_3 x_4 y_6

    def replaced(name, new):
        def edit(ring, gens):
            gens[_solving(ring, gens, name)] = new(ring)
            return gens
        return edit

    var = lambda ring, *names: [ring.var(n) for n in names]

    # a tail that uses the eliminated coordinate itself: x_1 is not solved,
    # and the generator is left over
    def own_tail(ring):
        x1, x4, y6, lam = var(ring, "x_1", "x_4", "y_6", "lambda")
        return x1 + lam * x1 * x4 * y6

    assert _affine_with(monkeypatch, replaced("x_1", own_tail)) == "lambda*x_1*x_4*y_6 + x_1"
    # a dropped solving generator: no generator uses y_3, which is named
    assert _affine_with(monkeypatch, lambda ring, gens: [
        g for g in gens if g.lm() != ring.var("y_3").lm()]) == "y_3"

    # a chart equation that uses the eliminated x_1 for x_3 in one term:
    # substituting x_1 leaves an equation that the reduced chart lacks
    def equation(ring, gens):
        x1, x3, x4, y1, y2, y5, y6, lam, pi = var(
            ring, "x_1", "x_3", "x_4", "y_1", "y_2", "y_5", "y_6", "lambda", "pi")
        return [lam**2 * (x1 * x4 * y2 * y5 + x3 * x4 * y1 * y6) + pi] + gens[1:]

    assert _affine_with(monkeypatch, equation) == (
        "-lambda^3*x_3*x_4^2*y_2*y_5*y_6 + lambda^2*x_3*x_4*y_1*y_6 + pi")
    # a tail that uses another eliminated coordinate, solved first, is still
    # a graph: the elimination holds and passes
    from lmlab.blowup import affine_chart

    monkeypatch.undo()
    nf = normal_form(6, 2)
    _corrupt_m_chart(monkeypatch, nf, 3, 1, lambda ring, gens: [
        g + ring.var("x_2") if g.lm() == ring.var("x_1").lm() else g for g in gens])
    assert affine_chart(nf, 3, 1).status == "pass"


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9])
def test_every_pivot_eliminates_by_substitution(d):
    # the suite proves one pivot per class; at every pivot of G9, for the
    # resolution and the blow-up charts alike, every eliminated variable is
    # solved and the generators left are the reduced chart's
    from lmlab.blowup import substitutes_to
    from lmlab.groebner import _solve_linear, first_unmatched
    from lmlab.report import VerificationReport

    for delta in range(1, d // 2 + 1):
        nf = normal_form(d, delta)
        for (i, j), (s, t) in nf.z_cells:
            mchart, bchart = build_M_chart(nf, s, t), build_DT_blowup_chart(nf, i, j)
            for ideal, reduced in ((mchart.full, mchart.reduced), (bchart.ambient, bchart.chart)):
                left = _solve_linear(ideal, reduced.ring.variables, linear=True)
                assert set(left.ring.variables) == set(reduced.ring.variables), (d, delta, s, t)
                left = [g.cast(reduced.ring) for g in left.generators]
                assert first_unmatched(left, reduced.generators) is None, (d, delta, s, t)
                rep = VerificationReport("substitution", {}, "pass")
                assert substitutes_to(rep, ideal, reduced) and rep.details == {}


def test_lambda_nonzerodivisor():
    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    lam = mc.full.ring.var("lambda")
    q = quotient(mc.full, lam)
    assert ideal_equal(q, mc.full)


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 1), (6, 3)])
def test_linking_multipliers(d, delta):
    nf = normal_form(d, delta)
    for s in nf.Delta:
        for t in nf.DeltaC:
            rep = linking_multipliers(nf, s, t)
            assert rep.status == "pass", (s, t, rep.details)


def test_linking_uv_equals_pi_on_reduced_chart():
    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.reduced.ring
    lam = ring.var("lambda")
    u = -q2_form(nf, ring, var="x") * lam
    v = q1_form(nf, ring, var="y") * lam
    ok, _ = ideal_member(u * v - ring.var("pi"), mc.reduced)
    assert ok


def test_charts_cover():
    # adding all Delta-side x coordinates to the full ideal forces 1
    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.full.ring
    gens = list(mc.full.generators) + [ring.var("x_%d" % i) for i in nf.Delta]
    ok, _ = ideal_member(ring.one(), Ideal(ring, gens))
    assert ok


def test_case_ii_chart_match_passes_reduced_level():
    # mixed parity instance: the reduced charts still match (6,3)
    nf = normal_form(6, 3)
    rep = chart_match(nf, 2, 1)
    assert rep.status == "pass"


def test_case_2_linking_failure_is_reported():
    # negative control for d even, delta odd: with the global flip in place
    # of the inclusion read off the Gram matrix, exactly the two middle-pair
    # coordinates are unprovable, and the check reports it
    nf = normal_form(6, 3)
    nf = nf._replace(incl_flip=tuple(range(nf.d, 0, -1)))
    rep = linking_multipliers(nf, 2, 1)
    assert rep.status == "fail"
    assert set(rep.details["failed_coordinates"]) == {"i(x)_4", "j(piy)_3"}


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_m_chart_flatness(d, delta):
    nf = normal_form(d, delta)
    mc = build_M_chart(nf, nf.Delta[0], nf.DeltaC[0])
    assert is_nonzerodivisor(mc.reduced, mc.reduced.ring.var("pi"))
    assert krull_dim(mc.reduced) == d - 1


@pytest.mark.parametrize("d,delta", [(5, 2), (7, 2), (7, 3)])
def test_chart_match_beyond_acceptance_instances(d, delta):
    # one pivot per remaining grid instance; the full sweep runs in the suite
    nf = normal_form(d, delta)
    s, t = nf.Delta[0], nf.DeltaC[-1]
    rep = chart_match(nf, s, t)
    assert rep.status == "pass", (d, delta, rep.details)
    rep = linking_multipliers(nf, s, t)
    assert rep.status == "pass", (d, delta, rep.details)


def test_resolution_checks_build_each_chart_once_and_no_graded_basis_of_the_full_chart(
    monkeypatch,
):
    import lmlab.blowup as blowup
    import lmlab.groebner as groebner
    from lmlab.groebner import memo
    from lmlab.poly import Block, GrevLex
    from lmlab.suite import run_instance

    rings = []
    real_init = groebner.BuchbergerRun.__init__

    def spy_init(self, ideal, order=None):
        real_init(self, ideal, order)
        rings.append(self.ring)

    built = {"M": [], "DT": []}

    def spy(kind, real):
        def build(*args):
            chart = real(*args)
            built[kind].append(chart)
            return chart

        return build

    monkeypatch.setattr(groebner.BuchbergerRun, "__init__", spy_init)
    monkeypatch.setattr(blowup, "build_M_chart", spy("M", blowup.build_M_chart))
    monkeypatch.setattr(blowup, "build_DT_blowup_chart", spy("DT", blowup.build_DT_blowup_chart))
    nf = normal_form(5, 2)
    pivots = len(nf.z_cells)
    checks = ["affine-chart", "chart-match", "exceptional"]
    reports = run_instance(checks, 5, 2)
    assert all(rep.status == "pass" for rep in reports)

    # the full chart's basis is the elimination basis: no grevlex run, and
    # no homogenized nonzerodivisor run, has all of its variables
    full = set(built["M"][0].full.ring.variables)
    in_full = [r for r in rings if full <= set(r.variables)]
    assert in_full and all(isinstance(r.order, Block) for r in in_full)
    assert not any(isinstance(r.order, (GrevLex, groebner._RevLexLast)) for r in in_full)

    # 5:2 has two pivot classes.  A class representative is proven: four
    # builds of its M chart (affine-chart, chart-match, linking and
    # exceptional) and one of its DT chart (chart-match).  Each other pivot
    # is decided once for all three checks, and the decision builds both
    # charts at the representative and at the pivot.  All builds are of one
    # object per pivot (each id keeps its chart alive, so that a later chart
    # cannot reuse it)
    classes, others = 2, pivots - 2
    first = {kind: {id(c): c for c in charts} for kind, charts in built.items()}
    assert (len(built["M"]), len(first["M"])) == (4 * classes + 2 * others, pivots)
    assert (len(built["DT"]), len(first["DT"])) == (classes + 2 * others, pivots)

    # the next instance starts with no chart
    for charts in built.values():
        charts.clear()
    run_instance(checks, 5, 2)
    for kind, charts in built.items():
        again = {id(c) for c in charts}
        assert len(again) == pivots and again.isdisjoint(first[kind])

    # the memo is on only inside its block
    monkeypatch.undo()
    s, t = nf.z_cells[0][0]
    assert build_DT_blowup_chart(nf, s, t) is not build_DT_blowup_chart(nf, s, t)
    with memo():
        assert build_DT_blowup_chart(nf, s, t) is build_DT_blowup_chart(nf, s, t)
        with memo():
            assert build_M_chart(nf, 2, 1) is build_M_chart(nf, 2, 1)
    assert build_M_chart(nf, 2, 1) is not build_M_chart(nf, 2, 1)


def test_builders_and_buchberger_share_one_memo():
    import lmlab.groebner as groebner
    from lmlab.groebner import buchberger, memo

    nf = normal_form(5, 2)
    s, t = nf.z_cells[0][1]
    with memo():
        chart = build_M_chart(nf, s, t)
        basis, _ = buchberger(chart.full)
        held = dict(groebner._memo)
        assert {type(key[0]) for key in held} == {str, type(chart.full.ring)}
        # a bad pivot raises on every call and stores nothing
        for _ in range(2):
            with pytest.raises(LatticeError):
                build_M_chart(nf, 9, 9)
        assert groebner._memo == held
        with memo():
            assert build_M_chart(nf, s, t) is not chart
        # leaving the inner block restores the outer chart and basis
        assert build_M_chart(nf, s, t) is chart
        assert buchberger(chart.full)[0] is basis
    assert groebner._memo is None


# ------------------------------------------------- one proof per pivot class

G = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]
PIVOT_CHECKS = ["quadbu-smooth", "affine-chart", "chart-match", "exceptional"]


def _pivot_class(nf, z):
    return (2 * z[0] == nf.delta + 1, 2 * z[1] == nf.d - nf.delta + 1)


def _representatives(nf):
    reps = {}
    for z, _ in nf.z_cells:
        reps.setdefault(_pivot_class(nf, z), z)
    return reps


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9])
def test_the_renaming_maps_each_representative_onto_every_pivot_of_its_class(d):
    from lmlab.blowup import _transfers
    from lmlab.groebner import memo

    for delta in range(1, d // 2 + 1):
        nf = normal_form(d, delta)
        reps = _representatives(nf)
        with memo():
            for z, _ in nf.z_cells:
                assert _transfers(nf, reps[_pivot_class(nf, z)], z), (d, delta, z)
    if d == 6:
        # 10:5 is the largest instance the classes were counted at
        nf = normal_form(10, 5)
        assert (len(nf.z_cells), len(_representatives(nf))) == (25, 4)


def test_no_renaming_joins_pivots_of_different_classes():
    from itertools import permutations

    from lmlab.blowup import _transfers

    # a permutation of 1..n that keeps i <-> n + 1 - i fixes the middle
    for n in range(1, 8, 2):
        for perm in permutations(range(1, n + 1)):
            image = dict(zip(range(1, n + 1), perm))
            if all(image[n + 1 - i] == n + 1 - image[i] for i in image):
                assert image[(n + 1) // 2] == (n + 1) // 2
    classes = 0
    for d, delta in G:
        nf = normal_form(d, delta)
        cells = [z for z, _ in nf.z_cells]
        classes += len(_representatives(nf))
        for r in cells:
            for p in cells:
                if _pivot_class(nf, r) != _pivot_class(nf, p):
                    assert not _transfers(nf, r, p), (d, delta, r, p)
    assert classes == 14


def _spy_proofs(monkeypatch):
    import lmlab.suite as suite

    proven = []
    for check in PIVOT_CHECKS:
        real = suite._CHECKS[check]

        def prove(nf, s, t, check=check, real=real):
            proven.append((check, nf.d, nf.delta, (s, t)))
            return real(nf, s, t)

        monkeypatch.setitem(suite._CHECKS, check, prove)
    return proven


def _stripped(reports):
    out = []
    for rep in reports:
        rep = rep.to_dict()
        rep["runtime_ms"] = 0
        out.append(rep)
    return out


def test_a_pivot_whose_chart_differs_is_proven_directly(monkeypatch):
    import lmlab.blowup as blowup
    from lmlab.groebner import Ideal
    from lmlab.suite import run_instance

    nf = normal_form(6, 2)  # one class of 8 pivots
    checks = ["affine-chart", "chart-match", "exceptional"]
    clean = _stripped(run_instance(checks, 6, 2))
    bad = nf.z_cells[5][1]
    real = blowup.build_M_chart

    def doubled(chart):
        ring = chart.ring
        images = {v: ring.var(v) for v in ring.variables}
        images["pi"] = 2 * ring.var("pi")
        twice = RingMap(ring, ring, images)
        return Ideal(ring, [twice(g) for g in chart.generators])

    def build(nf, s, t):
        chart = real(nf, s, t)
        if (s, t) != bad:
            return chart
        return chart._replace(full=doubled(chart.full), reduced=doubled(chart.reduced))

    monkeypatch.setattr(blowup, "build_M_chart", build)
    proven = _spy_proofs(monkeypatch)
    changed = _stripped(run_instance(checks, 6, 2))
    rep = nf.z_cells[0][1]
    assert proven == [(c, 6, 2, p) for c in checks for p in (rep, bad)]

    at_bad = [r for r in changed if tuple(r["instance"]["pivot"]) == bad]
    assert {r["status"] for r in at_bad} == {"pass", "fail"}
    # chart-match and its linking report fail at 2 pi; those are direct proofs
    assert [r["check"] for r in at_bad if r["status"] == "fail"] == ["chart-match"] * 2
    assert [r for r in changed if r not in at_bad] == [
        r for r in clean if tuple(r["instance"]["pivot"]) != bad
    ]


def test_refused_transfers_give_the_same_reports_on_g(monkeypatch):
    import lmlab.blowup as blowup
    from lmlab.suite import SuiteConfig, dump_payload, run_suite, strip_timings

    def payload():
        proven.clear()
        _, out = run_suite(SuiteConfig(grid=G, checks=PIVOT_CHECKS))
        return dump_payload(strip_timings(out)), set(proven)

    proven = _spy_proofs(monkeypatch)
    moved, proven_moved = payload()
    monkeypatch.setattr(blowup, "_transfers", lambda nf, r, p: False)
    direct, proven_direct = payload()
    assert moved == direct
    assert len(proven_direct) == 4 * 54 and len(proven_moved) < len(proven_direct)
    # no fail is copied: the 14 quadbu-smooth middle pivots are each proven
    fails = [
        (r["check"], r["instance"]["d"], r["instance"]["delta"], tuple(r["instance"]["pivot"]))
        for r in json.loads(moved)["reports"]
        if r["status"] != "pass"
    ]
    assert len(fails) == 14 and set(fails) <= proven_moved


def test_explicit_pivots_form_classes_among_themselves(monkeypatch):
    from lmlab.suite import run_instance

    nf = normal_form(6, 2)
    proven = _spy_proofs(monkeypatch)
    first, second = nf.z_cells[5][1], nf.z_cells[2][1]
    reports = run_instance(["exceptional"], 6, 2, pivots=[first, second])
    assert proven == [("exceptional", 6, 2, first)]
    assert [r.instance["pivot"] for r in reports] == [list(first), list(second)]
    assert _stripped(reports[1:]) == _stripped([exceptional_locus(nf, *second)])
    # a pivot out of range still raises, after the pivots before it ran
    with pytest.raises(LatticeError, match="not an N position"):
        run_instance(["exceptional"], 6, 2, pivots=[first, (9, 9)])


def test_m_charts_are_frozen():
    nf = normal_form(5, 1)
    s, t = nf.z_cells[0][1]
    chart = build_M_chart(nf, s, t)
    with pytest.raises(AttributeError):
        chart.full = chart.reduced
    assert chart.full is not chart.reduced
