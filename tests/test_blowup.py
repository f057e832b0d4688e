"""Blow-up charts, resolution charts, and their matching."""

import pytest

from lmlab.blowup import (
    build_B_blowup_charts,
    build_DT_blowup_chart,
    build_M_chart,
    chart_match,
    exceptional_locus,
    linking_multipliers,
)
from lmlab.groebner import Ideal, ideal_equal, ideal_member, quotient, reduce_poly
from lmlab.lattice import LatticeError, normal_form
from lmlab.localmodel import flatness_and_dimension
from lmlab.poly import RingMap, parse_poly


def test_b_blowup_charts_build_and_membership():
    chart1, chart2 = build_B_blowup_charts()
    assert [str(g) for g in chart1.ideal.generators] == ["u*v - pi"]
    assert [str(g) for g in chart2.ideal.generators] == ["w1*w2*y^2 + pi"]


def test_dt_blowup_5_1_reduced_equation():
    nf = normal_form(5, 1)
    bc = build_DT_blowup_chart(nf, 1, 1)
    ring = bc.chart.ring
    # 2 pi + z^2 (bu_1_4 + bu_1_2 bu_1_3), after dividing by the unit 2
    expect = Ideal(
        ring, ["2*pi + z_1_1^2*bu_1_4 + z_1_1^2*bu_1_2*bu_1_3"]
    )
    assert ideal_equal(bc.chart.ideal, expect)
    assert str(bc.row_sum) == "1"


def test_dt_blowup_6_2_unit_four():
    nf = normal_form(6, 2)
    bc = build_DT_blowup_chart(nf, 1, 1)
    ring = bc.chart.ring
    expect = parse_poly(
        "4*pi + 4*z_1_1^2*bu_2_1*bu_1_4 + 4*z_1_1^2*bu_2_1*bu_1_2*bu_1_3", ring
    )
    assert bc.chart.ideal.generators[0] == expect


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
            rep = flatness_and_dimension(bc.chart, d - 2)
            assert rep.status == "pass", (s, t, rep.details)


def test_ambient_chart_contains_displayed_relations():
    nf = normal_form(6, 2)
    bc = build_DT_blowup_chart(nf, 2, 3)
    amb = bc.ambient.ring
    gens = list(bc.ambient.ideal.generators)
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
    assert ideal_equal(mc.reduced.ideal, expect)


def test_m_chart_5_1_k_generator_flip():
    # x_1 + (1/2) lambda y_5 sits in the full ideal (index flip d+1-i)
    nf = normal_form(5, 1)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.full.ring
    p = parse_poly("x_1 + 1/2*lambda*y_5", ring)
    ok, _ = ideal_member(p, mc.full.ideal)
    assert ok


def test_m_chart_6_2_reduced_equation():
    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.reduced.ring
    expect = parse_poly(
        "lambda^2*x_3*x_4*y_2*y_5 + lambda^2*x_3*x_4*y_1*y_6 + pi", ring
    )
    assert mc.reduced.ideal.generators[0] == expect


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
    sz, tz = nf.delta_pos(s), nf.deltac_pos(t)
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
    img = D_bad(bchart.chart.ideal.generators[0])
    nf_img, _ = reduce_poly(img, list(mchart.reduced.ideal.gb()))
    assert not nf_img.is_zero


def test_swapped_roles_on_square_z_is_a_symmetry():
    # documented quirk: on (6,3) the x/y role swap maps the blow-up equation
    # into the chart ideal because both halved forms are the antidiagonal
    # form in sorted-position coordinates
    nf = normal_form(6, 3)
    s, t = 2, 1
    sz, tz = nf.delta_pos(s), nf.deltac_pos(t)
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
    img = D_swap(bchart.chart.ideal.generators[0])
    nf_img, _ = reduce_poly(img, list(mchart.reduced.ideal.gb()))
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


def test_exceptional_witness_search_gets_the_budget(monkeypatch):
    import lmlab.blowup as blowup

    real = blowup.reduce_poly
    budgets = []

    def spy(p, basis, timeout_s=None):
        budgets.append(timeout_s)
        return real(p, basis, timeout_s=timeout_s)

    nf = normal_form(5, 1)
    mchart = build_M_chart(nf, 3, 1)
    monkeypatch.setattr(blowup, "build_M_chart", lambda nf, s, t, timeout_s=None: mchart)
    # a locus that compares unequal sends the check into its witness search,
    # one reduction per expected generator
    monkeypatch.setattr(blowup, "reduce_poly", spy)
    monkeypatch.setattr(blowup, "ideal_equal", lambda I, J, timeout_s=None: False)
    rep = exceptional_locus(nf, 3, 1, timeout_s=60)
    assert rep.status == "fail"
    assert budgets == [60] * (nf.d + 4)


def test_lambda_nonzerodivisor():
    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    lam = mc.full.ring.var("lambda")
    q = quotient(mc.full.ideal, lam)
    assert ideal_equal(q, mc.full.ideal)


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_linking_multipliers(d, delta):
    nf = normal_form(d, delta)
    for s in nf.Delta:
        for t in nf.DeltaC:
            rep = linking_multipliers(nf, s, t)
            assert rep.status == "pass", (s, t, rep.details)


def test_linking_uv_equals_pi_on_reduced_chart():
    from lmlab.lattice import q1_form, q2_form

    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.reduced.ring
    lam = ring.var("lambda")
    u = -q2_form(nf, ring, var="x") * lam
    v = q1_form(nf, ring, var="y") * lam
    ok, _ = ideal_member(u * v - ring.var("pi"), mc.reduced.ideal)
    assert ok


def test_charts_cover():
    # adding all Delta-side x coordinates to the full ideal forces 1
    nf = normal_form(6, 2)
    mc = build_M_chart(nf, 3, 1)
    ring = mc.full.ring
    gens = list(mc.full.ideal.generators) + [ring.var("x_%d" % i) for i in nf.Delta]
    ok, _ = ideal_member(ring.one(), Ideal(ring, gens))
    assert ok


def test_case_ii_chart_match_passes_reduced_level():
    # mixed parity instance: the reduced charts still match (6,3)
    nf = normal_form(6, 3)
    rep = chart_match(nf, 2, 1)
    assert rep.status == "pass"


def test_case_2_linking_failure_is_reported():
    # d even, delta odd: the verbatim global-flip convention leaves exactly
    # the two middle-pair coordinates unprovable; reported, never patched
    nf = normal_form(6, 3)
    rep = linking_multipliers(nf, 2, 1)
    assert rep.status == "fail"
    assert set(rep.details["failed_coordinates"]) == {"i(x)_4", "j(piy)_3"}


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2)])
def test_m_chart_flatness(d, delta):
    nf = normal_form(d, delta)
    mc = build_M_chart(nf, nf.Delta[0], nf.DeltaC[0])
    rep = flatness_and_dimension(mc.reduced, d - 2)
    assert rep.status == "pass", rep.details


@pytest.mark.parametrize("d,delta", [(5, 2), (7, 2), (7, 3)])
def test_chart_match_beyond_acceptance_instances(d, delta):
    # one pivot per remaining grid instance; the full sweep runs in the suite
    nf = normal_form(d, delta)
    s, t = nf.Delta[0], nf.DeltaC[-1]
    rep = chart_match(nf, s, t)
    assert rep.status == "pass", (d, delta, rep.details)
    rep = linking_multipliers(nf, s, t)
    assert rep.status == "pass", (d, delta, rep.details)
