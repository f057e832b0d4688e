"""Linked-quadric charts and the basic scheme."""

import pytest

from lmlab.groebner import Ideal, eliminate, ideal_equal, ideal_member, krull_dim
from lmlab.lattice import LatticeError, normal_form
from lmlab.quadric import (
    basic_scheme_map,
    build_basic_scheme,
    build_linked_chart_ideal,
    verify_divisor_multiplicities_on_blowup_charts,
    verify_fiber_decomposition,
    verify_linked_chart,
)

GRID = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]


def test_linked_chart_5_1_generators():
    nf = normal_form(5, 1)
    lc = build_linked_chart_ideal(nf, 1, 3)
    gens = [str(g) for g in lc.chart.generators]
    assert "u*v - pi" in gens
    assert "x_1 - 1" in gens and "y_3 - 1" in gens
    assert any(g.startswith("u*x_2*x_4 + u*x_1*x_5 + 1/2*v*y_3^2") for g in gens)


def test_linked_chart_5_1_elimination_up_to_unit():
    # eliminating the second multiplier leaves -2 u^2 Q1 = pi, up to the unit 2
    nf = normal_form(5, 1)
    lc = build_linked_chart_ideal(nf, 1, 3)
    E = eliminate(lc.chart, ["v"])
    expect = Ideal(
        E.ring, ["2*u^2*x_2*x_4 + 2*u^2*x_1*x_5 + pi", "x_1 - 1", "y_3 - 1"]
    )
    assert ideal_equal(E, expect)


def test_linked_chart_bad_pins_rejected():
    nf = normal_form(5, 1)
    with pytest.raises(LatticeError):
        build_linked_chart_ideal(nf, 3, 3)  # 3 is an N position, not M
    with pytest.raises(LatticeError):
        build_linked_chart_ideal(nf, 1, 1)


def test_linked_chart_6_2_contains_displayed_equations():
    nf = normal_form(6, 2)
    lc = build_linked_chart_ideal(nf, 1, 3)
    ring = lc.chart.ring
    ok, _ = ideal_member(ring.var("u") * ring.var("v") - ring.var("pi"), lc.chart)
    assert ok
    ok, _ = ideal_member(ring.var("u") * lc.q1 + ring.var("v") * lc.q2, lc.chart)
    assert ok


def test_basic_scheme_shape():
    b = build_basic_scheme()
    assert [str(g) for g in b.generators] == ["u*v - pi", "u*w1 + v*w2"]
    assert krull_dim(b) == 3


def test_basic_scheme_map_membership():
    nf = normal_form(6, 2)
    lc = build_linked_chart_ideal(nf, 1, 3)
    b = build_basic_scheme()
    fmap = basic_scheme_map(b, lc)
    for g in b.generators:
        ok, _ = ideal_member(fmap(g), lc.chart)
        assert ok


def test_linked_chart_residue_is_the_first_failing_generator(monkeypatch):
    import lmlab.quadric as quadric
    from lmlab.poly import RingMap

    # pi -> pi + 1 breaks uv - pi and w1 -> Q1 + 1 breaks u w1 + v w2, with
    # different residues: the report names the first
    nf = normal_form(6, 2)
    lc = build_linked_chart_ideal(nf, 1, 3)
    b = build_basic_scheme()
    ring = lc.chart.ring
    images = {"pi": ring.var("pi") + 1, "u": ring.var("u"), "v": ring.var("v"),
              "w1": lc.q1 + 1, "w2": lc.q2}
    wrong = RingMap(b.ring, ring, images)
    residues = [str(ideal_member(wrong(g), lc.chart)[1].residue) for g in b.generators]
    assert "0" not in residues and residues[0] != residues[1]
    monkeypatch.setattr(quadric, "basic_scheme_map", lambda *args: wrong)
    rep = verify_linked_chart(nf, 1, 3)
    assert rep.status == "fail" and rep.details["b_map_member"] is False
    assert rep.details["residue"] == residues[0]


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (6, 3)])
def test_linked_chart_flatness_all_pins(d, delta):
    nf = normal_form(d, delta)
    for i in nf.DeltaC:
        for j in nf.Delta:
            rep = verify_linked_chart(nf, i, j)
            assert rep.status == "pass", (i, j, rep.details)


@pytest.mark.parametrize("d,delta", [(5, 1), (6, 2), (7, 3)])
def test_linked_chart_dimension(d, delta):
    nf = normal_form(d, delta)
    lc = build_linked_chart_ideal(nf, nf.DeltaC[0], nf.Delta[0])
    assert krull_dim(lc.chart) == d - 1


def test_fiber_decomposition():
    rep = verify_fiber_decomposition()
    assert rep.status == "pass"
    assert rep.details["radical_identity"]
    assert rep.details["prime_intersection"]
    assert rep.details["primary_intersection"]
    assert any("(u*w1)^2" in c for c in rep.certificates)


def test_divisor_multiplicities_with_negative_control():
    rep = verify_divisor_multiplicities_on_blowup_charts()
    assert rep.status == "pass"
    assert rep.details["pi_not_in_y_cubed"]


def test_pi_not_in_y_cubed_directly():
    from lmlab.poly import PolyRing

    ring = PolyRing(["pi", "w1", "w2", "y"])
    chart = Ideal(ring, ["w1*w2*y^2 + pi"])
    cube = Ideal(ring, list(chart.generators) + [ring.var("y") ** 3])
    ok, _ = ideal_member(ring.var("pi"), cube)
    assert not ok
