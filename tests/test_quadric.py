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


# ------------------------------------------- one proof per pin class, per run


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _stripped(reports):
    return [dict(rep.to_dict(), runtime_ms=0) for rep in reports]


def _direct_pins(nf):
    return [verify_linked_chart(nf, i, j) for i in nf.DeltaC for j in nf.Delta]


def test_linked_fiber_proves_each_pin_class_once(monkeypatch):
    import lmlab.blowup as blowup
    import lmlab.quadric as quadric
    from lmlab.suite import SuiteConfig, run_check, run_suite

    def no_chart(*args):
        raise AssertionError("linked-fiber built a DT or M chart")

    direct = {(d, delta): _stripped(_direct_pins(normal_form(d, delta))) for d, delta in GRID}
    monkeypatch.setattr(blowup, "build_DT_blowup_chart", no_chart)
    monkeypatch.setattr(blowup, "build_M_chart", no_chart)
    proven = _spy(monkeypatch, quadric, "verify_linked_chart")
    for (d, delta), classes in zip(GRID, (1, 2, 2)):
        proven.clear()
        reports = run_check("linked-fiber", d, delta)
        assert len(proven) == classes, (d, delta)
        # every copied pin report equals the direct one, in the same order
        assert _stripped(reports[1:]) == direct[d, delta]
    proven.clear()
    _, payload = run_suite(SuiteConfig(grid=GRID, checks=["linked-fiber"]))
    pins = [r for r in payload["reports"] if "pin_x" in r["instance"]]
    assert (len(pins), len(proven)) == (54, 14)
    assert all(r["status"] == "pass" for r in pins)


def test_a_renaming_that_ignores_the_permutation_proves_every_pin(monkeypatch):
    import lmlab.blowup as blowup
    import lmlab.quadric as quadric
    from lmlab.suite import run_check

    real = blowup._renaming
    monkeypatch.setattr(blowup, "_renaming", lambda nf, r, p, *fixed: real(nf, r, r, *fixed))
    proven = _spy(monkeypatch, quadric, "verify_linked_chart")
    for d, delta in [(5, 2), (6, 2)]:
        nf = normal_form(d, delta)
        proven.clear()
        reports = run_check("linked-fiber", d, delta)
        assert len(proven) == len(nf.z_cells), (d, delta)
        assert _stripped(reports[1:]) == _stripped(_direct_pins(nf))


@pytest.mark.parametrize("part", ["chart", "q1"])
def test_a_corrupted_linked_chart_is_proven_at_its_own_pin(monkeypatch, part):
    import lmlab.blowup as blowup
    import lmlab.quadric as quadric
    from lmlab.poly import RingMap
    from lmlab.suite import run_check

    nf = normal_form(6, 2)  # one class of 8 pins
    clean = _stripped(run_check("linked-fiber", 6, 2)[1:])
    bad = (nf.DeltaC[2], nf.Delta[1])
    real = quadric.build_linked_chart_ideal

    def build(nf, i, j):
        linked = real(nf, i, j)
        if (i, j) != bad:
            return linked
        # pi doubled in the chart, or Q1 moved off the chart's own form
        if part == "q1":
            return linked._replace(q1=linked.q1 + 1)
        ring = linked.chart.ring
        images = {v: ring.var(v) for v in ring.variables}
        images["pi"] = 2 * ring.var("pi")
        twice = RingMap(ring, ring, images)
        chart = Ideal(ring, [twice(g) for g in linked.chart.generators])
        return linked._replace(chart=chart)

    monkeypatch.setattr(quadric, "build_linked_chart_ideal", build)
    monkeypatch.setattr(blowup, "build_linked_chart_ideal", build)
    proven = _spy(monkeypatch, quadric, "verify_linked_chart")
    reports = run_check("linked-fiber", 6, 2)[1:]
    assert [args[1:] for args in proven] == [(nf.DeltaC[0], nf.Delta[0]), bad]
    # the bad pin fails with the residue of its own chart; every other pin
    # keeps its clean report
    own = verify_linked_chart(nf, *bad)
    assert own.status == "fail" and own.details["residue"] != "0"

    def at(reports, pin):
        return [r for r in reports if (r["instance"]["pin_x"], r["instance"]["pin_y"]) == pin]

    changed = _stripped(reports)
    assert at(changed, bad) == _stripped([own])
    assert [r for r in changed if r not in at(changed, bad)] == [
        r for r in clean if r not in at(clean, bad)
    ]


THREE = [(5, 1), (5, 2), (6, 1)]
INSTANCE_FREE = ["verify_fiber_decomposition", "verify_divisor_multiplicities_on_blowup_charts"]


def test_instance_free_claims_are_proven_once_per_suite_run(monkeypatch):
    import lmlab.quadric as quadric
    import lmlab.suite as suite
    from lmlab.suite import SuiteConfig, report_payload, run_instance, run_suite, strip_timings

    checks = ["linked-fiber", "b-blowup"]
    direct = [r for d, delta in THREE for r in run_instance(checks, d, delta)]
    spies = [_spy(monkeypatch, quadric, name) for name in INSTANCE_FREE]
    _, first = run_suite(SuiteConfig(grid=THREE, checks=checks))
    assert [len(calls) for calls in spies] == [1, 1]
    # a second call proves them again: nothing is kept across calls
    _, second = run_suite(SuiteConfig(grid=THREE, checks=checks))
    assert [len(calls) for calls in spies] == [2, 2]
    assert suite._kept is None
    # each instance's copy is stamped with its own d and delta
    expected = strip_timings(report_payload(direct))["reports"]
    assert strip_timings(first)["reports"] == strip_timings(second)["reports"] == expected
    # plain run_instance calls prove every time
    for d, delta in THREE:
        run_instance(checks, d, delta)
    assert [len(calls) for calls in spies] == [5, 5]


def test_a_failing_instance_free_claim_is_not_kept(monkeypatch):
    import lmlab.quadric as quadric
    from lmlab.suite import SuiteConfig, run_suite

    real = quadric.verify_fiber_decomposition
    calls = []

    def first_fails():
        calls.append(1)
        rep = real()
        if len(calls) == 1:
            rep.fail("radical_identity", False)
        return rep

    monkeypatch.setattr(quadric, "verify_fiber_decomposition", first_fails)
    code, payload = run_suite(SuiteConfig(grid=THREE, checks=["linked-fiber"]))
    basic = [r for r in payload["reports"] if "scheme" in r["instance"]]
    assert [(r["instance"]["d"], r["instance"]["delta"], r["status"]) for r in basic] == [
        (5, 1, "fail"), (5, 2, "pass"), (6, 1, "pass")
    ]
    assert code == 1 and len(calls) == 2
