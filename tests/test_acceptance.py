"""Acceptance criteria, one test per criterion, at their stated budgets.

Every criterion prints a single pass/fail line (visible with -s; the -v test
status carries the same information).  Criterion 7 certifies relative
smoothness over the model rings on an explicit Zariski cover of each blow-up
chart: every piece of a certified cover admits its own smooth map to one of
the model rings.  At the fourteen middle pivots of the grid no single global
model assignment has full relative rank; the README states the cover
argument.
"""

import json
import time

from lmlab.groebner import Ideal, buchberger, ideal_equal, is_nonzerodivisor, krull_dim
from lmlab.lattice import normal_form
from lmlab.localmodel import (
    build_DT_ideal,
    build_U_ideals,
    flatness_and_dimension,
    verify_annihilator,
    verify_presentation,
    z_matrix,
)
from lmlab.poly import minors
from lmlab.suite import SuiteConfig, run_check, run_suite, strip_timings

GRID = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]


def announce(num, label, ok, extra=""):
    line = "criterion %2d: %s — %s%s" % (num, "PASS" if ok else "FAIL", label, extra)
    print(line, flush=True)


def test_criterion_01_za1_sound_full_grid():
    ok = True
    worst = 0.0
    for d, delta in GRID:
        t0 = time.monotonic()
        rep = verify_presentation(normal_form(d, delta), mode="sound", seed=7)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        inst_ok = (
            rep.status == "pass"
            and rep.details["reduced_to_zero"] == rep.details["generators"]
            and rep.details["oracle_samples"] == 20
            and dt <= 60.0
        )
        ok = ok and inst_ok
        assert inst_ok, (d, delta, rep.status, rep.details, dt)
    announce(1, "za1 sound on all of G, rank-one oracle seeded", ok,
             " (max %.1f s/instance, budget 60 s)" % worst)


def test_criterion_02_za1_complete():
    ok = True
    for d, delta in GRID:
        t0 = time.monotonic()
        rep = verify_presentation(normal_form(d, delta), mode="complete", seed=7)
        dt = time.monotonic() - t0
        assert dt <= 900.0, (d, delta, dt)
        assert rep.status == "pass", (d, delta, rep.details)
        assert rep.details["surjectivity_certified"] == rep.details["surjectivity_targets"]
        ok = ok and rep.status == "pass"
    announce(2, "za1 complete mode on all of G", ok)


def test_criterion_03_dt_equals_u():
    ok = True
    for d, delta in GRID:
        t0 = time.monotonic()
        (rep,) = run_check("dt-equals-u", d, delta)
        dt = time.monotonic() - t0
        assert dt <= 5.0, (d, delta, dt)
        assert rep.status == "pass", (d, delta, rep.details)
        # the Groebner comparison, as a reference beside the generator sets
        nf = normal_form(d, delta)
        assert ideal_equal(build_DT_ideal(nf), build_U_ideals(nf)[0]), (d, delta)
        ok = ok and rep.status == "pass"
    announce(3, "determinantal chart equal to the reduced chart on all of G", ok)


def test_criterion_04_flatness_dimensions():
    ok = True
    for d, delta in GRID:
        nf = normal_form(d, delta)
        rep_u, rep_c = flatness_and_dimension(nf)
        assert rep_u.status == rep_c.status == "pass", (d, delta, rep_u.details, rep_c.details)
        assert (rep_u.details["flat"], rep_u.details["dim"], rep_c.details["dim"]) == (
            True, d - 1, d)
        # the Groebner results, as a reference beside the Segre argument
        U, _ = build_U_ideals(nf)
        assert is_nonzerodivisor(U, U.ring.var("pi")), (d, delta)
        assert krull_dim(U) == d - 1, (d, delta)
        cone = Ideal(U.ring, minors(z_matrix(nf, U.ring), 2))
        assert krull_dim(cone) == d, (d, delta)
        ok = ok and rep_u.status == rep_c.status == "pass"
    announce(4, "pi-nonzerodivisor proxy and dimensions (chart d-1, cone d)", ok)


def test_criterion_05_linked_quadric():
    from lmlab.quadric import verify_fiber_decomposition, verify_linked_chart

    rep = verify_fiber_decomposition()
    assert rep.status == "pass", rep.details
    ok = True
    for d, delta in GRID:
        nf = normal_form(d, delta)
        t0 = time.monotonic()
        for i in nf.DeltaC:
            for j in nf.Delta:
                chart_rep = verify_linked_chart(nf, i, j)
                assert chart_rep.status == "pass", (d, delta, i, j, chart_rep.details)
        dt = time.monotonic() - t0
        assert dt <= 60.0, (d, delta, dt)
    announce(5, "basic-scheme fiber decomposition and all pinned charts", ok)


def test_criterion_06_basic_blowup_multiplicities():
    from lmlab.quadric import verify_divisor_multiplicities_on_blowup_charts

    rep = verify_divisor_multiplicities_on_blowup_charts()
    ok = (
        rep.status == "pass"
        and rep.details["chart_I_pi_eq_uv"]
        and rep.details["chart_II_pi_eq_-w1w2y2"]
        and rep.details["pi_not_in_y_cubed"]
    )
    announce(6, "blow-up charts of the basic scheme, multiplicities (1,1,2)", ok)
    assert ok, rep.details


def test_criterion_07_smooth_over_model_every_pivot():
    from lmlab.blowup import build_DT_blowup_chart
    from lmlab.verify import model_cover_for_chart, smooth_on_cover

    failing, unproved = [], []
    for d, delta in GRID:
        nf = normal_form(d, delta)
        rel = d - 4 if nf.delta_star >= 2 else d - 3
        t0 = time.monotonic()
        for s in range(1, delta + 1):
            for t in range(1, d - delta + 1):
                bc = build_DT_blowup_chart(nf, s, t)
                rep = smooth_on_cover(bc.chart, model_cover_for_chart(nf, bc), rel)
                if rep.status != "pass":
                    failing.append(((d, delta), (s, t)))
        # each chart is the elimination of its ambient chart, which quadbu-smooth proves
        unproved += [
            ((d, delta), rep.instance["pivot"])
            for rep in run_check("quadbu-smooth", d, delta)
            if "ambient_elimination" in rep.details
        ]
        dt = time.monotonic() - t0
        assert dt <= 120.0, (d, delta, dt)
    announce(
        7,
        "relative smoothness over the model rings at every pivot",
        not (failing or unproved),
        "" if not failing else " (%d pivots without a certified cover; see README)" % len(failing),
    )
    assert unproved == [], "ambient chart does not eliminate to the chart: %r" % unproved
    assert not failing, (
        "no certified Zariski cover on which every piece is smooth over its "
        "model ring (see the cover argument in README): %r" % failing
    )


def test_criterion_08_resolution_charts():
    from lmlab.blowup import (
        affine_chart,
        chart_match,
        exceptional_locus,
        linking_multipliers,
    )

    ok = True
    for d, delta in [(5, 1), (6, 2)]:
        nf = normal_form(d, delta)
        for s in nf.Delta:
            for t in nf.DeltaC:
                rep = affine_chart(nf, s, t)
                assert rep.status == "pass", (d, delta, s, t, rep.details)
                assert rep.details["elimination_equality"] is True
                rep = chart_match(nf, s, t)
                assert rep.status == "pass" and rep.details["unit_4"], (d, delta, s, t)
                rep = exceptional_locus(nf, s, t)
                assert rep.status == "pass", (d, delta, s, t, rep.details)
                assert rep.details["free_variables"] == (delta - 1) + (d - delta - 1)
                rep = linking_multipliers(nf, s, t)
                assert rep.status == "pass", (d, delta, s, t, rep.details)
    announce(8, "resolution charts on (5,1), (6,2): match, exceptional, linking", ok)


def test_criterion_09_annihilator():
    ok = True
    for d, delta in GRID:
        rep = verify_annihilator(normal_form(d, delta))
        assert rep.status == "pass", (d, delta, rep.details)
    announce(9, "annihilator of the trace quadric is (Z) on all of G", ok)


def test_criterion_10_determinism():
    from lmlab.suite import CHECK_NAMES

    config = SuiteConfig(grid=[(5, 1), (6, 2)], checks=list(CHECK_NAMES), seed=7)
    code1, payload1 = run_suite(config)
    code2, payload2 = run_suite(config)
    bytes1 = json.dumps(strip_timings(payload1), sort_keys=True).encode()
    bytes2 = json.dumps(strip_timings(payload2), sort_keys=True).encode()
    assert bytes1 == bytes2
    assert code1 == code2 == 0

    # parallel run may only differ in timing fields and the jobs count
    config_par = SuiteConfig(grid=[(5, 1), (6, 2)], checks=config.checks, seed=7, jobs=2)
    _, payload3 = run_suite(config_par)
    assert strip_timings(payload3)["reports"] == strip_timings(payload1)["reports"]

    # reduced-GB uniqueness under seeded generator shuffles
    import random

    nf = normal_form(6, 2)
    _, small = build_U_ideals(nf)
    reference = list(small.gb())
    gens = list(small.generators)
    rng = random.Random(7)
    for _ in range(2):
        rng.shuffle(gens)
        basis, _ = buchberger(Ideal(small.ring, list(gens)))
        assert list(basis) == reference
    announce(10, "byte-identical reports modulo timing; unique reduced GBs", True)
