"""Blow-up charts of the determinantal chart and the resolution charts.

One family of charts comes from blowing up the determinantal chart at the
origin (homogeneous bu variables, pivot entry set to 1); the other from the
resolution by additional lines (multiplier variable lambda, pinned vector
coordinates).  chart_match verifies the two descriptions agree up to the
explicit unit 4, which is exactly what identifies the blow-up of the local
model chart with the resolution by additional lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import (
    GBTimeout,
    Ideal,
    ideal_equal,
    ideal_member,
    eliminate,
    is_nonzerodivisor,
    reduce_poly,
)
from .lattice import LatticeError, q1_form, q2_form
from .localmodel import ChartPresentation
from .poly import PolyError, PolyRing, RingMap
from .report import FAIL, PASS, Stopwatch, TIMEOUT, VerificationReport

__all__ = [
    "BlowupChart",
    "MChart",
    "build_B_blowup_charts",
    "build_DT_blowup_chart",
    "build_M_chart",
    "chart_match",
    "exceptional_locus",
    "linking_multipliers",
]

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class BlowupChart:
    chart: ChartPresentation
    ambient: ChartPresentation
    pivot: tuple
    z_var: str
    row_sum: object
    col_sum: object


@dataclass(frozen=True)
class MChart:
    full: ChartPresentation
    reduced: ChartPresentation
    pivot: tuple
    lambda_var: str


# ----------------------------------------------- blow-up of the basic scheme


def build_B_blowup_charts(timeout_s=None):
    """Both blow-up charts of the basic scheme, with substitution membership.

    Chart I is uv = pi with w1 = v x, w2 = -u x; chart II is w1 w2 y^2 = -pi
    with u = -y w2, v = w1 y.  The defining substitutions must kill the basic
    scheme's ideal modulo each chart equation, and the blown-up center ideal
    becomes principal on both charts.
    """
    from .quadric import build_basic_scheme

    b = build_basic_scheme()

    r1 = PolyRing(["pi", "u", "v", "x"])
    chart1 = ChartPresentation(
        name="b-blowup-I",
        ring=r1,
        ideal=Ideal(r1, [r1.var("u") * r1.var("v") - r1.var("pi")]),
        provenance="first blow-up chart of the basic scheme (y = 1)",
    )
    r2 = PolyRing(["pi", "w1", "w2", "y"])
    chart2 = ChartPresentation(
        name="b-blowup-II",
        ring=r2,
        ideal=Ideal(r2, [r2.var("w1") * r2.var("w2") * r2.var("y") ** 2 + r2.var("pi")]),
        provenance="second blow-up chart of the basic scheme (x = 1)",
    )

    map1 = RingMap(
        b.ring,
        r1,
        {
            "pi": r1.var("pi"),
            "u": r1.var("u"),
            "v": r1.var("v"),
            "w1": r1.var("v") * r1.var("x"),
            "w2": -r1.var("u") * r1.var("x"),
        },
    )
    map2 = RingMap(
        b.ring,
        r2,
        {
            "pi": r2.var("pi"),
            "u": -r2.var("y") * r2.var("w2"),
            "v": r2.var("w1") * r2.var("y"),
            "w1": r2.var("w1"),
            "w2": r2.var("w2"),
        },
    )
    for chart, fmap in ((chart1, map1), (chart2, map2)):
        for g in b.ideal.generators:
            ok, _ = ideal_member(fmap(g), chart.ideal, timeout_s=timeout_s)
            if not ok:
                raise PolyError(
                    "blow-up substitution fails to kill the basic scheme ideal on %s"
                    % chart.name
                )
    # the blown-up center becomes principal: (w1, v) = (v) on I, (w2) on II
    if not ideal_equal(
        Ideal(r1, [map1("w1"), r1.var("v")]), Ideal(r1, [r1.var("v")]), timeout_s=timeout_s
    ):
        raise PolyError("center ideal not principal on chart I")
    if not ideal_equal(
        Ideal(r1, [map1("w2"), r1.var("u")]), Ideal(r1, [r1.var("u")]), timeout_s=timeout_s
    ):
        raise PolyError("center ideal not principal on chart I (dual form)")
    if not ideal_equal(
        Ideal(r2, [map2("u"), r2.var("w2")]), Ideal(r2, [r2.var("w2")]), timeout_s=timeout_s
    ):
        raise PolyError("center ideal not principal on chart II")
    return chart1, chart2


# --------------------------------------------- blow-up charts of the chart


def build_DT_blowup_chart(nf, s, t, timeout_s=None):
    """Blow-up chart of the determinantal chart at the pivot entry (s, t).

    Ambient form: homogeneous bu variables with bu_ij = bu_sj bu_it, the
    pivot set to 1, and the chart equation 4 pi + z^2 (row sum)(col sum).
    Reduced form: free variables bu_it (i != s), bu_sj (j != t) and the single
    equation; elimination of the dependent bu variables must recover it.
    """
    delta, m = nf.delta, nf.d - nf.delta
    if not (1 <= s <= delta and 1 <= t <= m):
        raise LatticeError("pivot (%d,%d) out of range for %dx%d" % (s, t, delta, m))
    zv = "z_%d_%d" % (s, t)
    bu = lambda i, j: "bu_%d_%d" % (i, j)
    amb_names = ["pi", zv] + [bu(i, j) for i in range(1, delta + 1) for j in range(1, m + 1)]
    amb = PolyRing(amb_names)
    rel = []
    for i in range(1, delta + 1):
        for j in range(1, m + 1):
            rel.append(amb.var(bu(i, j)) - amb.var(bu(s, j)) * amb.var(bu(i, t)))
    rel.append(amb.var(bu(s, t)) - 1)
    rs_amb = amb.zero()
    for i in range(1, delta + 1):
        rs_amb = rs_amb + amb.var(bu(i, t)) * amb.var(bu(delta + 1 - i, t))
    cs_amb = amb.zero()
    for j in range(1, m + 1):
        cs_amb = cs_amb + amb.var(bu(s, j)) * amb.var(bu(s, m + 1 - j))
    zsq = amb.var(zv) ** 2
    amb_eq = 4 * amb.var("pi") + zsq * rs_amb * cs_amb
    ambient = ChartPresentation(
        name="dt-blowup-ambient[%d,%d]@%d,%d" % (nf.d, nf.delta, s, t),
        ring=amb,
        ideal=Ideal(amb, rel + [amb_eq]),
        provenance="strict transform chart in homogeneous coordinates",
    )

    free = [bu(i, t) for i in range(1, delta + 1) if i != s]
    free += [bu(s, j) for j in range(1, m + 1) if j != t]
    red = PolyRing(["pi", zv] + free)
    sub = {"pi": red.var("pi"), zv: red.var(zv)}
    for i in range(1, delta + 1):
        for j in range(1, m + 1):
            if i == s and j == t:
                sub[bu(i, j)] = red.one()
            elif i == s:
                sub[bu(i, j)] = red.var(bu(s, j))
            elif j == t:
                sub[bu(i, j)] = red.var(bu(i, t))
            else:
                sub[bu(i, j)] = red.var(bu(s, j)) * red.var(bu(i, t))
    proj = RingMap(amb, red, sub)
    row_sum = proj(rs_amb)
    col_sum = proj(cs_amb)
    red_eq = 4 * red.var("pi") + red.var(zv) ** 2 * row_sum * col_sum
    reduced = ChartPresentation(
        name="dt-blowup[%d,%d]@%d,%d" % (nf.d, nf.delta, s, t),
        ring=red,
        ideal=Ideal(red, [red_eq]),
        provenance="reduced blow-up chart: single equation 4 pi + z^2 * rowsum * colsum",
    )

    dependent = [bu(i, j) for i in range(1, delta + 1) for j in range(1, m + 1)
                 if (i != s and j != t) or (i == s and j == t)]
    E = eliminate(ambient.ideal, dependent, timeout_s=timeout_s)
    Ecast = Ideal(red, [g.cast(red) for g in E.generators])
    if not ideal_equal(Ecast, reduced.ideal, timeout_s=timeout_s):
        raise PolyError("ambient and reduced blow-up charts disagree at (%d,%d)" % (s, t))
    return BlowupChart(
        chart=reduced, ambient=ambient, pivot=(s, t), z_var=zv,
        row_sum=row_sum, col_sum=col_sum,
    )


# --------------------------------------------------- resolution charts


def m_chart_rings(nf):
    d = nf.d
    full = PolyRing(
        ["pi", "lambda"]
        + ["x_%d" % i for i in range(1, d + 1)]
        + ["y_%d" % j for j in range(1, d + 1)]
    )
    red = PolyRing(
        ["pi", "lambda"]
        + ["x_%d" % i for i in nf.Delta]
        + ["y_%d" % j for j in nf.DeltaC]
    )
    return full, red


def build_M_chart(nf, s, t, timeout_s=None):
    """Resolution chart pinned at x_s = 1 (s in Delta), y_t = 1 (t in DeltaC).

    The full ideal carries the eliminable coordinate relations: the M-side x
    coordinates are -lambda Q2 times a flipped y, the N-side y coordinates
    lambda Q1 times a flipped x.  Eliminating them must give exactly the
    reduced hypersurface lambda^2 Q2(x) Q1(y) + pi with the two pins.
    """
    _pivot_to_z(nf, s, t)  # raises LatticeError for a pivot outside Delta x DeltaC
    d = nf.d
    full, red = m_chart_rings(nf)
    lam = full.var("lambda")
    q2x = q2_form(nf, full, var="x")
    q1y = q1_form(nf, full, var="y")
    eq = lam**2 * q2x * q1y + full.var("pi")
    kgens = [full.var("x_%d" % s) - 1, full.var("y_%d" % t) - 1]
    for i in nf.DeltaC:
        kgens.append(full.var("x_%d" % i) + lam * q2x * full.var("y_%d" % (d + 1 - i)))
    for j in nf.Delta:
        kgens.append(full.var("y_%d" % j) - lam * q1y * full.var("x_%d" % (d + 1 - j)))
    full_cp = ChartPresentation(
        name="m-chart-full[%d,%d]@x%d,y%d" % (nf.d, nf.delta, s, t),
        ring=full,
        ideal=Ideal(full, [eq] + kgens),
        provenance="resolution chart with the full coordinate-relation ideal",
    )

    lam_r = red.var("lambda")
    q2r = q2_form(nf, red, var="x")
    q1r = q1_form(nf, red, var="y")
    red_cp = ChartPresentation(
        name="m-chart[%d,%d]@x%d,y%d" % (nf.d, nf.delta, s, t),
        ring=red,
        ideal=Ideal(
            red,
            [
                lam_r**2 * q2r * q1r + red.var("pi"),
                red.var("x_%d" % s) - 1,
                red.var("y_%d" % t) - 1,
            ],
        ),
        provenance="reduced resolution chart: hypersurface plus pins",
    )

    removed = ["x_%d" % i for i in nf.DeltaC] + ["y_%d" % j for j in nf.Delta]
    E = eliminate(full_cp.ideal, removed, timeout_s=timeout_s)
    Ecast = Ideal(red, [g.cast(red) for g in E.generators])
    if not ideal_equal(Ecast, red_cp.ideal, timeout_s=timeout_s):
        raise PolyError(
            "full/reduced resolution charts disagree after elimination at (%d,%d)" % (s, t)
        )
    return MChart(full=full_cp, reduced=red_cp, pivot=(s, t), lambda_var="lambda")


# ------------------------------------------------------------- chart match


def _pivot_to_z(nf, s, t):
    """Positions of an M-chart pivot (s in Delta, t in DeltaC) in Z."""
    if s not in nf.Delta:
        raise LatticeError("pivot s=%d is not an N position" % s)
    if t not in nf.DeltaC:
        raise LatticeError("pivot t=%d is not an M position" % t)
    return nf.delta_pos(s), nf.deltac_pos(t)


def chart_match(nf, s, t, timeout_s=None):
    """Three-way dictionary match between the two chart descriptions.

    D sends the pivot z to lambda, column entries to Delta x coordinates and
    row entries to DeltaC y coordinates.  Checked: D maps the blow-up chart
    equation into the resolution chart ideal (expected unit 4), the inverse
    dictionary maps the resolution equation into the blow-up chart ideal, and
    both composites are the identity modulo the respective ideals.
    """
    sw = Stopwatch()
    sz, tz = _pivot_to_z(nf, s, t)
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    report = VerificationReport("chart-match", instance, PASS)
    try:
        bchart = build_DT_blowup_chart(nf, sz, tz, timeout_s=timeout_s)
        mchart = build_M_chart(nf, s, t, timeout_s=timeout_s)
        bring = bchart.chart.ring
        mring = mchart.reduced.ring

        fwd = {"pi": mring.var("pi"), bchart.z_var: mring.var("lambda")}
        for i, a in enumerate(nf.Delta, start=1):
            if i != sz:
                fwd["bu_%d_%d" % (i, tz)] = mring.var("x_%d" % a)
        for j, b in enumerate(nf.DeltaC, start=1):
            if j != tz:
                fwd["bu_%d_%d" % (sz, j)] = mring.var("y_%d" % b)
        D = RingMap(bring, mring, fwd)

        bwd = {"pi": bring.var("pi"), "lambda": bring.var(bchart.z_var)}
        for i, a in enumerate(nf.Delta, start=1):
            bwd["x_%d" % a] = bring.one() if i == sz else bring.var("bu_%d_%d" % (i, tz))
        for j, b in enumerate(nf.DeltaC, start=1):
            bwd["y_%d" % b] = bring.one() if j == tz else bring.var("bu_%d_%d" % (sz, j))
        Dinv = RingMap(mring, bring, bwd)

        m_basis = mchart.reduced.ideal.gb(timeout_s=timeout_s)
        b_eq = bchart.chart.ideal.generators[0]
        img = D(b_eq)
        r1, _ = reduce_poly(img, list(m_basis), timeout_s=timeout_s)
        ok_fwd = r1.is_zero
        # the explicit unit: D(blow-up equation) = 4 (pi + lambda^2 Q2 Q1) mod pins
        m_eq = mchart.reduced.ideal.generators[0]
        pins = Ideal(
            mring, [mring.var("x_%d" % s) - 1, mring.var("y_%d" % t) - 1]
        )
        unit_ok = ideal_member(img - 4 * m_eq, pins, timeout_s=timeout_s)[0]
        if unit_ok:
            report.unit_notes.append("forward image equals 4*(chart equation) modulo pins")

        b_basis = bchart.chart.ideal.gb(timeout_s=timeout_s)
        ok_bwd = True
        for g in mchart.reduced.ideal.generators:
            r2, _ = reduce_poly(Dinv(g), list(b_basis), timeout_s=timeout_s)
            if not r2.is_zero:
                ok_bwd = False
                report.details["bwd_residue"] = str(r2)
                break

        ok_comp = True
        for v in mring.variables:
            diff = D(Dinv(mring.var(v))) - mring.var(v)
            r3, _ = reduce_poly(diff, list(m_basis), timeout_s=timeout_s)
            if not r3.is_zero:
                ok_comp = False
                report.details["composite_m_residue"] = str(r3)
                break
        if ok_comp:
            for v in bring.variables:
                diff = Dinv(D(bring.var(v))) - bring.var(v)
                r4, _ = reduce_poly(diff, list(b_basis), timeout_s=timeout_s)
                if not r4.is_zero:
                    ok_comp = False
                    report.details["composite_b_residue"] = str(r4)
                    break

        report.details["forward"] = ok_fwd
        report.details["backward"] = ok_bwd
        report.details["composite_identity"] = ok_comp
        report.details["unit_4"] = unit_ok
        if not (ok_fwd and ok_bwd and ok_comp and unit_ok):
            report.status = FAIL
            if not ok_fwd:
                report.details["fwd_residue"] = str(r1)
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report


def exceptional_locus(nf, s, t, timeout_s=None):
    """The lambda = 0 locus is the product-of-projective-spaces chart.

    Adding lambda to the full ideal must give exactly (lambda, pi, all
    M-side x, all N-side y, pins), whose quotient ring is free polynomial in
    (delta - 1) + (d - delta - 1) variables; lambda itself must be a
    nonzerodivisor on the chart.
    """
    sw = Stopwatch()
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    report = VerificationReport("exceptional", instance, PASS)
    try:
        mchart = build_M_chart(nf, s, t, timeout_s=timeout_s)
        ring = mchart.full.ring
        lam = ring.var("lambda")
        with_lam = Ideal(ring, list(mchart.full.ideal.generators) + [lam])
        expected = [lam, ring.var("pi")]
        expected += [ring.var("x_%d" % i) for i in nf.DeltaC]
        expected += [ring.var("y_%d" % j) for j in nf.Delta]
        expected += [ring.var("x_%d" % s) - 1, ring.var("y_%d" % t) - 1]
        expected_ideal = Ideal(ring, expected)
        ok_locus = ideal_equal(with_lam, expected_ideal, timeout_s=timeout_s)
        free_dim = (nf.delta - 1) + (nf.d - nf.delta - 1)
        report.details["locus_is_product_chart"] = ok_locus
        report.details["free_variables"] = free_dim
        if not ok_locus:
            basis = list(with_lam.gb(timeout_s=timeout_s))
            for g in expected_ideal.generators:
                r, _ = reduce_poly(g, basis, timeout_s=timeout_s)
                if not r.is_zero:
                    report.details["witness"] = str(r)
                    break
        ok_nzd = is_nonzerodivisor(mchart.full.ideal, lam, timeout_s=timeout_s)
        report.details["lambda_nonzerodivisor"] = ok_nzd
        if not (ok_locus and ok_nzd):
            report.status = FAIL
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report


def linking_multipliers(nf, s, t, timeout_s=None):
    """Coordinatewise linking identities with u = -Q2 lambda, v = Q1 lambda.

    The inclusion of the lattice into its dual flips indices, M coordinates
    plainly and N coordinates with a pi scaling; both composite conditions
    i(x) = u y and j(pi y) = v x must reduce to zero in the full chart ideal,
    together with u v = pi.
    """
    sw = Stopwatch()
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    report = VerificationReport("chart-match", instance, PASS)
    try:
        mchart = build_M_chart(nf, s, t, timeout_s=timeout_s)
        ring = mchart.full.ring
        d = nf.d
        lam = ring.var("lambda")
        pi = ring.var("pi")
        q2x = q2_form(nf, ring, var="x")
        q1y = q1_form(nf, ring, var="y")
        u = -q2x * lam
        v = q1y * lam
        basis = mchart.full.ideal.gb(timeout_s=timeout_s)
        failures = []
        for j in range(1, d + 1):
            flip = ring.var("x_%d" % (d + 1 - j))
            lhs = (pi * flip) if j in nf.Delta else flip
            r, _ = reduce_poly(lhs - u * ring.var("y_%d" % j), list(basis), timeout_s=timeout_s)
            if not r.is_zero:
                failures.append("i(x)_%d" % j)
        for i in range(1, d + 1):
            flip = ring.var("y_%d" % (d + 1 - i))
            lhs = flip if i in nf.Delta else (pi * flip)
            r, _ = reduce_poly(lhs - v * ring.var("x_%d" % i), list(basis), timeout_s=timeout_s)
            if not r.is_zero:
                failures.append("j(piy)_%d" % i)
        r, _ = reduce_poly(u * v - pi, list(basis), timeout_s=timeout_s)
        if not r.is_zero:
            failures.append("uv-pi")
        report.details["coordinates_checked"] = 2 * d + 1
        if failures:
            report.status = FAIL
            report.details["failed_coordinates"] = failures
        report.unit_notes.append("u = -Q2(x) lambda, v = Q1(y) lambda")
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report
