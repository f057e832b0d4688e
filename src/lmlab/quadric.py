"""Linked-quadric charts and the four-variable basic scheme.

The basic scheme B = Spec Q[pi,u,v,w1,w2]/(uv - pi, u w1 + v w2) captures all
singularities of the linked quadric; its special fiber decomposes into three
components with multiplicities 2, 1, 1.  Every pinned affine chart of the
linked quadric maps smoothly onto B by substituting the two quadratic forms
for w1, w2 (the Gram-matrix names S, T are renamed w1, w2 here).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import (
    GBTimeout,
    Ideal,
    ideal_contains,
    ideal_equal,
    ideal_member,
    intersect,
    is_nonzerodivisor,
    radical_member,
    reduce_poly,
)
from .lattice import LatticeError, q1_form, q2_form
from .localmodel import ChartPresentation
from .poly import PolyRing, RingMap
from .report import FAIL, PASS, Stopwatch, TIMEOUT, VerificationReport

__all__ = [
    "LinkedChart",
    "build_linked_chart_ideal",
    "build_basic_scheme",
    "basic_scheme_map",
    "verify_fiber_decomposition",
    "verify_divisor_multiplicities_on_blowup_charts",
    "verify_linked_chart",
    "torus_scaling_identity",
]


@dataclass(frozen=True)
class LinkedChart:
    chart: ChartPresentation
    u_var: str
    v_var: str
    pin_x: int
    pin_y: int
    q1: object
    q2: object


def linked_chart_ring(nf):
    names = ["pi", "u", "v"]
    names += ["x_%d" % i for i in nf.DeltaC]
    names += ["y_%d" % j for j in nf.Delta]
    return PolyRing(names)


def build_linked_chart_ideal(nf, i, j):
    """The pinned affine chart of the linked quadric at x_i = 1, y_j = 1.

    Generators: uv - pi, u Q1(x) + v Q2(y), x_i - 1, y_j - 1, with Q2 the
    halved pi-normalized form (the displayed chart equation absorbs a unit).
    """
    if i not in nf.DeltaC:
        raise LatticeError("pin index i=%d is not an M position" % i)
    if j not in nf.Delta:
        raise LatticeError("pin index j=%d is not an N position" % j)
    ring = linked_chart_ring(nf)
    q1 = q1_form(nf, ring, var="x")
    q2 = q2_form(nf, ring, var="y")
    u, v = ring.var("u"), ring.var("v")
    gens = [
        u * v - ring.var("pi"),
        u * q1 + v * q2,
        ring.var("x_%d" % i) - 1,
        ring.var("y_%d" % j) - 1,
    ]
    chart = ChartPresentation(
        name="v[%d,%d]@x%d,y%d" % (nf.d, nf.delta, i, j),
        ring=ring,
        ideal=Ideal(ring, gens),
        provenance="pinned chart of the linked quadric; Q2 is the halved form, "
        "so displayed equations match up to the unit 2",
    )
    return LinkedChart(chart=chart, u_var="u", v_var="v", pin_x=i, pin_y=j, q1=q1, q2=q2)


def build_basic_scheme():
    """B: uv = pi, u w1 + v w2 = 0; w1, w2 avoid the Gram-matrix names S, T."""
    ring = PolyRing(["pi", "u", "v", "w1", "w2"])
    gens = [
        ring.var("u") * ring.var("v") - ring.var("pi"),
        ring.var("u") * ring.var("w1") + ring.var("v") * ring.var("w2"),
    ]
    return ChartPresentation(
        name="basic-scheme",
        ring=ring,
        ideal=Ideal(ring, gens),
        provenance="four-variable model of the linked quadric singularities "
        "(S, T renamed w1, w2 to avoid the Gram-matrix name clash)",
    )


def basic_scheme_map(nf, linked):
    """The smooth map from a pinned chart to B: w1 -> Q1, w2 -> Q2."""
    b = build_basic_scheme()
    ring = linked.chart.ring
    return RingMap(
        b.ring,
        ring,
        {
            "pi": ring.var("pi"),
            "u": ring.var("u"),
            "v": ring.var("v"),
            "w1": linked.q1,
            "w2": linked.q2,
        },
    )


def verify_linked_chart(nf, i, j, timeout_s=None):
    """Flatness proxy plus the B-map membership for one pinned chart."""
    sw = Stopwatch()
    instance = {"d": nf.d, "delta": nf.delta, "pin_x": i, "pin_y": j}
    report = VerificationReport("linked-fiber", instance, PASS)
    try:
        linked = build_linked_chart_ideal(nf, i, j)
        ring = linked.chart.ring
        ideal = linked.chart.ideal
        flat = is_nonzerodivisor(ideal, ring.var("pi"), timeout_s=timeout_s)
        report.details["flat"] = flat
        b = build_basic_scheme()
        fmap = basic_scheme_map(nf, linked)
        basis = ideal.gb(timeout_s=timeout_s)
        mapped_ok = True
        for g in b.ideal.generators:
            r, _ = reduce_poly(fmap(g), list(basis), timeout_s=timeout_s)
            if not r.is_zero:
                mapped_ok = False
                report.details["residue"] = str(r)
        report.details["b_map_member"] = mapped_ok
        if not (flat and mapped_ok):
            report.status = FAIL
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report


def verify_fiber_decomposition(timeout_s=None):
    """Special-fiber structure of B: radical, primes, and multiplicities.

    With F = (u w1 + v w2, u v) at pi = 0: the radical is (u w1, v w2, u v),
    which splits into the primes (u, v), (w1, v), (w2, u); replacing the first
    by its primary ideal (u^2, uv, v^2, u w1 + v w2) recovers F exactly, which
    encodes multiplicity 2 on the contracted component and 1 on the others.
    """
    sw = Stopwatch()
    report = VerificationReport("linked-fiber", {"scheme": "basic"}, PASS)
    ring = PolyRing(["u", "v", "w1", "w2"])
    u, v, w1, w2 = (ring.var(n) for n in ("u", "v", "w1", "w2"))
    F = Ideal(ring, [u * w1 + v * w2, u * v])
    rad = Ideal(ring, [u * w1, v * w2, u * v])
    try:
        ok_rad = (
            radical_member(u * w1, F, timeout_s=timeout_s)
            and radical_member(v * w2, F, timeout_s=timeout_s)
            and ideal_member(u * v, F, timeout_s=timeout_s)[0]
            and ideal_contains(rad, F, timeout_s=timeout_s)
        )
        report.details["radical_identity"] = ok_rad
        # explicit square certificate for u*w1
        cert = (u * w1) ** 2 - (u * w1 * (u * w1 + v * w2) - w1 * w2 * (u * v))
        if cert.is_zero:
            report.certificates.append("(u*w1)^2 = u*w1*(u*w1 + v*w2) - w1*w2*(u*v)")
        primes = intersect(
            intersect(Ideal(ring, [u, v]), Ideal(ring, [w1, v]), timeout_s=timeout_s),
            Ideal(ring, [w2, u]),
            timeout_s=timeout_s,
        )
        ok_primes = ideal_equal(rad, primes, timeout_s=timeout_s)
        report.details["prime_intersection"] = ok_primes
        primary = intersect(
            intersect(
                Ideal(ring, [u**2, u * v, v**2, u * w1 + v * w2]),
                Ideal(ring, [w1, v]),
                timeout_s=timeout_s,
            ),
            Ideal(ring, [w2, u]),
            timeout_s=timeout_s,
        )
        ok_primary = ideal_equal(F, primary, timeout_s=timeout_s)
        report.details["primary_intersection"] = ok_primary
        report.unit_notes.append("div(pi) = 2(Z0) + (Z1) + (Z2) via the primary factor")
        if not (ok_rad and ok_primes and ok_primary):
            report.status = FAIL
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report


def verify_divisor_multiplicities_on_blowup_charts(timeout_s=None):
    """Branch multiplicities of pi on the two blow-up charts of B."""
    from .blowup import build_B_blowup_charts

    sw = Stopwatch()
    report = VerificationReport("b-blowup", {"scheme": "basic"}, PASS)
    try:
        chart1, chart2 = build_B_blowup_charts(timeout_s=timeout_s)
        r1 = chart1.ring
        ok1 = ideal_member(
            r1.var("pi") - r1.var("u") * r1.var("v"), chart1.ideal, timeout_s=timeout_s
        )[0]
        report.details["chart_I_pi_eq_uv"] = ok1
        r2 = chart2.ring
        prod = r2.var("w1") * r2.var("w2") * r2.var("y") ** 2
        ok2 = ideal_member(r2.var("pi") + prod, chart2.ideal, timeout_s=timeout_s)[0]
        report.details["chart_II_pi_eq_-w1w2y2"] = ok2
        cube = Ideal(r2, list(chart2.ideal.generators) + [r2.var("y") ** 3])
        not_cubed = not ideal_member(r2.var("pi"), cube, timeout_s=timeout_s)[0]
        report.details["pi_not_in_y_cubed"] = not_cubed
        report.unit_notes.append("multiplicities (1,1,2): pi = u*v and pi = -w1*w2*y^2")
        if not (ok1 and ok2 and not_cubed):
            report.status = FAIL
    except GBTimeout as exc:
        report.status = TIMEOUT
        report.details["timeout"] = str(exc)
    report.runtime_ms = sw.ms()
    return report


def torus_scaling_identity(nf, i, j):
    """The unpinned chart equation rescales by lam*mu under the torus action.

    Checked as a polynomial identity in a ring with adjoined units:
    sigma(u Q1 + v Q2) - lam*mu*(u Q1 + v Q2) lies in the relations ideal
    (lam*lam_inv - 1, mu*mu_inv - 1).
    """
    base = linked_chart_ring(nf)
    ext = base.extend(["lam", "mu", "lam_inv", "mu_inv"])
    q1 = q1_form(nf, ext, var="x")
    q2 = q2_form(nf, ext, var="y")
    eq = ext.var("u") * q1 + ext.var("v") * q2
    images = {v: ext.var(v) for v in ext.variables}
    lam, mu = ext.var("lam"), ext.var("mu")
    for a in nf.DeltaC:
        images["x_%d" % a] = lam * ext.var("x_%d" % a)
    for b in nf.Delta:
        images["y_%d" % b] = mu * ext.var("y_%d" % b)
    images["u"] = ext.var("lam_inv") * mu * ext.var("u")
    images["v"] = lam * ext.var("mu_inv") * ext.var("v")
    sigma = RingMap(ext, ext, images)
    units = Ideal(
        ext,
        [lam * ext.var("lam_inv") - 1, mu * ext.var("mu_inv") - 1],
    )
    diff = sigma(eq) - lam * mu * eq
    return ideal_member(diff, units)[0]
