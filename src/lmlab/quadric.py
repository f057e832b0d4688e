"""Linked-quadric charts and the four-variable basic scheme.

The basic scheme B = Spec Q[pi,u,v,w1,w2]/(uv - pi, u w1 + v w2) captures all
singularities of the linked quadric; its special fiber decomposes into three
components with multiplicities 2, 1, 1.  Every pinned affine chart of the
linked quadric maps smoothly onto B by substituting the two quadratic forms
for w1, w2 (the Gram-matrix names S, T are renamed w1, w2 here).
"""

from __future__ import annotations

from collections import namedtuple

from .groebner import (
    Ideal,
    _once_per_memo,
    first_nonmember,
    ideal_contains,
    ideal_equal,
    ideal_member,
    intersect,
    is_nonzerodivisor,
    radical_member,
)
from .lattice import LatticeError, q1_form, q2_form
from .poly import PolyRing, RingMap
from .report import checking

__all__ = [
    "LinkedChart",
    "build_linked_chart_ideal",
    "build_basic_scheme",
    "basic_scheme_map",
    "verify_fiber_decomposition",
    "verify_divisor_multiplicities_on_blowup_charts",
    "verify_linked_chart",
]


class LinkedChart(namedtuple("LinkedChart", "chart q1 q2")):
    __slots__ = ()


@_once_per_memo
def build_linked_chart_ideal(nf, i, j):
    """The pinned affine chart of the linked quadric at x_i = 1, y_j = 1.

    Generators: uv - pi, u Q1(x) + v Q2(y), x_i - 1, y_j - 1, with Q2 the
    halved pi-normalized form (the displayed chart equation absorbs a unit).
    Built once per (nf, i, j) inside `groebner.memo()`.
    """
    if i not in nf.DeltaC:
        raise LatticeError("pin index i=%d is not an M position" % i)
    if j not in nf.Delta:
        raise LatticeError("pin index j=%d is not an N position" % j)
    names = ["pi", "u", "v"]
    names += ["x_%d" % a for a in nf.DeltaC]
    names += ["y_%d" % b for b in nf.Delta]
    ring = PolyRing(names)
    q1 = q1_form(nf, ring, var="x")
    q2 = q2_form(nf, ring, var="y")
    u, v = ring.var("u"), ring.var("v")
    gens = [
        u * v - ring.var("pi"),
        u * q1 + v * q2,
        ring.var("x_%d" % i) - 1,
        ring.var("y_%d" % j) - 1,
    ]
    return LinkedChart(chart=Ideal(ring, gens), q1=q1, q2=q2)


def build_basic_scheme():
    """B: uv = pi, u w1 + v w2 = 0; w1, w2 avoid the Gram-matrix names S, T."""
    ring = PolyRing(["pi", "u", "v", "w1", "w2"])
    gens = [
        ring.var("u") * ring.var("v") - ring.var("pi"),
        ring.var("u") * ring.var("w1") + ring.var("v") * ring.var("w2"),
    ]
    return Ideal(ring, gens)


def basic_scheme_map(b, linked):
    """The smooth map from a pinned chart to the basic scheme b: w1 -> Q1, w2 -> Q2."""
    images = {v: linked.chart.ring.var(v) for v in ("pi", "u", "v")}
    return RingMap(b.ring, linked.chart.ring, dict(images, w1=linked.q1, w2=linked.q2))


def verify_linked_chart(nf, i, j):
    """Flatness proxy plus the B-map membership for one pinned chart.

    `residue` is that of the first generator of B not mapped into the chart.
    """
    instance = {"d": nf.d, "delta": nf.delta, "pin_x": i, "pin_y": j}
    with checking("linked-fiber", instance) as report:
        linked = build_linked_chart_ideal(nf, i, j)
        chart = linked.chart
        report.require("flat", is_nonzerodivisor(chart, chart.ring.var("pi")))
        b = build_basic_scheme()
        fmap = basic_scheme_map(b, linked)
        miss = first_nonmember((fmap(g) for g in b.generators), chart)
        if not report.require("b_map_member", miss is None):
            report.details["residue"] = str(miss.residue)
    return report


def verify_fiber_decomposition():
    """Special-fiber structure of B: radical, primes, and multiplicities.

    With F = (u w1 + v w2, u v) at pi = 0: the radical is (u w1, v w2, u v),
    which splits into the primes (u, v), (w1, v), (w2, u); replacing the first
    by its primary ideal (u^2, uv, v^2, u w1 + v w2) recovers F exactly, which
    encodes multiplicity 2 on the contracted component and 1 on the others.
    """
    with checking("linked-fiber", {"scheme": "basic"}) as report:
        ring = PolyRing(["u", "v", "w1", "w2"])
        u, v, w1, w2 = (ring.var(n) for n in ("u", "v", "w1", "w2"))
        F = Ideal(ring, [u * w1 + v * w2, u * v])
        rad = Ideal(ring, [u * w1, v * w2, u * v])
        ok_rad = (
            radical_member(u * w1, F)
            and radical_member(v * w2, F)
            and ideal_member(u * v, F)[0]
            and ideal_contains(rad, F)
        )
        report.require("radical_identity", ok_rad)
        # explicit square certificate for u*w1
        cert = (u * w1) ** 2 - (u * w1 * (u * w1 + v * w2) - w1 * w2 * (u * v))
        if cert.is_zero:
            report.certificates.append("(u*w1)^2 = u*w1*(u*w1 + v*w2) - w1*w2*(u*v)")
        primes = intersect(
            intersect(Ideal(ring, [u, v]), Ideal(ring, [w1, v])), Ideal(ring, [w2, u])
        )
        report.require("prime_intersection", ideal_equal(rad, primes))
        primary = intersect(
            intersect(
                Ideal(ring, [u**2, u * v, v**2, u * w1 + v * w2]),
                Ideal(ring, [w1, v]),
            ),
            Ideal(ring, [w2, u]),
        )
        report.require("primary_intersection", ideal_equal(F, primary))
        report.unit_notes.append("div(pi) = 2(Z0) + (Z1) + (Z2) via the primary factor")
    return report


def verify_divisor_multiplicities_on_blowup_charts():
    """Branch multiplicities of pi on the two blow-up charts of B.

    The charts are first proved to be blow-up charts: each substitution kills
    B's ideal modulo the chart equation, and the blown-up center becomes
    principal, (w1, v) = (v) and (w2, u) = (u) on I, (u, w2) = (w2) on II.
    """
    from .blowup import build_B_blowup_charts

    with checking("b-blowup", {"scheme": "basic"}) as report:
        b = build_basic_scheme()
        charts = build_B_blowup_charts(b)
        (chart1, map1), (chart2, map2) = charts
        r1, r2 = chart1.ring, chart2.ring
        names = ("b-blowup-I", "b-blowup-II")
        unkilled = [name for name, (chart, fmap) in zip(names, charts)
                    if first_nonmember((fmap(g) for g in b.generators), chart) is not None]
        centers = ((map1, "w1", r1.var("v")), (map1, "w2", r1.var("u")), (map2, "u", r2.var("w2")))
        not_principal = [str(fmap(w)) for fmap, w, c in centers
                         if not ideal_equal(Ideal(c.ring, [fmap(w), c]), Ideal(c.ring, [c]))]
        if unkilled:
            report.fail("substitution_failures", unkilled)
        if not_principal:
            report.fail("center_not_principal", not_principal)
        report.require("chart_I_pi_eq_uv",
                       ideal_member(r1.var("pi") - r1.var("u") * r1.var("v"), chart1)[0])
        prod = r2.var("w1") * r2.var("w2") * r2.var("y") ** 2
        report.require("chart_II_pi_eq_-w1w2y2", ideal_member(r2.var("pi") + prod, chart2)[0])
        cube = Ideal(r2, list(chart2.generators) + [r2.var("y") ** 3])
        report.require("pi_not_in_y_cubed", not ideal_member(r2.var("pi"), cube)[0])
        report.unit_notes.append("multiplicities (1,1,2): pi = u*v and pi = -w1*w2*y^2")
    return report
