"""Blow-up charts of the determinantal chart and the resolution charts.

One family of charts comes from blowing up the determinantal chart at the
origin (homogeneous bu variables, pivot entry set to 1); the other from the
resolution by additional lines (multiplier variable lambda, pinned vector
coordinates).  chart_match verifies the two descriptions agree up to the
explicit unit 4, which is exactly what identifies the blow-up of the local
model chart with the resolution by additional lines.

Renaming the rows and columns of Z so that the Gram pairing is kept is an
isomorphism between the charts of two pivots of the same class (is the
pivot on the middle row?, on the middle column?).  `_transfers` checks,
generator for generator, that it maps every input of the pivot checks at one
pivot onto those at another, so that a `pass` at the first holds at the
second; `_pins_transfer` does so for the pinned charts of the linked quadric.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .groebner import (
    Ideal,
    _once_per_memo,
    eliminates_to,
    first_nonmember,
    ideal_equal,
    ideal_member,
    is_nonzerodivisor,
    once,
)
from .lattice import LatticeError, q1_form, q2_form
from .poly import Block, PolyRing, RingMap
from .quadric import build_linked_chart_ideal
from .report import checking

__all__ = [
    "BlowupChart",
    "MChart",
    "affine_chart",
    "build_B_blowup_charts",
    "build_DT_blowup_chart",
    "build_M_chart",
    "chart_match",
    "exceptional_locus",
    "linking_multipliers",
]

class BlowupChart(namedtuple("BlowupChart", "chart ambient z_var row_sum col_sum")):
    __slots__ = ()


# eliminated: the M-side x and N-side y coordinates, in ring order;
# q2x, q1y: Q2(x) and Q1(y) in the full ring
class MChart(namedtuple("MChart", "full reduced eliminated q2x q1y")):
    __slots__ = ()


# ----------------------------------------------- blow-up of the basic scheme


def build_B_blowup_charts(b):
    """Both blow-up charts of the basic scheme b, each with its substitution map.

    Chart I is uv = pi with w1 = v x, w2 = -u x; chart II is w1 w2 y^2 = -pi
    with u = -y w2, v = w1 y.  Returns ((chart I, map I), (chart II, map II)),
    each map from b's ring to the chart's.
    """
    r1 = PolyRing(["pi", "u", "v", "x"])
    pi, u, v, x = map(r1.var, r1.variables)
    chart1 = Ideal(r1, [u * v - pi])
    map1 = RingMap(b.ring, r1, {"pi": pi, "u": u, "v": v, "w1": v * x, "w2": -u * x})
    r2 = PolyRing(["pi", "w1", "w2", "y"])
    pi, w1, w2, y = map(r2.var, r2.variables)
    chart2 = Ideal(r2, [w1 * w2 * y ** 2 + pi])
    map2 = RingMap(b.ring, r2, {"pi": pi, "u": -y * w2, "v": w1 * y, "w1": w1, "w2": w2})
    return (chart1, map1), (chart2, map2)


# --------------------------------------------- blow-up charts of the chart


@_once_per_memo
def build_DT_blowup_chart(nf, s, t):
    """Blow-up chart of the determinantal chart at the pivot entry (s, t).

    Ambient form: homogeneous bu variables with bu_ij = bu_sj bu_it, the
    pivot set to 1, and the chart equation 4 pi + z^2 (row sum)(col sum).
    Reduced form: free variables bu_it (i != s), bu_sj (j != t) and the single
    equation.
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
    rs_amb = _paired_sum(lambda i: amb.var(bu(i, t)), delta, amb)
    cs_amb = _paired_sum(lambda j: amb.var(bu(s, j)), m, amb)
    zsq = amb.var(zv) ** 2
    amb_eq = 4 * amb.var("pi") + zsq * rs_amb * cs_amb
    ambient = Ideal(amb, rel + [amb_eq])

    # the sums read only the pivot's column and row, whose entries are the
    # pivot 1 and free variables of the reduced chart
    free = [bu(i, t) for i in range(1, delta + 1) if i != s]
    free += [bu(s, j) for j in range(1, m + 1) if j != t]
    red = PolyRing(["pi", zv] + free)
    row_sum = _paired_sum(lambda i: red.one() if i == s else red.var(bu(i, t)), delta, red)
    col_sum = _paired_sum(lambda j: red.one() if j == t else red.var(bu(s, j)), m, red)
    red_eq = 4 * red.var("pi") + red.var(zv) ** 2 * row_sum * col_sum
    return BlowupChart(
        chart=Ideal(red, [red_eq]), ambient=ambient, z_var=zv,
        row_sum=row_sum, col_sum=col_sum,
    )


def _paired_sum(entry, n, ring):
    """The sum of entry(k) entry(n + 1 - k) over k = 1..n, in ring."""
    return sum((entry(k) * entry(n + 1 - k) for k in range(1, n + 1)), ring.zero())


# --------------------------------------------------- resolution charts


@_once_per_memo
def build_M_chart(nf, s, t):
    """Resolution chart pinned at x_s = 1 (s in Delta), y_t = 1 (t in DeltaC).

    The full ideal carries the eliminable coordinate relations: the M-side x
    coordinates are -lambda Q2 times a flipped y, the N-side y coordinates
    lambda Q1 times a flipped x.  Those are the `eliminated` coordinates, and
    the full ring is ordered to eliminate them (`Block(eliminated)`), so that
    the elimination and the membership tests in the full ideal share one
    basis.  The reduced ideal is the hypersurface lambda^2 Q2(x) Q1(y) + pi
    with the two pins: none of those generators uses an eliminated
    coordinate, so the full ring's are taken into the reduced ring.
    """
    _pivot_to_z(nf, s, t)  # raises LatticeError for a pivot outside Delta x DeltaC
    d, flip = nf.d, nf.incl_flip
    names = (
        ["pi", "lambda"]
        + ["x_%d" % i for i in range(1, d + 1)]
        + ["y_%d" % j for j in range(1, d + 1)]
    )
    removed = {"x_%d" % i for i in nf.DeltaC} | {"y_%d" % j for j in nf.Delta}
    eliminated = tuple(v for v in names if v in removed)
    full = PolyRing(names, Block(eliminated))
    red = PolyRing([v for v in names if v not in removed])
    lam = full.var("lambda")
    q2x = q2_form(nf, full, var="x")
    q1y = q1_form(nf, full, var="y")
    eq = lam**2 * q2x * q1y + full.var("pi")
    kgens = [full.var("x_%d" % s) - 1, full.var("y_%d" % t) - 1]
    for i in nf.DeltaC:
        kgens.append(full.var("x_%d" % i) + lam * q2x * full.var("y_%d" % flip[i - 1]))
    for j in nf.Delta:
        kgens.append(full.var("y_%d" % j) - lam * q1y * full.var("x_%d" % flip[j - 1]))
    return MChart(Ideal(full, [eq] + kgens), Ideal(red, [eq] + kgens[:2]),
                  eliminated, q2x, q1y)


def affine_chart(nf, s, t):
    """The full resolution chart eliminates to the reduced one.

    Eliminating the M-side x and the N-side y coordinates from the full ideal
    must give exactly the reduced hypersurface lambda^2 Q2(x) Q1(y) + pi with
    the two pins.
    """
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    with checking("affine-chart", instance) as report:
        mchart = build_M_chart(nf, s, t)
        report.require("elimination_equality",
                       eliminates_to(mchart.full, mchart.eliminated, mchart.reduced))
    return report


# ------------------------------------------------------------- chart match


def _pivot_to_z(nf, s, t):
    """Positions of an M-chart pivot (s in Delta, t in DeltaC) in Z."""
    if s not in nf.Delta:
        raise LatticeError("pivot s=%d is not an N position" % s)
    if t not in nf.DeltaC:
        raise LatticeError("pivot t=%d is not an M position" % t)
    return nf.Delta.index(s) + 1, nf.DeltaC.index(t) + 1


def _dictionaries(nf, s, t, bchart, mchart):
    """The images of chart_match's dictionary D and of its inverse, as dicts.

    D sends the pivot z to lambda, the column entries bu_i_t to the Delta x
    coordinates and the row entries bu_s_j to the DeltaC y coordinates; the
    inverse sends the pinned coordinates back to 1.
    """
    sz, tz = _pivot_to_z(nf, s, t)
    bring, mring = bchart.chart.ring, mchart.reduced.ring
    fwd = {"pi": mring.var("pi"), bchart.z_var: mring.var("lambda")}
    for i, a in enumerate(nf.Delta, start=1):
        if i != sz:
            fwd["bu_%d_%d" % (i, tz)] = mring.var("x_%d" % a)
    for j, b in enumerate(nf.DeltaC, start=1):
        if j != tz:
            fwd["bu_%d_%d" % (sz, j)] = mring.var("y_%d" % b)

    bwd = {"pi": bring.var("pi"), "lambda": bring.var(bchart.z_var)}
    for i, a in enumerate(nf.Delta, start=1):
        bwd["x_%d" % a] = bring.one() if i == sz else bring.var("bu_%d_%d" % (i, tz))
    for j, b in enumerate(nf.DeltaC, start=1):
        bwd["y_%d" % b] = bring.one() if j == tz else bring.var("bu_%d_%d" % (sz, j))
    return fwd, bwd


def chart_match(nf, s, t):
    """Three-way dictionary match between the two chart descriptions.

    D sends the pivot z to lambda, column entries to Delta x coordinates and
    row entries to DeltaC y coordinates.  Checked: D maps the blow-up chart
    equation into the resolution chart ideal (expected unit 4), the inverse
    dictionary maps the resolution equation into the blow-up chart ideal, and
    both composites are the identity modulo the respective ideals.
    """
    sz, tz = _pivot_to_z(nf, s, t)
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    with checking("chart-match", instance) as report:
        bchart = build_DT_blowup_chart(nf, sz, tz)
        mchart = build_M_chart(nf, s, t)
        bring = bchart.chart.ring
        mring = mchart.reduced.ring
        fwd, bwd = _dictionaries(nf, s, t, bchart, mchart)
        D = RingMap(bring, mring, fwd)
        Dinv = RingMap(mring, bring, bwd)

        img = D(bchart.chart.generators[0])
        fwd = first_nonmember([img], mchart.reduced)
        # the explicit unit: D(blow-up equation) = 4 (pi + lambda^2 Q2 Q1) mod pins
        m_eq = mchart.reduced.generators[0]
        pins = Ideal(mring, [mring.var("x_%d" % s) - 1, mring.var("y_%d" % t) - 1])
        unit_ok = ideal_member(img - 4 * m_eq, pins)[0]
        if unit_ok:
            report.unit_notes.append("forward image equals 4*(chart equation) modulo pins")
        bwd = first_nonmember((Dinv(g) for g in mchart.reduced.generators), bchart.chart)
        comp_m = first_nonmember(
            (D(Dinv(mring.var(v))) - mring.var(v) for v in mring.variables), mchart.reduced
        )
        comp_b = None if comp_m else first_nonmember(
            (Dinv(D(bring.var(v))) - bring.var(v) for v in bring.variables), bchart.chart
        )
        for key, miss in (("fwd_residue", fwd), ("bwd_residue", bwd),
                          ("composite_m_residue", comp_m), ("composite_b_residue", comp_b)):
            if miss is not None:
                report.details[key] = str(miss.residue)
        report.require("forward", fwd is None)
        report.require("backward", bwd is None)
        report.require("composite_identity", comp_m is None and comp_b is None)
        report.require("unit_4", unit_ok)
    return report


def exceptional_locus(nf, s, t):
    """The lambda = 0 locus is the product-of-projective-spaces chart.

    Adding lambda to the full ideal must give exactly (lambda, pi, all
    M-side x, all N-side y, pins), whose quotient ring is free polynomial in
    (delta - 1) + (d - delta - 1) variables; lambda itself must be a
    nonzerodivisor on the chart.
    """
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    with checking("exceptional", instance) as report:
        mchart = build_M_chart(nf, s, t)
        ring = mchart.full.ring
        lam = ring.var("lambda")
        with_lam = Ideal(ring, list(mchart.full.generators) + [lam])
        expected = [lam, ring.var("pi")] + [ring.var(v) for v in mchart.eliminated]
        expected += [ring.var("x_%d" % s) - 1, ring.var("y_%d" % t) - 1]
        expected_ideal = Ideal(ring, expected)
        report.details["free_variables"] = (nf.delta - 1) + (nf.d - nf.delta - 1)
        if not report.require("locus_is_product_chart", ideal_equal(with_lam, expected_ideal)):
            miss = first_nonmember(expected_ideal.generators, with_lam) or first_nonmember(
                with_lam.generators, expected_ideal
            )
            if miss is not None:
                report.details["witness"] = str(miss.residue)
        report.require("lambda_nonzerodivisor", is_nonzerodivisor(mchart.full, lam))
    return report


def linking_multipliers(nf, s, t):
    """Coordinatewise linking identities with u = -Q2 lambda, v = Q1 lambda.

    The inclusion of the lattice into its dual flips indices, M coordinates
    plainly and N coordinates with a pi scaling; both composite conditions
    i(x) = u y and j(pi y) = v x must reduce to zero in the full chart ideal,
    together with u v = pi.  The tests run against the full chart's basis
    under its elimination order, the one `affine_chart` eliminates with.
    """
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    with checking("chart-match", instance) as report:
        mchart = build_M_chart(nf, s, t)
        ring = mchart.full.ring
        d = nf.d
        lam = ring.var("lambda")
        pi = ring.var("pi")
        u = -mchart.q2x * lam
        v = mchart.q1y * lam
        ideal = mchart.full
        failures = []
        for j in range(1, d + 1):
            flip = ring.var("x_%d" % nf.incl_flip[j - 1])
            lhs = (pi * flip) if j in nf.Delta else flip
            if not ideal_member(lhs - u * ring.var("y_%d" % j), ideal)[0]:
                failures.append("i(x)_%d" % j)
        for i in range(1, d + 1):
            flip = ring.var("y_%d" % nf.incl_flip[i - 1])
            lhs = flip if i in nf.Delta else (pi * flip)
            if not ideal_member(lhs - v * ring.var("x_%d" % i), ideal)[0]:
                failures.append("j(piy)_%d" % i)
        if not ideal_member(u * v - pi, ideal)[0]:
            failures.append("uv-pi")
        report.details["coordinates_checked"] = 2 * d + 1
        if failures:
            report.fail("failed_coordinates", failures)
        report.unit_notes.append("u = -Q2(x) lambda, v = Q1(y) lambda")
    return report


# ------------------------------------------------- one proof per pivot class


def _renaming(nf, r, p, *fixed):
    """(rows, cols, names) of the renaming phi from the Z pivot r to p, or
    None across classes or if phi does not commute with `incl_flip`.  phi
    swaps the pair of r's row (i <-> n + 1 - i) with that of p's row, and
    likewise for the columns; `names` renames x_a and y_a by its action on
    the lattice positions, and fixes `fixed`."""
    perms = []
    for n, a, b in ((nf.delta, r[0], p[0]), (nf.d - nf.delta, r[1], p[1])):
        a2, b2 = n + 1 - a, n + 1 - b
        if (a == a2) != (b == b2):  # every such permutation fixes the middle
            return None
        perms.append({**{i: i for i in range(1, n + 1)}, a: b, b: a, a2: b2, b2: a2})
    rows, cols = perms
    pos = {nf.Delta[i - 1]: nf.Delta[k - 1] for i, k in rows.items()}
    pos.update({nf.DeltaC[j - 1]: nf.DeltaC[k - 1] for j, k in cols.items()})
    if any(pos[nf.incl_flip[a - 1]] != nf.incl_flip[pos[a] - 1] for a in pos):
        return None
    names = {v: v for v in fixed}
    for a, c in pos.items():
        names["x_%d" % a], names["y_%d" % a] = "x_%d" % c, "y_%d" % c
    return rows, cols, names


def _transfers(nf, r, p):
    """Whether the pivot checks' `pass` at the Z pivot r holds at the Z pivot p.

    True iff `_renaming` gives a phi, fixing pi and lambda, that maps every
    input of the checks at r exactly onto the one at p: the DT blow-up chart,
    ambient and reduced, its row and column sums and its pivot variable, the
    M chart, full and reduced, its eliminated set, Q2(x) and Q1(y); and iff
    phi commutes with chart_match's dictionaries.
    Generator lists are compared as multisets, those of the reduced charts
    in order.  phi renames by moving the fields of the order words
    (`PolyRing.renaming`).  Decided once per (nf, r, p) inside `memo()`.
    """

    def decide():
        moved = _renaming(nf, r, p, "pi", "lambda")
        if moved is None:
            return False
        rows, cols, mnames = moved
        bnames = {"pi": "pi", "z_%d_%d" % r: "z_%d_%d" % p}
        for i, k in rows.items():
            for j, l in cols.items():
                bnames["bu_%d_%d" % (i, j)] = "bu_%d_%d" % (k, l)

        lattice = dict(nf.z_cells)
        br, bp = build_DT_blowup_chart(nf, *r), build_DT_blowup_chart(nf, *p)
        mr, mp = build_M_chart(nf, *lattice[r]), build_M_chart(nf, *lattice[p])
        amb = br.ambient.ring.renaming(bp.ambient.ring, bnames)
        bred = br.chart.ring.renaming(bp.chart.ring, bnames)
        full = mr.full.ring.renaming(mp.full.ring, mnames)
        mred = mr.reduced.ring.renaming(mp.reduced.ring, mnames)
        if None in (amb, bred, full, mred):
            return False
        fwd_r, bwd_r = _dictionaries(nf, *lattice[r], br, mr)
        fwd_p, bwd_p = _dictionaries(nf, *lattice[p], bp, mp)

        return (
            Counter(map(amb, br.ambient.generators)) == Counter(bp.ambient.generators)
            and tuple(map(bred, br.chart.generators)) == bp.chart.generators
            and bred(br.row_sum) == bp.row_sum
            and bred(br.col_sum) == bp.col_sum
            and bnames.get(br.z_var) == bp.z_var
            and Counter(map(full, mr.full.generators)) == Counter(mp.full.generators)
            and tuple(map(mred, mr.reduced.generators)) == mp.reduced.generators
            and {mnames[v] for v in mr.eliminated} == set(mp.eliminated)
            and full(mr.q2x) == mp.q2x
            and full(mr.q1y) == mp.q1y
            and {bnames[v]: mred(f) for v, f in fwd_r.items()} == fwd_p
            and {mnames[v]: bred(f) for v, f in bwd_r.items()} == bwd_p
        )

    return once(("transfers", nf, r, p), decide)


def _pins_transfer(nf, r, p):
    """Whether linked-fiber's `pass` at the pin of the Z pivot r holds at p's.

    The Z entry at lattice position (a, b) pins x_b = 1 and y_a = 1.  True
    iff `_renaming`'s phi, fixing pi, u and v, maps the chart generators at
    r onto p's as a multiset, and Q1 and Q2 onto p's: an isomorphism over
    Q[pi] that commutes with the maps to the basic scheme.  No DT or M chart.
    """
    moved = _renaming(nf, r, p, "pi", "u", "v")
    if moved is None:
        return False
    lattice = dict(nf.z_cells)
    lr, lp = (build_linked_chart_ideal(nf, b, a) for a, b in (lattice[r], lattice[p]))
    phi = lr.chart.ring.renaming(lp.chart.ring, moved[2])  # never None: a permutation
    same = Counter(map(phi, lr.chart.generators)) == Counter(lp.chart.generators)
    return same and (phi(lr.q1), phi(lr.q2)) == (lp.q1, lp.q2)
