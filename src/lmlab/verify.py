"""Smoothness certification by the relative Jacobian criterion.

A chart is smooth over the model ring Z[u,x,y]/(u^2xy - pi) or
Z[u,x]/(u^2x - pi) when, after adjoining the model coordinates along their
defining assignments, the relation is a member and the relative Jacobian has
full rank everywhere on the chart.  Where no single assignment works, a chart
may instead be certified on an explicit Zariski cover whose unit-ideal
certificate is checked: each piece carries its own assignment, and is
certified smooth over the model ring along that assignment.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product

from .groebner import Ideal, _fresh_name, ideal_member, krull_dim
from .poly import Block, PolyRing, RingMap, jacobian, minors
from .report import FAIL, PASS, TIMEOUT, checking

__all__ = [
    "CoverPiece",
    "ModelTarget",
    "model_cover_for_chart",
    "model_target_for_chart",
    "smooth_on_cover",
    "smooth_over_model",
]


MODEL_VARS = {"uxy": ("u", "x", "y"), "ux": ("u", "x")}


class ModelTarget(namedtuple("ModelTarget", "kind relation map")):
    """A model relation, of kind "uxy" or "ux", and its variables' assignment into a chart."""

    __slots__ = ()

    @property
    def model_vars(self):
        return MODEL_VARS[self.kind]


def _model_target(kind, ext, images):
    """The model relation of `kind` and the map sending its variables to `images` in ext."""
    model_vars = MODEL_VARS[kind]
    model = PolyRing(("pi",) + model_vars)
    u, x = model.var("u"), model.var("x")
    if kind == "uxy":
        relation = u**2 * x * model.var("y") - model.var("pi")
    else:
        relation = u**2 * x - model.var("pi")
    fmap = RingMap(
        model,
        ext,
        {"pi": ext.var("pi"), **{v: images[v].cast(ext) for v in model_vars}},
    )
    return ModelTarget(kind=kind, relation=relation, map=fmap)


def _model_images(kind, bchart, ext, twist_r=None, twist_c=None):
    """Images of the model variables in ext, optionally twisted by units.

    A twist (g, t), with t the inverse of g on the piece, multiplies u by g
    and divides the coordinate built from its sum by g^2, so u^2 x y (or
    u^2 x) is unchanged.
    """
    u = ext.var(bchart.z_var)
    row, col = bchart.row_sum.cast(ext), bchart.col_sum.cast(ext)
    if twist_r is not None:
        u = u * twist_r[0].cast(ext)
        row = row * ext.var(twist_r[1]) ** 2
    if twist_c is not None:
        u = u * twist_c[0].cast(ext)
        col = col * ext.var(twist_c[1]) ** 2
    if kind == "uxy":
        return {"u": u, "x": -Fraction(1, 2) * row, "y": Fraction(1, 2) * col}
    return {"u": u, "x": -Fraction(1, 4) * row * col}


def model_target_for_chart(nf, bchart):
    """The standard model assignment for a blow-up chart of the local model.

    For delta_* >= 2 the target is u^2 x y = pi with u the pivot coordinate,
    x = -(row sum)/2, y = (col sum)/2.  For delta_* = 1 the row sum is the
    constant 1 and the target collapses to u^2 x = pi with
    x = -(row sum)(col sum)/4, i.e. the product of the two coordinates above.
    """
    kind = "uxy" if nf.delta_star >= 2 else "ux"
    ext = bchart.chart.ring.extend(MODEL_VARS[kind])
    return _model_target(kind, ext, _model_images(kind, bchart, ext))


class CoverPiece(namedtuple("CoverPiece", "ring inverses target")):
    """An open piece D(h) of a chart together with its model assignment.

    `inverses` pairs each factor f of h with the name of a new variable t that
    inverts it (the equation t f - 1).  `ring` is the chart ring; the target
    lives in it extended by these variables and the model variables.
    """

    __slots__ = ()

    @property
    def h(self):
        """The product of the inverted factors (1 when there are none)."""
        h = self.ring.one()
        for _, f in self.inverses:
            h = h * f
        return h


def _quadric_pairs(S):
    """The pairs (b, b') if S = 1 + 2 * sum(b b') over disjoint pairs, else None."""
    zero = (0,) * S.ring.nvars
    if S.coefficient(zero) != 1:
        return None
    pairs, seen = [], set()
    for exp, c in S.sorted_terms():
        if exp == zero:
            continue
        idx = [i for i, e in enumerate(exp) if e]
        if c != 2 or sum(exp) != 2 or len(idx) != 2 or seen.intersection(idx):
            return None
        seen.update(idx)
        pairs.append(tuple(S.ring.variables[i] for i in idx))
    return pairs


def _sum_cover(S):
    """Pieces on which the coordinate built from the chart sum S is smooth.

    Each piece is (factors of h, twisting unit g or None).  A nonzero constant
    sum, or one in which some variable occurs linearly, needs no cover.  For
    S = 1 + 2 * sum(b b') the pieces are D(dS/db) for every variable b of S,
    where dS does not vanish, plus D((1 + b)(1 - b')) for the leading pair:
    there d(S/g^2) with g = 1 + b vanishes only at b = e_b', which the piece
    excludes.  Together they generate the unit ideal, since the partials
    vanish only at the origin, where (1 + b)(1 - b') = 1.  Any other shape
    gets no cover (None).
    """
    if S.is_zero:
        return None
    if S.total_degree() == 0 or any(sum(e) == 1 for e in S.numerators()):
        return [((), None)]
    pairs = _quadric_pairs(S)
    if pairs is None:
        return None
    ring, used = S.ring, S.variables_used()
    pieces = [((S.derivative(v),), None) for v in ring.variables if v in used]
    b, b2 = pairs[0]
    g = ring.one() + ring.var(b)
    pieces.append(((g, ring.one() - ring.var(b2)), g))
    return pieces


def model_cover_for_chart(nf, bchart):
    """A Zariski cover of a blow-up chart by pieces with model assignments.

    The pieces are built from the row and column sums alone: each sum
    contributes its pieces (see _sum_cover) and the pieces of the two sums
    multiply.  A piece without localization is the single piece h = 1 with
    the standard target of model_target_for_chart.  On a piece twisted by
    g = 1 + b the pivot coordinate is u = z g and the coordinate of that sum
    is divided by g^2.  Every piece keeps the model kind of the chart, and
    its model variables form an eliminated block so that their defining
    equations lead.  If a sum has no cover the result is empty, and
    smooth_on_cover then fails.
    """
    row, col = _sum_cover(bchart.row_sum), _sum_cover(bchart.col_sum)
    if row is None or col is None:
        return []
    base = model_target_for_chart(nf, bchart)
    kind, model_vars = base.kind, base.model_vars
    ring = bchart.chart.ring
    pieces = []
    for (f_r, g_r), (f_c, g_c) in product(row, col):
        factors = f_r + f_c
        if not factors:
            pieces.append(CoverPiece(ring, (), base))
            continue
        names = [_fresh_name(ring, "t_%d" % k) for k in range(1, len(factors) + 1)]
        ext = PolyRing(ring.variables + tuple(names) + model_vars, Block(model_vars))
        twist_r = (g_r, names[0]) if g_r is not None else None
        twist_c = (g_c, names[len(f_r)]) if g_c is not None else None
        images = _model_images(kind, bchart, ext, twist_r, twist_c)
        pieces.append(CoverPiece(ring, tuple(zip(names, factors)),
                                 _model_target(kind, ext, images)))
    return pieces


def smooth_over_model(chart, target, rel_dim):
    """Relative smoothness of a chart over a model ring.

    Adjoin the model variables by their assignments; then (i) the model
    relation must lie in the extended ideal, and (ii) the g x g minors of the
    Jacobian of its g generators with respect to the fiber variables (the
    chart variables together with pi) must generate the unit ideal modulo it.
    The generator count is checked against the codimension first, so the
    full-rank test certifies a smooth projection of the stated relative
    dimension.
    """
    with checking("quadbu-smooth", {}) as report:
        ext = target.map.target
        gens = [g.cast(ext) for g in chart.generators]
        for mv in target.model_vars:
            gens.append(ext.var(mv) - target.map(mv))
        I_ext = Ideal(ext, gens)
        g = len(I_ext.generators)

        ok_rel, rel_cert = ideal_member(target.relation.cast(ext), I_ext)
        if not report.require("relation_member", ok_rel):
            report.details["relation_residue"] = str(rel_cert.residue)

        dim = krull_dim(I_ext)
        report.require("complete_intersection", dim == ext.nvars - g)
        # the model scheme is a hypersurface in (pi, model vars), so its
        # absolute dimension equals the model variable count
        actual_rel_dim = dim - len(target.model_vars)
        report.details["rel_dim"] = actual_rel_dim
        report.details["expected_rel_dim"] = rel_dim
        if actual_rel_dim != rel_dim:
            report.status = FAIL

        fiber_vars = [v for v in ext.variables if v not in target.model_vars]
        jac = jacobian(list(I_ext.generators), fiber_vars)
        mins = minors(jac, g)
        total = Ideal(ext, list(I_ext.generators) + mins)
        if not report.require("full_rank", ideal_member(ext.one(), total)[0]):
            gb = total.gb()
            report.details["witness"] = str(gb[0]) if gb else "0"
    return report


def _piece_chart(chart, piece):
    """The chart localized at h: one inverse variable t per factor f, with t f - 1."""
    if not piece.inverses:
        return chart
    ring = chart.ring.extend([t for t, _ in piece.inverses])
    gens = [g.cast(ring) for g in chart.generators]
    gens += [ring.var(t) * f.cast(ring) - 1 for t, f in piece.inverses]
    return Ideal(ring, gens)


def smooth_on_cover(chart, pieces, rel_dim):
    """Relative smoothness over a model ring, certified on a Zariski cover.

    The chart passes iff (i) the pieces cover it: 1 lies in (chart ideal,
    h_1, ..., h_k), with a verified cofactor certificate, and (ii) every
    piece, localized at its h, passes smooth_over_model with its own target
    and the same relative dimension.  What is certified is local: each piece
    of the cover is smooth over the model ring along its own assignment, and
    the assignments of different pieces need not agree on overlaps.  A
    one-piece cover returns that piece's report unchanged.
    """
    with checking("cover-smooth", {}) as report:
        report.details["pieces"] = len(pieces)
        one = chart.ring.one()
        cover = Ideal(chart.ring, list(chart.generators) + [p.h for p in pieces])
        ok, cert = ideal_member(one, cover)
        if not report.require("cover_unit", ok and cert.verify(one)):
            return report
        piece_reports = [
            smooth_over_model(_piece_chart(chart, p), p.target, rel_dim)
            for p in pieces
        ]
        if len(piece_reports) == 1:
            return piece_reports[0]
        report.details["piece_reports"] = [
            {"h": str(p.h), "target": p.target.kind, "status": r.status, **r.details}
            for p, r in zip(pieces, piece_reports)
        ]
        statuses = {r.status for r in piece_reports}
        if FAIL in statuses:
            report.status = FAIL
        elif statuses != {PASS}:
            report.status = TIMEOUT
    return report
