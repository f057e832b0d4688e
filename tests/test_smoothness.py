"""Relative Jacobian smoothness certificates."""

from lmlab.blowup import build_DT_blowup_chart
from lmlab.lattice import normal_form
from lmlab.poly import RingMap
from lmlab.verify import (
    ModelTarget,
    _model_target,
    model_cover_for_chart,
    model_target_for_chart,
    smooth_on_cover,
    smooth_over_model,
)


def test_smooth_over_ux_model_5_1():
    nf = normal_form(5, 1)
    bc = build_DT_blowup_chart(nf, 1, 1)
    tgt = model_target_for_chart(nf, bc)
    assert tgt.kind == "ux"
    rep = smooth_over_model(bc.chart, tgt, nf.d - 3)
    assert rep.status == "pass"
    assert rep.details["relation_member"]
    assert rep.details["full_rank"]


def test_smooth_over_uxy_model_6_2_every_pivot():
    nf = normal_form(6, 2)
    for s in (1, 2):
        for t in range(1, 5):
            bc = build_DT_blowup_chart(nf, s, t)
            tgt = model_target_for_chart(nf, bc)
            assert tgt.kind == "uxy"
            rep = smooth_over_model(bc.chart, tgt, nf.d - 4)
            assert rep.status == "pass", (s, t, rep.details)
            assert rep.details["rel_dim"] == 2


def test_negative_control_y_zero():
    nf = normal_form(6, 2)
    bc = build_DT_blowup_chart(nf, 1, 1)
    # the standard assignment with y sent to 0
    std = model_target_for_chart(nf, bc)
    images = dict(std.map.images, y=bc.chart.ring.zero())
    tgt = _model_target(std.kind, std.map.target, images)
    rep = smooth_over_model(bc.chart, tgt, nf.d - 4)
    assert rep.status == "fail"
    assert not rep.details["relation_member"]


def test_middle_pivot_rank_drop_is_detected():
    # the known boundary case: at a middle column the second sum degenerates
    # to 1 + quadric and the relative Jacobian drops rank on the chart
    nf = normal_form(5, 2)
    bc = build_DT_blowup_chart(nf, 1, 2)
    tgt = model_target_for_chart(nf, bc)
    rep = smooth_over_model(bc.chart, tgt, nf.d - 4)
    assert rep.status == "fail"
    assert rep.details["relation_member"]
    assert not rep.details["full_rank"]


def _twisted(piece, bchart):
    # a twisted piece sends u to the pivot coordinate times a unit
    ext = piece.target.map.target
    return piece.target.map("u") != ext.var(bchart.z_var)


def test_one_piece_cover_is_the_global_check():
    nf = normal_form(6, 2)
    bc = build_DT_blowup_chart(nf, 1, 1)
    pieces = model_cover_for_chart(nf, bc)
    assert len(pieces) == 1 and pieces[0].h == 1 and not pieces[0].inverses
    on_cover = smooth_on_cover(bc.chart, pieces, nf.d - 4).to_dict()
    tgt = model_target_for_chart(nf, bc)
    direct = smooth_over_model(bc.chart, tgt, nf.d - 4).to_dict()
    on_cover.pop("runtime_ms")
    direct.pop("runtime_ms")
    assert on_cover == direct


def test_middle_pivot_certified_on_cover():
    nf = normal_form(5, 2)
    bc = build_DT_blowup_chart(nf, 1, 2)
    pieces = model_cover_for_chart(nf, bc)
    assert len(pieces) == 3
    assert [_twisted(p, bc) for p in pieces] == [False, False, True]
    rep = smooth_on_cover(bc.chart, pieces, nf.d - 4)
    assert rep.status == "pass", rep.details
    assert rep.check == "cover-smooth"
    assert rep.details["cover_unit"]
    for piece in rep.details["piece_reports"]:
        assert piece["relation_member"] and piece["full_rank"]
        assert piece["target"] == "uxy" and piece["rel_dim"] == nf.d - 4


def test_cover_without_twisted_piece_is_not_unit():
    # the derivative pieces all miss the critical point of the column sum
    nf = normal_form(5, 2)
    bc = build_DT_blowup_chart(nf, 1, 2)
    pieces = [p for p in model_cover_for_chart(nf, bc) if not _twisted(p, bc)]
    assert len(pieces) == 2
    rep = smooth_on_cover(bc.chart, pieces, nf.d - 4)
    assert rep.status == "fail"
    assert rep.details["cover_unit"] is False


def test_twisted_piece_needs_its_twist():
    # the doubly twisted piece at 6:3 (2,2) contains the critical points of
    # both sums, so the standard target drops rank on it
    nf = normal_form(6, 3)
    bc = build_DT_blowup_chart(nf, 2, 2)
    pieces = model_cover_for_chart(nf, bc)
    assert len(pieces) == 9
    last = pieces[-1]
    assert _twisted(last, bc) and len(last.inverses) == 4
    ext = last.target.map.target
    std = model_target_for_chart(nf, bc)
    images = {v: std.map(v).cast(ext) for v in std.model_vars}
    images["pi"] = ext.var("pi")
    plain = ModelTarget(last.target.kind, last.target.relation,
                        RingMap(last.target.map.source, ext, images))
    rep = smooth_on_cover(bc.chart, pieces[:-1] + [last._replace(target=plain)], nf.d - 4)
    assert rep.status == "fail"
    assert rep.details["cover_unit"]
    reports = rep.details["piece_reports"]
    assert all(r["status"] == "pass" for r in reports[:-1])
    assert reports[-1]["relation_member"]
    assert not reports[-1]["full_rank"]


def test_sum_of_other_shape_gets_no_cover():
    nf = normal_form(5, 2)
    bc = build_DT_blowup_chart(nf, 1, 2)
    b = bc.chart.ring.var("bu_1_1")
    assert model_cover_for_chart(nf, bc._replace(col_sum=bc.col_sum + b**2)) == []
    rep = smooth_on_cover(bc.chart, [], nf.d - 4)
    assert rep.status == "fail"
    assert rep.details["cover_unit"] is False


def test_cover_timeout_is_never_a_pass(monkeypatch):
    # the unit-ideal membership of the cover runs under the caller's
    # deadline and runs out of it here
    import lmlab.groebner as groebner
    import lmlab.verify as verify

    budgets = []

    def out_of_time(p, ideal):
        budgets.append(groebner._until[1])
        raise groebner.GBTimeout(groebner._until[1])

    monkeypatch.setattr(verify, "ideal_member", out_of_time)
    nf = normal_form(6, 3)
    bc = build_DT_blowup_chart(nf, 2, 2)
    with groebner.deadline(60):
        rep = smooth_on_cover(bc.chart, model_cover_for_chart(nf, bc), nf.d - 4)
    assert budgets == [60]
    assert rep.status == "timeout"
    assert "timeout" in rep.details and "piece_reports" not in rep.details


def test_timed_out_piece_is_never_a_pass(monkeypatch):
    # every piece runs under the caller's deadline; a nested block starves
    # the last one here
    import lmlab.groebner as groebner
    import lmlab.verify as verify

    real = verify.smooth_over_model
    budgets = []

    def starve_last(chart, target, rel_dim):
        budgets.append(groebner._until[1])
        if len(budgets) < 3:
            return real(chart, target, rel_dim)
        with groebner.deadline(1e-9):
            return real(chart, target, rel_dim)

    monkeypatch.setattr(verify, "smooth_over_model", starve_last)
    nf = normal_form(5, 2)
    bc = build_DT_blowup_chart(nf, 1, 2)
    with groebner.deadline(60):
        rep = smooth_on_cover(bc.chart, model_cover_for_chart(nf, bc), nf.d - 4)
    assert budgets == [60, 60, 60]
    assert [r["status"] for r in rep.details["piece_reports"]] == ["pass", "pass", "timeout"]
    assert rep.status == "timeout"
