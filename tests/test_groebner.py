"""Buchberger engine and ideal-operation tests."""

import random
import time
from fractions import Fraction

import pytest

import lmlab.groebner as groebner
from lmlab.groebner import (
    GBTimeout,
    Ideal,
    basis_cache,
    deadline,
    buchberger,
    eliminate,
    ideal_contains,
    ideal_equal,
    ideal_member,
    intersect,
    krull_dim,
    quotient,
    radical_member,
    read_ideal_text,
    reduce_poly,
    write_ideal_text,
)
from lmlab.lattice import normal_form
from lmlab.localmodel import (
    build_U_ideals,
    trace_form,
    verify_presentation,
    z_matrix,
    z_ring,
)
from lmlab.poly import Block, Lex, ParseError, PolyError, PolyMatrix, PolyRing, minors, parse_poly
from lmlab.suite import run_check


def test_reduce_hand_buchberger_example():
    R = PolyRing(["x", "y"], Lex())
    basis = [parse_poly("x - y", R), parse_poly("y^2 - 1", R)]
    nf, cert = reduce_poly(parse_poly("x^2 - 1", R), basis)
    assert nf.is_zero
    assert cert.verify(parse_poly("x^2 - 1", R))


def test_reduce_generators_to_zero():
    R = PolyRing(["x", "y"], Lex())
    I = Ideal(R, ["x^2 - 1", "x*y - 1"])
    basis = I.gb()
    for g in I.generators:
        nf, _ = reduce_poly(g, list(basis))
        assert nf.is_zero


def test_reduce_one_against_variables():
    R = PolyRing(["x", "y"])
    nf, _ = reduce_poly(R.one(), [R.var("x"), R.var("y")])
    assert nf == R.one()


def test_buchberger_lex_example():
    R = PolyRing(["x", "y"], Lex())
    basis, partial = buchberger(Ideal(R, ["x^2 - 1", "x*y - 1"]))
    assert not partial
    assert set(str(g) for g in basis) == {"x - y", "y^2 - 1"}


def test_buchberger_principal_monic():
    R = PolyRing(["x", "y"])
    basis, _ = buchberger(Ideal(R, ["3*x^2 - 6*y"]))
    assert [str(g) for g in basis] == ["x^2 - 2*y"]


def test_minors_2x4_self_groebner():
    R = PolyRing(["z_%d_%d" % (i, j) for i in (1, 2) for j in range(1, 5)])
    Z = PolyMatrix.from_rows(
        [[R.var("z_%d_%d" % (i, j)) for j in range(1, 5)] for i in (1, 2)]
    )
    mins = minors(Z, 2)
    basis, _ = buchberger(Ideal(R, mins))
    assert len(basis) == 6
    for g in basis:
        nf, _ = reduce_poly(g, mins)
        assert nf.is_zero


def test_membership_trivial_unit():
    R = PolyRing(["x"])
    ok, cert = ideal_member(R.one(), Ideal(R, ["x", "x + 1"]))
    assert ok and cert.is_member
    assert cert.verify(R.one())


def test_membership_no_linear_part():
    nf51 = normal_form(5, 1)
    _, small = build_U_ideals(nf51)
    ok, _ = ideal_member(small.ring.var("z_1_1"), small.ideal)
    assert not ok


def test_membership_generator():
    R = PolyRing(["pi", "u", "v", "S", "T"])
    I = Ideal(R, ["u*v - pi", "u*S + v*T"])
    ok, cert = ideal_member(parse_poly("u*S + v*T", R), I)
    assert ok and cert.verify(parse_poly("u*S + v*T", R))


def test_ideal_equal_unit_scaling():
    R = PolyRing(["x"])
    assert ideal_equal(Ideal(R, ["2*x^2 - 2"]), Ideal(R, ["x^2 - 1"]))
    assert not ideal_equal(Ideal(R, ["x"]), Ideal(R, ["x^2"]))


@pytest.mark.parametrize("d,delta", [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)])
def test_sum_ideal_equals_doubled_trace_ideal(d, delta):
    nf = normal_form(d, delta)
    ring = z_ring(nf)
    Z = z_matrix(nf, ring)
    m = d - delta
    sig = ring.zero()
    for i in range(1, delta + 1):
        for j in range(1, m + 1):
            sig = sig + Z[i - 1, m - j] * Z[delta - i, j - 1]
    T = trace_form(nf, ring)
    assert ideal_equal(
        Ideal(ring, [sig + 4 * ring.var("pi")]),
        Ideal(ring, [2 * (T + 2 * ring.var("pi"))]),
    )


def test_eliminate_linked_chart_to_uv():
    R = PolyRing(["pi", "u", "v", "x", "S", "T"])
    I = Ideal(R, ["S - v*x", "T + u*x", "u*v - pi", "u*S + v*T"])
    E = eliminate(I, ["S", "T"])
    assert ideal_equal(E, Ideal(E.ring, ["u*v - pi"]))


def test_eliminate_to_zero_ideal():
    R = PolyRing(["x", "y"])
    E = eliminate(Ideal(R, ["y - x"]), ["y"])
    assert E.generators == ()


def test_eliminate_generators_stay_inside():
    R = PolyRing(["pi", "u", "v", "x", "S", "T"])
    I = Ideal(R, ["S - v*x", "T + u*x", "u*v - pi", "u*S + v*T"])
    E = eliminate(I, ["S", "T"])
    for g in E.generators:
        assert not (g.variables_used() & {"S", "T"})
        ok, _ = ideal_member(g.cast(R), I)
        assert ok


def test_quotient_examples():
    R = PolyRing(["u", "v"])
    q = quotient(Ideal(R, ["u*v"]), R.var("u"))
    assert ideal_equal(q, Ideal(R, ["v"]))

    R3 = PolyRing(["pi", "z_1_1"])
    q3 = quotient(Ideal(R3, ["pi*z_1_1"]), R3.var("pi"))
    assert ideal_equal(q3, Ideal(R3, ["z_1_1"]))


def test_quotient_laws():
    R = PolyRing(["x", "y"])
    I = Ideal(R, ["x^2", "x*y"])
    f = R.var("y")
    q = quotient(I, f)
    assert ideal_contains(q, I)
    # 1 in (I : f) iff f in I
    assert ideal_member(R.one(), quotient(I, R.var("x") * R.var("y")))[0]
    assert not ideal_member(R.one(), q)[0]


def test_radical_membership():
    R = PolyRing(["u", "v", "S", "T"])
    I = Ideal(R, ["u*S + v*T", "u*v"])
    assert radical_member(parse_poly("u*S", R), I)
    assert radical_member(parse_poly("v*T", R), I)
    R2 = PolyRing(["x", "y"])
    assert not radical_member(R2.var("x"), Ideal(R2, ["y"]))


def test_intersect_examples():
    R = PolyRing(["u", "v", "S", "T"])
    got = intersect(Ideal(R, ["u", "v"]), Ideal(R, ["S", "v"]))
    assert ideal_equal(got, Ideal(R, ["v", "u*S"]))
    f = Ideal(R, ["u*S + v*T"])
    assert ideal_equal(intersect(f, f), f)
    lhs = intersect(
        intersect(Ideal(R, ["u^2", "u*v", "v^2", "u*S + v*T"]), Ideal(R, ["S", "v"])),
        Ideal(R, ["T", "u"]),
    )
    assert ideal_equal(lhs, Ideal(R, ["u*S + v*T", "u*v"]))


def test_intersect_symmetry():
    R = PolyRing(["u", "v", "S", "T"])
    a = intersect(Ideal(R, ["u", "v"]), Ideal(R, ["S", "v"]))
    b = intersect(Ideal(R, ["S", "v"]), Ideal(R, ["u", "v"]))
    assert ideal_equal(a, b)


def test_krull_dim_examples():
    nf = normal_form(6, 2)
    ring = z_ring(nf)
    cone = Ideal(ring, minors(z_matrix(nf, ring), 2))
    assert krull_dim(cone) == 6

    R = PolyRing(["x", "y", "z"])
    assert krull_dim(Ideal(R, [])) == 3

    nf51 = normal_form(5, 1)
    U, _ = build_U_ideals(nf51)
    assert krull_dim(U.ideal) == 4


def test_reduced_gb_unique_under_shuffle():
    nf = normal_form(6, 2)
    _, small = build_U_ideals(nf)
    gens = list(small.ideal.generators)
    reference = small.ideal.gb()
    rng = random.Random(7)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        basis, _ = buchberger(Ideal(small.ring, shuffled))
        assert list(basis) == list(reference)


def test_certificate_soundness_random():
    R = PolyRing(["x", "y", "pi"])
    I = Ideal(R, ["x^2 - pi", "x*y + 1"])
    basis = I.gb()
    rng = random.Random(3)
    for _ in range(10):
        p = R.poly(
            {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)): rng.randint(-4, 4)
                for _ in range(4)
            }
        )
        nf, cert = reduce_poly(p, list(basis))
        assert cert.verify(p)
        for term_exp in nf.terms:
            for g in basis:
                assert not all(a >= b for a, b in zip(term_exp, g.lm()))


def test_complete_mode_reports_timeout_of_its_elimination_basis(monkeypatch):
    real = groebner.BuchbergerRun.complete

    def tiny_block_budget(self):
        if not isinstance(self.ring.order, Block):
            return real(self)
        with deadline(1e-9):
            return real(self)

    monkeypatch.setattr(groebner.BuchbergerRun, "complete", tiny_block_budget)
    report = verify_presentation(normal_form(5, 1), mode="complete")
    assert report.status == "timeout"
    assert "timeout" in report.details
    assert "surjectivity_certified" not in report.details


def test_complete_mode_runs_one_elimination_basis(monkeypatch):
    # outside basis_cache(): the grevlex basis of the small ideal, then the
    # one block-order basis that decides surjectivity and the contraction
    runs = _count_runs(monkeypatch)
    (report,) = run_check("za1", 5, 1, mode="complete")
    assert report.status == "pass"
    assert runs == ["GrevLex", "Block"]


def test_eliminate_reuses_the_basis_of_an_ideal_in_its_order(monkeypatch):
    gens = ["x - y^2", "x*z - 1", "y*z - x"]
    fresh = eliminate(Ideal(PolyRing(["x", "y", "z"]), gens), ["x"])
    runs = _count_runs(monkeypatch)
    I = Ideal(PolyRing(["x", "y", "z"], Block(["x"])), gens)
    I.gb()
    assert eliminate(I, ["x"]).generators == fresh.generators
    assert runs == ["Block"]


# -- .ideal serialization


def test_ideal_file_roundtrip():
    nf = normal_form(5, 1)
    U, _ = build_U_ideals(nf)
    text = write_ideal_text(U.ideal)
    back = read_ideal_text(text)
    assert back.ring == U.ideal.ring
    assert set(str(g) for g in back.generators) == set(str(g) for g in U.ideal.generators)
    assert write_ideal_text(back) == text


def test_ideal_file_reads_a_leading_minus_before_a_power():
    ideal = read_ideal_text("# lmlab-ideal v1\nring QQ [x, y]\norder grevlex\ngen -x^2 + y\n")
    x, y = ideal.ring.var("x"), ideal.ring.var("y")
    assert ideal.generators == (y - x**2,)
    assert read_ideal_text(write_ideal_text(ideal)).generators == ideal.generators


def test_ideal_file_header_and_order_errors():
    with pytest.raises(ParseError):
        read_ideal_text("not an ideal file\n")
    bad_order = "# lmlab-ideal v1\nring QQ [x, y]\norder sorted\ngen x\n"
    with pytest.raises(ParseError):
        read_ideal_text(bad_order)
    bad_gen = "# lmlab-ideal v1\nring QQ [x, y]\norder lex\npoly x\n"
    with pytest.raises(ParseError):
        read_ideal_text(bad_gen)
    # the two orders of a block order are lex or grevlex, never a block
    for parts in ("block lex", "lex block", "grevlex sorted"):
        nested = "# lmlab-ideal v1\nring QQ [x, y]\norder block [x] %s\ngen x\n" % parts
        with pytest.raises(ParseError):
            read_ideal_text(nested)


def test_ideal_file_block_order_roundtrip():
    R = PolyRing(["x", "y", "t"], order=None)
    from lmlab.poly import Block

    Rb = R.with_order(Block(["t"]))
    I = Ideal(Rb, ["t*x - y"])
    text = write_ideal_text(I)
    back = read_ideal_text(text)
    assert back.ring.order == Rb.order


def test_gb_is_reduced():
    nf = normal_form(6, 2)
    _, small = build_U_ideals(nf)
    basis = small.ideal.gb()
    for i, g in enumerate(basis):
        assert g.lc() == 1
        for j, h in enumerate(basis):
            if i == j:
                continue
            # no head divides another head, tails fully reduced
            for exp in g.terms:
                assert not all(a >= b for a, b in zip(exp, h.lm()))


def test_timeout_raises_and_is_typed():
    nf = normal_form(7, 3)
    _, small = build_U_ideals(nf)
    with pytest.raises(GBTimeout), deadline(1e-9):
        buchberger(small.ideal)
    # an inner block with a later deadline does not extend the outer one
    with pytest.raises(GBTimeout), deadline(1e-9), deadline(60):
        buchberger(small.ideal)


def test_short_reduction_reads_the_deadline():
    # reduce_poly starts a fresh engine, and this reduction takes fewer steps
    # than the engine's check interval: the first check must read the clock
    R = PolyRing(["x", "y"])
    basis = list(Ideal(R, ["x^2 - y", "x*y - 1"]).gb())
    with pytest.raises(GBTimeout), deadline(1e-9):
        time.sleep(0.001)
        reduce_poly(parse_poly("x^3", R), basis)
    # with the budget left, the same reduction gives its residue
    with deadline(60):
        r, _ = reduce_poly(parse_poly("x^3", R), basis)
    assert r == R.one()


def test_budget_reaches_every_reduction(monkeypatch):
    # the generator check of Ideal.gb and the exact divisions of quotient
    # reduce under the enclosing deadline
    import lmlab.groebner as groebner

    real = groebner._reduce
    budgets = []

    def spy(p, basis, divisors):
        budgets.append(groebner._until[1])
        return real(p, basis, divisors)

    monkeypatch.setattr(groebner, "_reduce", spy)
    R = PolyRing(["x", "y"])
    I = Ideal(R, ["x^2 - y", "x*y - 1"])
    with deadline(60):
        I.gb()
    assert budgets == [60, 60]
    budgets.clear()
    with deadline(60):
        quotient(Ideal(R, ["x^2*y", "x*y^2"]), R.var("x"))
    assert budgets and set(budgets) == {60}


def test_ideal_builds_its_reducers_once(monkeypatch):
    import lmlab.groebner as groebner

    real = groebner._divisors
    built = []

    def counting(ring, basis, degree):
        built.append(len(basis))
        return real(ring, basis, degree)

    monkeypatch.setattr(groebner, "_divisors", counting)
    R = PolyRing(["x", "y", "z"])
    basis = [parse_poly(g, R) for g in ("2*x^2 - 3*y", "x*y - 2*z", "0", "3*y^2 - 5*z")]
    basis[1] = basis[1] * Fraction(1, 2)
    ps = [parse_poly("x^3*y - %d*z^2 + y" % k, R) for k in range(5)]
    for p in ps:
        _, cert = reduce_poly(p, basis)
        assert cert.verify(p)
    # an ideal's reducers are built with its basis, and the membership tests
    # against it build none
    I = Ideal(R, [g for g in basis if not g.is_zero])
    built.clear()
    I.gb()
    assert built[-1] == len(I.gb())
    built.clear()
    for p in ps * 3:
        member, cert = ideal_member(p, I)
        assert cert.verify(p) and member == cert.residue.is_zero
        assert ideal_contains(I, Ideal(R, [p])) == member
    assert built == []
    # a polynomial of the same variables under another order is still refused
    other = PolyRing(["x", "y", "z"], Lex())
    with pytest.raises(PolyError):
        reduce_poly(ps[0].cast(other), basis)
    with pytest.raises(PolyError):
        reduce_poly(ps[0], basis + [parse_poly("x", other)])


def _count_runs(monkeypatch):
    """The order class name of every Buchberger run, in order."""
    runs = []
    real = groebner.BuchbergerRun.complete

    def counting(self):
        runs.append(type(self.ring.order).__name__)
        return real(self)

    monkeypatch.setattr(groebner.BuchbergerRun, "complete", counting)
    return runs


_CACHE_RING = PolyRing(["x", "y", "z"])
# the leading coefficients are positive under grevlex and lex alike, so only
# the order tells the lex and grevlex inputs apart
_CACHE_GENS = ["x^2 - y*z", "x*y - z^2", "y^3 - z"]


def test_basis_cache_ignores_generator_order_scale_and_duplicates(monkeypatch):
    runs = _count_runs(monkeypatch)
    R = _CACHE_RING
    gens = [parse_poly(g, R) for g in _CACHE_GENS]
    variant = [gens[2] * 3, gens[0] * Fraction(-1, 2), gens[1], gens[2]]
    with basis_cache():
        first = buchberger(Ideal(R, gens))
        again = buchberger(Ideal(R, variant))
        assert len(runs) == 1
        assert again == first
        # another order, other variable names or one more generator is
        # another basis
        lex = buchberger(Ideal(R, gens), order=Lex())
        S = PolyRing(["a", "b", "c"])
        renamed = buchberger(Ideal(S, ["a^2 - b*c", "a*b - c^2", "b^3 - c"]))
        more = buchberger(Ideal(R, gens + [R.var("z") ** 3]))
        assert len(runs) == 4
        assert lex[0] != first[0] and more[0] != first[0]
        assert renamed[0][0].ring == S
    assert first == buchberger(Ideal(R, gens))


def test_basis_cache_keeps_the_generator_check_of_every_ideal(monkeypatch):
    runs = _count_runs(monkeypatch)
    checked = []
    real = groebner._reduce

    def spy(p, basis, divisors):
        checked.append(p)
        return real(p, basis, divisors)

    monkeypatch.setattr(groebner, "_reduce", spy)
    with basis_cache():
        for _ in range(2):
            Ideal(_CACHE_RING, _CACHE_GENS).gb()
    assert len(runs) == 1
    assert len(checked) == 2 * len(_CACHE_GENS)


def test_basis_cache_is_off_outside_the_block(monkeypatch):
    runs = _count_runs(monkeypatch)
    I = Ideal(_CACHE_RING, _CACHE_GENS)
    buchberger(I)
    buchberger(I)
    with basis_cache():
        buchberger(I)
    buchberger(I)
    assert len(runs) == 4


def test_basis_cache_stores_nothing_after_a_timeout(monkeypatch):
    runs = _count_runs(monkeypatch)
    _, small = build_U_ideals(normal_form(5, 1))
    with basis_cache():
        with pytest.raises(GBTimeout), deadline(1e-9):
            buchberger(small.ideal)
        basis, partial = buchberger(small.ideal)
        assert buchberger(small.ideal) == (basis, partial)
    assert len(runs) == 2
    assert not partial
    assert basis == buchberger(small.ideal)[0]


def test_basis_cache_block_restores_the_prior_state_on_error(monkeypatch):
    runs = _count_runs(monkeypatch)
    I = Ideal(_CACHE_RING, _CACHE_GENS)
    with pytest.raises(RuntimeError):
        with basis_cache():
            buchberger(I)
            raise RuntimeError("check crashed")
    buchberger(I)
    assert len(runs) == 2
    with basis_cache():
        buchberger(I)
        with pytest.raises(RuntimeError):
            with basis_cache():
                buchberger(I)
                raise RuntimeError("check crashed")
        # the outer block's basis is still there
        buchberger(I)
    assert len(runs) == 4


def test_ideal_file_rational_coefficients_roundtrip():
    nf = normal_form(5, 1)
    from lmlab.blowup import build_M_chart

    mc = build_M_chart(nf, 3, 1)
    text = write_ideal_text(mc.reduced.ideal)
    assert "1/2" in text
    back = read_ideal_text(text)
    assert write_ideal_text(back) == text


def test_ideal_file_gen_parse_error_has_line_and_column():
    text = "# lmlab-ideal v1\nring QQ [x, y]\norder lex\ngen x ** y\n"
    with pytest.raises(ParseError) as err:
        read_ideal_text(text)
    assert "line 4" in str(err.value)
    assert "column" in str(err.value)
    # the position is named once, not again for each wrapping
    with pytest.raises(ParseError) as err:
        read_ideal_text(text.replace("x ** y", "(x"))
    assert str(err.value) == "line 4, column 3: expected ), found 'end' (at position 2)"
