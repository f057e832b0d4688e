"""Buchberger engine and ideal-operation tests."""

import random
import time
from fractions import Fraction

import pytest

import lmlab.groebner as groebner
from lmlab.groebner import (
    GBTimeout,
    Ideal,
    deadline,
    buchberger,
    eliminate,
    first_nonmember,
    ideal_contains,
    ideal_equal,
    ideal_member,
    intersect,
    krull_dim,
    memo,
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
from lmlab.poly import Block, GrevLex, Lex, ParseError, PolyError, PolyRing, minors, parse_poly
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
    Z = [[R.var("z_%d_%d" % (i, j)) for j in range(1, 5)] for i in (1, 2)]
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
    ok, _ = ideal_member(small.ring.var("z_1_1"), small)
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
            sig = sig + Z[i - 1][m - j] * Z[delta - i][j - 1]
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
    assert krull_dim(U) == 4


def reference_krull_dim(I):
    # krull_dim as it was before its search passed the surviving minimal
    # supports down to each child call, kept verbatim as the reference
    basis = I.gb()
    n = I.ring.nvars
    if not basis:
        return n
    supports = []
    for g in basis:
        if g.total_degree() == 0:
            return -1
        supports.append(frozenset(i for i, e in enumerate(g.lm()) if e))
    # keep only minimal supports
    supports = sorted(set(supports), key=lambda s: (len(s), sorted(s)))
    minimal = []
    for s in supports:
        if not any(m <= s for m in minimal):
            minimal.append(s)

    found = {}

    def search(excluded):
        live = [s for s in minimal if not (s & excluded)]
        if not live:
            return n - len(excluded)
        got = found.get(excluded)
        if got is not None:
            return got
        s = min(live, key=lambda s: (len(s), sorted(s)))
        best = -1
        for v in sorted(s):
            best = max(best, search(excluded | frozenset([v])))
        found[excluded] = best
        return best

    return search(frozenset())


def test_krull_dim_equals_the_reference_on_the_checks_bases(monkeypatch):
    # every ideal whose dimension quadbu-smooth (through smooth_over_model)
    # takes on G, each pivot proven on its own, and U and the Segre cone,
    # whose dimensions flatness-dims reads off their generators
    import lmlab.blowup as blowup
    import lmlab.verify as verify
    from lmlab.suite import run_instance

    seen = []

    def spy(I):
        seen.append(I)
        return krull_dim(I)

    monkeypatch.setattr(groebner, "krull_dim", spy)
    monkeypatch.setattr(verify, "krull_dim", spy)
    monkeypatch.setattr(blowup, "_transfers", lambda nf, r, p: False)
    for d, delta in [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]:
        run_instance(["flatness-dims", "quadbu-smooth"], d, delta)
        nf = normal_form(d, delta)
        U, _ = build_U_ideals(nf)
        seen += [U, Ideal(U.ring, minors(z_matrix(nf, U.ring), 2))]
    # quadbu-smooth: one chart per pivot; flatness-dims: none
    assert len(seen) == 54 + 2 * 7
    for I in seen:
        assert krull_dim(I) == reference_krull_dim(I)


def test_krull_dim_equals_the_reference_on_random_monomial_supports():
    rng = random.Random(26)
    R = PolyRing(["x%d" % i for i in range(9)])
    for _ in range(200):
        gens = []
        for _ in range(rng.randint(0, 8)):
            exp = [0] * R.nvars
            for i in rng.sample(range(R.nvars), rng.randint(1, 4)):
                exp[i] = rng.randint(1, 2)
            gens.append(R.poly({tuple(exp): 1}))
        I = Ideal(R, gens)
        assert krull_dim(I) == reference_krull_dim(I)


def test_reduced_gb_unique_under_shuffle():
    nf = normal_form(6, 2)
    _, small = build_U_ideals(nf)
    gens = list(small.generators)
    reference = small.gb()
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
        for term_exp in nf.numerators():
            for g in basis:
                assert not all(a >= b for a, b in zip(term_exp, g.lm()))


def test_complete_mode_reports_timeout_of_its_elimination_basis(monkeypatch):
    # complete mode's one basis, the small ideal's, which is the contraction's
    # renamed and gives contraction_generators, gets no budget: the claim
    # times out
    real = groebner.BuchbergerRun.complete
    runs = []

    def no_budget(self):
        runs.append(self)
        with deadline(1e-9):
            return real(self)

    monkeypatch.setattr(groebner.BuchbergerRun, "complete", no_budget)
    report = verify_presentation(normal_form(5, 1), mode="complete")
    assert len(runs) == 1
    assert report.status == "timeout"
    assert "timeout" in report.details
    assert "contraction_generators" not in report.details


def test_complete_mode_runs_one_elimination_basis(monkeypatch):
    # outside memo(): the one run is the grevlex basis of the small ideal in
    # Q[pi, Z]; the small ideal lies in the contraction by a linear span, and
    # no run is over x_ring
    runs = []
    real = groebner.BuchbergerRun.complete

    def recording(self):
        runs.append((type(self.ring.order).__name__, self.ring.variables))
        return real(self)

    monkeypatch.setattr(groebner.BuchbergerRun, "complete", recording)
    (report,) = run_check("za1", 5, 1, mode="complete")
    assert report.status == "pass"
    zr = z_ring(normal_form(5, 1)).variables
    assert runs == [("GrevLex", zr)]


def test_eliminate_reuses_the_basis_of_an_ideal_in_its_order(monkeypatch):
    gens = ["x - y^2", "x*z - 1", "y*z - x"]
    fresh = eliminate(Ideal(PolyRing(["x", "y", "z"]), gens), ["x"])
    runs = _count_runs(monkeypatch)
    I = Ideal(PolyRing(["x", "y", "z"], Block(["x"])), gens)
    I.gb()
    assert eliminate(I, ["x"]).generators == fresh.generators
    assert runs == ["Block"]


def test_rev_lex_last_orders_compare_and_hash_by_value():
    # the packing cache keys on the order: equal orders share one packing
    from lmlab.poly import _packing

    a, b = groebner._RevLexLast(("v", "h")), groebner._RevLexLast(("v", "h"))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != groebner._RevLexLast(("h", "v")) and a != GrevLex()
    names = ("x", "v", "h")
    assert _packing(names, a, 16) is _packing(names, b, 16)


# -- .ideal serialization


def test_ideal_file_roundtrip():
    nf = normal_form(5, 1)
    U, _ = build_U_ideals(nf)
    text = write_ideal_text(U)
    back = read_ideal_text(text)
    assert back.ring == U.ring
    assert set(str(g) for g in back.generators) == set(str(g) for g in U.generators)
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
    basis = small.gb()
    for i, g in enumerate(basis):
        assert g.lc() == 1
        for j, h in enumerate(basis):
            if i == j:
                continue
            # no head divides another head, tails fully reduced
            for exp in g.numerators():
                assert not all(a >= b for a, b in zip(exp, h.lm()))


def test_timeout_raises_and_is_typed():
    nf = normal_form(7, 3)
    _, small = build_U_ideals(nf)
    with pytest.raises(GBTimeout), deadline(1e-9):
        buchberger(small)
    # an inner block with a later deadline does not extend the outer one
    with pytest.raises(GBTimeout), deadline(1e-9), deadline(60):
        buchberger(small)


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


def test_seed_reduction_reads_the_deadline():
    # y and x have coprime leading terms, so their one pair is pruned, and
    # the seed x + y reduces to zero: the run forms no S-polynomial, and only
    # the reductions of its seeds can read the clock
    R = PolyRing(["x", "y"])
    I = Ideal(R, ["x", "y", "x + y"])
    run = groebner.BuchbergerRun(I)
    assert run.complete() == (R.var("y"), R.var("x"))
    assert len(run.entries) == 2
    with pytest.raises(GBTimeout), deadline(1e-9):
        time.sleep(0.001)
        buchberger(I)


def _spy_nf(monkeypatch):
    """The enclosing budget and the `cofactors` flag of every `_Engine.nf` call."""
    calls = []
    real = groebner._Engine.nf

    def spy(self, terms, reducers, cofactors=False):
        calls.append((groebner._until and groebner._until[1], cofactors))
        return real(self, terms, reducers, cofactors)

    monkeypatch.setattr(groebner._Engine, "nf", spy)
    return calls


def test_budget_reaches_every_reduction(monkeypatch):
    # the generator check of Ideal.gb and the exact divisions of quotient
    # reduce under the enclosing deadline.  Inside memo() a second ideal of
    # the same generators finds its basis made, so every reduction of its
    # gb() is the check's
    R = PolyRing(["x", "y"])
    gens = ["x^2 - y", "x*y - 1"]
    with memo():
        Ideal(R, gens).gb()
        checks = _spy_nf(monkeypatch)
        with deadline(60):
            Ideal(R, gens).gb()
        assert checks == [(60, False), (60, False)]
        # and a spent budget stops the check itself
        with pytest.raises(GBTimeout), deadline(1e-9):
            time.sleep(0.001)
            Ideal(R, gens).gb()
    monkeypatch.undo()

    real = groebner._reduce
    budgets = []

    def spy(p, basis, divisors):
        budgets.append(groebner._until[1])
        return real(p, basis, divisors)

    monkeypatch.setattr(groebner, "_reduce", spy)
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
    with memo():
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
    with memo():
        Ideal(_CACHE_RING, _CACHE_GENS).gb()
        # the basis is made: every reduction from here on is a check's
        checked = _spy_nf(monkeypatch)
        for _ in range(2):
            Ideal(_CACHE_RING, _CACHE_GENS).gb()
    assert len(runs) == 1
    # each ideal reduces each of its generators, without cofactors
    assert checked == [(None, False)] * (2 * len(_CACHE_GENS))


def test_generator_check_reduces_each_distinct_primitive_form_once(monkeypatch):
    R = _CACHE_RING
    gens = [parse_poly(g, R) for g in _CACHE_GENS]
    variant = [gens[0], gens[1] * Fraction(-1, 2), gens[2], gens[0] * 3, gens[1], gens[0]]
    with memo():
        Ideal(R, gens).gb()
        checked = _spy_nf(monkeypatch)
        assert Ideal(R, variant).gb() == Ideal(R, gens).gb()
    assert len(checked) == 2 * len(gens)


@pytest.mark.parametrize("copies", ["once", "twice", "scaled", "twice, once scaled"])
def test_generator_check_catches_a_lost_basis_entry(monkeypatch, copies):
    # x^2 - y and y^3 - z have coprime leading terms, so they are their own
    # reduced basis; a basis that loses x^2 - y leaves it unreduced, however
    # often and however scaled it appears among the generators
    R = PolyRing(["x", "y", "z"])
    lost, kept = parse_poly("x^2 - y", R), parse_poly("y^3 - z", R)
    gens = {
        "once": [kept, lost],
        "twice": [lost, kept, lost],
        "scaled": [kept, lost * Fraction(-3, 2)],
        "twice, once scaled": [lost * 2, kept, lost],
    }[copies]
    assert set(Ideal(R, gens).gb()) == {lost, kept}
    real = groebner.buchberger

    def lossy(ideal, order=None):
        basis, partial = real(ideal, order)
        return tuple(b for b in basis if b != lost), partial

    monkeypatch.setattr(groebner, "buchberger", lossy)
    with pytest.raises(PolyError, match="generator fails to reduce"):
        Ideal(R, gens).gb()


def test_basis_cache_is_off_outside_the_block(monkeypatch):
    runs = _count_runs(monkeypatch)
    I = Ideal(_CACHE_RING, _CACHE_GENS)
    buchberger(I)
    buchberger(I)
    with memo():
        buchberger(I)
    buchberger(I)
    assert len(runs) == 4


def test_basis_cache_stores_nothing_after_a_timeout(monkeypatch):
    runs = _count_runs(monkeypatch)
    _, small = build_U_ideals(normal_form(5, 1))
    with memo():
        with pytest.raises(GBTimeout), deadline(1e-9):
            buchberger(small)
        basis, partial = buchberger(small)
        assert buchberger(small) == (basis, partial)
    assert len(runs) == 2
    assert not partial
    assert basis == buchberger(small)[0]


def test_basis_cache_block_restores_the_prior_state_on_error(monkeypatch):
    runs = _count_runs(monkeypatch)
    I = Ideal(_CACHE_RING, _CACHE_GENS)
    with pytest.raises(RuntimeError):
        with memo():
            buchberger(I)
            raise RuntimeError("check crashed")
    buchberger(I)
    assert len(runs) == 2
    with memo():
        buchberger(I)
        with pytest.raises(RuntimeError):
            with memo():
                buchberger(I)
                raise RuntimeError("check crashed")
        # the outer block's basis is still there
        buchberger(I)
    assert len(runs) == 4


def test_ideal_file_rational_coefficients_roundtrip():
    nf = normal_form(5, 1)
    from lmlab.blowup import build_M_chart

    mc = build_M_chart(nf, 3, 1)
    text = write_ideal_text(mc.reduced)
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


# lines are numbered as they stand in the file, blank lines included; a
# header, ring or order error is at the 0-based column where the bad part
# starts, and a `gen` error at its column in the polynomial
_H = "# lmlab-ideal v1\n"
_MISNUMBERED_IDEALS = {
    "empty": ("", "line 1: missing `# lmlab-ideal v1` header", 0),
    "no-header": ("\nnot an ideal file\n", "line 2: missing `# lmlab-ideal v1` header", 0),
    "truncated": (_H + "\nring QQ [x]\n", "line 4: truncated ideal file", 0),
    "ring": (_H + "\nring QQ x\norder lex\n", "line 3: malformed ring line: 'ring QQ x'", 0),
    "ring-variables": (_H + "ring QQ [x, x]\n\norder lex\n", "line 2: duplicate", 0),
    "order-line": (_H + "ring QQ [x]\n\nlex\n", "line 4: malformed order line: 'lex'", 0),
    "order-token": (_H + "ring QQ [x, y]\norder lexx\n", "line 3: unknown order token: 'lexx'", 6),
    "block": (
        _H + "ring QQ [x]\n\norder  block [z] lex lex\n",
        "line 4: malformed block order: 'block [z] lex lex'",
        7,
    ),
    "gen-line": (_H + "ring QQ [x]\norder lex\n\nfoo x\n", "line 5: expected `gen` line", 0),
    "gen": (_H + "\nring QQ [x, y]\n\norder lex\ngen x ** y\n", "line 6, column 4: expected", 3),
}


@pytest.mark.parametrize("case", sorted(_MISNUMBERED_IDEALS))
def test_ideal_file_errors_name_the_physical_line(case):
    text, message, column = _MISNUMBERED_IDEALS[case]
    with pytest.raises(ParseError) as err:
        read_ideal_text(text)
    assert str(err.value).startswith(message), str(err.value)
    assert str(err.value).endswith("(at position %d)" % column)
    assert err.value.position == column


def test_certificates_build_their_cofactors_when_read():
    R = PolyRing(["x", "y", "pi"])
    I = Ideal(R, ["x^2 - pi", "2*x*y + 1", "y^3 - 3*pi"])
    basis = list(I.gb())
    rng = random.Random(11)
    for _ in range(8):
        p = R.poly(
            {
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(5)
            }
        )
        for q in (p, p * basis[0] - 3 * p * basis[-1]):
            member, cert = ideal_member(q, I)
            assert member == (q != p) == cert.is_member
            certs = [cert, reduce_poly(q, basis)[1], reduce_poly(q, basis[::-1] + [R.zero()])[1]]
            for cert in certs:
                # the packed cofactors are materialized once, on first read
                assert cert._cofactors is None
                assert cert.verify(q)
                first = cert.cofactors
                assert cert.cofactors is first and len(first) == len(cert.basis)
    # a certificate built with explicit cofactors, as a reference
    # implementation builds one, holds them as given
    x, y = R.var("x"), R.var("y")
    p = x**2 * y
    cert = groebner.MembershipCertificate((x**2 - R.var("pi"), x), (y, R.zero()), R.var("pi") * y)
    assert cert.cofactors == (y, R.zero())
    assert cert.verify(p) and not cert.is_member
    assert not cert.verify(p + 1)


# ------------------------------------------- substitution before the nzd test


def _solved(gens, names, keep):
    R = PolyRing(names)
    ideal = Ideal(R, gens)
    small = groebner._solve_linear(ideal, (keep,))
    want = ideal_equal(quotient(ideal, R.var(keep)), ideal)
    assert groebner.is_nonzerodivisor(ideal, R.var(keep)) == want
    return small, want


def test_the_tested_variable_is_never_substituted():
    # x solves x - y^2 and x + y*z, but x is the variable under test
    for gens in (["x - y^2"], ["x + y*z"]):
        small, nzd = _solved(gens, ["x", "y", "z"], "x")
        assert small.ring.variables == ("x", "y", "z") and nzd
    # y = -x^2 solves the second generator; x, the one under test, stays
    small, nzd = _solved(["x*z", "y + x^2"], ["x", "y", "z"], "x")
    assert small.ring.variables == ("x", "z")
    assert [str(g) for g in small.generators] == ["x*z"] and not nzd


def test_a_variable_in_a_nonlinear_term_is_not_substituted():
    # x occurs in x and in x*y, z only squared: nothing is solved
    small, nzd = _solved(["x + x*y + z^2"], ["x", "y", "z"], "z")
    assert small.ring.variables == ("x", "y", "z") and nzd
    small, nzd = _solved(["x + x*y + z^2", "y*z"], ["x", "y", "z"], "z")
    assert small.ring.variables == ("x", "y", "z") and not nzd


def test_linear_generators_stay():
    # a pin such as y - 1 keeps its variable, and the ring of the ideal
    ideal = Ideal(PolyRing(["x", "y", "z"]), ["y - 1", "x - z"])
    assert groebner._solve_linear(ideal, ("z",)) is ideal
    # unless linear generators are asked for: y - 1 solves y, and x - z
    # solves x, which leaves the ring of z alone
    small = groebner._solve_linear(ideal, ("z",), linear=True)
    assert small.ring.variables == ("z",) and small.generators == ()


def test_only_variables_outside_keep_are_solved():
    # x + y^2 and y - z^2 could solve x and y; keeping y leaves y - z^2
    # for y, and the substituted first generator is y^2 - ..., now in y
    R = PolyRing(["x", "y", "z"])
    ideal = Ideal(R, ["x + y^2", "y - z^2"])
    small = groebner._solve_linear(ideal, ("y", "z"), linear=True)
    assert small.ring.variables == ("y", "z")
    assert [str(g) for g in small.generators] == ["-z^2 + y"]
    small = groebner._solve_linear(ideal, ("z",), linear=True)
    assert small.ring.variables == ("z",) and small.generators == ()


def test_first_unmatched_compares_primitive_forms_both_ways():
    from lmlab.groebner import first_unmatched

    R = PolyRing(["x", "y"])
    p, q, r = (parse_poly(t, R) for t in ("2*x - 4*y", "x^2 - y", "y - 1"))
    # scaling, order, repetition and zeros do not matter
    assert first_unmatched([p, q, R.zero()], [-3 * q, Fraction(1, 2) * p, p]) is None
    # the first of the first list that the second lacks, else the reverse
    assert first_unmatched([p, r, q], [q, p]) is r
    assert first_unmatched([p], [q, p, r]) is q
    assert first_unmatched([], []) is None


def test_substitution_follows_a_chain():
    # x = y^2 leaves y - z, which is linear and stays
    small, nzd = _solved(["x - y^2", "y - z"], ["x", "y", "z"], "z")
    assert small.ring.variables == ("y", "z")
    assert [str(g) for g in small.generators] == ["y - z"] and nzd
    # x = y^2 turns the first generator into y + z^2, which then solves y
    gens = ["y + x*y*z - y^3*z + z^2", "x - y^2"]
    small, nzd = _solved(gens, ["x", "y", "z"], "z")
    assert small.ring.variables == ("z",) and small.generators == () and nzd
    small, nzd = _solved(gens + ["z*(z - 3)"], ["x", "y", "z"], "z")
    assert small.ring.variables == ("z",) and not nzd


def test_a_substitution_can_give_the_unit_ideal():
    # x = y^2 sends the second generator to -1: R/I is the zero ring, on
    # which every element is a nonzerodivisor
    small, nzd = _solved(["x - y^2", "x - y^2 - 1"], ["x", "y", "z"], "z")
    assert small.ring.variables == ("y", "z")
    assert [str(g) for g in small.generators] == ["-1"] and nzd


def test_first_nonmember_is_the_first_miss_of_ideal_member():
    R = PolyRing(["x", "y", "z"])
    I = Ideal(R, ["x^2 - y*z", "x*y - z^2"])
    members = [parse_poly(f, R) for f in ("x^2 - y*z", "x^3 - x*y*z", "0")]
    assert first_nonmember(members, I) is None
    assert first_nonmember([], I) is None

    misses = [parse_poly(f, R) for f in ("x + z", "y^2")]
    taken = []

    def lazily():
        for p in members + misses:
            taken.append(p)
            yield p
        raise AssertionError("consumed past the first non-member")

    cert = first_nonmember(lazily(), I)
    assert taken == members + misses[:1]
    assert cert.residue == ideal_member(misses[0], I)[1].residue
    assert not cert.is_member and cert.verify(misses[0])


# quotient(I, z) of the ideal I = (2y - 3wx^2z^2 - 2xz + wx, 3yz + 2x + 1,
# 2xy - 3xz - z, wz - 7z) in Q[w, x, y, z]
_LEX_STALL_GENS = [
    "w - 7",
    "y*z + 2/3*x + 1/3",
    "x*y - 3/2*x*z - 1/2*z",
    "x*z^2 + 1/3*z^2 + 4/9*x^2 + 2/9*x",
    "3/7*y^2 + 3/4*z^3 - 3/14*z^2 + x^2*z + 1/2*x*z + 3/4*z + 3/7*x + 3/14",
    "y^3 + 5/6*y - 7/12*z^2 + 3/2*x*z + 2/3*z - 7/9*x^2 - 7/18*x - 7/12",
    "3/14*y - 1/4*z^2 - 3/14*x*z + x^3 + 1/6*x^2 + 7/12*x",
    "-4/63*y + z^4 - 2/7*z^3 + 7/9*z^2 - 8/63*x*z + 2/21*z - 8/27*x^2 + 8/27*x",
]


def test_block_order_with_a_lex_block_finishes_its_basis():
    # selecting pairs by sugar under this order walked down a chain of
    # remainders in x alone with coefficients of over a million bits; the
    # normal strategy finishes in milliseconds
    R = PolyRing(["w", "x", "y", "z"], Block(["y", "z"], Lex(), GrevLex()))
    ideal = Ideal(R, _LEX_STALL_GENS)
    with deadline(5):
        basis = ideal.gb()
    assert sorted(g.total_degree() for g in basis) == [1, 8, 8, 9]
    assert str(basis[0]) == "w - 7"
