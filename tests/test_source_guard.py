"""Source-level guards on the package layout."""

import ast
from pathlib import Path

import lmlab

PACKAGE = Path(lmlab.__file__).parent


def test_no_timeout_parameter_outside_the_entry_points():
    # the Groebner budget is set once per check by groebner.deadline; only
    # the suite and the command line take it as a parameter
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("suite.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "timeout_s" in names:
                    offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def _is_d(node):
    return (isinstance(node, ast.Name) and node.id == "d") or (
        isinstance(node, ast.Attribute) and node.attr == "d"
    )


def test_inclusion_flip_is_computed_only_in_lattice():
    # `d + 1 - x` (or `nf.d + 1 - x`) is the inclusion of the lattice into
    # its dual; everything else reads it from LatticeNormalForm.incl_flip
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Add)
                and _is_d(node.left.left)
                and isinstance(node.left.right, ast.Constant)
                and node.left.right.value == 1
            ):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_claim_modules_test_membership_through_ideal_member():
    # no claim reduces against an explicit or partial basis: membership is
    # decided against the complete basis of an Ideal
    offenders = []
    for name in ("blowup.py", "localmodel.py", "quadric.py", "verify.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name in ("reduce_poly", "BuchbergerRun") for alias in node.names
            ):
                offenders.append("%s:%d" % (name, node.lineno))
    assert offenders == []


def test_groebner_does_not_import_fractions():
    # the engine reads Polynomial's integer numerators and denominator
    tree = ast.parse((PACKAGE / "groebner.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            offenders.append(node.lineno)
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            offenders.append(node.lineno)
    assert offenders == []


def test_private_polynomial_state_stays_in_poly():
    from lmlab.poly import Polynomial

    private = {name for name in Polynomial.__slots__ if name.startswith("_")}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_packed_monomials_stay_inside_groebner():
    # the engine packs exponent vectors at its edges; every other module, and
    # every polynomial it returns, sees exponent tuples
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "groebner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("_packing", "_Packing"):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []

    from lmlab.groebner import Ideal, ideal_member, reduce_poly
    from lmlab.poly import PolyRing, parse_poly

    R = PolyRing(["x", "y", "z"])
    I = Ideal(R, ["x^2 - y*z", "x*y - z^2", "y^3 - z"])
    p = parse_poly("x^3*y + z", R)
    _, cert = ideal_member(p, I)
    polys = list(I.gb()) + [cert.residue] + list(cert.cofactors)
    polys += list(reduce_poly(p, list(I.gb()))[1].cofactors)
    assert all(type(e) is tuple and len(e) == 3 for f in polys for e in f.terms)


def test_tuple_monomial_helpers_are_gone():
    gone = {"_mono_mul", "_mono_lcm", "_mono_divides", "_mask"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "name", None) or getattr(node, "id", None)
            name = name or getattr(node, "attr", None)
            if name in gone:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []
