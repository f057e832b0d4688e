"""Source-level guards on the package layout."""

import ast
import subprocess
import sys
from pathlib import Path

import lmlab

PACKAGE = Path(lmlab.__file__).parent


def _functions_taking(parameter, skip=()):
    """`file:line` of every function in the package with that parameter."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if parameter in names:
                    offenders.append("%s:%d" % (path.name, node.lineno))
    return offenders


def test_no_timeout_parameter_outside_the_entry_points():
    # the Groebner budget is set once per check by groebner.deadline; only
    # the suite and the command line take it as a parameter
    assert _functions_taking("timeout_s", skip=("suite.py", "cli.py")) == []


def test_no_degree_bound_parameter():
    # every Buchberger run is complete: nothing bounds a run by degree
    assert _functions_taking("degree_bound") == []


def test_groebner_defines_no_resumable_run():
    # the engine defines no way to stop a run early (`partial`) or to resume
    # it (`advance`)
    tree = ast.parse((PACKAGE / "groebner.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            name = getattr(node, "id", None) or node.attr
        else:
            continue
        if name in ("advance", "partial"):
            offenders.append(node.lineno)
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


def test_claim_modules_raise_only_on_bad_input():
    # a failed proof is a `fail` of its claim; the only exception these
    # modules raise is LatticeError, for bad input
    offenders = []
    for name in ("blowup.py", "localmodel.py", "quadric.py", "verify.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id == "LatticeError"):
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
    # poly builds the packings of order words and the engine shares them;
    # every other module reads exponent tuples, through `numerators`, also
    # of the polynomials the engine returns
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("groebner.py", "poly.py"):
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
    assert all(type(e) is tuple and len(e) == 3 for f in polys for e in f.numerators())


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


def test_removed_chart_helpers_stay_gone():
    # the naive relations have one definition, _naive_relations; the numeric
    # copy, the Y = -X^t ring map and the constant-matrix and subset helpers
    # that the old constructions needed are gone.  A chart is its Ideal, with
    # no named wrapper, and Q1, Q2 are formed by q1_form and q2_form alone
    gone = {"_naive_relation_values", "_y_elimination_map", "int_matrix", "_subsets",
            "ChartPresentation", "quad_forms"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "name", None) or getattr(node, "id", None)
            name = name or getattr(node, "attr", None)
            if name in gone:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_only_naive_relations_reads_the_gram_matrices_in_localmodel():
    # S1 and S2 enter the za1 relations in one place, whatever ring they are
    # evaluated in
    tree = ast.parse((PACKAGE / "localmodel.py").read_text(encoding="utf-8"))
    readers = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr in ("S1", "S2"):
                    readers.add(func.name)
    module_level = [
        node.lineno
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr in ("S1", "S2")
    ]
    assert readers == {"_naive_relations"}
    assert module_level == []


def test_engine_has_one_order_path():
    # the engine compares monomials as order words, ints whose order is the
    # ring's; no tuple order key is kept beside them
    tree = ast.parse((PACKAGE / "groebner.py").read_text(encoding="utf-8"))
    engine = {"_Engine", "BuchbergerRun", "_interreduce", "_divisors", "_reduce"}
    found, offenders = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in engine:
            found.add(node.name)
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name in ("exp_key", "key_fn"):
                    offenders.append("%s:%d" % (node.name, sub.lineno))
    assert found == engine
    assert offenders == []

    from lmlab.groebner import _Engine

    assert not any(hasattr(_Engine, name) for name in ("key", "lead", "memo"))

    # one selection rule, the normal strategy, under every order: no
    # identifier names sugar, the run reads no word groups and keeps no flag
    # choosing a rule and no list of leading exponents beside its entries,
    # and words enter and leave the engine through `_Packing.convert` and
    # the `Polynomial` constructor, with no wrapper of their own
    offenders = []
    for node in ast.walk(tree):
        for field in ("id", "attr", "arg", "name"):
            name = getattr(node, field, None)
            if isinstance(name, str) and "sug" in name:
                offenders.append("%s:%d" % (name, node.lineno))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("_words", "_polynomial"):
            offenders.append("%s:%d" % (node.name, node.lineno))
        if isinstance(node, ast.ClassDef) and node.name == "BuchbergerRun":
            for sub in ast.walk(node):
                if getattr(sub, "attr", None) in ("word_groups", "_normal", "_exps"):
                    offenders.append("%s:%d" % (sub.attr, sub.lineno))
    assert offenders == []

    # polynomials add and compare the same words: no tuple order key, and no
    # exponent tuples added with `operator.add`, on their arithmetic path
    tree = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8"))
    arithmetic = {"Polynomial", "RingMap"}
    found, offenders = set(), []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in arithmetic:
            found.add(node.name)
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name in ("exp_key", "key_fn", "add"):
                    offenders.append("%s:%d" % (node.name, sub.lineno))
    assert found == arithmetic
    assert offenders == []

    from lmlab.poly import PolyRing

    assert not hasattr(PolyRing(["x"]), "exp_key")


def test_grevlex_bases_and_memberships_convert_no_term(monkeypatch):
    # on a grevlex ring the engine packs at the polynomials' own width, so
    # it takes their words as they are and returns its own
    from lmlab import poly
    from lmlab.groebner import Ideal, ideal_member
    from lmlab.poly import Lex, PolyRing, parse_poly

    R = PolyRing(["x", "y", "z"])
    gens = ["x^2 - y*z", "x*y - z^2", "y^3 - z"]
    p = parse_poly("x^3*y + z", R)
    calls = []
    for name in ("convert", "pack", "unpack", "exponents"):
        method = getattr(poly._Packing, name)

        def spy(self, *args, _method=method, _name=name):
            # a convert between equal layouts returns its input: no term moves
            if _name != "convert" or args[1].key != self.key:
                calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(poly._Packing, name, spy)
    I = Ideal(R, gens)
    I.gb()
    member, cert = ideal_member(p, I)
    assert not member and cert.verify(p)
    assert calls == []
    # under another order the engine converts
    Ideal(R.with_order(Lex()), gens).gb()
    assert "convert" in calls


def test_lists_of_rows_are_the_only_matrix_form():
    # a matrix is a list of rows everywhere; poly.minors is the one routine
    # for its minors, on polynomial and int entries alike
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and "matrix" in node.name.lower():
                offenders.append("%s:%d" % (path.name, node.lineno))
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and "minor" in node.name.lower()
                and path.name != "poly.py"
            ):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_every_public_function_has_a_caller():
    # a public module-level function or class stays only while the package
    # or the acceptance suite refers to it by name; `__all__` strings do not
    # count
    sources = sorted(PACKAGE.glob("*.py")) + [Path(__file__).with_name("test_acceptance.py")]
    public, used = {}, set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body if path.parent == PACKAGE else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                public[node.name] = "%s:%d" % (path.name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(loc for name, loc in public.items() if name not in used) == []


def test_every_parameter_of_a_public_function_is_read():
    # a public module-level function reads each of its parameters, in its
    # own body or in a function nested in it; an argument it ignores is one
    # its callers need not build
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name[0] == "_":
                continue
            args = func.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                node.id
                for stmt in func.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            offenders += ["%s:%s(%s)" % (path.name, func.name, p) for p in params if p not in read]
    assert offenders == []


def test_the_package_has_three_context_managers():
    # one Groebner budget (groebner.deadline), one instance memo
    # (groebner.memo) and one claim report (report.checking)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in ("__enter__", "__aenter__"):
                found.append("%s:%d" % (path.name, node.lineno))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if "contextmanager" in ast.unparse(dec):
                        found.append(node.name)
    assert sorted(found) == ["checking", "deadline", "memo"]


def test_every_module_level_import_is_used():
    # a name imported at module level is read somewhere in its module, or
    # listed in its `__all__`, unless the import statement carries
    # `# noqa: F401`
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(elt.value for elt in node.value.elts)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    offenders.append("%s:%d %s" % (path.name, node.lineno, name))
    assert offenders == []


def test_a_status_is_set_to_fail_directly_only_without_a_key():
    # a requirement is stated once, by `report.require` or `report.fail`;
    # a claim sets `FAIL` itself only where no details key states the
    # requirement: DT = U, the two dimension counts of flatness-dims, the
    # relative dimension of a smooth chart, and a cover's roll-up
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "report.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Attribute) and t.attr == "status"
                            for t in node.targets)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "FAIL"
                ):
                    found.append(func.name)
    assert sorted(found) == sorted([
        "_check_dt_equals_u", "_check_flatness_dims", "flatness_and_dimension",
        "smooth_over_model", "smooth_on_cover",
    ])


def test_localmodel_imports_no_elimination():
    # complete-mode za1 proves its contraction from a retraction and
    # memberships in Q[pi, Z], with no elimination basis over x_ring
    tree = ast.parse((PACKAGE / "localmodel.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported.isdisjoint({"eliminate", "Block"})


def test_no_function_cache_but_the_packings():
    # a result or a report that functools caches would survive from one
    # run_suite call, and one benchmark pass, to the next; the one such
    # cache is poly._packing, of structural packing objects
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.name == "poly.py" and (
                isinstance(stmt, ast.ImportFrom) and stmt.module == "functools"
                or isinstance(stmt, ast.Assign)
                and [ast.unparse(t) for t in stmt.targets] == ["_packing"]
            ):
                continue
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                name = name or getattr(node, "name", None)
                if name in ("cache", "lru_cache"):
                    offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_no_module_imports_dataclasses():
    # records are namedtuple subclasses or plain classes: `dataclasses`
    # loads `inspect`, and each decoration execs generated code
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_start_up_loads_no_heavy_module():
    # a fresh interpreter imports what the benchmark's set-up probe imports,
    # then the command line; against the modules a bare `python -I` holds,
    # neither loads dataclasses, inspect or a process pool, and only the
    # command line loads json
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "sys.path.insert(0, %r)\n"
        "from lmlab import blowup, lattice, localmodel, quadric, suite, verify\n"
        "probe = set(sys.modules) - bare\n"
        "import lmlab.cli\n"
        "print(sorted(probe))\n"
        "print(sorted(set(sys.modules) - bare - probe))\n"
    ) % str(PACKAGE.parent)
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    probe, cli = (set(ast.literal_eval(line)) for line in out.stdout.splitlines())
    assert "lmlab.suite" in probe and "lmlab.cli" in cli
    heavy = ("dataclasses", "inspect", "concurrent", "multiprocessing")
    assert sorted(m for m in probe | cli if m.split(".")[0] in heavy) == []
    assert sorted(m for m in probe if m.split(".")[0] == "json") == []
