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
