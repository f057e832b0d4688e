"""Command-line front end: build charts, run checks, emit canonical files."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .groebner import Ideal, buchberger, deadline, read_ideal_text, write_ideal_text
from .lattice import LatticeError, format_matrix, normal_form, q1_form, q2_form
from .poly import ParseError, PolyError, PolyRing
from .report import PASS
from .suite import (
    CHECK_ALIASES,
    CHECK_NAMES,
    ConfigError,
    SuiteConfig,
    dump_payload,
    exit_code,
    report_payload,
    run_instance,
    run_suite,
    timeout_value,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 64


def _parse_grid(text):
    grid = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError("grid entries look like d:delta, got %r" % item)
        d, delta = item.split(":", 1)
        try:
            grid.append((int(d), int(delta)))
        except ValueError:
            raise ConfigError("grid entries need integers d:delta, got %r" % item) from None
    return grid


def _parse_checks(text):
    checks = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item in CHECK_ALIASES:
            checks.extend(CHECK_ALIASES[item])
        elif item in CHECK_NAMES:
            checks.append(item)
        else:
            raise ConfigError("unknown check %r" % item)
    return list(dict.fromkeys(checks))


def _parse_pivot(text):
    if text is None or text == "all":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--pivot looks like s,t or all, got %r" % text)
    try:
        return [(int(parts[0]), int(parts[1]))]
    except ValueError:
        raise ConfigError("--pivot needs integers s,t, got %r" % text) from None


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_lattice(args):
    nf = normal_form(args.d, args.delta)
    ring = PolyRing(["pi"] + ["x_%d" % i for i in range(1, nf.d + 1)])
    q1, q2 = q1_form(nf, ring), q2_form(nf, ring)
    print("case (%d)  d=%d delta=%d  parity %s" % (nf.case_tag, nf.d, nf.delta, nf.parity_case))
    print("Delta  = {%s}" % ", ".join(str(i) for i in nf.Delta))
    print("DeltaC = {%s}" % ", ".join(str(i) for i in nf.DeltaC))
    print("S1 =")
    print(format_matrix(nf.S1))
    print("S2 =")
    print(format_matrix(nf.S2))
    print("Q1 = %s" % q1)
    print("Q2 = %s" % q2)
    return EXIT_OK


_OBJECTS = ("u-naive", "u", "dt", "u-naive-small")


def cmd_build(args):
    from .localmodel import build_DT_ideal, build_naive_chart_ideal, build_U_ideals

    nf = normal_form(args.d, args.delta)
    if args.object == "u-naive":
        chart = build_naive_chart_ideal(nf)
    elif args.object == "u":
        chart = build_U_ideals(nf)[0]
    elif args.object == "u-naive-small":
        chart = build_U_ideals(nf)[1]
    else:
        chart = build_DT_ideal(nf)
    _write(args.out, write_ideal_text(chart))
    return EXIT_OK


def cmd_gb(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        ideal = read_ideal_text(fh.read())
    with deadline(args.timeout_s):
        basis, _ = buchberger(ideal)
    _write(args.out, write_ideal_text(Ideal(ideal.ring, list(basis))))
    return EXIT_OK


def cmd_verify(args):
    checks = _parse_checks(args.check)
    pivots = _parse_pivot(args.pivot)
    config = SuiteConfig(
        grid=[(args.d, args.delta)],
        checks=checks,
        mode=args.mode,
        timeout_s=args.timeout_s,
        seed=args.seed,
    )
    config.validate()
    reports = run_instance(
        checks, args.d, args.delta, args.mode, args.timeout_s, args.seed, pivots
    )
    payload = report_payload(reports, config)
    for rep in payload["reports"]:
        print(
            "%-14s %-32s %s"
            % (rep["check"], json.dumps(rep["instance"], sort_keys=True), rep["status"])
        )
    if args.json:
        _write(args.json, dump_payload(payload))
    return exit_code(payload["summary"])


def cmd_suite(args):
    config = SuiteConfig(
        grid=_parse_grid(args.grid),
        checks=_parse_checks(args.checks),
        mode=args.mode,
        timeout_s=args.timeout_s,
        seed=args.seed,
        jobs=args.jobs,
    )
    code, payload = run_suite(config)
    summary = payload["summary"]
    for rep in payload["reports"]:
        if rep["status"] != PASS or args.verbose:
            print(
                "%-14s %-40s %s"
                % (
                    rep["check"],
                    json.dumps(rep["instance"], sort_keys=True),
                    rep["status"],
                )
            )
    print(
        "suite: %d pass, %d fail, %d uncertified, %d timeout"
        % (summary["pass"], summary["fail"], summary["uncertified"], summary["timeout"])
    )
    if args.json:
        _write(args.json, dump_payload(payload))
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lmlab",
        description="Exact chart-level verification for degenerating quadrics "
        "and their blow-ups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("--d", type=int, required=True, help="ambient dimension, d >= 5")
        p.add_argument("--delta", type=int, required=True, help="lattice invariant, 1 <= delta <= d/2")

    def add_timeout(p):
        # a string default goes through timeout_value only for the chosen command
        p.add_argument("--timeout-s", type=timeout_value,
                       default=os.environ.get("LMLAB_TIMEOUT_S") or None,
                       help="Groebner budget for each check (env LMLAB_TIMEOUT_S)")

    def add_common(p):
        add_timeout(p)
        p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("lattice", help="print the normal form data")
    add_instance(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("build", help="build a chart ideal and write a .ideal file")
    add_instance(p)
    p.add_argument("--object", choices=_OBJECTS, required=True)
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("gb", help="reduced Groebner basis of a .ideal file")
    p.add_argument("input", help="input .ideal path")
    p.add_argument("--out", default="-")
    add_timeout(p)
    p.set_defaults(fn=cmd_gb)

    p = sub.add_parser("verify", help="run one named check at one instance")
    p.add_argument("check", help="check name or alias (%s)" % ", ".join(
        list(CHECK_NAMES) + sorted(CHECK_ALIASES)))
    add_instance(p)
    p.add_argument("--mode", choices=("sound", "complete"), default="sound")
    p.add_argument("--pivot", default="all",
                   help="s,t or all; s,t is the row and column of Z for quadbu-smooth "
                   "and lattice positions for the resolution checks, so it takes "
                   "checks of one kind only")
    p.add_argument("--json", help="write the JSON report here")
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("suite", help="run checks over a grid")
    p.add_argument("--grid", required=True, help="comma list of d:delta")
    p.add_argument("--checks", default="all")
    p.add_argument("--mode", choices=("sound", "complete"), default="sound")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", help="write the JSON report here")
    p.add_argument("--verbose", action="store_true", help="print passing rows too")
    add_common(p)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract wants 64
        if exc.code in (0, None):
            raise
        code = EXIT_USAGE
    except (ConfigError, LatticeError, ParseError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = EXIT_USAGE
    except PolyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main()
