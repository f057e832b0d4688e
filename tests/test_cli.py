"""Command-line interface and report determinism tests."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from lmlab.groebner import read_ideal_text, write_ideal_text
from lmlab.lattice import normal_form
from lmlab.localmodel import build_DT_ideal
from lmlab.suite import SuiteConfig, run_suite, strip_timings


def run_cli(*args, env=None):
    import os

    import lmlab

    full_env = dict(os.environ)
    # the child imports the same lmlab as this process, also when pytest put
    # src/ on sys.path itself
    src = os.path.dirname(os.path.dirname(lmlab.__file__))
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "lmlab.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_lattice_command():
    out = run_cli("lattice", "--d", "6", "--delta", "2")
    assert out.returncode == 0
    assert "case (1)" in out.stdout
    assert "Delta  = {3, 4}" in out.stdout
    assert "Q2 = x_3*x_4" in out.stdout


def test_build_dt_single_generator(tmp_path):
    path = tmp_path / "chart.ideal"
    out = run_cli("build", "--d", "5", "--delta", "1", "--object", "dt", "--out", str(path))
    assert out.returncode == 0
    ideal = read_ideal_text(path.read_text())
    assert len(ideal.generators) == 1


def test_export_import_roundtrip(tmp_path):
    nf = normal_form(5, 1)
    chart = build_DT_ideal(nf)
    text = write_ideal_text(chart.ideal)
    path = tmp_path / "dt.ideal"
    path.write_text(text)
    back = read_ideal_text(path.read_text())
    assert back.ring == chart.ideal.ring
    assert write_ideal_text(back) == text


def test_import_rejects_unknown_order(tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("# lmlab-ideal v1\nring QQ [x]\norder alphabetical\ngen x\n")
    out = run_cli("gb", str(path))
    assert out.returncode == 64
    assert "order" in out.stderr


def test_import_rejects_nested_block_order(tmp_path):
    path = tmp_path / "nested.ideal"
    path.write_text("# lmlab-ideal v1\nring QQ [x, y]\norder block [x] block lex\ngen x\n")
    out = run_cli("gb", str(path))
    assert out.returncode == 64
    assert "block order" in out.stderr
    assert "Traceback" not in out.stderr


# malformed input to `lmlab gb`: a file that cannot be read as text, or a
# ring, order or gen line that does not parse, exits 64 with one message
_BAD_IDEALS = {
    "directory": (None, "Is a directory"),
    "not-utf8": (b"# lmlab-ideal v1\nring QQ [x]\norder lex\ngen \xff\n", "utf-8"),
    "duplicate-variable": ("ring QQ [x, x]\norder lex\ngen x\n", "line 2: duplicate"),
    "invalid-variable": ("ring QQ [x, 1y]\norder lex\ngen x\n", "line 2: invalid variable"),
    "unknown-variable": (
        "ring QQ [x, y]\norder lex\ngen z + 1\n",
        "line 4, column 1: unknown variable 'z'",
    ),
    "zero-denominator": (
        "ring QQ [x, y]\norder lex\ngen 1/0 + x\n",
        "line 4, column 3: zero denominator",
    ),
    "block-of-a-non-variable": ("ring QQ [x, y]\norder block [z] lex lex\ngen x\n", "line 3"),
    "empty-block": ("ring QQ [x, y]\norder block [] lex lex\ngen x\n", "line 3"),
    "repeated-block": ("ring QQ [x, y]\norder block [x,x] lex lex\ngen x\n", "line 3"),
}


@pytest.mark.parametrize("case", sorted(_BAD_IDEALS))
def test_malformed_ideal_input_exits_64(tmp_path, capsys, case):
    from lmlab.cli import main

    text, message = _BAD_IDEALS[case]
    path = tmp_path / "in.ideal"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text("# lmlab-ideal v1\n" + text)
    with pytest.raises(SystemExit) as exc:
        main(["gb", str(path)])
    err = capsys.readouterr().err
    assert exc.value.code == 64
    assert err.startswith("error: ") and message in err, err


def test_gb_command(tmp_path):
    src = tmp_path / "in.ideal"
    src.write_text(
        "# lmlab-ideal v1\nring QQ [x, y]\norder lex\ngen x^2 - 1\ngen x*y - 1\n"
    )
    out = run_cli("gb", str(src))
    assert out.returncode == 0
    assert "gen x - y" in out.stdout
    assert "gen y^2 - 1" in out.stdout


def test_suite_rejects_small_d():
    out = run_cli("suite", "--grid", "4:1", "--checks", "all")
    assert out.returncode == 64
    assert "d >= 5" in out.stderr


def test_suite_rejects_bad_delta():
    out = run_cli("suite", "--grid", "6:4")
    assert out.returncode == 64


def test_suite_rejects_non_integer_grid():
    out = run_cli("suite", "--grid", "x:1")
    assert out.returncode == 64
    assert "x:1" in out.stderr
    assert "Traceback" not in out.stderr


def test_verify_rejects_non_integer_pivot():
    out = run_cli("verify", "za1", "--d", "5", "--delta", "1", "--pivot", "a,b")
    assert out.returncode == 64
    assert "a,b" in out.stderr
    assert "Traceback" not in out.stderr


# every pivot check rejects an out-of-range pivot as bad input; quadbu-smooth
# takes matrix indices, the resolution checks lattice positions
@pytest.mark.parametrize(
    "check,code",
    [("blowup", 64), ("chart-match", 64), ("exceptional", 64), ("affine-chart", 64), ("quadbu-smooth", 64)],
)
def test_verify_out_of_range_pivot(check, code):
    out = run_cli("verify", check, "--d", "6", "--delta", "2", "--pivot", "9,9")
    assert out.returncode == code
    if check == "quadbu-smooth":
        assert "pivot (9,9) out of range for 2x4" in out.stderr
    else:
        assert "pivot s=9 is not an N position" in out.stderr
    assert "Traceback" not in out.stderr


def test_verify_command_exit_zero(tmp_path):
    report = tmp_path / "rep.json"
    out = run_cli(
        "verify", "dt-equals-u", "--d", "5", "--delta", "1", "--json", str(report)
    )
    assert out.returncode == 0
    payload = json.loads(report.read_text())
    assert payload["summary"]["pass"] == 1
    assert payload["reports"][0]["check"] == "dt-equals-u"


def test_verify_alias_and_pivot(tmp_path):
    out = run_cli(
        "verify", "blowup-smooth", "--d", "6", "--delta", "2", "--pivot", "1,1"
    )
    assert out.returncode == 0
    assert "quadbu-smooth" in out.stdout


def test_verify_failing_check_exits_one():
    # middle pivot of (5,2): known honest failure of the relative Jacobian
    out = run_cli(
        "verify", "quadbu-smooth", "--d", "5", "--delta", "2", "--pivot", "1,2"
    )
    assert out.returncode == 1


def test_env_timeout_is_read():
    out = run_cli(
        "verify", "dt-equals-u", "--d", "5", "--delta", "1",
        env={"LMLAB_TIMEOUT_S": "900"},
    )
    assert out.returncode == 0
    out = run_cli(
        "verify", "dt-equals-u", "--d", "5", "--delta", "1",
        env={"LMLAB_TIMEOUT_S": "not-a-number"},
    )
    assert out.returncode == 64


_BUDGET_COMMANDS = {
    "build": ["build", "--d", "5", "--delta", "1", "--object", "dt"],
    "gb": ["gb", "{ideal}"],
    "verify": ["verify", "dt-equals-u", "--d", "5", "--delta", "1"],
    "suite": ["suite", "--grid", "5:1", "--checks", "dt-equals-u"],
}


# a budget is unset or a number > 0: NaN would compare false against every
# deadline, and zero or a negative budget would time out every check
@pytest.mark.parametrize("budget", ["nan", "-1", "0", "env nan"])
@pytest.mark.parametrize("command", sorted(_BUDGET_COMMANDS))
def test_invalid_budget_exits_64(tmp_path, command, budget):
    ideal = tmp_path / "in.ideal"
    ideal.write_text("# lmlab-ideal v1\nring QQ [x, y]\norder lex\ngen x^2 - 1\n")
    args = [a.format(ideal=ideal) for a in _BUDGET_COMMANDS[command]]
    if budget == "env nan":
        out = run_cli(*args, env={"LMLAB_TIMEOUT_S": "nan"})
    else:
        out = run_cli(*args, "--timeout-s", budget)
    assert out.returncode == 64, (out.stdout, out.stderr)
    assert "budget" in out.stderr
    assert "Traceback" not in out.stderr


def test_suite_json_determinism(tmp_path):
    config = SuiteConfig(grid=[(5, 1)], checks=["dt-equals-u", "annihilator"], seed=7)
    code1, payload1 = run_suite(config)
    code2, payload2 = run_suite(config)
    assert code1 == code2 == 0
    a = json.dumps(strip_timings(payload1), sort_keys=True)
    b = json.dumps(strip_timings(payload2), sort_keys=True)
    assert a == b


def test_suite_parallel_matches_serial():
    serial = SuiteConfig(grid=[(5, 1)], checks=["flatness-dims", "b-blowup"], jobs=1)
    parallel = SuiteConfig(grid=[(5, 1)], checks=["flatness-dims", "b-blowup"], jobs=2)
    _, p1 = run_suite(serial)
    _, p2 = run_suite(parallel)
    a, b = strip_timings(p1), strip_timings(p2)
    # the config block records the worker count; report content must agree
    assert a["reports"] == b["reports"]
    assert a["summary"] == b["summary"]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched check reaches the workers only when they are forked",
)
def test_suite_reports_a_crashed_worker(monkeypatch):
    import lmlab.suite as suite

    real = suite._CHECKS["b-blowup"]

    def crash(nf, *args):
        if (nf.d, nf.delta) == (5, 2):
            os._exit(3)
        return real(nf, *args)

    monkeypatch.setitem(suite._CHECKS, "b-blowup", crash)
    config = SuiteConfig(grid=[(5, 1), (5, 2)], checks=["dt-equals-u", "b-blowup"], jobs=2)
    code, payload = run_suite(config)
    assert code == 1
    crashed = [r for r in payload["reports"] if r["instance"] == {"d": 5, "delta": 2}]
    assert sorted(r["check"] for r in crashed) == ["b-blowup", "dt-equals-u"]
    for r in crashed:
        assert r["status"] == "fail"
        assert "terminated abruptly" in r["details"]["error"]


def test_suite_submits_largest_instances_first(monkeypatch):
    import concurrent.futures

    import lmlab.suite as suite

    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, checks, d, delta, *rest):
            submitted.append((d, delta))
            fut = concurrent.futures.Future()
            fut.set_result(fn(checks, d, delta, *rest))
            return fut

    monkeypatch.setattr(suite, "ProcessPoolExecutor", InlinePool)
    grid = [(5, 1), (6, 2), (5, 2), (6, 3)]
    code, payload = run_suite(SuiteConfig(grid=grid, checks=["dt-equals-u"], jobs=2))
    assert code == 0
    assert submitted == [(6, 3), (6, 2), (5, 2), (5, 1)]
    # the configured grid order is what the report records
    assert payload["config"]["grid"] == ["5:1", "6:2", "5:2", "6:3"]


def test_every_check_reports_a_timeout_at_its_own_instance(monkeypatch):
    from lmlab import groebner
    from lmlab.suite import CHECK_NAMES, run_instance

    def out_of_time(self):
        raise groebner.GBTimeout(60)

    monkeypatch.setattr(groebner.BuchbergerRun, "complete", out_of_time)
    reports = run_instance(CHECK_NAMES, 5, 1, timeout_s=60)
    assert len(reports) == 31
    for rep in reports:
        assert rep.status == "timeout"
        assert "buchberger exceeded" in rep.details["timeout"]
        assert "error" not in rep.details
        assert (rep.instance["d"], rep.instance["delta"]) == (5, 1)
    # each report keeps the keys that name its claim, and no two coincide
    own_keys = sorted(
        (rep.check, tuple(sorted(set(rep.instance) - {"d", "delta"}))) for rep in reports
    )
    assert own_keys == sorted(
        [("za1", ("mode",)), ("dt-equals-u", ()), ("annihilator", ())]
        + [("linked-fiber", ("scheme",)), ("b-blowup", ("scheme",))]
        + [("linked-fiber", ("pin_x", "pin_y"))] * 4
        + [("quadbu-smooth", ("pivot",)), ("affine-chart", ("pivot",))] * 4
        + [("chart-match", ("pivot",)), ("chart-match", ("part", "pivot"))] * 4
        + [("exceptional", ("pivot",))] * 4
        + [("flatness-dims", ("chart",))] * 2
    )
    assert len({(r.check, json.dumps(r.instance, sort_keys=True)) for r in reports}) == 31


def test_budget_covers_every_operation_of_a_check(monkeypatch):
    # building the naive chart spends the whole budget before za1's first
    # Groebner operation; a budget per operation would let each one pass
    import time

    from lmlab import groebner, localmodel
    from lmlab.suite import run_check

    real = localmodel.build_naive_chart_ideal

    def slow(nf):
        time.sleep(0.1)
        return real(nf)

    monkeypatch.setattr(localmodel, "build_naive_chart_ideal", slow)
    (rep,) = run_check("za1", 5, 1, timeout_s=0.05)
    assert rep.status == "timeout"
    assert rep.details["timeout"] == str(groebner.GBTimeout(0.05))
    assert groebner._until is None
