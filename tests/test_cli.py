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


# chart-match and exceptional reject the pivot; affine-chart and
# quadbu-smooth report it as a failed chart
@pytest.mark.parametrize(
    "check,code",
    [("blowup", 64), ("chart-match", 64), ("exceptional", 64), ("affine-chart", 1), ("quadbu-smooth", 1)],
)
def test_verify_out_of_range_pivot(check, code):
    out = run_cli("verify", check, "--d", "6", "--delta", "2", "--pivot", "9,9")
    assert out.returncode == code
    if code == 64:
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
