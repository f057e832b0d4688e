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
from lmlab.suite import ConfigError, SuiteConfig, run_suite, strip_timings


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
    text = write_ideal_text(chart)
    path = tmp_path / "dt.ideal"
    path.write_text(text)
    back = read_ideal_text(path.read_text())
    assert back.ring == chart.ring
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
    "gen-after-blank-lines": (
        "\nring QQ [x, y]\n\norder lex\ngen z\n",
        "line 6, column 1: unknown variable 'z'",
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


# a run that checks nothing must not report success
@pytest.mark.parametrize(
    "args",
    [("suite", "--grid", "5:1", "--checks", ","), ("verify", ",", "--d", "5", "--delta", "1")],
)
def test_empty_check_list_exits_64(args):
    out = run_cli(*args)
    assert out.returncode == 64, (out.stdout, out.stderr)
    assert "empty check list" in out.stderr
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


# a pivot is the row and column of Z for quadbu-smooth and lattice positions
# for the resolution checks: a pivot given to checks that take none, or to
# checks of both kinds, exits 64 before any check runs
@pytest.mark.parametrize(
    "check,d,delta,pivot,message",
    [
        ("all", 6, 2, "1,1", "applies only to quadbu-smooth, affine-chart"),
        ("all", 6, 2, "3,1", "applies only to quadbu-smooth, affine-chart"),
        ("za1", 5, 1, "9,9", "applies only to quadbu-smooth, affine-chart"),
        ("quadbu-smooth,affine-chart", 6, 2, "1,1", "run them apart"),
    ],
)
def test_verify_rejects_a_pivot_of_the_wrong_kind(check, d, delta, pivot, message):
    out = run_cli("verify", check, "--d", str(d), "--delta", str(delta), "--pivot", pivot)
    assert out.returncode == 64, (out.stdout, out.stderr)
    assert message in out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_verify_resolution_checks_take_a_lattice_pivot():
    out = run_cli("verify", "blowup", "--d", "6", "--delta", "2", "--pivot", "3,1")
    assert out.returncode == 0, (out.stdout, out.stderr)
    rows = out.stdout.splitlines()
    assert [row.split()[0] for row in rows] == [
        "affine-chart", "chart-match", "chart-match", "exceptional"
    ]
    assert all('"pivot": [3, 1]' in row and row.endswith("pass") for row in rows)


def test_a_repeated_instance_exits_64():
    out = run_cli("suite", "--grid", "5:1,5:1", "--checks", "dt-equals-u")
    assert out.returncode == 64, (out.stdout, out.stderr)
    assert "5:1 repeated" in out.stderr
    assert out.stdout == ""
    with pytest.raises(ConfigError, match="5:1 repeated"):
        run_suite(SuiteConfig(grid=[(5, 1), (6, 1), (5, 1)], checks=["dt-equals-u"]))


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


@pytest.mark.parametrize("args", [
    ["lattice", "--d", "5", "--delta", "1"],
    ["build", "--d", "5", "--delta", "1", "--object", "dt"],
])
def test_commands_without_a_budget_ignore_the_budget_variable(args):
    # only the chosen command converts LMLAB_TIMEOUT_S, and these take no budget
    out = run_cli(*args, env={"LMLAB_TIMEOUT_S": "nan"})
    assert out.returncode == 0, out.stderr


def test_suite_json_determinism(tmp_path):
    config = SuiteConfig(grid=[(5, 1)], checks=["dt-equals-u", "annihilator"], seed=7)
    code1, payload1 = run_suite(config)
    code2, payload2 = run_suite(config)
    assert code1 == code2 == 0
    a = json.dumps(strip_timings(payload1), sort_keys=True)
    b = json.dumps(strip_timings(payload2), sort_keys=True)
    assert a == b


def test_suite_parallel_matches_serial():
    # each forked worker keeps its own first pass of the instance-free claims
    checks = ["flatness-dims", "b-blowup", "linked-fiber"]
    serial = SuiteConfig(grid=[(5, 1), (5, 2)], checks=checks, jobs=1)
    parallel = SuiteConfig(grid=[(5, 1), (5, 2)], checks=checks, jobs=2)
    _, p1 = run_suite(serial)
    _, p2 = run_suite(parallel)
    a, b = strip_timings(p1), strip_timings(p2)
    # the config block records the worker count; report content must agree
    assert a["reports"] == b["reports"]
    assert a["summary"] == b["summary"]


def test_spawned_workers_match_serial(monkeypatch):
    # a spawned worker starts without the parent's store of instance-free
    # claims and opens its own
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor

    def spawning(max_workers):
        return real(max_workers=max_workers, mp_context=multiprocessing.get_context("spawn"))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning)
    checks = ["linked-fiber", "b-blowup"]
    _, serial = run_suite(SuiteConfig(grid=[(5, 1), (5, 2)], checks=checks))
    _, spawned = run_suite(SuiteConfig(grid=[(5, 1), (5, 2)], checks=checks, jobs=2))
    a, b = strip_timings(serial), strip_timings(spawned)
    assert a["reports"] == b["reports"]
    assert a["summary"] == b["summary"] == {"pass": 14, "fail": 0, "uncertified": 0, "timeout": 0}


def test_a_worker_opens_a_missing_store_and_keeps_an_open_one(monkeypatch):
    import lmlab.suite as suite

    seen = []

    def run_instance(*task):
        seen.append((task, suite._kept))
        return ["report"]

    monkeypatch.setattr(suite, "run_instance", run_instance)
    monkeypatch.setattr(suite, "_kept", None)
    assert suite._run_in_worker(["b-blowup"], 5, 1) == ["report"]
    assert seen == [((["b-blowup"], 5, 1), {})]
    store = {"claim": "its first pass"}
    monkeypatch.setattr(suite, "_kept", store)
    suite._run_in_worker(["b-blowup"], 5, 2)
    assert seen[1][1] is store and store == {"claim": "its first pass"}


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


def test_cli_start_up_loads_no_process_pool():
    # the pool is imported only by a suite run with more than one job
    import lmlab

    src = os.path.dirname(os.path.dirname(lmlab.__file__))
    code = (
        "import sys; sys.path.insert(0, %r); import lmlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))" % src
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_suite_submits_largest_instances_first(monkeypatch):
    import concurrent.futures

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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    grid = [(5, 1), (6, 2), (5, 2), (6, 3)]
    code, payload = run_suite(SuiteConfig(grid=grid, checks=["dt-equals-u"], jobs=2))
    assert code == 0
    assert submitted == [(6, 3), (6, 2), (5, 2), (5, 1)]
    # the configured grid order is what the report records
    assert payload["config"]["grid"] == ["5:1", "6:2", "5:2", "6:3"]


def test_suite_starts_no_more_workers_than_instances(monkeypatch):
    import concurrent.futures

    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    run_suite(SuiteConfig(grid=[(5, 1)], checks=["dt-equals-u"], jobs=8))
    run_suite(SuiteConfig(grid=[(5, 1), (5, 2)], checks=["dt-equals-u"], jobs=8))
    run_suite(SuiteConfig(grid=[(5, 1), (5, 2), (6, 1)], checks=["dt-equals-u"], jobs=2))
    assert workers == [1, 2, 2]


def test_every_check_reports_a_timeout_at_its_own_instance(monkeypatch):
    from lmlab import groebner
    from lmlab.suite import CHECK_NAMES, run_instance

    def out_of_time(self):
        raise groebner.GBTimeout(60)

    class Expired:
        # each reading of the Groebner clock is an hour after the last, so
        # the shared deadline has passed at the first check after its start:
        # za1 passes computing no basis, and its relation loop reads it
        now = 0.0

        @classmethod
        def monotonic(cls):
            cls.now += 3600.0
            return cls.now

    monkeypatch.setattr(groebner.BuchbergerRun, "complete", out_of_time)
    monkeypatch.setattr(groebner, "time", Expired)
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


def test_a_failed_chart_proof_fails_its_own_claim(monkeypatch):
    # every chart proof is made by the check that reports it, so a failed
    # proof is a `fail` of that claim, not an `error` report that replaces
    # every claim of the check
    from lmlab import blowup, localmodel, quadric
    from lmlab.groebner import Ideal
    from lmlab.suite import run_instance

    # a full resolution chart whose equation gains lambda x_e (x_s - 1), x_e
    # an eliminated coordinate and x_s - 1 the pin: the ideal and its
    # lambda = 0 locus are unchanged, but the substituted equation is not
    # the reduced one, so affine_chart alone fails, at every pivot, naming
    # it; chart-match and exceptional pass
    real_m = blowup.build_M_chart

    def eq_with_x_e(nf, s, t):
        mchart = real_m(nf, s, t)
        ring = mchart.full.ring
        eq, *rest = mchart.full.generators
        x_e, x_s = ring.var("x_%d" % nf.DeltaC[0]), ring.var("x_%d" % s)
        eq = eq + ring.var("lambda") * x_e * (x_s - 1)
        return mchart._replace(full=Ideal(ring, [eq] + rest))

    monkeypatch.setattr(blowup, "build_M_chart", eq_with_x_e)
    reports = run_instance(["affine-chart", "chart-match", "exceptional"], 5, 1)
    affine = [rep for rep in reports if rep.check == "affine-chart"]
    nf = normal_form(5, 1)
    assert [rep.instance["pivot"] for rep in affine] == [list(ab) for _, ab in nf.z_cells]
    assert all(rep.status == "fail" for rep in affine)
    assert [sorted(rep.details) for rep in affine] == [
        ["elimination_equality", "offending_generator"]] * len(affine)
    assert all(rep.details["elimination_equality"] is False for rep in affine)
    assert all("pi" in rep.details["offending_generator"] for rep in affine)
    x_e = "x_%d" % nf.DeltaC[0]
    assert all(x_e not in rep.details["offending_generator"] for rep in affine)
    assert {rep.check for rep in reports} == {"affine-chart", "chart-match", "exceptional"}
    assert all(rep.status == "pass" for rep in reports if rep.check != "affine-chart")
    assert all("error" not in rep.details for rep in reports)
    monkeypatch.undo()

    # a DT ideal without its last generator is not U
    real_dt = localmodel.build_DT_ideal
    monkeypatch.setattr(localmodel, "build_DT_ideal", lambda nf: Ideal(
        real_dt(nf).ring, real_dt(nf).generators[:-1]))
    (rep,) = run_instance(["dt-equals-u"], 5, 1)
    assert (rep.check, rep.status, rep.unit_notes) == ("dt-equals-u", "fail", [])
    assert "error" not in rep.details
    monkeypatch.undo()

    # an ambient blow-up chart without bu_st - 1 leaves the pivot entry
    # bu_st unsolved: each pivot fails, naming a generator left over that
    # uses it, and its smoothness is not claimed
    real_bu = blowup.build_DT_blowup_chart

    def unpinned(nf, s, t):
        bchart = real_bu(nf, s, t)
        ring, pivot = bchart.ambient.ring, "bu_%d_%d" % (s, t)
        gens = [g for g in bchart.ambient.generators if g != ring.var(pivot) - 1]
        return bchart._replace(ambient=Ideal(ring, gens))

    monkeypatch.setattr(blowup, "build_DT_blowup_chart", unpinned)
    reports = run_instance(["quadbu-smooth"], 5, 1)
    assert [rep.instance["pivot"] for rep in reports] == [list(ij) for ij, _ in nf.z_cells]
    assert all(rep.status == "fail" for rep in reports)
    assert [list(rep.details) for rep in reports] == [["offending_generator"]] * len(reports)
    for rep in reports:
        assert "bu_%d_%d" % tuple(rep.instance["pivot"]) in rep.details["offending_generator"]
    monkeypatch.undo()

    # a substitution that does not kill B on chart I, and no principal center
    real_b = blowup.build_B_blowup_charts

    def wrong_chart_I(b):
        (chart1, map1), chart_II = real_b(b)
        r1 = chart1.ring
        wrong = Ideal(r1, [r1.var("u") - r1.var("pi")])
        return (wrong, map1), chart_II

    monkeypatch.setattr(blowup, "build_B_blowup_charts", wrong_chart_I)
    monkeypatch.setattr(quadric, "ideal_equal", lambda I, J: False)
    (rep,) = run_instance(["b-blowup"], 5, 1)
    assert (rep.check, rep.instance["scheme"], rep.status) == ("b-blowup", "basic", "fail")
    assert rep.details["substitution_failures"] == ["b-blowup-I"]
    assert rep.details["center_not_principal"] == ["v*x", "-u*x", "-w2*y"]
    assert "error" not in rep.details
    monkeypatch.undo()

    # a closed trace formula that is not the block trace fails za1 alone
    real_sum = localmodel._closed_sum
    monkeypatch.setattr(localmodel, "_closed_sum", lambda Z: 2 * real_sum(Z))
    reports = run_instance(["za1", "dt-equals-u", "annihilator", "flatness-dims"], 5, 1)
    (za1,) = [rep for rep in reports if rep.check == "za1"]
    assert (za1.instance["mode"], za1.status, za1.details["block_trace"]) == ("sound", "fail", False)
    assert [rep.status for rep in reports if rep.check != "za1"] == ["pass"] * 4
    assert [rep.instance["chart"] for rep in reports if rep.check == "flatness-dims"] == [
        "u[5,1]", "segre-cone"
    ]
    assert all("error" not in rep.details for rep in reports)


def test_builders_make_no_groebner_call(monkeypatch, tmp_path, capsys):
    from lmlab import cli, groebner, localmodel
    from lmlab.blowup import build_B_blowup_charts, build_DT_blowup_chart, build_M_chart
    from lmlab.quadric import build_basic_scheme

    def no_run(self):
        raise AssertionError("a chart builder ran Buchberger")

    monkeypatch.setattr(groebner.BuchbergerRun, "complete", no_run)
    nf = normal_form(5, 1)
    for (i, j), (s, t) in nf.z_cells:
        build_M_chart(nf, s, t)
        build_DT_blowup_chart(nf, i, j)
    build_DT_ideal(nf)
    build_B_blowup_charts(build_basic_scheme())

    def no_block(nf, Z):
        raise AssertionError("trace_form built the diagonal block")

    monkeypatch.setattr(localmodel, "_diagonal_block", no_block)
    assert str(localmodel.trace_form(nf)) == "z_1_2*z_1_3 + z_1_1*z_1_4"
    path = tmp_path / "dt.ideal"
    with pytest.raises(SystemExit) as done:
        cli.main(["build", "--d", "5", "--delta", "1", "--object", "dt", "--out", str(path)])
    assert done.value.code == 0
    assert len(read_ideal_text(path.read_text()).generators) == 1
    # with nothing to budget, build takes no budget
    with pytest.raises(SystemExit):
        cli.main(["build", "--help"])
    assert "--timeout-s" not in capsys.readouterr().out


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
