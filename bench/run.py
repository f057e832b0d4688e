#!/usr/bin/env python3
"""lmlab benchmark: time to a verified verdict, end to end and per layer.

    python3 bench/run.py --workload suite --seed 7 --seconds 30 --trace 0

With ``--trace 0`` the workload's verdict pass is repeated while the next
pass still fits in ``--seconds``, and the end-to-end metrics are printed.  With ``--trace 1`` one untraced pass is followed by
two passes under the outside-in tracer (``bench/tracer.py``); the per-layer
metrics come from the traced passes, and the benchmark checks that their
counts repeat exactly.  Every pass is checked against the golden verdicts in
``bench/golden.json``.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Only the standard library is used.  lmlab is imported from ``src/`` next to
this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

# The acceptance grid of the ROADMAP.
G = ((5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3))
# Sub-grid of G for the suite workloads: small enough to repeat a pass
# several times in one run, and it still holds both kinds of standing
# failure (quadbu-smooth middle pivots at 5:2 and 6:1, linking rows at 6:1).
SUITE_GRID = ((5, 1), (5, 2), (6, 1))

# Set-up probes: a few before every pass, so that they span the whole run as
# the passes do, and at least SETUP_MIN_SAMPLES in all.
SETUP_PER_PASS = 3
SETUP_MIN_SAMPLES = 15
FAILED_STATUSES = ("fail", "timeout", "uncertified", "error")
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    kind: str  # "suite": run_suite with all checks; "za1": run_check("za1") per instance
    grid: tuple
    mode: str = "sound"
    jobs: int = 1


WORKLOADS = {
    "suite": Workload("suite", SUITE_GRID),
    "suite-j2": Workload("suite", SUITE_GRID, jobs=2),
    "za1-sound": Workload("za1", ((6, 2), (6, 3))),
    "za1-complete": Workload("za1", ((5, 1),), mode="complete"),
}

# Imports lmlab and builds a workload's inputs in a fresh interpreter.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from lmlab import blowup, localmodel, quadric, verify
from lmlab.lattice import normal_form
from lmlab.suite import SuiteConfig
grid = [tuple(int(x) for x in item.split(":")) for item in sys.argv[2].split(",")]
SuiteConfig(grid=grid, mode=sys.argv[3], seed=int(sys.argv[4]), jobs=int(sys.argv[5])).validate()
for d, delta in grid:
    normal_form(d, delta)
print(time.perf_counter() - t0)
"""


def parse_grid(text):
    if text == "G":
        return G
    grid = []
    for item in text.split(","):
        d, _, delta = item.partition(":")
        try:
            grid.append((int(d), int(delta)))
        except ValueError:
            raise argparse.ArgumentTypeError("bad grid instance %r" % item)
    return tuple(grid)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7, help="za1 oracle seed (default 7)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--grid",
        type=parse_grid,
        help="instances to run instead of the workload's own, e.g. G or 5:1,5:2",
    )
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu():
    """(own, children) user+system CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak RSS of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(wl, seed):
    grid = ",".join("%d:%d" % inst for inst in wl.grid)
    cmd = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), grid, wl.mode, str(seed), str(wl.jobs)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return float(out.stdout)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float  # this process and its children
    worker_cpu_s: float  # the processes that ran the checks
    reports: list


def run_pass(wl, seed):
    """One verdict pass of the workload through lmlab's public entry points."""
    from lmlab import suite

    own0, kids0 = _cpu()
    t0 = time.perf_counter()
    if wl.kind == "suite":
        config = suite.SuiteConfig(grid=list(wl.grid), mode=wl.mode, seed=seed, jobs=wl.jobs)
        _, payload = suite.run_suite(config)
        reports = payload["reports"]
    else:
        reports = [
            r.to_dict()
            for d, delta in wl.grid
            for r in suite.run_check("za1", d, delta, mode=wl.mode, seed=seed)
        ]
    wall = time.perf_counter() - t0
    own1, kids1 = _cpu()
    worker = kids1 - kids0 if wl.jobs > 1 else own1 - own0
    return Pass(wall, (own1 - own0) + (kids1 - kids0), worker, reports)


def _key(check, instance):
    return check, json.dumps(instance, sort_keys=True)


def expected_verdicts(golden, wl):
    """Golden status of every report the workload must produce."""
    out = {}
    for e in golden["verdicts"]:
        inst = e["instance"]
        if (inst["d"], inst["delta"]) not in wl.grid:
            continue
        if wl.kind == "za1" and e["check"] != "za1":
            continue
        if inst.get("mode", wl.mode) != wl.mode:
            continue
        out[_key(e["check"], inst)] = e["status"]
    return out


def pass_regressions(expected, reports):
    """Golden pass reports that did not pass or are missing."""
    got = {_key(r["check"], r["instance"]): r["status"] for r in reports}
    return sum(
        1 for k, status in expected.items() if status == "pass" and got.get(k) != "pass"
    )


def verdict_lines(reports):
    return sorted(
        json.dumps({k: v for k, v in r.items() if k != "runtime_ms"}, sort_keys=True)
        for r in reports
    )


def print_verdicts(expected, passes):
    reports = passes[0].reports
    regressions = [pass_regressions(expected, p.reports) for p in passes]
    fails = sum(1 for r in reports if r["status"] in FAILED_STATUSES)
    print("reports          %d per pass (%d golden)" % (len(reports), len(expected)))
    print("failed_share     %d/%d = %.4f" % (fails, len(reports), fails / len(reports)))
    print("pass_regressions %s" % " ".join(str(n) for n in regressions))
    return regressions


def timed_run(wl, seed, seconds, expected):
    # Each round runs the set-up probes and then one pass.  Rounds run while
    # the next one, at the median pace so far, still ends within the given
    # seconds; the first round always runs.  The machine is shared and has
    # slow phases longer than a pass, so set-up is sampled throughout the run
    # and the fastest probe is reported: every probe does the same work, so
    # load only adds to its time, and over sets of ten runs the fastest
    # probe of a run moved about half as much as the median probe did.
    setup, passes, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t0 = time.perf_counter()
        setup.extend(setup_seconds(wl, seed) for _ in range(SETUP_PER_PASS))
        passes.append(run_pass(wl, seed))
        rounds.append(time.perf_counter() - t0)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_seconds(wl, seed))
    walls = [p.wall_s for p in passes]
    # Per pass, the mean and not the median: the shared machine has slow
    # phases longer than a pass, and a run's median jumps to whichever phase
    # holds most of its passes, while the mean weighs them by their share.
    values = {
        "wall_s": statistics.mean(walls),
        "setup_s": min(setup),
        "cpu_s": statistics.mean(p.cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print("passes           %d in %.1f s" % (len(passes), time.perf_counter() - start))
    print("pass wall_s      %s" % " ".join("%.4f" % w for w in walls))
    print("setup_s samples  %s" % " ".join("%.4f" % s for s in setup))
    for name, (value, unit) in metrics.items():
        print("%-16s %.4f %s" % (name, value, unit))
    regressions = print_verdicts(expected, passes)
    return {
        "correct": not any(regressions),
        "attempted": len(expected) * len(passes),
        "failed": sum(regressions),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(wl, seed, expected):
    from tracer import Tracer, metric_names

    plain = run_pass(wl, seed)
    traced = []
    worker_dir = tempfile.mkdtemp(prefix=".trace-", dir=HERE)
    try:
        for _ in range(2):
            tracer = Tracer(worker_dir)
            with tracer:
                p = run_pass(wl, seed)
            traced.append((p, tracer.metrics()))
    finally:
        shutil.rmtree(worker_dir)
    passes = [plain] + [p for p, _ in traced]

    first, second = traced[0][1], traced[1][1]
    exact = [n for n in metric_names() if not n.endswith("_s")]
    unrepeated = [n for n in exact if first[n] != second[n]]
    same_verdicts = all(verdict_lines(p.reports) == verdict_lines(plain.reports) for p in passes)

    metrics = {}
    for name in metric_names():
        if name in exact:
            metrics[name] = (first[name], "ratio" if name.endswith("_share") else "count")
        else:
            metrics[name] = (statistics.median([first[name], second[name]]), "s")
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    if wl.jobs > 1:
        # With one job the checks run in this process and the ratio is 1.
        metrics["suite.worker_utilization"] = (plain.worker_cpu_s / (wl.jobs * plain.wall_s), "ratio")
    metrics["trace.overhead_s"] = (traced_wall - plain.wall_s, "s")

    print("untraced wall_s  %.4f s" % plain.wall_s)
    print("traced wall_s    %.4f s (median of 2)" % traced_wall)
    print("trace overhead   %.4f s" % (traced_wall - plain.wall_s))
    print("%-62s %8s %10s" % ("layer function (by self time)", "calls", "self_s"))
    funcs = [n[: -len(".calls")] for n in metric_names() if n.endswith(".calls")]
    for f in sorted(funcs, key=lambda f: -metrics[f + ".self_s"][0]):
        calls = metrics[f + ".calls"][0]
        if calls:
            print("%-62s %8d %10.4f" % (f, calls, metrics[f + ".self_s"][0]))
    for name, (value, _) in metrics.items():
        if name.endswith("_share") or name.endswith("utilization"):
            print("%-62s %19.4f" % (name, value))
    print("counts repeat    %s" % ("yes" if not unrepeated else "NO: " + ", ".join(unrepeated)))
    print("verdicts equal   %s" % ("yes" if same_verdicts else "NO"))
    regressions = print_verdicts(expected, passes)
    return {
        "correct": not any(regressions) and not unrepeated and same_verdicts,
        "attempted": len(expected) * len(passes),
        "failed": sum(regressions),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lmlab" / "__init__.py").is_file():
        sys.exit("bench: no lmlab sources under %s" % SRC)
    os.environ.pop("LMLAB_TIMEOUT_S", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lmlab

    if Path(lmlab.__file__).resolve().parent != SRC / "lmlab":
        sys.exit("bench: imported lmlab from %s, not from %s" % (lmlab.__file__, SRC))

    wl = WORKLOADS[args.workload]
    if args.grid:
        wl = replace(wl, grid=args.grid)
    if wl.jobs > nproc():
        sys.exit("bench: workload needs %d processors, have %d" % (wl.jobs, nproc()))
    golden = json.loads(GOLDEN.read_text())
    expected = expected_verdicts(golden, wl)
    covered = {(json.loads(i)["d"], json.loads(i)["delta"]) for _, i in expected}
    missing = [inst for inst in wl.grid if inst not in covered]
    if missing:
        sys.exit("bench: no golden verdicts for %s in %s mode" % (missing, wl.mode))

    provenance = {
        "workload": args.workload,
        "grid": ["%d:%d" % inst for inst in wl.grid],
        "mode": wl.mode,
        "jobs": wl.jobs,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc(),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        result = traced_run(wl, args.seed, expected)
    else:
        result = timed_run(wl, args.seed, args.seconds, expected)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
