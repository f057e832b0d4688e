"""Named checks over a (d, delta) grid with reproducible JSON reports.

Check names follow the claims they mechanize: za1 (presentation of the
chart), dt-equals-u (determinantal normalization), linked-fiber (special
fiber of the linked quadric), b-blowup (basic-scheme blow-up multiplicities),
quadbu-smooth (relative smoothness of blow-up charts), affine-chart,
chart-match, exceptional (resolution charts), annihilator, flatness-dims.

The checks of one instance run together, in one `groebner.memo()` block, so
that they share every Groebner basis they compute and build each resolution
and blow-up chart once; `run_suite` runs one task per instance, and `--jobs`
spreads the instances over worker processes.
The four checks that run per pivot prove their claims once per pivot class
(is the pivot on the middle row of Z?, on its middle column?): a `pass` of
the class's first pivot is copied to each other pivot of the class that
`blowup._transfers` accepts, and every other pivot, and every class whose
first pivot does not pass, is proven pivot by pivot (`_by_pivot_class`).
The pins x_i = 1, y_j = 1 of linked-fiber, the lattice positions (j, i),
take the same loop with `blowup._pins_transfer`.  `run_suite` proves each
claim on the basic scheme, which names no instance, once (`_instance_free`).
`timeout_s` is the Groebner budget of one named check at one instance: each
check runs in its own `deadline()` block.  Importing the module loads neither
`json`, which only the payload functions read, nor the process pool.
"""

from __future__ import annotations

import copy
import time

from .lattice import LatticeError, check_admissible, normal_form
from .report import PASS, VerificationReport, checking, exception_status

__all__ = [
    "ConfigError",
    "SuiteConfig",
    "timeout_value",
    "CHECK_NAMES",
    "CHECK_ALIASES",
    "run_check",
    "run_instance",
    "run_suite",
    "report_payload",
    "strip_timings",
    "exit_code",
]

REPORT_VERSION = "1"
_kept = None  # inside run_suite: claim -> its first `pass` (`_instance_free`)


class ConfigError(Exception):
    pass


class SuiteConfig:
    def __init__(self, grid, checks=None, mode="sound", timeout_s=None, seed=7, jobs=1):
        self.grid = grid
        self.checks = list(CHECK_NAMES) if checks is None else checks
        self.mode = mode
        self.timeout_s = timeout_s
        self.seed = seed
        self.jobs = jobs

    def validate(self):
        if not self.grid:
            raise ConfigError("empty grid")
        if not self.checks:
            raise ConfigError("empty check list")
        seen = set()
        for d, delta in self.grid:
            if (d, delta) in seen:
                raise ConfigError("instance %d:%d repeated in the grid" % (d, delta))
            seen.add((d, delta))
            try:
                check_admissible(d, delta)
            except LatticeError as exc:
                raise ConfigError("%d:%d: %s" % (d, delta, exc)) from None
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError("unknown check %r" % c)
        if self.mode not in ("sound", "complete"):
            raise ConfigError("mode must be sound or complete")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        timeout_value(self.timeout_s)

    def to_dict(self):
        return {
            "grid": ["%d:%d" % (d, delta) for d, delta in self.grid],
            "checks": list(self.checks),
            "mode": self.mode,
            "timeout_s": self.timeout_s,
            "seed": self.seed,
            "jobs": self.jobs,
        }


def timeout_value(value):
    """A Groebner budget in seconds: None, or a number > 0 (inf is no limit).

    NaN, zero and negative budgets raise ConfigError: NaN would compare false
    against every deadline, and the others would time out every check.
    """
    if value is None:
        return None
    try:
        if float(value) > 0:
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError("the Groebner budget (--timeout-s, LMLAB_TIMEOUT_S) "
                      "must be a number of seconds > 0, got %r" % (value,))


def _wrap_error(check, instance, exc):
    status, key = exception_status(exc)
    return VerificationReport(check, instance, status, details={key: str(exc)})


def _check_za1(nf, mode, seed):
    from .localmodel import verify_presentation

    return [verify_presentation(nf, mode=mode, seed=seed)]


def _check_dt_equals_u(nf, mode, seed):
    # DT's displayed sum is 2 T(Z): DT and U have one generator set up to scaling
    from .groebner import check_deadline, first_unmatched
    from .localmodel import build_DT_ideal, build_U_ideals

    with checking("dt-equals-u", {"d": nf.d, "delta": nf.delta}) as rep:
        check_deadline()
        miss = first_unmatched(build_DT_ideal(nf).generators, build_U_ideals(nf)[0].generators)
        if miss is None:
            rep.unit_notes.append("displayed sum equals 2*(trace quadric + 2 pi)")
        else:
            rep.fail("offending_generator", str(miss))
    return [rep]


def _check_flatness_dims(nf, mode, seed):
    from .localmodel import flatness_and_dimension

    return flatness_and_dimension(nf)


def _check_annihilator(nf, mode, seed):
    from .localmodel import verify_annihilator

    return [verify_annihilator(nf)]


def _check_linked_fiber(nf, mode, seed):
    from .blowup import _pins_transfer
    from .quadric import verify_fiber_decomposition, verify_linked_chart

    pins = [(j, i) for i in nf.DeltaC for j in nf.Delta]  # lattice positions
    return [_instance_free(verify_fiber_decomposition, nf)] + _by_pivot_class(
        nf, pins, 1, lambda nf, j, i: [verify_linked_chart(nf, i, j)], _pins_transfer,
        lambda j, i: {"pin_x": i, "pin_y": j})


def _check_b_blowup(nf, mode, seed):
    from .quadric import verify_divisor_multiplicities_on_blowup_charts

    return [_instance_free(verify_divisor_multiplicities_on_blowup_charts, nf)]


def _instance_free(claim, nf):
    """The report of `claim()`, which names no instance, stamped with nf's;
    inside `run_suite` later instances get a copy of its first `pass`."""
    kept = (_kept or {}).get(claim)
    rep = copy.deepcopy(kept) if kept else claim()
    if _kept is not None and not kept and rep.status == PASS:
        _kept[claim] = copy.deepcopy(rep)
        _kept[claim].runtime_ms = 0
    rep.instance.update({"d": nf.d, "delta": nf.delta})
    return rep


def _quadbu_smooth_at(nf, s, t):
    from .blowup import build_DT_blowup_chart, substitutes_to
    from .verify import model_target_for_chart, smooth_over_model

    rel = nf.d - 4 if nf.delta_star >= 2 else nf.d - 3
    instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
    with checking("quadbu-smooth", instance) as rep:
        bc = build_DT_blowup_chart(nf, s, t)
        # bu_st - 1 and bu_ij - bu_sj bu_it solve the dependent bu variables;
        # substituting them must give the reduced chart, or no smoothness
        if substitutes_to(rep, bc.ambient, bc.chart):
            tgt = model_target_for_chart(nf, bc)
            chart_rep = smooth_over_model(bc.chart, tgt, rel)
            rep.status = chart_rep.status
            rep.details.update(chart_rep.details, target=tgt.kind)
    return [rep]


def _affine_chart_at(nf, s, t):
    from .blowup import affine_chart

    return [affine_chart(nf, s, t)]


def _chart_match_at(nf, s, t):
    from .blowup import chart_match, linking_multipliers

    match = chart_match(nf, s, t)
    link = linking_multipliers(nf, s, t)
    link.instance = dict(link.instance, part="linking")
    return [match, link]


def _exceptional_at(nf, s, t):
    from .blowup import exceptional_locus

    return [exceptional_locus(nf, s, t)]


def _by_pivot_class(nf, pivots, half, prove, transfers, place):
    """The reports of `prove(nf, s, t)` at each pivot, with one proof per class.

    The class of a pivot is (is its Z row the middle row?, is its Z column
    the middle column?); a lattice pivot reaches Z through `nf.z_cells`.
    The first pivot of a class, in the given order, represents it and is
    proven.  At a later pivot p of a class whose representative r passed
    every report, r's reports are copied, with the instance fields
    `place(*p)` that name the pivot, if `transfers(nf, r, p)` accepts the
    renaming from r to p on Z; otherwise p is proven.  So no fail, timeout
    or error is ever copied.  A pivot outside Z is proven, and its builder
    raises LatticeError.
    """
    to_z = {cell[half]: cell[0] for cell in nf.z_cells}
    first = {}  # class -> (its representative in Z, its reports if all passed)
    reports = []
    for s, t in pivots:
        t0 = time.monotonic()
        z = to_z.get((s, t))
        if z is None:
            reports += prove(nf, s, t)
            continue
        cls = (2 * z[0] == nf.delta + 1, 2 * z[1] == nf.d - nf.delta + 1)
        rep_z, passed = first.get(cls, (None, None))
        if passed and transfers(nf, rep_z, z):
            ms = int((time.monotonic() - t0) * 1000)
            for rep in passed:
                moved = copy.deepcopy(rep)
                moved.instance.update(place(s, t))
                moved.runtime_ms = ms
                reports.append(moved)
            continue
        proven = prove(nf, s, t)
        if cls not in first:
            first[cls] = (z, proven if all(r.status == PASS for r in proven) else None)
        reports += proven
    return reports


_CHECKS = {
    "za1": _check_za1,
    "dt-equals-u": _check_dt_equals_u,
    "linked-fiber": _check_linked_fiber,
    "b-blowup": _check_b_blowup,
    "quadbu-smooth": _quadbu_smooth_at,
    "affine-chart": _affine_chart_at,
    "chart-match": _chart_match_at,
    "exceptional": _exceptional_at,
    "annihilator": _check_annihilator,
    "flatness-dims": _check_flatness_dims,
}

CHECK_NAMES = tuple(_CHECKS)

# the checks that run per pivot, each with the half of an `nf.z_cells` entry
# ((i, j), (a, b)) that it takes: 0 for the row and column (i, j) of the Z
# entry, 1 for its lattice positions (a, b).  In _CHECKS such a check is the
# proof at one pivot, (nf, s, t) -> reports; every other check is
# (nf, mode, seed) -> reports
_PIVOT_HALF = {"quadbu-smooth": 0, "affine-chart": 1, "chart-match": 1, "exceptional": 1}

# module-level CLI spellings for groups of checks
CHECK_ALIASES = {
    "linked-quadric": ("linked-fiber",),
    "blowup": ("affine-chart", "chart-match", "exceptional"),
    "blowup-smooth": ("quadbu-smooth",),
    "all": CHECK_NAMES,
}


def run_check(check, d, delta, mode="sound", timeout_s=None, seed=7, pivots=None):
    """All reports for one named check at one grid instance.

    timeout_s budgets every Groebner operation of the check together.  A
    check in _PIVOT_HALF runs at the given pivots, or else at every pivot,
    with one proof per pivot class (`_by_pivot_class`).
    """
    from .groebner import deadline

    nf = normal_form(d, delta)
    with deadline(timeout_s):
        if check not in _PIVOT_HALF:
            return _CHECKS[check](nf, mode, seed)
        from .blowup import _transfers

        half = _PIVOT_HALF[check]
        pivots = pivots or [cell[half] for cell in nf.z_cells]
        return _by_pivot_class(nf, pivots, half, _CHECKS[check], _transfers,
                               lambda s, t: {"pivot": [s, t]})


def run_instance(checks, d, delta, mode="sound", timeout_s=None, seed=7, pivots=None):
    """Reports of the named checks at one instance, in one `groebner.memo()`
    block: they share each Groebner basis and each chart of a pivot.

    Explicit pivots need checks that all take a pivot in one convention
    (_PIVOT_HALF); else ConfigError is raised before any check runs.  A
    timeout inside a claim is already that claim's `timeout` report.  Any
    other exception ends its check with one report built by `_wrap_error`,
    except a `LatticeError` under explicit pivots: that is a pivot out of
    range, bad input rather than a failed check, and it propagates to the
    caller.
    """
    from .groebner import memo

    if pivots:
        _check_pivot_convention(checks)
    reports = []
    with memo():
        for check in checks:
            try:
                reports += run_check(check, d, delta, mode, timeout_s, seed, pivots)
            except Exception as exc:  # defensive: a crashed check is a failed check
                if pivots and isinstance(exc, LatticeError):
                    raise
                reports.append(_wrap_error(check, {"d": d, "delta": delta}, exc))
    return reports


def _check_pivot_convention(checks):
    halves = {_PIVOT_HALF.get(c) for c in checks}
    if None in halves:
        raise ConfigError("a pivot applies only to %s" % ", ".join(_PIVOT_HALF))
    if len(halves) > 1:
        raise ConfigError("a pivot is the row and column of Z for quadbu-smooth and "
                          "lattice positions for the other checks: run them apart")


def _sort_key(rep):
    import json

    inst = rep["instance"]
    return (
        rep["check"],
        inst.get("d", 0),
        inst.get("delta", 0),
        json.dumps(inst, sort_keys=True),
    )


def run_suite(config):
    """Run the configured checks; returns (exit_code, payload dict).  A claim
    that names no instance is proven once per call and per worker."""
    global _kept
    config.validate()
    grid = list(config.grid)
    if config.jobs > 1:
        # the larger d, then delta, the longer an instance runs: submitting
        # the largest first keeps the longest task from starting last
        grid.sort(reverse=True)
    tasks = [
        (config.checks, d, delta, config.mode, config.timeout_s, config.seed)
        for d, delta in grid
    ]
    saved, _kept = _kept, {}
    try:
        if config.jobs > 1:
            # imported here: a serial run, and the start-up of every command,
            # need not load concurrent.futures and multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # a worker that dies breaks the pool: its instance, and every one
            # still waiting, gets one error report per check
            with ProcessPoolExecutor(max_workers=min(config.jobs, len(grid))) as pool:
                futures = [pool.submit(_run_in_worker, *task) for task in tasks]
                chunks = []
                for (d, delta), fut in zip(grid, futures):
                    try:
                        chunks.append(fut.result())
                    except Exception as exc:
                        instance = {"d": d, "delta": delta}
                        chunks.append([_wrap_error(c, instance, exc) for c in config.checks])
        else:
            chunks = [run_instance(*task) for task in tasks]
    finally:
        _kept = saved
    payload = report_payload([r for chunk in chunks for r in chunk], config)
    return exit_code(payload["summary"]), payload


def _run_in_worker(*task):
    """`run_instance(*task)` in a pool worker.  A forked worker inherits the
    open store of `_instance_free`; a spawned one opens its own, which lives
    as long as the worker, and so no longer than the pool of its run."""
    global _kept
    if _kept is None:
        _kept = {}
    return run_instance(*task)


def exit_code(summary):
    """0 when every report passes, 1 on any fail, else 2 (uncertified or timeout)."""
    if summary["fail"]:
        return 1
    if summary["uncertified"] or summary["timeout"]:
        return 2
    return 0


def report_payload(reports, config=None):
    reports = [r.to_dict() for r in reports]
    reports.sort(key=_sort_key)
    summary = {"pass": 0, "fail": 0, "uncertified": 0, "timeout": 0}
    for r in reports:
        summary[r["status"]] += 1
    return {
        "version": REPORT_VERSION,
        "config": config.to_dict() if config else {},
        "reports": reports,
        "summary": summary,
    }


def strip_timings(payload):
    """Copy of a payload with runtime fields zeroed, for byte comparisons."""
    import json

    clone = json.loads(json.dumps(payload))
    for r in clone.get("reports", []):
        r["runtime_ms"] = 0
    return clone


def dump_payload(payload):
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
