"""Named checks over a (d, delta) grid with reproducible JSON reports.

Check names follow the claims they mechanize: za1 (presentation of the
chart), dt-equals-u (determinantal normalization), linked-fiber (special
fiber of the linked quadric), b-blowup (basic-scheme blow-up multiplicities),
quadbu-smooth (relative smoothness of blow-up charts), affine-chart,
chart-match, exceptional (resolution charts), annihilator, flatness-dims.

The checks of one instance run together, in one `basis_cache()` block, so
that they share every Groebner basis they compute; `run_suite` runs one task
per instance, and `--jobs` spreads the instances over worker processes.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .lattice import LatticeError, normal_form
from .report import FAIL, PASS, Stopwatch, TIMEOUT, VerificationReport
from .poly import PolyError

__all__ = [
    "ConfigError",
    "SuiteConfig",
    "CHECK_NAMES",
    "CHECK_ALIASES",
    "run_check",
    "run_instance",
    "run_suite",
    "report_payload",
    "strip_timings",
]

REPORT_VERSION = "1"

CHECK_NAMES = (
    "za1",
    "dt-equals-u",
    "linked-fiber",
    "b-blowup",
    "quadbu-smooth",
    "affine-chart",
    "chart-match",
    "exceptional",
    "annihilator",
    "flatness-dims",
)

# module-level CLI spellings for groups of checks
CHECK_ALIASES = {
    "linked-quadric": ("linked-fiber",),
    "blowup": ("affine-chart", "chart-match", "exceptional"),
    "blowup-smooth": ("quadbu-smooth",),
    "all": CHECK_NAMES,
}


class ConfigError(Exception):
    pass


@dataclass
class SuiteConfig:
    grid: list
    checks: list = field(default_factory=lambda: list(CHECK_NAMES))
    mode: str = "sound"
    timeout_s: float = None
    seed: int = 7
    jobs: int = 1
    output: str = None

    def validate(self):
        if not self.grid:
            raise ConfigError("empty grid")
        for d, delta in self.grid:
            if d < 5:
                raise ConfigError("d >= 5 required, got %d:%d" % (d, delta))
            if not (1 <= delta <= d // 2):
                raise ConfigError(
                    "1 <= delta <= d/2 required, got %d:%d" % (d, delta)
                )
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError("unknown check %r" % c)
        if self.mode not in ("sound", "complete"):
            raise ConfigError("mode must be sound or complete")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def to_dict(self):
        return {
            "grid": ["%d:%d" % (d, delta) for d, delta in self.grid],
            "checks": list(self.checks),
            "mode": self.mode,
            "timeout_s": self.timeout_s,
            "seed": self.seed,
            "jobs": self.jobs,
        }


def default_timeout():
    env = os.environ.get("LMLAB_TIMEOUT_S")
    if env:
        try:
            return float(env)
        except ValueError:
            raise ConfigError("LMLAB_TIMEOUT_S must be a number, got %r" % env)
    return None


def _wrap_error(check, instance, exc):
    from .groebner import GBTimeout

    status = TIMEOUT if isinstance(exc, GBTimeout) else FAIL
    return VerificationReport(
        check, instance, status, details={"error": str(exc)}
    )


def _check_za1(nf, mode, timeout_s, seed):
    from .localmodel import verify_presentation

    return [verify_presentation(nf, mode=mode, timeout_s=timeout_s, seed=seed)]


def _check_dt_equals_u(nf, mode, timeout_s, seed):
    from .localmodel import build_DT_ideal

    sw = Stopwatch()
    instance = {"d": nf.d, "delta": nf.delta}
    try:
        build_DT_ideal(nf, timeout_s=timeout_s)
        rep = VerificationReport("dt-equals-u", instance, PASS)
        rep.unit_notes.append("displayed sum equals 2*(trace quadric + 2 pi)")
    except PolyError as exc:
        rep = _wrap_error("dt-equals-u", instance, exc)
    rep.runtime_ms = sw.ms()
    return [rep]


def _check_flatness_dims(nf, mode, timeout_s, seed):
    from .groebner import Ideal, krull_dim
    from .localmodel import build_U_ideals, flatness_and_dimension, z_matrix
    from .poly import minors

    U, _ = build_U_ideals(nf)
    rep_u = flatness_and_dimension(U, nf.d - 2, timeout_s=timeout_s)
    rep_u.instance.update({"d": nf.d, "delta": nf.delta})
    ring = U.ring
    cone = Ideal(ring, minors(z_matrix(nf, ring), 2))
    sw = Stopwatch()
    rep_c = VerificationReport(
        "flatness-dims", {"d": nf.d, "delta": nf.delta, "chart": "segre-cone"}, PASS
    )
    try:
        dim = krull_dim(cone, timeout_s=timeout_s)
        rep_c.details["dim"] = dim
        rep_c.details["expected_dim"] = nf.d
        if dim != nf.d:
            rep_c.status = FAIL
    except PolyError as exc:
        rep_c = _wrap_error("flatness-dims", rep_c.instance, exc)
    rep_c.runtime_ms = sw.ms()
    return [rep_u, rep_c]


def _check_annihilator(nf, mode, timeout_s, seed):
    from .localmodel import verify_annihilator

    return [verify_annihilator(nf, timeout_s=timeout_s)]


def _check_linked_fiber(nf, mode, timeout_s, seed):
    from .quadric import verify_fiber_decomposition, verify_linked_chart

    reports = []
    basic = verify_fiber_decomposition(timeout_s=timeout_s)
    basic.instance.update({"d": nf.d, "delta": nf.delta})
    reports.append(basic)
    for i in nf.DeltaC:
        for j in nf.Delta:
            reports.append(verify_linked_chart(nf, i, j, timeout_s=timeout_s))
    return reports


def _check_b_blowup(nf, mode, timeout_s, seed):
    from .quadric import verify_divisor_multiplicities_on_blowup_charts

    rep = verify_divisor_multiplicities_on_blowup_charts(timeout_s=timeout_s)
    rep.instance.update({"d": nf.d, "delta": nf.delta})
    return [rep]


def _check_quadbu_smooth(nf, mode, timeout_s, seed, pivots=None):
    from .blowup import build_DT_blowup_chart
    from .verify import model_target_for_chart, smooth_over_model

    reports = []
    rel = nf.d - 4 if nf.delta_star >= 2 else nf.d - 3
    m = nf.d - nf.delta
    todo = pivots or [(s, t) for s in range(1, nf.delta + 1) for t in range(1, m + 1)]
    for s, t in todo:
        instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
        sw = Stopwatch()
        try:
            bc = build_DT_blowup_chart(nf, s, t, timeout_s=timeout_s)
            tgt = model_target_for_chart(nf, bc)
            rep = smooth_over_model(bc.chart, tgt, rel, timeout_s=timeout_s)
            rep.check = "quadbu-smooth"
            rep.instance = instance
            rep.details["target"] = tgt.kind
        except PolyError as exc:
            rep = _wrap_error("quadbu-smooth", instance, exc)
        rep.runtime_ms = sw.ms()
        reports.append(rep)
    return reports


def _m_pivots(nf, pivots=None):
    if pivots:
        return pivots
    return [(s, t) for s in nf.Delta for t in nf.DeltaC]


def _check_affine_chart(nf, mode, timeout_s, seed, pivots=None):
    from .blowup import build_M_chart

    reports = []
    for s, t in _m_pivots(nf, pivots):
        instance = {"d": nf.d, "delta": nf.delta, "pivot": [s, t]}
        sw = Stopwatch()
        try:
            build_M_chart(nf, s, t, timeout_s=timeout_s)
            rep = VerificationReport("affine-chart", instance, PASS)
            rep.details["elimination_equality"] = True
        except PolyError as exc:
            rep = _wrap_error("affine-chart", instance, exc)
        rep.runtime_ms = sw.ms()
        reports.append(rep)
    return reports


def _check_chart_match(nf, mode, timeout_s, seed, pivots=None):
    from .blowup import chart_match, linking_multipliers

    reports = []
    for s, t in _m_pivots(nf, pivots):
        reports.append(chart_match(nf, s, t, timeout_s=timeout_s))
        link = linking_multipliers(nf, s, t, timeout_s=timeout_s)
        link.instance = dict(link.instance)
        link.instance["part"] = "linking"
        reports.append(link)
    return reports


def _check_exceptional(nf, mode, timeout_s, seed, pivots=None):
    from .blowup import exceptional_locus

    return [
        exceptional_locus(nf, s, t, timeout_s=timeout_s)
        for s, t in _m_pivots(nf, pivots)
    ]


_CHECKS = {
    "za1": _check_za1,
    "dt-equals-u": _check_dt_equals_u,
    "linked-fiber": _check_linked_fiber,
    "b-blowup": _check_b_blowup,
    "quadbu-smooth": _check_quadbu_smooth,
    "affine-chart": _check_affine_chart,
    "chart-match": _check_chart_match,
    "exceptional": _check_exceptional,
    "annihilator": _check_annihilator,
    "flatness-dims": _check_flatness_dims,
}


def run_check(check, d, delta, mode="sound", timeout_s=None, seed=7, pivots=None):
    """All reports for one named check at one grid instance."""
    nf = normal_form(d, delta)
    fn = _CHECKS[check]
    if check in ("quadbu-smooth", "affine-chart", "chart-match", "exceptional"):
        return fn(nf, mode, timeout_s, seed, pivots=pivots)
    return fn(nf, mode, timeout_s, seed)


def run_instance(checks, d, delta, mode="sound", timeout_s=None, seed=7, pivots=None):
    """Reports of the named checks at one instance, sharing one basis cache.

    A check that raises gives one report built by `_wrap_error`, except a
    `LatticeError` under explicit pivots: that is a pivot out of range, bad
    input rather than a failed check, and it propagates to the caller.
    """
    from .groebner import basis_cache

    reports = []
    with basis_cache():
        for check in checks:
            try:
                reports += run_check(check, d, delta, mode, timeout_s, seed, pivots)
            except Exception as exc:  # defensive: a crashed check is a failed check
                if pivots and isinstance(exc, LatticeError):
                    raise
                reports.append(_wrap_error(check, {"d": d, "delta": delta}, exc))
    return reports


def _sort_key(rep):
    inst = rep["instance"]
    return (
        rep["check"],
        inst.get("d", 0),
        inst.get("delta", 0),
        json.dumps(inst, sort_keys=True),
    )


def run_suite(config):
    """Run the configured checks; returns (exit_code, payload dict)."""
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
    if config.jobs > 1:
        # a worker that dies breaks the pool: its instance, and every one
        # still waiting, gets one error report per check
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(run_instance, *task) for task in tasks]
            chunks = []
            for (d, delta), fut in zip(grid, futures):
                try:
                    chunks.append(fut.result())
                except Exception as exc:
                    instance = {"d": d, "delta": delta}
                    chunks.append([_wrap_error(c, instance, exc) for c in config.checks])
    else:
        chunks = [run_instance(*task) for task in tasks]
    payload = report_payload([r for chunk in chunks for r in chunk], config)
    summary = payload["summary"]
    if summary["fail"]:
        code = 1
    elif summary["uncertified"] or summary["timeout"]:
        code = 2
    else:
        code = 0
    return code, payload


def report_payload(reports, config=None):
    reports = [r.to_dict() if isinstance(r, VerificationReport) else r for r in reports]
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
    clone = json.loads(json.dumps(payload))
    for r in clone.get("reports", []):
        r["runtime_ms"] = 0
    return clone


def dump_payload(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
