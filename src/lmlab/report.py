"""Machine-readable pass/fail records for single chart-level claims."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .groebner import GBTimeout

PASS = "pass"
FAIL = "fail"
TIMEOUT = "timeout"


@dataclass
class VerificationReport:
    check: str
    instance: dict
    status: str
    unit_notes: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    runtime_ms: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "check": self.check,
            "instance": dict(self.instance),
            "status": self.status,
            "unit_notes": list(self.unit_notes),
            "certificates": list(self.certificates),
            "runtime_ms": self.runtime_ms,
            "details": dict(self.details),
        }

def exception_status(exc):
    """(status, details key) for a check ended by `exc`."""
    if isinstance(exc, GBTimeout):
        return TIMEOUT, "timeout"
    return FAIL, "error"


@contextmanager
def checking(check, instance):
    """A `pass` report for one claim, timed and closed over its body.

    The body fills in details and lowers the status.  A `GBTimeout` from the
    body ends the claim with status `timeout` and `details["timeout"]`; any
    other exception propagates.  `runtime_ms` is set on every exit, an early
    `return` from inside the block included.
    """
    report = VerificationReport(check, instance, PASS)
    t0 = time.monotonic()
    try:
        yield report
    except GBTimeout as exc:
        report.status, key = exception_status(exc)
        report.details[key] = str(exc)
    finally:
        report.runtime_ms = int((time.monotonic() - t0) * 1000)
