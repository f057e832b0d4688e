"""Machine-readable pass/fail records for single chart-level claims.

A claim states each of its requirements once.  `require(key, ok)` records a
boolean requirement and fails the claim when it does not hold; `fail(key,
value)` records a key that appears only on failure, with what went wrong.
A report's status follows from those calls alone: `checking` infers nothing
from its details.  A report is a plain object with an instance `__dict__`:
`copy.deepcopy` and the pickling of `--jobs` results take their default path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .groebner import GBTimeout

PASS = "pass"
FAIL = "fail"
TIMEOUT = "timeout"


class VerificationReport:
    def __init__(self, check, instance, status, details=None):
        self.check = check
        self.instance = instance
        self.status = status
        self.unit_notes = []
        self.certificates = []
        self.runtime_ms = 0
        self.details = {} if details is None else details

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

    def require(self, key, ok):
        """Record the requirement `key` as `ok`, failing the claim if it is not; returns ok."""
        self.details[key] = ok
        if not ok:
            self.status = FAIL
        return ok

    def fail(self, key, value):
        """Record what failed under `key` and fail the claim."""
        self.details[key] = value
        self.status = FAIL


def exception_status(exc):
    """(status, details key) for a check ended by `exc`."""
    if isinstance(exc, GBTimeout):
        return TIMEOUT, "timeout"
    return FAIL, "error"


@contextmanager
def checking(check, instance):
    """A `pass` report for one claim, timed and closed over its body.

    The body fills in details and lowers the status through `require` and
    `fail`.  A `GBTimeout` from the body ends the claim with status `timeout`
    and `details["timeout"]`, beside the details recorded before it; any
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
