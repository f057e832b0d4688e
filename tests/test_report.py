"""A claim's report: its status follows from `require` and `fail` alone."""

from lmlab.groebner import GBTimeout
from lmlab.report import checking


def test_require_records_the_key_and_fails_only_when_it_does_not_hold():
    with checking("claim", {}) as rep:
        assert rep.require("holds", True) is True
    assert (rep.status, rep.details) == ("pass", {"holds": True})

    with checking("claim", {}) as rep:
        assert rep.require("broken", False) is False
        assert rep.require("holds", True) is True
    assert (rep.status, rep.details) == ("fail", {"broken": False, "holds": True})


def test_fail_records_the_key_and_fails():
    with checking("claim", {}) as rep:
        rep.fail("failures", ["x_1"])
    assert (rep.status, rep.details) == ("fail", {"failures": ["x_1"]})


def test_a_boolean_detail_alone_sets_no_status():
    with checking("claim", {}) as rep:
        rep.details["count_matches"] = False
    assert rep.status == "pass"


def test_a_timeout_after_a_require_keeps_its_key():
    with checking("claim", {}) as rep:
        rep.require("holds", True)
        raise GBTimeout(60)
    assert rep.status == "timeout"
    assert rep.details == {"holds": True, "timeout": str(GBTimeout(60))}
