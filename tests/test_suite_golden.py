"""The whole suite's reports on the acceptance grid, against a golden file.

A change that must keep every report byte-identical under `strip_timings`
is checked here: all checks in sound mode on G, and complete-mode za1 on G,
against the golden file; all checks in sound mode on G9, every admissible
instance with 5 <= d <= 9, against the hash of its payload.
"""

import hashlib
from pathlib import Path

from lmlab.suite import SuiteConfig, dump_payload, run_suite, strip_timings

GRID = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]
G9 = [(d, delta) for d in range(5, 10) for delta in range(1, d // 2 + 1)]

SUITE_GOLDEN = Path(__file__).parent / "data" / "suite_G_golden.json"


def suite_payloads():
    """`dump_payload` text of both runs on G, timings stripped.

    tests/data/suite_G_golden.json holds this text.  Rewrite it only for an
    intended report change, with ``PYTHONPATH=src python tests/test_suite_golden.py``.
    """
    out = {}
    for name, config in (
        ("all checks, sound", SuiteConfig(grid=GRID)),
        ("za1, complete", SuiteConfig(grid=GRID, checks=["za1"], mode="complete")),
    ):
        _, payload = run_suite(config)
        out[name] = strip_timings(payload)
    return dump_payload(out)


def test_suite_reports_match_golden():
    assert suite_payloads() == SUITE_GOLDEN.read_text()


def test_suite_reports_on_g9_keep_their_hash():
    # the first 12 hex digits of the sha256 of the stripped payload's text
    _, payload = run_suite(SuiteConfig(grid=G9))
    text = dump_payload(strip_timings(payload))
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == "316ee1fc7d38"


if __name__ == "__main__":
    SUITE_GOLDEN.write_text(suite_payloads())
