"""The whole suite's reports on the acceptance grid, against a golden file.

A change that must keep every report byte-identical under `strip_timings`
is checked here: all checks in sound mode on G, and complete-mode za1 on G.
"""

from pathlib import Path

from lmlab.suite import SuiteConfig, dump_payload, run_suite, strip_timings

GRID = [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 2), (7, 3)]

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


if __name__ == "__main__":
    SUITE_GOLDEN.write_text(suite_payloads())
