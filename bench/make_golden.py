#!/usr/bin/env python3
"""Write bench/golden.json: the (check, instance, status) of every report.

    python3 bench/make_golden.py

Covers run_suite on the grid G with all checks in sound mode (the za1 sound
reports included) and za1 in complete mode on 5:1 and 5:2.  Standing
failures are recorded as they are, with status fail.  Regenerate only when a
change to the program is meant to change a verdict, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from run import G, GOLDEN, SRC, git_sha

COMPLETE_GRID = ((5, 1), (5, 2))


def main():
    sys.path.insert(0, str(SRC))
    from lmlab.suite import SuiteConfig, run_check, run_suite

    _, payload = run_suite(SuiteConfig(grid=list(G), mode="sound", seed=7, jobs=1))
    reports = payload["reports"]
    for d, delta in COMPLETE_GRID:
        reports += [r.to_dict() for r in run_check("za1", d, delta, mode="complete", seed=7)]
    verdicts = [
        {"check": r["check"], "instance": r["instance"], "status": r["status"]}
        for r in reports
    ]
    verdicts.sort(key=lambda v: (v["check"], json.dumps(v["instance"], sort_keys=True)))
    golden = {"git_sha": git_sha(), "seed": 7, "verdicts": verdicts}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote %d verdicts to %s" % (len(verdicts), GOLDEN))


if __name__ == "__main__":
    main()
