"""Write the golden default ``verify`` report, ``tests/data/reports/default.json``.

The file is the report that ``curvesys verify`` writes with its default
arguments, with every suite's ``millis`` (its wall time, the only field that
varies between runs) removed, laid out as ``json.dumps(report, indent=2,
sort_keys=True)`` and a newline, so it diffs cleanly against a stripped
report of the command line.  Tier-1 compares an in-process run with it.  A
change that moves the report rewrites the file with this script and says
which keys moved and why.

Usage, from the repository root::

    python tools/golden_reports.py           # rewrite tests/data/reports/
    python tools/golden_reports.py OUTDIR    # write default.json to OUTDIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from curvesys.harness import report_to_dict, run_all

    doc = report_to_dict(run_all())
    for suite in doc["suites"]:
        suite.pop("millis")
    out = Path(argv[0]) if argv else ROOT / "tests" / "data" / "reports"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "default.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
