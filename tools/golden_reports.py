"""Write the golden ``verify`` reports under ``tests/data/reports/``.

Each file is the report that ``curvesys verify`` writes for one argument set,
with every suite's ``millis`` (its wall time, the only field that varies
between runs) removed, laid out as ``json.dumps(report, indent=2,
sort_keys=True)`` and a newline, so it diffs cleanly against a stripped
report of the command line:

- ``default.json``: the default arguments.  Tier-1 compares an in-process run
  with it.
- ``algebra.json``: the five algebra suites at ``--bound 5 --conv-bound 5
  --trials 5000``, the benchmark's ``verify_algebra`` set.
- ``oracle6.json``: ``--suite resolution_oracle --bound 6``, the benchmark's
  ``verify_oracle`` set.

CI diffs a worker run of each set against its file.  A change that moves a
report rewrites the files with this script and says which keys moved and why.

Usage, from the repository root::

    python tools/golden_reports.py           # rewrite tests/data/reports/
    python tools/golden_reports.py OUTDIR    # write the files to OUTDIR
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALGEBRA = ["product_laws", "convexity", "twist_dynamics", "twist_bounds", "twist_coords"]
ARGUMENT_SETS = {
    "default": [],
    "algebra": [a for s in ALGEBRA for a in ("--suite", s)]
    + ["--bound", "5", "--conv-bound", "5", "--trials", "5000"],
    "oracle6": ["--suite", "resolution_oracle", "--bound", "6"],
}


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from curvesys.cli import main as cli_main

    out = Path(argv[0]) if argv else ROOT / "tests" / "data" / "reports"
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in ARGUMENT_SETS.items():
            report = Path(tmp) / f"{name}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["verify", *args, "--out", str(report)])
            if code != 0:
                print(f"{name}: verify exited {code}", file=sys.stderr)
                return code
            doc = json.loads(report.read_text(encoding="utf-8"))
            for suite in doc["suites"]:
                suite.pop("millis")
            path = out / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
