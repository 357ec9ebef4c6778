"""Regenerate expected_box27.json: gridforge's verdict on each point of the
27-point box that the design-sweep workload runs.

No solver apart from gridforge is at hand to certify that a point is
infeasible, so the refusals can only be checked against a list the
program made earlier.  This command makes that list anew:

    python3 perfbench/regen_expected.py

Review the diff of expected_box27.json before committing it: a refusal
that appears or disappears is a change of verdict.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import BOX27, run_command  # noqa: E402


def main() -> None:
    out = HERE / "out" / "regen"
    out.mkdir(parents=True, exist_ok=True)
    argv = ["sweep", *BOX27, "--out", str(out)]
    code, _, stderr, _ = run_command(argv)
    if code != 0:
        sys.exit(f"gridforge sweep failed: {stderr}")
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    points = []
    for row in rows:
        r_t, l_t, c_t, status = row.split(",")[:4]
        points.append({"r_t": float(r_t), "l_t": float(l_t),
                       "c_t": float(c_t), "status": status})
    doc = {"command": ["gridforge", *argv[:-2]], "points": points}
    path = HERE / "expected_box27.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    counts = {}
    for p in points:
        counts[p["status"]] = counts.get(p["status"], 0) + 1
    print(f"wrote {path.name}: {counts}")


if __name__ == "__main__":
    main()
