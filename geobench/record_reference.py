"""Record the reference outputs that the benchmark checks every run against.

    python3 geobench/record_reference.py

Runs each workload once, cold, at every size, and writes
geobench/reference.json: pi and psi per grid point for spectrum and report,
psi_D and coefficient_sum per relation pool entry, points_checked per
verification step.  Run it only on a commit whose outputs are trusted; the
committed file was recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import sys

from session import REFERENCE, SIZES, WORKLOADS, import_geomatch, invocations, run_rep


def reference_values(inv, text: str) -> dict:
    results = json.loads(text)["results"]
    command = inv.argv[0]
    if command in ("spectrum", "report"):
        return {"rows": [[r["x"], r["pi"], r["psi"]] for r in results]}
    if command == "relation":
        return {"psi_D": results["psi_D"], "coefficient_sum": results["coefficient_sum"]}
    if command == "coverage":
        return {}
    return {"points_checked": results["points_checked"]}


def main() -> int:
    import_geomatch()
    out = {}
    for size in SIZES:
        out[size] = {}
        for workload in WORKLOADS:
            invs = invocations(workload, 0, size)
            _, outputs = run_rep(invs, 1)
            for inv, (code, text) in zip(invs, outputs):
                if code != 0:
                    print(f"{inv.label}: exit code {code}", file=sys.stderr)
                    return 1
                out[size][inv.label] = reference_values(inv, text)
            print(f"recorded {size} {workload}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
