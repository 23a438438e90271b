"""Record reference.json: each invocation's exit code, gate verdicts and CSV.

    python3 perfbench/record_reference.py

Run once on a trusted commit; run.py checks every later invocation against
the file within its stated tolerance.
"""

import json
import shutil
import sys

from run import REFERENCE, WORK, WORKLOADS, nproc, read_payload, run_invocation


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    reference = {}
    for workload in WORKLOADS.values():
        for inv in workload:
            r = run_invocation(inv, WORK / "reference", nproc(), False)
            if r["exit"] not in (0, 2):
                print(f"{inv.experiment}: exit {r['exit']}", file=sys.stderr)
                return 1
            reference[inv.experiment] = {"exit": r["exit"],
                                         **read_payload(r["outdir"],
                                                        inv.experiment)}
            print(f"{inv.experiment}: exit {r['exit']} {r['wall']:.2f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
