"""Rewrite perfbench/reference.json from the current program.

Usage: python3 perfbench/make_reference.py

Runs each `verify` workload once and keeps the seed-independent part of its
report: suites and rows with id, passed, exact, tol and dev.  Only run this
on a commit whose reports are known to be right; a report that does not pass
is refused.
"""

import json
import sys
import time

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    config = run.make_config(0)
    config_path = run.OUT / "config-reference.json"
    config_path.write_text(json.dumps(config))
    runner = run.Runner(deadline=time.monotonic() + 600)
    reference = {}
    for name, args in sorted(run.WORKLOADS.items()):
        if args[0] != "verify":
            continue
        res = runner.ovc(args, config_path)
        report = json.loads(res["stdout"])
        if res["code"] != 0 or report["passed"] is not True:
            print("%s did not pass; reference not written" % name, file=sys.stderr)
            return 1
        reference[name] = run.verify_summary(report)
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
