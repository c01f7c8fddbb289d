"""Record the output digests and census facts that the checks compare
against, by running every cold operation once.

    python3 bench/record_expected.py

Run it from the repository root at the commit whose outputs are the
contract; it rewrites bench/expected.json.
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    expected = {"outputs": {}, "census": {}}
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        for name in workloads.NAMES:
            for op in workloads.operations(name, 0, str(run.F85)):
                kind = op.spec["kind"]
                if kind.startswith("probe_"):
                    continue
                outcome = run.run_op(op, workdir, False, time.monotonic() + 600, expected)
                if outcome.result is None or outcome.result.get("rc", 0) != 0:
                    print(f"{op.name} failed: {outcome.problems}", file=sys.stderr)
                    return 1
                if kind == "cli":
                    expected["outputs"][op.name] = outcome.digests
                elif kind == "census":
                    expected["census"] = {k: outcome.result[k] for k in ("count", "hist", "first", "last")}
                print(f"recorded {op.name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = workloads.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
