"""Regenerate perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

Runs each workload once at full size and stores its headline values in the
base frame of the seed images.  Only regenerate when a change is meant to
alter the numbers, and say so where the change is described.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w["name"],
               "--seed", "0", "--seconds", "0", "--mode", "reference",
               "--launched", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        ref[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(w["name"], "done")
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
