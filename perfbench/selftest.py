"""Fast self-test of the benchmark harness on shrunken inputs.

    python3 perfbench/selftest.py

Runs every workload with --shrink for one second, untraced and traced, and
checks that
  * the last line is the result object with exactly the contract's keys,
    and every metric of BENCHMARK.json is there with its unit;
  * every workload ran and recorded its physics checks;
  * the traced runs reached every layer, and report trace.overhead_frac;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits nonzero without printing a result.
Exits 0 when all of these hold; takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import LAYERS  # noqa: E402

PHYSICS_CHECKS = {
    "casimir-pair": {"casimir.tail_fraction", "casimir.ordering_split"},
    "identity-sphere": {"identity.residual"},
    "ldos-spectrum": {"ldos.reciprocity", "ldos.coincidence_limit"},
    "modesum-sphere": {"modes.route_disagreement"},
}


def bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--shrink"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems, reached = [], dict.fromkeys(LAYERS, 0)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(ROOT, name, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(lines[-1])
            meta = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {res}")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if not got or got["unit"] != m["unit"] or not isinstance(got["value"],
                                                                        (int, float)):
                    problems.append(f"{name} trace={trace}: metric {m['name']} is {got}")
            if set(res["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{name} trace={trace}: extra metrics")
            ran = {c["name"] for c in meta["checks"] if c["physics"]}
            if ran != PHYSICS_CHECKS[name]:
                problems.append(f"{name} trace={trace}: physics checks {sorted(ran)}")
            for layer, n in meta.get("layer_calls", {}).items():
                reached[layer] += n
    missing = [layer for layer, n in reached.items() if n == 0]
    if missing:
        problems.append(f"traced runs never reached layers {missing}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
