"""fluctem benchmark: time to a checked result, end to end and by layer.

    python3 perfbench/run.py --workload identity-sphere --seed 3 --seconds 30 --trace 0

Runs one workload of BENCHMARK.json in a worker process of its own, as a
closed loop with one caller, and checks every result.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Prints a summary line, a metadata line, and as the last line one JSON
object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every result passed its checks; 1 when an operation
raised or failed a check (the result line is still printed); 2 when the
program could not be run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# set-up-only processes, half started before the measuring process and half
# after it, so that the set-up samples span the run; the measuring process
# adds one sample
SETUP_PROCESSES = 4
DEADLINE_S = 170.0  # the whole command ends within this


class RunError(Exception):
    pass


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def worker(args, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    if args.shrink:
        cmd.append("--shrink")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise RunError(f"{mode} worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(values):
    values = list(values)
    return statistics.median(values) if values else None


def summarize(args, spec, setup_samples, res):
    iters = res["iterations"]
    plain = [it for it in iters if not it["traced"]]
    traced = [it for it in iters if it["traced"]]
    ratios = [c["error"] / c["tolerance"] for it in iters for c in it["checks"]
              if c["physics"]]
    accuracy = max(ratios) if ratios and all(map(math.isfinite, ratios)) else None
    if args.trace:
        values = dict(res["setup_layers"])
        for key in traced[0]["layers"]:
            values[key] = median_of(it["layers"][key] for it in traced
                                    if key in it["layers"])
        values["trace.overhead_frac"] = (median_of(it["wall_s"] for it in traced)
                                         / median_of(it["wall_s"] for it in plain) - 1)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": median_of(it["wall_s"] for it in plain),
            "cpu_s": median_of(it["cpu_s"] for it in plain),
            "setup_s": median_of(setup_samples),
            "peak_rss_mb": res["peak_rss_mb"],
            "accuracy_ratio": accuracy,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(it["failed"] for it in iters)
    return {"correct": failed == 0 and accuracy is not None,
            "attempted": len(iters), "failed": failed, "metrics": metrics}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True, help="picks the evaluation points")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shrink", action="store_true",
                   help="small sizes, no reference values: for the harness self-test")
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "fluctem" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src' / 'fluctem'}",
              file=sys.stderr)
        return 2
    try:
        half = 0 if args.trace else SETUP_PROCESSES // 2
        setup_samples = [worker(args, "setup", deadline)["setup_s"] for _ in range(half)]
        res = worker(args, "run", deadline)
        setup_samples += [worker(args, "setup", deadline)["setup_s"] for _ in range(half)]
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_samples.append(res["setup_s"])
    out = summarize(args, spec, setup_samples, res)

    iters = res["iterations"]
    meta = dict(res["meta"], git_commit=git_commit(), seed=args.seed, trace=args.trace,
                seconds=args.seconds, shrink=args.shrink,
                samples={"iterations": len(iters),
                         "untraced": sum(not it["traced"] for it in iters),
                         "traced": sum(it["traced"] for it in iters),
                         "setup": len(setup_samples)})
    warned = {}
    for it in iters:
        for key, n in it["warnings"].items():
            warned[key] = warned.get(key, 0) + n
    meta["warnings"] = warned
    meta["layer_calls"] = {}
    for it in iters:
        for layer, n in it.get("layer_calls", {}).items():
            meta["layer_calls"][layer] = meta["layer_calls"].get(layer, 0) + n
    worst = {}
    for it in iters:
        for c in it["checks"]:
            if c["name"] not in worst or not c["error"] <= worst[c["name"]]["error"]:
                worst[c["name"]] = c
    meta["checks"] = list(worst.values())
    meta["errors"] = [it["error"] for it in iters if it["error"]]

    OUT.mkdir(exist_ok=True)
    OUT.joinpath(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": out, "meta": meta, "setup_samples": setup_samples,
                    "iterations": iters}, indent=1))

    shown = " ".join(f"{k}={v['value']:.6g}" if v["value"] is not None else f"{k}=None"
                     for k, v in out["metrics"].items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {shown} "
          f"failed_frac={out['failed']}/{out['attempted']} "
          f"(medians of {meta['samples']})")
    for c in meta["checks"]:
        if not c["passed"]:
            print(f"  FAILED check {c['name']}: {c['error']:.3g} > {c['tolerance']:.3g}")
    for err in meta["errors"]:
        print("  FAILED operation:\n" + err)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
