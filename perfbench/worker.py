"""One benchmark process: set up one workload, warm up, run it in a closed loop.

Started by run.py (or make_reference.py), not by hand.  ``--mode setup``
stops once the inputs are ready and reports the set-up time;
``--mode reference`` prints one run's base-frame headline values;
``--mode run`` runs the workload back to back (one caller, next call after
the previous returns) for about ``--seconds``, checks every result, and
prints one JSON line.
With ``--trace 1`` the iterations alternate traced / untraced, traced first.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS.  An OpenBLAS worker thread
# busy-waits between calls, so on a two-core box one other busy process makes
# the solves run several times slower (modesum-sphere beside one busy Python
# loop, on a 2-core Xeon guest: 18-20 s per operation on two threads, 4.4-5.3 s
# on one), and the run-to-run spread follows the machine's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# headline values must match the stored references to this relative
# (Frobenius) tolerance, three decades below the loosest physics tolerance
REFERENCE_TOLERANCE = 1e-5


def import_program():
    """Import fluctem from this checkout's src/, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    import fluctem
    import fluctem.cli  # noqa: F401  every layer loaded before tracing patches it

    src = (ROOT / "src" / "fluctem").resolve()
    if Path(fluctem.__file__).resolve().parent != src:
        raise SystemExit(f"fluctem imported from {fluctem.__file__}, not from {src}")
    return fluctem


class Clock:
    """Wall and CPU time of the timed sections; tracing is on only inside them."""

    def __init__(self, tracer=None):
        self.wall = 0.0
        self.cpu = 0.0
        self.tracer = tracer

    @contextmanager
    def timed(self):
        if self.tracer:
            self.tracer.enabled = True
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w
            self.cpu += time.process_time() - c
            if self.tracer:
                self.tracer.enabled = False


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def to_json(x):
    a = np.asarray(x)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


def from_json(x):
    if isinstance(x, dict):
        return np.array(x["re"]) + 1j * np.array(x["im"])
    return np.array(x, dtype=float)


def reference_checks(reference, headline):
    from workloads import Check, rel_diff

    return [Check(f"reference.{key}", rel_diff(headline[key], from_json(val)),
                  REFERENCE_TOLERANCE, physics=False) for key, val in reference.items()]


def blas_info():
    """BLAS name, version and the thread count this process runs with."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run", "reference"), default="run")
    p.add_argument("--shrink", action="store_true")
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() of the parent just before starting this process")
    args = p.parse_args(argv)

    fl = import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    scratch = OUT / f"{wl.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
            tracer.enabled = True
        inp = wl.prepare(args.seed, args.shrink, ROOT, scratch)
        setup_s = time.monotonic() - args.launched
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_layers = {}
        if tracer:
            setup_layers = {"scene.build.s": tracer.self_s["scene.build"],
                            "scene.voxels": int(tracer.counts["scene.voxels"])}
            tracer.enabled = False
            tracer.uninstall()
        if args.mode == "reference":
            out = wl.run(inp, Clock())
            print(json.dumps({k: to_json(v) for k, v in wl.headline(inp, out).items()}))
            return 0

        # warm-up on the shrunken inputs: lazy imports, first-call costs
        wl.run(wl.prepare(args.seed, True, ROOT, scratch), Clock())

        iterations = []
        reference = None if args.shrink else json.loads(REFERENCE.read_text())[wl.name]
        min_iterations = 2 if tracer else 1
        start = time.monotonic()
        while True:
            if len(iterations) >= min_iterations:
                est = statistics.median(it["elapsed"] for it in iterations)
                if time.monotonic() - start + est > args.seconds:
                    break
            traced = bool(tracer) and len(iterations) % 2 == 0
            it = run_iteration(wl, inp, tracer if traced else None, reference)
            if traced and len(iterations) > 0:
                # the high-water mark only rises on the first traced pass
                del it["layers"]["greens.rss_rise_mb"]
            iterations.append(it)

        result = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "iterations": iterations,
            "setup_layers": setup_layers,
            "meta": {
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": __import__("scipy").__version__,
                "fluctem": fl.__version__,
                "blas": blas_info(),
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_iteration(wl, inp, tracer, reference):
    """One closed-loop operation: run, then check; exceptions count as failures."""
    t0 = time.monotonic()
    clock = Clock(tracer)
    rss0 = rss_mb()
    if tracer:
        tracer.reset()
        tracer.install()
    checks, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # count every warning, repeats included
        try:
            out = wl.run(inp, clock)
            checks = wl.checks(inp, out)
            if reference:
                checks += reference_checks(reference, wl.headline(inp, out))
        except Exception:  # a failed operation is recorded, not fatal
            error = traceback.format_exc(limit=4)
        finally:
            if tracer:
                tracer.uninstall()
    warned = {}
    for w in caught:
        key = f"{w.category.__name__}: {str(w.message)[:100]}"
        warned[key] = warned.get(key, 0) + 1
    it = {
        "wall_s": clock.wall, "cpu_s": clock.cpu, "traced": bool(tracer),
        "elapsed": time.monotonic() - t0, "error": error, "warnings": warned,
        "checks": [{"name": c.name, "error": c.error, "tolerance": c.tolerance,
                    "physics": c.physics, "passed": c.passed} for c in checks],
    }
    it["failed"] = error is not None or not all(c.passed for c in checks)
    if tracer:
        it["layers"] = tracer.layer_metrics()
        it["layer_calls"] = tracer.layer_calls()
        it["layers"]["greens.rss_rise_mb"] = peak_rss_mb() - rss0
    return it


if __name__ == "__main__":
    sys.exit(main())
