"""Audit benchmark: end-to-end and per-layer metrics of strikeaudit.

    python3 auditbench/run.py --workload tree-heavy --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Per workload it draws synthetic populations from --seed, writes them to the
workload's fixed paths under .auditbench/, and runs the audits in a worker
process of their own (auditbench/worker.py) for --seconds.

--trace 0 prints the end-to-end metrics: audit_s (seconds of run_audit +
write_outputs), setup_s (seconds for a fresh interpreter to import
strikeaudit) and peak_rss_mb (the worker's peak resident memory). Both times
are medians of the run's samples scaled to a fixed machine speed by a
reference loop (calibrate.py), because the shared machine's own speed drifts
more than the bounds allow: each audit by the loop timed just before and
after it, the imports by the loop timed before and after them all. The raw
wall seconds, the loop's times and the sample counts are printed beside them.
Every process runs numpy with one BLAS thread, so that a busy neighbour on
the other core does not stall a BLAS call.
--trace 1 prints the per-layer metrics of a traced run. Every audit's
report.json is checked (checks.py); audits that raise or fail a check count
as failed. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
# One BLAS thread everywhere: the audits' matrices are small, and a second
# thread only makes timings depend on what else runs on the host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import strikeaudit; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"audit_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{f"audit.{stage}_s": "s" for stage in (
        "load", "matrix", "subset", "ablation", "tree", "disparity", "self")},
    "logreg.fit_calls": "count",
    "logreg.fit_calls.subset": "count",
    "logreg.fit_calls.ablation": "count",
    "logreg.fit_s": "s",
    "logreg.fit_us_mean": "us",
    "logreg.newton_iters_mean": "iterations",
    "logreg.unconverged": "count",
    "logreg.fit_repeat_frac": "fraction",
    "logreg.fit_us.k1": "us",
    "logreg.fit_us.k8": "us",
    "subset.path_s": "s",
    "subset.best_subset_s": "s",
    "subset.certified_frac": "fraction",
    "tree.fit_tree_calls": "count",
    "tree.fit_tree_s": "s",
    "tree.fit_tree_s_mean": "s",
    "tree.fit_tree_one_s": "s",
    "tree.leaves": "count",
    "tree.objective": "1",
    "dataset.load_csv_s": "s",
    "dataset.build_matrix_s": "s",
    "stats.auc_calls": "count",
    "stats.auc_s": "s",
    "stats.auc_us": "us",
    "stats.fisher_calls": "count",
    "stats.fisher_s": "s",
    "stats.fisher_us": "us",
    "trace.overhead_frac": "fraction",
}


def setup_seconds() -> tuple[list[float], float]:
    """Seconds to import strikeaudit, each in a fresh interpreter, and their
    median scaled by the reference loop timed before and after them all. One
    untimed import first, so byte-compiling the sources is not counted."""
    from calibrate import loop_seconds, scaled

    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples: list[float] = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        if i == 0:
            loop_before = loop_seconds()
        else:
            samples.append(float(out.stdout.strip()))
    return samples, scaled(median(samples), loop_before, loop_seconds())


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "one sample"
    q1, q2, q3 = quantiles(values, n=4)
    return (
        f"min {min(values):.3f}, q1 {q1:.3f}, median {q2:.3f}, q3 {q3:.3f}, "
        f"max {max(values):.3f}; (q3-q1)/median {(q3 - q1) / q2:.3f}"
    )


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy in use, when it can be asked."""
    import ctypes
    import glob
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import WORKLOADS, write_inputs
    import numpy

    w = WORKLOADS[name]
    Path(w.workdir).mkdir(parents=True, exist_ok=True)
    write_inputs(w, seed)
    print(
        f"== {name} (seed {seed}, trace {trace}): n={w.n}, {w.noise} noise answers, "
        f"k_max={w.k_max}, max_depth={w.max_depth}, alpha_grid={list(w.alpha_grid)}"
    )
    print(
        f"   env: nproc={os.cpu_count()}, python={platform.python_version()}, "
        f"numpy={numpy.__version__}, blas_threads={blas_threads()}"
    )
    setup_raw, setup = setup_seconds() if trace == 0 else ([], 0.0)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"   worker: {time.perf_counter() - started:.1f} s wall")

    times = worker["audit_times"]
    if not times:
        raise RuntimeError(f"no audit of {name} succeeded: {worker['problems']}")
    if trace == 0:
        audit = worker["audit_scaled"]
        values = {
            "audit_s": median(audit),
            "setup_s": setup,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"   audit_s samples: {len(audit)}; scaled {spread(audit)}")
        print(f"   audit wall s: {spread(times)}")
        print(f"   audit wall s each: {' '.join(f'{t:.3f}' for t in times)}")
        print(f"   reference loop s: {spread(worker['loop_times'])}")
        print(f"   reference loop s each: {' '.join(f'{t:.4f}' for t in worker['loop_times'])}")
        print(f"   setup_s samples: {len(setup_raw)}; wall {spread(setup_raw)}")
    else:
        values = worker.get("metrics", {})
        units = PER_LAYER_UNITS
        if set(values) != set(units):
            raise RuntimeError(f"traced run emitted {sorted(values)}, expected {sorted(units)}")
        values = {k: values[k] for k in units}
        print(f"   traced audits: {len(times)}; spans in {worker['spans']}")
    for key, value in values.items():
        print(f"   {key:<28} {value:>14.6g} {units[key]}")
    failed_frac = worker["failed"] / worker["attempted"]
    print(f"   {'failed_frac':<28} {failed_frac:>14.6g} fraction "
          f"({worker['failed']} of {worker['attempted']} audits)")
    for problem in worker["problems"]:
        print(f"   FAILED: {problem}")
    print(f"   first population's report.json sha256 {worker['digest']} (information only)")
    return {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "strikeaudit" / "__init__.py").is_file():
        print(f"error: no strikeaudit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
