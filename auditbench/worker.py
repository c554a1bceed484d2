"""Audits of one workload in a process of their own, so that ru_maxrss is this
workload's peak and not the largest one's. run.py writes the inputs first and
reads the last stdout line, one JSON object.

--trace 0 audits the run's populations in turn with run_audit +
write_outputs and times each, with the reference loop (calibrate.py) timed
between audits to scale each time. --trace 1 alternates an untraced and a
traced audit of the first population, derives per-layer metrics from the
traced one's spans, then times single calls into each layer on that
population's training split.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from strikeaudit import (  # noqa: E402
    ContingencyTable,
    auc,
    best_subset,
    build_matrix,
    filter_eligible,
    fisher_exact,
    fit,
    fit_tree,
    load_csv,
    predict_proba,
    split,
)
from strikeaudit.audit import run_audit, write_outputs  # noqa: E402

from calibrate import loop_seconds, scaled  # noqa: E402
from checks import report_problems  # noqa: E402
from tracing import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import POPULATIONS, WORKLOADS, audit_config  # noqa: E402

# Every population once and the first twice at least, so every run checks
# that a rerun gives the same bytes.
MIN_AUDITS = POPULATIONS + 1
MICRO_REPEATS = 3


class Audits:
    """Runs audits of one config, timing each and checking its report."""

    def __init__(self, cfg, outdir: Path):
        self.cfg = cfg
        self.outdir = outdir
        with open(cfg.input_path, newline="", encoding="utf-8") as fh:
            self.n_eligible = sum(row["eligible"] == "1" for row in csv.DictReader(fh))
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, tracer: Tracer | None = None) -> float | None:
        """Seconds for run_audit + write_outputs, or None if the audit failed."""
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                report = run_audit(self.cfg)
                write_outputs(report, self.outdir)
                seconds = time.perf_counter() - start
            else:
                tracer.install()
                try:
                    with tracer.span("audit") as root:
                        report = run_audit(self.cfg)
                        write_outputs(report, self.outdir)
                finally:
                    tracer.restore()
                seconds = root.seconds
        except Exception as exc:  # a failed audit is counted, not fatal
            return self.fail(f"audit raised {type(exc).__name__}: {exc}")
        data = (self.outdir / "report.json").read_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            label = "traced" if tracer else "repeated"
            return self.fail(f"{label} audit's report.json differs from the first audit's")
        problems = report_problems(json.loads(data), self.n_eligible)
        if problems:
            return self.fail("; ".join(problems))
        return seconds

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)
        return None

    def digest(self) -> str | None:
        return hashlib.sha256(self.reference).hexdigest() if self.reference else None


def repeat_for(seconds: float, minimum: int, step) -> None:
    """Call step() at least ``minimum`` times, then while the next call,
    judged by the last one, still ends within ``seconds``."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done < minimum or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        step()
        last = time.perf_counter() - t
        done += 1


def timed(fn, repeats: int = MICRO_REPEATS) -> tuple[float, object]:
    """Median seconds of ``repeats`` calls, and the last call's result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return median(times), result


def per_call_us(fn, calls: int) -> float:
    """Median over five batches of the mean microseconds per call."""
    return 1e6 * timed(lambda: [fn() for _ in range(calls)], repeats=5)[0] / calls


def micro_metrics(cfg, alpha: float) -> dict[str, float]:
    """Single calls into each layer on the workload's training split."""
    out: dict[str, float] = {}
    out["dataset.load_csv_s"], table = timed(lambda: load_csv(cfg.input_path, cfg.catalog))
    eligible = filter_eligible(table)
    out["dataset.build_matrix_s"], m = timed(lambda: build_matrix(eligible, cfg.missing_policy))
    train, _ = split(m, cfg.train_fraction, cfg.seed)
    settings = cfg.fit_settings()

    out["logreg.fit_us.k1"] = per_call_us(lambda: fit(train, (0,), settings), 50)
    out["logreg.fit_us.k8"] = per_call_us(lambda: fit(train, range(8), settings), 20)

    k = min(cfg.k_max, train.p) // 2
    results = []
    out["subset.best_subset_s"], _ = timed(
        lambda: results.append(best_subset(train, k, settings, cfg.node_budget))
    )
    out["subset.certified_frac"] = sum(r.certified_optimal for r in results) / len(results)

    tree_settings = replace(cfg.tree_settings(), alpha=alpha)
    out["tree.fit_tree_one_s"], _ = timed(lambda: fit_tree(train.without_race(), tree_settings))

    black = train.x[:, train.columns.index("is_black")] != 0
    struck = train.y != 0
    table2x2 = ContingencyTable(
        a=int(np.sum(black & struck)),
        b=int(np.sum(black & ~struck)),
        c=int(np.sum(~black & struck)),
        d=int(np.sum(~black & ~struck)),
    )
    out["stats.fisher_us"] = per_call_us(lambda: fisher_exact(table2x2), 200)
    scores = predict_proba(fit(train, range(8), settings), train)
    out["stats.auc_us"] = per_call_us(lambda: auc(scores, train.y), 50)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    workdir = Path(w.workdir)
    populations = [Audits(audit_config(w, i), workdir / f"out-{i}") for i in range(POPULATIONS)]
    # The traced run audits the first population only, so that its traced
    # and untraced reports can be compared byte for byte.
    audits = populations[0]
    cfg = audits.cfg
    result: dict = {}

    if args.trace == 0:
        times: list[float] = []
        scaled_times: list[float] = []
        loops = [loop_seconds()]
        turns = itertools.cycle(populations)

        def step():
            seconds = next(turns).run()
            loops.append(loop_seconds())
            if seconds is not None:
                times.append(seconds)
                scaled_times.append(scaled(seconds, loops[-2], loops[-1]))

        repeat_for(args.seconds, MIN_AUDITS, step)
        result["audit_times"] = times
        result["audit_scaled"] = scaled_times
        result["loop_times"] = loops
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        plain: list[float] = []
        traced: list[float] = []
        per_audit: list[dict[str, float]] = []
        traces: list[list] = []

        def step():
            seconds = audits.run()
            if seconds is not None:
                plain.append(seconds)
            tracer = Tracer()
            seconds = audits.run(tracer)
            if seconds is None:
                return
            traced.append(seconds)
            traces.append(tracer.spans)
            try:
                per_audit.append(layer_metrics(tracer.spans))
            except ValueError as exc:
                audits.fail(f"trace: {exc}")

        repeat_for(args.seconds, 1, step)
        spans_path = workdir / "spans.jsonl"
        write_spans(spans_path, traces)
        if per_audit and plain:
            metrics = {k: median(m[k] for m in per_audit) for k in per_audit[0]}
            metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
            alpha = json.loads(audits.reference)["tree"]["alpha"]
            metrics.update(micro_metrics(cfg, alpha))
            result["metrics"] = metrics
        result["audit_times"] = traced
        result["spans"] = str(spans_path)

    result.update(
        attempted=sum(a.attempted for a in populations),
        failed=sum(a.failed for a in populations),
        problems=[p for a in populations for p in a.problems][:5],
        digest=audits.digest(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
