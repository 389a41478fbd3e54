"""Benchmark of the eeg-prognosis pipeline, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Each run is one process. It sets up the workload's inputs from the seed
three times (reporting the median set-up time), then repeats the workload's
job until ``--seconds`` have passed, and checks each job's outputs. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with only
the light probes of ``tracing.patched(full=False)`` installed. With
``--trace 1`` they are the per-layer ones: jobs alternate between untraced
and fully traced, the per-layer metrics come from the traced jobs, and the
difference between the two kinds of job is reported as tracing overhead.
The line before the result is a report: the machine, every metric with
its unit, better direction and sample count, and the output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import machine

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND_TAIL = 10

# name, unit, better: reported by every workload with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("job_s", "s", "lower"),
    ("step_s", "s", "lower"),
    ("infer_segment_s", "s", "lower"),
    ("corpus_open_s_per_hour", "s/h", "lower"),
    ("preprocess_s_per_hour", "s/h", "lower"),
)

# What each generic end-to-end metric measures on each workload.
ALIASES = {
    "desk-train": {"job_s": "train_run_s", "step_s": "train_step_s",
                   "infer_segment_s": "desk_infer_segment_s"},
    "wide": {"job_s": "read_write_cycle_s", "step_s": "entry1_train_step_s",
             "infer_segment_s": "entry4_infer_segment_s"},
    "ingest": {"job_s": "ingest_pass_s", "step_s": "predict_patient_s",
               "infer_segment_s": "desk_infer_segment_s"},
}


def tail_percentile(n: int) -> int | None:
    """Highest reported percentile with at least 10 of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            return p
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _limit_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _import_program():
    src = ROOT / "src"
    if not (src / "prognosis" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {src}")
    sys.path.insert(0, str(src))
    import prognosis

    if Path(prognosis.__file__).resolve().parent != (src / "prognosis").resolve():
        raise SystemExit(f"error: imported prognosis from {prognosis.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    _limit_blas_threads()
    _import_program()

    import numpy as np

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"tmp-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer()
    samples: dict[str, list[float]] = {"setup_s": []}

    def add_samples(new):
        for name, vals in new.items():
            samples.setdefault(name, []).extend(vals)

    try:
        for _ in range(SETUP_REPEATS):
            with tracing.patched(tracer, full=False):
                t = perf_counter()
                wl.setup(tracer)
                samples["setup_s"].append(perf_counter() - t)
            add_samples(wl.setup_samples(tracer.take()))
        jobs = run_jobs(wl, tracer, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [j for j in jobs if j["ok"] and not j["traced"]]
    traced = [j for j in jobs if j["ok"] and j["traced"]]
    if not good or args.trace and not traced:
        print("error: no job completed", file=sys.stderr)
        return 1
    failed_jobs = sum(not j["ok"] for j in jobs)
    attempted = len(jobs) + len(wl.checks)
    failed = failed_jobs + sum(not ok for _, ok in wl.checks)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.info(ROOT),
        "setup_repeats": SETUP_REPEATS,
        "jobs": {"untraced": len(good),
                 "traced": len(traced),
                 "failed": failed_jobs,
                 "wall_s": [j["wall"] for j in jobs]},
        "error_rate": failed / attempted,
        "checks": _check_counts(wl.checks),
    }

    if args.trace:
        out_dir.mkdir(exist_ok=True)
        tracing.write_tsv(tracing.merge([j["spans"] for j in jobs]),
                          out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        values = tracing.layer_metrics(
            tracing.merge([j["spans"] for j in traced]), len(traced))
        plain = float(np.median([j["wall"] for j in good]))
        overhead = float(np.median([j["wall"] for j in traced])) - plain
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / plain
        spec = tracing.PER_LAYER
        report["metrics"] = {
            name: {"value": values[name], "unit": unit, "better": better, "moves": moves}
            for name, unit, better, moves in spec
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in spec}
    else:
        for j in good:
            add_samples(wl.samples(j["spans"]))
        if not all(samples.get(name) for name, _, _ in END_TO_END if name != "peak_rss_mb"):
            print("error: a metric has no samples", file=sys.stderr)
            return 1
        values = {name: float(np.median(v)) for name, v in samples.items()}
        values["peak_rss_mb"] = machine.peak_rss_mb()
        aliases = ALIASES[args.workload]
        report["metrics"] = {}
        for name, unit, better in END_TO_END:
            n = len(samples.get(name, ()))
            entry = {"value": values[name], "unit": unit, "better": better, "n": n,
                     "samples": samples.get(name, [values[name]])}
            if name in aliases:
                entry["alias"] = aliases[name]
            p = tail_percentile(n)
            if p is not None:
                entry[f"p{p}"] = float(np.percentile(samples[name], p))
            report["metrics"][name] = entry
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_jobs(wl, tracer, seconds: float, trace: bool) -> list[dict]:
    """Repeat the workload's job until ``seconds`` have passed.

    The job running when time is up is finished and counted. With
    ``trace``, jobs alternate untraced and traced, starting untraced.
    """
    import tracing

    jobs: list[dict] = []
    start = perf_counter()
    while not jobs or trace and len(jobs) < 2 or perf_counter() - start < seconds:
        traced = trace and len(jobs) % 2 == 1
        result, ok = None, True
        with tracing.patched(tracer, full=traced):
            t = perf_counter()
            try:
                with tracer.span("bench.job"):
                    result = wl.job(tracer)
            except Exception:
                traceback.print_exc()
                ok = False
            wall = perf_counter() - t
        spans = tracer.take()
        if ok:
            try:
                wl.verify(result)
            except Exception:
                traceback.print_exc()
                wl.check("verify raised", False)
        jobs.append({"spans": spans, "traced": traced, "ok": ok, "wall": wall})
    return jobs


def _check_counts(checks) -> dict[str, list[int]]:
    """check name -> [passed, total]"""
    out: dict[str, list[int]] = {}
    for name, ok in checks:
        c = out.setdefault(name, [0, 0])
        c[0] += ok
        c[1] += 1
    return out


if __name__ == "__main__":
    sys.exit(main())
