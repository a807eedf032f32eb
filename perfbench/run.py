"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload click-cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures with the program's tracing off and prints the
end-to-end metrics.  ``--trace 1`` measures untraced for half of
``--seconds``, then repeats exactly that work with spans around every
layer's entry points, and prints the per-layer metrics, the tracing
overhead and the per-layer table; so a traced run takes about as long
as an untraced one.  Each
metric line gives its unit and sample count; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The end-to-end timings are scaled to a reference
machine speed (see ``bench_calibrate.py``); the workload's own named
metrics are printed as measured.  A results document (with the machine fingerprint) is
written under ``.perfbench/`` in the repository root.

The benchmark imports the program from ``src/`` next to this directory
and refuses to run (exit code 2) without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Put ``ROOT/src`` first on the path and insist the program is
    imported from there, never from an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _refuse(f"no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _refuse(f"repro imported from {repro.__file__}, not from {SRC}")


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import bench_metrics
    from bench_calibrate import EDGE_SAMPLES, Calibrator
    from bench_trace import (SpanRecorder, format_layer_table, layer_table,
                             tracing)
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    run = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        calibrator = Calibrator()
        calibrator.sample(EDGE_SAMPLES)
        untraced = run(args.seed, args.seconds / (2 if args.trace else 1),
                       workdir, calibrator=calibrator)
        calibrator.sample(EDGE_SAMPLES)
        document = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "machine": fingerprint(),
                    "calibration": {"task_s": calibrator.task_s,
                                    "factor": calibrator.factor,
                                    "n": len(calibrator.samples)}}
        tally = untraced.tally
        if args.trace:
            gc.collect()
            recorder = SpanRecorder()
            with tracing(recorder):
                traced = run(args.seed, args.seconds, workdir,
                             recorder=recorder,
                             iterations=untraced.iterations)
            tally.merge(traced.tally)
            table = layer_table(recorder.spans)
            values = bench_metrics.per_layer(table, traced, untraced,
                                             recorder.counts)
            units = bench_metrics.units("per_layer")
            metrics = {name: {"value": values[name], "unit": units[name]}
                       for name in units}
            spans_path = os.path.join(OUT_DIR, f"{tag}-spans.json")
            recorder.dump(spans_path)
            document.update(layer_table=table, spans=spans_path)
            print(f"# {args.workload} seed={args.seed}: per-layer self "
                  f"time over {len(recorder.spans)} spans")
            print(format_layer_table(table))
            print(f"# accounted {table['accounted_s']:.4f} s of traced "
                  f"total {table['traced_total_s']:.4f} s")
        else:
            summaries = bench_metrics.end_to_end(args.workload, untraced,
                                                 calibrator.factor)
            units = bench_metrics.units("end_to_end")
            metrics = {name: {"value": summaries[name].value,
                              "unit": units[name]} for name in units}
            document["end_to_end"] = {
                name: summaries[name].as_dict(units[name])
                for name in units}
            for name in units:
                s = summaries[name]
                print(f"{name} = {s.value:.6g} {units[name]} "
                      f"(q={s.quantile:.3f}, n={s.n})")
        named = bench_metrics.named_metrics(args.workload, untraced)
        document["named"] = {name: s.as_dict(unit)
                             for name, (s, unit) in named.items()}
        for name, (s, unit) in named.items():
            print(f"{args.workload}.{name} = {s.value:.6g} {unit} "
                  f"(q={s.quantile:.3f}, n={s.n})")
        if args.trace:
            for name in sorted(metrics):
                print(f"{name} = {metrics[name]['value']:.6g} "
                      f"{metrics[name]['unit']}")
        document["failures"] = dict(tally.reasons)
        for reason, count in sorted(tally.reasons.items()):
            print(f"# failed {count}: {reason}")
        print(f"# machine {json.dumps(fingerprint())} seed={args.seed}")
        print(f"# reference task {calibrator.task_s * 1000:.3f} ms "
              f"(trimmed mean of {len(calibrator.samples)}); end-to-end "
              f"timings scaled by {calibrator.factor:.4f}")
        document["metrics"] = metrics
        with open(os.path.join(OUT_DIR, f"{tag}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, default=str)
        result = {"correct": tally.failed == 0,
                  "attempted": tally.attempted, "failed": tally.failed,
                  "metrics": metrics}
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
