#!/usr/bin/env python3
"""Run one benchmark workload through the whole condlm pipeline.

    python3 perfbench/run.py --workload toy-memorize --seed 1 --seconds 20 --trace 0

Prints each metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps condlm's
layers in spans, reports the per-layer metrics and writes every span to
perfbench_runs/trace-<workload>-<seed>.json. Exit codes: 0 success, 1 a
stage's output failed its check or condlm raised one of its own errors
(the stage's operations then count as failed), 2 the benchmark could not
run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the workload is one closed-loop client, and the two
# `--workers 2` phases of the traced run then stay within two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench_runs"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time the repeatable stages share")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
        if not (ROOT / "src" / "condlm" / "__init__.py").is_file():
            raise ImportError(f"no condlm source under {ROOT / 'src'}")
        sys.path.insert(0, str(ROOT / "src"))
        import checks
        import pipeline
        from condlm.errors import ConfigError, DataError, NumericalError
        from workloads import WORKLOADS
    except (OSError, ValueError, ImportError) as e:
        print(f"perfbench: cannot run here: {e}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    work = RUNS / f"{wl.name}-{args.seed}-{os.getpid()}"
    run = pipeline.Run(wl, args.seed, args.seconds, bool(args.trace), work)
    failed, error = 0, None
    try:
        run.setup(imports_s)
        for stage in pipeline.STAGES:
            try:
                getattr(run, stage)()
            except (checks.CheckFailed, ConfigError, DataError, NumericalError) as e:
                failed = run.attempted.setdefault(getattr(e, "stage", stage), 1)
                error = f"{type(e).__name__}: {e}"
                break
        run.finish()
        if args.trace and error is None:
            metrics = run.per_layer()
            run.tracer.dump(RUNS / f"trace-{wl.name}-{args.seed}.json",
                            {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                             "blas_threads": BLAS_THREADS, "end_to_end": run.e2e,
                             "per_layer": metrics,
                             "busy": {f"{stage}.{'traced' if on else 'untraced'}": v
                                      for (stage, on), v in run.busy.items()}})
        else:
            metrics = run.e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  blas_threads {BLAS_THREADS}")
    if error is not None:
        print(f"FAILED {error}", file=sys.stderr)
        print(f"failed: {error}")
        result = {}
    else:
        missing = set(units) ^ set(metrics)
        if missing:
            print(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}", file=sys.stderr)
            return 2
        result = {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}
        for name, m in result.items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    attempted = sum(run.attempted.values())
    print(f"  operations attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": error is None, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
