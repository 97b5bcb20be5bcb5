"""Run one benchmark workload of the plane-sphere solver and print its metrics.

    python3 perfbench/run.py --workload wkb-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (the package is imported from ./src).
The workload runs in a closed loop: one caller, each solve starting when the
one before it returns.  Rounds of the workload's solves repeat while another
round is expected to fit in --seconds; at least one round always runs.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the span trace (see perfbench/README.md).  The outputs
of every round are checked afterwards, outside the timed region.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
import time  # noqa: I001  (first import: set-up is timed from process start)
import argparse
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")


def process_age() -> float:
    """Seconds since this process started (Linux /proc start time, 1 tick resolution)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")   # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "cpus": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "planesphere" / "__init__.py").is_file():
        print(f"error: no planesphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracer as tracing
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = process_age()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    walls, cpus, outputs, errors = [], [], [], []
    attempted = failed = 0
    steal0 = steal_seconds()
    t_begin = time.perf_counter()
    while True:
        out = {}
        t0, c0 = time.perf_counter(), cpu_seconds()
        for op in workload.ops:
            attempted += 1
            try:
                with tracer.solve(op.name) if tracer else nullcontext():
                    out[op.name] = op.run()
            except Exception as exc:  # a failed solve is counted, not fatal
                failed += 1
                errors.append(f"{op.name}: {exc!r}")
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        outputs.append(out)
        if time.perf_counter() - t_begin + max(walls) > args.seconds:
            break
    steal = steal_seconds() - steal0
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer:
        tracer.uninstall()

    # `correct` speaks of the solves that did not fail; a round with a
    # failed solve lacks an output its check needs and is skipped
    fails = []
    for out in outputs:
        if len(out) == len(workload.ops):
            fails += workload.check(out)
    fails += workload.extra_check()
    for msg in errors:
        print(f"FAILED SOLVE {msg}", file=sys.stderr)
    for msg in fails:
        print(f"WRONG {msg}", file=sys.stderr)

    if tracer:
        metrics = {k: (v, tracing.LAYER_UNITS[k])
                   for k, v in tracing.layer_metrics(tracer.spans, len(walls)).items()}
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
        metrics["trace.spans"] = (len(tracer.spans) / len(walls), "count")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        }
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    env = environment()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "env": env, "result": result,
        "round_wall_s": walls, "round_cpu_s": cpus, "steal_s": steal,
        "failed_solves": errors, "wrong": fails,
        "outputs": {name: _describe(value) for name, value in outputs[-1].items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        spans = [s.as_list() for s in tracer.spans]
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "solve", "data"], "spans": spans}))

    print(f"env {json.dumps(env)}")
    print(f"rounds {len(walls)}, solves attempted {attempted}, failed {failed}, "
          f"CPU time stolen by the hypervisor {steal:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def _describe(value):
    """A solve's output as JSON: the energy report's dict, or the float."""
    return value.to_dict() if hasattr(value, "to_dict") else value


if __name__ == "__main__":
    sys.exit(main())
