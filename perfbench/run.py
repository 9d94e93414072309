"""Benchmark of the wavecube package: training, tiled inference, wavelet core.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in its
own process.  The seed N picks input set N mod REFERENCE_SEEDS (see
workloads.py), whose results reference.json holds.  S defaults to
run_seconds in BENCHMARK.json.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it measures half the time untraced and
half traced, and reports the per-layer metrics plus the tracing overhead.
Every metric is printed as `metric <workload> <name> <value> <unit>`; the
last line of stdout is one JSON object with the gated metrics.  Results,
provenance and spans are written under perfbench/out/.  Run from the root
of a source checkout: the package is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from instrument import Instrument, StepClock, per_layer_metrics, per_layer_names
from spans import Tracer
from stats import median, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("train-didn-desk", "train-pu-paper", "segment-didn", "wavelet-banks")
SETUP_REPS = 3
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("mvox_per_s", "Mvox/s"),
              ("peak_rss_mb", "MB"))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or "unknown"."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return "unknown"


def provenance() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in env if k in os.environ},
    }


def timed_phase(workload, seconds: float, tracer=None) -> dict:
    """Closed loop of calls until `seconds` have passed; checks run between
    calls and are not timed."""
    clock = StepClock().install() if workload.op_root == "train.step" else None
    instrument = Instrument(tracer, workload.base_extent).install() if tracer else None
    call_times, voxels, attempted, failed = [], 0, 0, 0
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            n = workload.ops_per_call()
            attempted += n
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.call"):
                        result = workload.call()
                else:
                    result = workload.call()
            except Exception:
                if not failed:
                    traceback.print_exc(file=sys.stderr)
                failed += n
                continue
            call_times.append(time.perf_counter() - t0)
            voxels += workload.voxels(result)
            failed += min(n, workload.check(result))
    finally:
        if instrument is not None:
            instrument.uninstall()
        if clock is not None:
            clock.uninstall()
    return {"op_times": clock.durations if clock else call_times, "busy_s": sum(call_times),
            "voxels": voxels, "attempted": attempted, "failed": failed}


def run_workload(args) -> int:
    if not (ROOT / "src" / "wavecube" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'wavecube'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    from workloads import WORKLOADS, input_seed  # imports numpy and the package

    import_s = time.perf_counter() - t_import
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        setup_tracer = Tracer() if args.trace else None
        data_instrument = Instrument(setup_tracer).install_data() if args.trace else None
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload = cls(input_seed(args.seed), tmp)
            workload.setup()
            reps.append(time.perf_counter() - t0)
        if data_instrument is not None:
            data_instrument.uninstall()
        workload.prepare()

        if args.trace:
            plain = timed_phase(workload, args.seconds / 2)
            tracer = Tracer()
            traced = timed_phase(workload, args.seconds / 2, tracer)
            phases = (plain, traced)
        else:
            phases = (timed_phase(workload, args.seconds),)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    first = phases[0]
    op_times = first["op_times"]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    tail_value, tail_pct, n_ops = tail(op_times)
    p50 = median(op_times) if op_times else 0.0
    end_to_end = {
        "setup_s": import_s + median(reps),
        "op_s.p50": p50,
        "mvox_per_s": first["voxels"] / 1e6 / first["busy_s"] if first["busy_s"] else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"op_s.tail": tail_value, "op_s.tail_pct": tail_pct, "op_s.n": n_ops,
             "fail_ratio": failed / attempted if attempted else 1.0,
             "setup_reps_s": reps, "import_s": import_s, "op_times": op_times}

    units = dict(END_TO_END)
    if args.trace:
        traced = phases[1]
        spans = tracer.closed()
        n_traced = sum(1 for s in spans if s.name == workload.op_root)
        layer = per_layer_metrics(spans, workload.op_root, max(n_traced, 1))
        layer["data.phantom_s"] = sum(
            s.duration for s in setup_tracer.closed() if s.name == "data.phantom") / SETUP_REPS
        traced_p50 = median(traced["op_times"]) if traced["op_times"] else 0.0
        layer.update({
            "trace.op_s.p50": traced_p50,
            "trace.untraced_op_s.p50": p50,
            "trace.overhead_s": traced_p50 - p50,
            "trace.spans": len(tracer.spans),
        })
        units.update(per_layer_names())
        metrics = {name: layer[name] for name, _ in per_layer_names()}
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump([s.to_json() for s in tracer.spans], fh)
    else:
        metrics = end_to_end

    prov = provenance()
    report = {"workload": args.workload, "why": cls.why, "seed": args.seed,
              "input_seed": workload.seed,
              "seconds": args.seconds, "trace": args.trace, "provenance": prov,
              "metrics": metrics,
              "untraced": {**end_to_end, **extra}, "attempted": attempted, "failed": failed}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    for key, val in prov.items():
        print(f"provenance {key} {val}")
    print(f"workload {args.workload}: {cls.why}")
    print(f"inputs {args.workload}: seed {args.seed}, input set {workload.seed}")
    shown = {**end_to_end, **metrics} if args.trace else end_to_end
    for name, value in shown.items():
        print(f"metric {args.workload} {name} {value!r} {units[name]}")
    print(f"metric {args.workload} op_s.tail {tail_value!r} s "
          f"(p{tail_pct if tail_pct is None else round(tail_pct, 1)} of {n_ops} ops)")
    print(f"metric {args.workload} fail_ratio {extra['fail_ratio']!r} ratio "
          f"({failed} of {attempted} ops failed)")
    if args.trace and workload.op_root == "train.step":
        # Per step, layer self times plus the step's own glue make up the traced
        # step, so accounted - untraced p50 ~= overhead - glue: the layers
        # account for the untraced step when the glue is within the overhead.
        acc, over = metrics["trace.accounted_s"], metrics["trace.overhead_s"]
        glue = metrics["trace.unattributed_s"]
        verdict = "within" if glue <= abs(over) else "OUTSIDE"
        print(f"accounting {args.workload}: layer self times {acc:.4f} s vs untraced "
              f"op_s.p50 {p50:.4f} s, difference {acc - p50:+.4f} s; unattributed step "
              f"glue {glue:.4f} s, {verdict} the tracing overhead {over:+.4f} s")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
