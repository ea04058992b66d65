#!/usr/bin/env python3
"""specx benchmark: whole recipes end to end, with per-layer spans.

Run from the repository root:

    python3 specxbench/run.py --workload hole-sweep --seed 0 --seconds 28
    python3 specxbench/run.py --workload all --seed 0 --seconds 28
    python3 specxbench/run.py --workload gl-minmax --seed 3 --trace 1

One run sets up (imports, warm-up on tiny inputs), then runs passes of the
workload back to back, untraced, as many as fit in --seconds; every pass
checks its outputs (see workloads.py). With --trace 1 one more pass runs
under the span recorder (spans.py) and its per-layer metrics are reported.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones listed in BENCHMARK.json, with --trace 1 its per-layer
ones. The lines before it print every metric by name and unit, and a JSON
detail line with the environment, the pass times and any failures.

On a shared host the CPU's speed swings by up to 1.8x within seconds, with
no steal time: neighbours slow the core itself, and interpreted code more
than dense LAPACK. So each pass is bracketed by two fixed probes, a
pure-Python loop and a dense eigensolve (PROBES), and each set-up by the
first. A time t is scaled to the reference speed as t * PROBE_REF_S[k] / p,
with p the mean of probe k just before and just after, k the kind of work
that dominates the workload (workloads.SPEED_PROBE). A later change to
specx moves t and not p.

End-to-end metrics:
  wall_s       median over the run's passes of the wall time of one pass
               (recipes, mesh construction and output checks included),
               each scaled to the reference speed
  setup_s      median of SETUP_SAMPLES cold set-ups, each in a fresh
               interpreter (importing numpy, scipy and specx and the
               warm-up pass), each scaled by the Python probe
  peak_rss_mb  peak resident memory of the run's process
  failed_frac  failed operations / attempted (printed; the last JSON line
               carries it as failed and attempted)
The unscaled medians are printed as wall_raw_s and setup_raw_s.

BLAS runs on one thread (BLAS_THREADS, set before numpy loads): two
threads on two shared vCPUs made the LAPACK-bound passes of harmonic-index
spread 4x wider. specx writes into a fresh directory per pass (SPECX_OUT)
under the git-ignored .specxbench/ of the directory the benchmark runs in,
removed at the end; a traced run also writes its spans there and prints
the file's path.

The environment block of the detail line records the probe times and the
load. The run is flagged `contended` when other threads were runnable or
the load exceeded the CPUs; such runs should not be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SETUP_SAMPLES = 5
BLAS_THREADS = 1
# probe times at the reference speed: a fast moment of a 2-vCPU x86 VM
PROBE_REF_S = {"python": 0.025, "lapack": 0.020}
WORKDIR = ".specxbench"
NAMES = ("hole-sweep", "conformal-max", "gl-minmax", "harmonic-index")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up sample, for setup_s
    return p.parse_args(argv)


def pin_blas_threads():
    """Set the BLAS thread count before numpy loads; returns the CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def probe_python():
    """Seconds of a fixed pure-Python loop (20-40 ms on a 2-vCPU x86 VM):
    the machine's current speed for interpreted code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300000):
        acc += i * i % 7
    return time.perf_counter() - t0


def probe_lapack():
    """Seconds of a fixed dense 400x400 symmetric eigensolve (20-30 ms on a
    2-vCPU x86 VM, one BLAS thread): the current speed for LAPACK."""
    import numpy as np
    from scipy import linalg

    a = np.random.default_rng(0).standard_normal((400, 400))
    sym = a @ a.T
    t0 = time.perf_counter()
    linalg.eigh(sym)
    return time.perf_counter() - t0


PROBES = {"python": probe_python, "lapack": probe_lapack}


def read_load(samples=5, interval=0.02):
    """(1/5/15-minute load averages, mean count of runnable threads that
    are not this process's own) from /proc, sampled a few times."""
    others = []
    for _ in range(samples):
        with open("/proc/loadavg") as fh:
            fields = fh.read().split()
        running = int(fields[3].split("/")[0])
        own = 0
        for tid in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{tid}/stat") as fh:
                    own += fh.read().rsplit(")", 1)[1].split()[0] == "R"
            except OSError:  # the thread exited while listed
                pass
        others.append(max(running - own, 0))
        time.sleep(interval)
    return [float(x) for x in fields[:3]], statistics.mean(others)


def environment(nproc, load_start, load_end, passes):
    import numpy
    import platform
    import scipy
    from specx import _kernels

    # another process was runnable alongside, or demand exceeded the CPUs
    contended = (load_start[1] >= 0.5 or load_end[1] >= 0.5
                 or load_end[0][0] > nproc + 0.5)
    probes = {kind: [p["probe_s"][kind] for p in passes] for kind in PROBES}
    return {
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": bool(_kernels.HAVE_NUMBA),
        "loadavg_start": load_start[0], "others_running_start": load_start[1],
        "loadavg_end": load_end[0], "others_running_end": load_end[1],
        "probe_s": {kind: {"min": min(ps), "median": statistics.median(ps),
                           "max": max(ps)} for kind, ps in probes.items()},
        "contended": contended,
    }


def setup(workload, seed, tmp):
    """Imports and a warm-up pass on tiny inputs; returns its wall time and
    the mean Python probe time around it."""
    before = probe_python()
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import workloads

    _, problems, _ = workloads.run_pass(workload, seed,
                                        os.path.join(tmp, "warmup"), None,
                                        small=True)
    elapsed = time.perf_counter() - t0
    after = probe_python()
    if problems:
        raise RuntimeError(f"warm-up of {workload} failed: {problems}")
    return {"wall_s": elapsed, "probe_s": {"python": (before + after) / 2}}


def child_setup(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_passes(workload, seed, seconds, tmp):
    """Closed loop: the next pass starts when the previous one returns, as
    long as a pass of median length still fits in `seconds` (at least one
    pass runs). Each pass records the mean probe times around it."""
    import workloads

    ref = workloads.reference(workload)
    passes, problems, attempted = [], [], 0
    begin = time.perf_counter()
    before = {kind: run() for kind, run in PROBES.items()}
    while True:
        out = os.path.join(tmp, f"pass{len(passes)}")
        c0, t0 = time.process_time(), time.perf_counter()
        n, found, _ = workloads.run_pass(workload, seed, out, ref=ref)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        shutil.rmtree(out)
        after = {kind: run() for kind, run in PROBES.items()}
        passes.append({"wall_s": wall, "cpu_s": cpu,
                       "probe_s": {kind: (before[kind] + after[kind]) / 2
                                   for kind in PROBES}})
        before = after
        attempted += n
        problems += found
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - begin + typical > seconds:
            return passes, attempted, problems


def traced_pass(workload, seed, out, ref, small=False):
    """One pass under the span recorder; returns (recorder, attempted,
    problems). The root span `bench.pass` covers the whole pass."""
    import spans
    import workloads

    rec = spans.Recorder()
    with spans.traced(rec):
        root = rec.open("bench.pass", "bench")
        try:
            attempted, problems, _ = workloads.run_pass(
                workload, seed, out, ref=ref, small=small)
        finally:
            rec.close(root)
    return rec, attempted, problems


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def scaled(sample, kind):
    """A pass's or set-up's time at the reference speed of probe `kind`."""
    return sample["wall_s"] * PROBE_REF_S[kind] / sample["probe_s"][kind]


def measure(args, nproc, tmp):
    load_start = read_load()
    setups = [setup(args.workload, args.seed, tmp)]
    setups += [child_setup(args.workload, args.seed)
               for _ in range(SETUP_SAMPLES - 1)]
    import workloads  # only now: the first set-up times its imports

    passes, attempted, problems = timed_passes(args.workload, args.seed,
                                               args.seconds, tmp)
    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    kind = workloads.SPEED_PROBE[args.workload]
    metrics = {
        "wall_s": (statistics.median(scaled(p, kind) for p in passes), "s"),
        "wall_raw_s": (wall, "s"),
        "setup_s": (statistics.median(scaled(s, "python") for s in setups),
                    "s"),
        "setup_raw_s": (statistics.median(s["wall_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    if args.trace:
        import spans

        out = os.path.join(tmp, "traced")
        rec, n, found = traced_pass(args.workload, args.seed, out,
                                    ref=workloads.reference(args.workload))
        attempted += n
        problems += found
        cpu = sum(p["cpu_s"] for p in passes)
        metrics.update(spans.layer_metrics(rec.spans))
        traced_wall = rec.spans[0][spans.END] - rec.spans[0][spans.START]
        target = sum(metrics[f"{layer}.self_s"][0]
                     for layer in workloads.TARGET_LAYERS[args.workload])
        metrics.update({
            "target.self_s": (target, "s"),
            "target.share": (target / traced_wall, "ratio"),
            "cli.bytes_written": (dir_bytes(out), "count"),
            "process.cpu_s": (cpu / len(passes), "s"),
            "process.cpu_util": (cpu / sum(walls), "ratio"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - wall, "s"),
        })
        path = os.path.join(os.path.dirname(tmp),
                            f"spans-{args.workload}-seed{args.seed}.json")
        spans.dump(rec.spans, path)
        print(f"spans written to {path}")
    failed = len(problems)
    metrics["failed_frac"] = (failed / attempted, "ratio")
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(nproc, load_start, read_load(), passes),
        "setup_samples_s": setups, "passes": passes,
        "problems": problems,
    }
    return metrics, detail, attempted, failed


def report(args, metrics, detail, attempted, failed):
    with open("BENCHMARK.json") as fh:
        contract = json.load(fh)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps(detail, sort_keys=True))
    result = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit}, BENCHMARK.json "
                             f"says {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


def run_all(args):
    """Every workload in its own process; prints a summary table."""
    rows, totals = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        frac = result["failed"] / result["attempted"]
        result["metrics"]["failed_frac"] = {"value": frac, "unit": "ratio"}
        for metric, entry in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result["metrics"]))
    if not args.trace:
        print(f"{'workload':16s} {'wall_s [s]':>12s} {'setup_s [s]':>12s} "
              f"{'peak_rss_mb [MB]':>17s} {'failed_frac':>12s}")
        for name, m in rows:
            print(f"{name:16s} {m['wall_s']['value']:12.4f} "
                  f"{m['setup_s']['value']:12.4f} "
                  f"{m['peak_rss_mb']['value']:17.1f} "
                  f"{m['failed_frac']['value']:12.4f}")
    print(json.dumps(totals))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "specx", "__init__.py")):
        print("specxbench: src/specx not found; run from the specx "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    nproc = pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=workdir)
    try:
        if args.setup_only:
            print(json.dumps(setup(args.workload, args.seed, tmp)))
            return 0
        report(args, *measure(args, nproc, tmp))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
