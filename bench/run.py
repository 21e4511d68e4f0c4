"""scalefit benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues jobs back to back, with no think time, until the jobs
have taken --seconds of wall time. Each job's output is checked after it
returns, outside the timed region. With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it installs shims around every public
scalefit function and prints the per-layer metrics instead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Run it from the repository root: the program under test is imported from
./src, and results, span files and scratch files go to ./.bench_out.

setup_s is the time from process start to the first timed job: imports,
input generation and one untimed warm-up job. An untraced run measures it
in its own process and, after the timed loop, in SETUP_PROBES fresh
processes started with --setup-only, and reports the median.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

SETUP_PROBES = 4  # extra cold set-ups, each in a fresh process
SETUP_PROBE_TIMEOUT_S = 30
CLOSURE_TOL_S = 1e-3  # allowed gap between a job's summed span self times and its timer
UNTRACED_MAX_SHARE = 0.02  # largest share of a job's time that may fall outside every shim
P90_MIN_JOBS = 100  # p90 is printed only with at least 10 samples beyond it

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> int:
    """Keep BLAS threads at or below nproc; must run before numpy loads."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= n:
            os.environ[var] = str(n)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def load_scalefit(root: Path = ROOT):
    """Import scalefit from the checkout's own src/, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import scalefit

    if not Path(scalefit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"scalefit was found at {scalefit.__file__}, outside {src}")
    return scalefit


def environment(workload: str, seed: int, blas_threads: int) -> dict:
    import numpy as np

    cpu = platform.machine()  # platform.processor() would fork uname
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "cpu": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(workload, seed: int) -> float:
    """Set up and warm up; returns the time since process start."""
    from workloads import WARMUP_SEED

    workload.setup(seed)
    workload.warmup(WARMUP_SEED)
    return time.perf_counter() - T_START


def setup_probe(workload: str, seed: int) -> float:
    """setup_s of one fresh process that sets up, warms up and exits."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Run the closed loop on a prepared workload and check every output."""
    from workloads import job_seed

    job_span = tracer.job_span if tracer else (lambda job: contextlib.nullcontext())
    job_input = tracer.job_input if tracer else contextlib.nullcontext
    paused = tracer.paused if tracer else contextlib.nullcontext

    latencies, failures = [], {}

    def run_job(seed_value):
        """Run, time and check one job; returns its serialized output or None."""
        job = len(latencies)
        with job_input():
            inp = workload.job_input(seed_value)
        out, error = None, None
        with job_span(job):
            t0 = time.perf_counter()
            try:
                out = workload.run(inp)
            except Exception:  # a job that raises is counted as failed
                error = traceback.format_exc()
            latencies.append(time.perf_counter() - t0)
        if error is not None:
            print(error, file=sys.stderr)
            failures[job] = [error.strip().splitlines()[-1]]
            return None
        with paused():
            issues = workload.check(inp, out)
            blob = workload.serialize(out) if workload.repeat_first else None
        if issues:
            failures[job] = issues
        if tracer and hasattr(workload, "bytes_written"):
            tracer.count("cli_bytes_written", workload.bytes_written(out), job=job)
        return blob

    # Only the first job's output is kept, so memory does not grow with the
    # number of jobs a run holds.
    first_seed = job_seed(seed, 0)
    first_blob = run_job(first_seed)
    while sum(latencies) < seconds:
        run_job(job_seed(seed, len(latencies)))
    if workload.repeat_first:
        # Determinism: the last job repeats the first job's seed and must
        # serialize to the same bytes.
        blob = run_job(first_seed)
        if blob is not None and blob != first_blob:
            failures.setdefault(len(latencies) - 1, []).append(
                "output differs from the first job's, which had the same seed"
            )
    # Traced jobs: the span self times must add up to the job's own timer,
    # and the root span's self time (time no shim saw) must stay small.
    closure = {}
    for job, (summed, untraced) in (tracer.job_self_times() if tracer else {}).items():
        gap, share = abs(summed - latencies[job]), untraced / latencies[job]
        closure[job] = (gap, share)
        if gap > CLOSURE_TOL_S:
            failures.setdefault(job, []).append(f"span self times miss the job timer by {gap:.3g} s")
        if share > UNTRACED_MAX_SHARE:
            failures.setdefault(job, []).append(f"{share:.1%} of the job ran outside every shim")
    return {"latencies": latencies, "failures": failures, "closure": closure}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, print setup_s in seconds, exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or not (args.setup_only or (args.seconds or 0) > 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    blas_threads = limit_blas_threads()
    try:
        load_scalefit()
    except ImportError as exc:
        print(f"error: cannot import scalefit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - T_START

    workdir = OUT / "work" / (args.workload + ("-setup" if args.setup_only else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](str(workdir))
    tracer = tracing.Tracer() if args.trace and not args.setup_only else None
    if tracer:
        tracer.install()
    if args.setup_only:
        print(repr(prepare(workload, args.seed)))
        return 0

    try:
        setups = [prepare(workload, args.seed)]
        env = environment(args.workload, args.seed, blas_threads)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        res = measure(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if not tracer:
        setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    lat = res["latencies"]
    n = len(lat)
    failures = res["failures"]
    jobs_per_s = n / sum(lat)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs_per_s,
        "job_p50_s": statistics.median(lat),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload {args.workload}{' (traced)' if tracer else ''}: {n} jobs, {len(failures)} failed "
          f"(failed_frac {len(failures) / n:.4g}), imports {import_s:.4f} s, "
          f"set-ups from process start {', '.join(f'{s:.4f}' for s in setups)} s")
    for job, issues in sorted(failures.items()):
        print(f"  job {job} FAILED: " + "; ".join(issues[:5]))
    for name, value in end_to_end.items():
        note = f" (n={n})" if name == "job_p50_s" else ""
        print(f"{name} {value:.6g} {END_TO_END[name][0]}{note}")
    if n >= P90_MIN_JOBS:
        print(f"job_p90_s {statistics.quantiles(lat, n=10)[-1]:.6g} s (n={n})")

    if tracer:
        metrics = tracer.layer_metrics(n, jobs_per_s)
        units = tracing.PER_LAYER
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {units[name][0]}")
        gaps, shares = zip(*res["closure"].values())
        print(f"trace: {len(tracer.name)} spans over {n} jobs; span self times match each job's "
              f"timer to within {max(gaps):.3g} s; at most {max(shares):.2%} of a job ran outside every shim")
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "trace" / f"{args.workload}.npz")
    else:
        metrics, units = end_to_end, END_TO_END

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"env": env, "metrics": metrics, "latencies": lat, "setups": setups,
              "import_s": import_s, "failures": {str(k): v for k, v in failures.items()}}
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
