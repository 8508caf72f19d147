"""chaosrng benchmark: one workload as a closed loop of in-process CLI calls.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

One client in one process runs the workload's job list (perfbench/workloads.py)
round after round until ``--seconds`` have passed; every job is a
``chaosrng.cli.main(argv)`` call whose output files are checked
(perfbench/checks.py). Each job and each cold import is timed next to a fixed
host-speed probe (perfbench/hostspeed.py), and times are reported scaled to
the reference host speed. With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and prints
the per-layer metrics (perfbench/tracing.py) plus the tracing overhead. The last
stdout line is one JSON object; the environment, per-round figures and spans go
to .bench_build/perfbench/<workload>-seed<seed>-trace<0|1>/. Metric names and
units come from BENCHMARK.json; README.md says why each workload exists.
"""
from __future__ import annotations

import os

#: a single-threaded closed loop: cap BLAS/OpenMP pools before numpy loads
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
#: cold imports per run; setup_s is the median of their scaled times
SETUP_RUNS = 7
#: child script: time a cold import, then the host-speed probe in the same process
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import chaosrng.cli; "
                "t = time.perf_counter() - t; import hostspeed; "
                "probe = hostspeed.Probe(); print(t, probe())")


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build() -> str:
    """Build the optional compiled kernel once per checkout with the repo's setup.py."""
    log = OUT / "build.log"
    if not log.exists():
        OUT.mkdir(parents=True, exist_ok=True)
        r = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace",
                            "--build-temp", str(OUT / "build-temp")],
                           cwd=ROOT, capture_output=True, text=True, timeout=800)
        log.write_text(f"exit {r.returncode}\n{r.stdout}\n{r.stderr}")
    return log.read_text().splitlines()[0]


def measure_setup() -> list[list[float]]:
    """(import seconds, probe seconds) of cold ``import chaosrng.cli`` in fresh
    interpreters; the first import only warms caches."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        r = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                           cwd=ROOT, capture_output=True, text=True, timeout=120)
        if r.returncode:
            fail(f"import chaosrng.cli failed:\n{r.stderr[-2000:]}")
        if i:
            samples.append([float(v) for v in r.stdout.split()[-2:]])
    return samples


def environment(seed: int, build_status: str, backend: str) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"backend": backend, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_caps": {v: os.environ.get(v) for v in THREAD_CAPS},
            "seed": seed, "build": build_status, "platform": platform.platform()}


class Runner:
    """Runs job lists in the work directory and checks every job's output."""

    def __init__(self, cli_main, checks, tracer):
        self.probe = hostspeed.Probe()
        self.cli_main = cli_main
        self.checks = checks
        self.tracer = tracer

    def run_job(self, job, traced: bool) -> tuple[float, float, bool]:
        """(job seconds, probe seconds just before, passed)."""
        probe_s = self.probe()
        argv = list(job.argv) + ["--out-dir", job.dir]
        scope = self.tracer.job(job.label()) if traced else contextlib.nullcontext()
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with scope, contextlib.redirect_stdout(printed):
                rc = self.cli_main(argv)
        except Exception:  # a crash in the program is a failed job, not a dead benchmark
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
        if rc != 0:
            print(f"perfbench: {job.label()} exited {rc}", file=sys.stderr)
            return elapsed, probe_s, False
        try:
            self.checks.check(job, Path(job.dir))
        except Exception as exc:  # malformed output fails the check, whatever the error
            print(f"perfbench: {job.label()} failed its check: {exc!r}", file=sys.stderr)
            return elapsed, probe_s, False
        return elapsed, probe_s, True

    def run_round(self, jobs, traced: bool) -> dict:
        gc.collect()
        if traced:
            self.tracer.install()
        try:
            results = [self.run_job(job, traced) for job in jobs]
        finally:
            if traced:
                self.tracer.uninstall()
        spans, self.tracer.spans = self.tracer.spans, []
        times, probes, oks = (list(v) for v in zip(*results))
        return {"traced": traced, "wall": sum(times), "job_times": times, "probes": probes,
                "ok": oks, "failed": oks.count(False), "spans": spans}

    def self_test(self, jobs, oks, dest: Path) -> dict:
        """Corrupt a copy of each passing job's output; every check must reject its copy."""
        caught = []
        for job in (j for j, ok in zip(jobs, oks) if ok):
            copy = dest / job.dir
            shutil.copytree(job.dir, copy)
            self.checks.corrupt(job, copy)
            try:
                self.checks.check(job, copy)
                caught.append(False)
            except self.checks.CheckFailed:
                caught.append(True)
        return {"corrupted": len(caught), "caught": sum(caught),
                "failed_frac": sum(caught) / max(len(caught), 1)}


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_wall(rounds: list[dict]) -> float:
    """Round wall time at the reference host speed: per job, the median over
    ``rounds`` of its time scaled by the probe taken just before it."""
    per_job = zip(*([hostspeed.scaled(t, p) for t, p in zip(r["job_times"], r["probes"])]
                    for r in rounds))
    return sum(statistics.median(times) for times in per_job)


def layer_result(rounds: list[dict], tracing, backend: str) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round, trials = [], []
    for r in traced:
        metrics, trial_times = tracing.layer_metrics(r["spans"])
        per_round.append(metrics)
        trials += trial_times
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    traced_wall = scaled_wall(traced)
    plain_wall = scaled_wall(plain)
    out.update({
        "kernels.compiled": 1.0 if backend == "compiled" else 0.0,
        "montecarlo.trial_p50_s": percentile(trials, 50),
        "montecarlo.trial_p90_s": percentile(trials, 90),
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "chaosrng" / "cli.py").is_file():
        fail(f"no chaosrng sources under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workload = workloads.build(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "work").mkdir(parents=True)

    build_status = build()
    setup_samples = measure_setup()
    sys.path.insert(0, str(SRC))
    from chaosrng import kernels
    from chaosrng.cli import main as cli_main
    import checks
    import tracing
    env = environment(args.seed, build_status, kernels.BACKEND)
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(cli_main, checks, tracing.Tracer())
    os.chdir(run_dir / "work")
    warmup = runner.run_round(workload.jobs, traced=False)
    # peak memory of one pass over the job list, as in a fresh CLI process;
    # later rounds only add allocator fragmentation that varies run to run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    selftest = runner.self_test(workload.jobs, warmup["ok"], run_dir / "selftest")
    deadline = time.perf_counter() + args.seconds
    rounds = []
    while time.perf_counter() < deadline or len(rounds) < 1 + args.trace:
        rounds.append(runner.run_round(workload.jobs, traced=bool(args.trace) and len(rounds) % 2 == 1))
    os.chdir(ROOT)
    shutil.rmtree(run_dir / "work")
    shutil.rmtree(run_dir / "selftest", ignore_errors=True)

    attempted = len(workload.jobs) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    wall_s = scaled_wall(plain)
    if args.trace:
        metrics = layer_result(rounds, tracing, kernels.BACKEND)
    else:
        metrics = {
            "setup_s": statistics.median(hostspeed.scaled(t, p) for t, p in setup_samples),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
            "items_per_s": workload.items_per_round / wall_s,
        }
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    correct = failed == 0 and warmup["failed"] == 0 and selftest["caught"] == selftest["corrupted"]

    job_times = [t for r in plain for t in r["job_times"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "item": workload.item,
        "items_per_round": workload.items_per_round,
        "jobs": [list(j.argv) for j in workload.jobs], "setup_samples": setup_samples,
        "rounds": [{k: r[k] for k in ("traced", "wall", "job_times", "failed", "probes")} for r in rounds],
        "job_time_p50": percentile(job_times, 50), "job_time_p90": percentile(job_times, 90),
        "selftest": selftest, "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (run_dir / "spans.json").write_text(json.dumps(
            [[[s.name, s.start, s.end, s.parent, s.counters] for s in r["spans"]]
             for r in rounds if r["traced"]]) + "\n")

    print(f"workload {args.workload} seed {args.seed} backend {env['backend']}: "
          f"{len(rounds)} rounds of {len(workload.jobs)} jobs, "
          f"{workload.items_per_round} {workload.item}s per round; "
          f"job time p50 {record['job_time_p50']:.4f} s p90 {record['job_time_p90']:.4f} s "
          f"over {len(job_times)} jobs")
    print(f"raw (unscaled) seconds: median round wall "
          f"{statistics.median(r['wall'] for r in plain):.4f} s, median cold import "
          f"{statistics.median(t for t, _ in setup_samples):.4f} s, median probe "
          f"{statistics.median(p for r in plain for p in r['probes']):.5f} s "
          f"(reference {hostspeed.REFERENCE_S} s)")
    print(f"selftest: {selftest['caught']}/{selftest['corrupted']} corrupted outputs caught "
          f"(failed_frac {selftest['failed_frac']:.2f})")
    if args.trace:
        coverage = metrics["trace.coverage"]
        print(f"trace: layer self times cover {coverage:.1%} of traced wall "
              f"({'meets' if coverage >= 0.9 else 'BELOW'} the 90% target); "
              f"gap (cli.self_s: argparse, inline file writes, manifest) "
              f"{metrics['cli.self_s']:.4f} s; overhead {metrics['trace.overhead_s']:+.4f} s "
              f"({metrics['trace.overhead_frac']:+.1%}) against untraced wall {wall_s:.4f} s")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
