"""fracball benchmark: cold-process campaigns of the `fracball` commands.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run starts three set-up probes and then cold campaign
processes, one at a time, while the next one is expected to end within S
seconds (at least one), and prints the end-to-end metrics.  With --trace 1 it runs one untraced and one
traced campaign and prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.  Metric names
and units are those of BENCHMARK.json.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every process of a run ends within this
SETUP_PROBES = 3
MIN_LATENCY_SAMPLES = 100
# one BLAS thread per process: extra OpenBLAS threads spin on the other
# cores on these small matrices, which costs time and adds noise
BLAS_THREADS = 1
# large arrays come from the heap and freed memory stays in the process, so
# a page is faulted in once per process instead of once per array (the morse
# campaign otherwise faults in 2.5 GB); and NumPy does not ask for huge pages,
# whose supply depends on what the host's other tenants do with memory
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=4294967296:"
                   "glibc.malloc.trim_threshold=4294967296")


class BenchError(Exception):
    pass


def _die_with_parent():
    """Child pre-exec hook: the kernel kills the child if this process dies."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same import cost in every process
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


class Runner:
    """Starts campaign processes one at a time and collects their results."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = _child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def child(self, *flags):
        """Run one campaign process; returns its result with peak_rss_mb."""
        self.count += 1
        cdir = self.workdir / f"p{self.count}"
        cdir.mkdir(parents=True)
        log = cdir / "log.txt"
        launched = time.monotonic()
        with open(log, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "campaign.py"),
                 "--workload", self.workload, "--seed", str(self.seed),
                 "--workdir", str(cdir), "--launched", repr(launched), *flags],
                stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                preexec_fn=_die_with_parent)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    raise BenchError("campaign process passed the run deadline")
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text()[-2000:]
            raise BenchError(f"campaign process exited {proc.returncode}:\n{tail}")
        result = json.loads((cdir / "result.json").read_text())
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
        result["cpu_s"] = (usage.ru_utime, usage.ru_stime)
        result["dir"] = cdir
        result["wall_s"] = time.monotonic() - launched
        return result


def _latency_line(latencies):
    """Operation latency percentiles, given only where p90 has ten samples
    beyond it; with fewer operations they follow single operations."""
    n = len(latencies)
    if n < MIN_LATENCY_SAMPLES:
        return f"op_p50_s, op_p90_s: not reported, {n} operations < {MIN_LATENCY_SAMPLES}"
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return f"op_p50_s {q[4]:.6g} s, op_p90_s {q[8]:.6g} s ({n} operations)"


def _cpu_line(what, result):
    user, system = result["cpu_s"]
    return f"{what}: cpu user {user:.2f} s, system {system:.2f} s"


def summarize(rep):
    """(attempted, failed, unexpected failure lines, failure lines)."""
    failed, unexpected, lines = 0, [], []
    for op in rep["ops"]:
        if not op["failures"]:
            continue
        failed += 1
        reasons = [r for r, _ in op["failures"]]
        known = KNOWN_FAILURES.get(op["label"]) in reasons
        hard = [r for r, stat in op["failures"] if not stat]
        tag = "known" if known else ("statistical" if not hard else "UNEXPECTED")
        line = f"  {op['label']}: {'; '.join(reasons)} ({tag})"
        lines.append(line)
        if tag == "UNEXPECTED":
            unexpected.append(line)
    return len(rep["ops"]), failed, unexpected, lines


def check_reps(reps):
    """Consistency of repeated campaigns of one seed; returns problems."""
    problems = []
    if len({r["digest"] for r in reps}) > 1:
        problems.append("records digests differ between campaigns of one seed")
    if len({tuple(summarize(r)[:2]) for r in reps}) > 1:
        problems.append("failure counts differ between campaigns of one seed")
    return problems


def campaign_time(reps):
    """Sum over the campaign's operations of each one's median latency over
    the run's campaigns.  A slow spell of the shared host falls into one
    campaign's latency of an operation, not into the median."""
    labels = {tuple(op["label"] for op in r["ops"]) for r in reps}
    if len(labels) > 1:
        raise BenchError("campaigns of one run issued different operations")
    latencies = zip(*([op["latency_s"] for op in r["ops"]] for r in reps))
    return sum(statistics.median(op) for op in latencies)


def timed_run(runner, seconds):
    t0 = time.monotonic()
    probes = [runner.child("--setup-only") for _ in range(SETUP_PROBES)]
    reps = [runner.child()]
    while time.monotonic() - t0 + reps[-1]["wall_s"] <= seconds:
        reps.append(runner.child())
    if any(r["pohozaev_rel_max"] is None for r in reps):
        raise BenchError("no solved point carries a Pohozaev residual")
    attempted, failed, _, _ = summarize(reps[0])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "campaign_s": campaign_time(reps),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pohozaev_rel_max": statistics.median(r["pohozaev_rel_max"] for r in reps),
    }
    info = [f"campaigns {len(reps)}, set-up probes {len(probes)}"]
    info += [_cpu_line("campaign process", r) + f", wall {r['campaign_s']:.3f} s"
             for r in reps]
    info.append(_latency_line([op["latency_s"] for r in reps for op in r["ops"]]))
    return reps, metrics, info


def traced_run(runner):
    plain = runner.child()
    traced = runner.child("--trace")
    spans = json.loads((traced["dir"] / "spans.json").read_text())
    metrics = layer_metrics(spans)
    metrics["morse.truncation_retries"] = traced["retries"]
    metrics["trace.overhead_s"] = traced["campaign_s"] - plain["campaign_s"]
    info = [f"traced campaign_s {traced['campaign_s']:.3f} s, "
            f"untraced {plain['campaign_s']:.3f} s",
            _cpu_line("untraced process", plain), _cpu_line("traced process", traced)]
    return [plain, traced], metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fracball" / "cli.py").is_file():
        print(f"error: no fracball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    seed = args.seed % 2**64  # the campaign config's seed range
    workdir = ROOT / ".bench_out" / f"{args.workload}-{seed}-{os.getpid()}"
    runner = Runner(args.workload, seed, workdir)
    try:
        if args.trace:
            reps, metrics, info = traced_run(runner)
        else:
            reps, metrics, info = timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, unexpected, lines = summarize(reps[0])
    problems = check_reps(reps) + unexpected
    versions = reps[0]["versions"]
    print(f"workload {args.workload}, seed {seed}, cache: cold, nproc {nproc}, "
          f"BLAS threads {BLAS_THREADS}, GLIBC_TUNABLES {MALLOC_TUNABLES}, "
          f"NUMPY_MADVISE_HUGEPAGE 0, python {versions['python']}, "
          f"numpy {versions['numpy']}, scipy {versions['scipy']}")
    for line in info:
        print(line)
    print(f"operations attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / attempted:.4f}), "
          f"truncation retries {reps[0]['retries']}")
    for line in lines:
        print(line)
    print(f"records digest {reps[0]['digest']}")
    for m in wanted:
        print(f"{m['name']:<44} {metrics[m['name']]:>16.6g} {m['unit']}")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
