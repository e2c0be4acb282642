"""One cold campaign of a benchmark workload, run in its own process.

Usage (from the repository root; run.py starts it):

    python3 bench/campaign.py --workload NAME --seed N --workdir DIR
        --launched T [--setup-only] [--trace]

T is the parent's time.monotonic() just before it started this process, so
set-up time covers interpreter start, imports and config generation.  The
result (and, with --trace, the spans) is written as JSON into DIR.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

from checks import check_records, pohozaev_residuals  # noqa: E402
from workloads import ELL_CAP, WORKLOADS  # noqa: E402


def _nproc():
    return len(os.sched_getaffinity(0))


def write_config(op, op_dir):
    op_dir.mkdir(parents=True)
    cfg = op_dir / "campaign.cfg"
    cfg.write_text(op.config_text(str(op_dir)))
    return cfg


def run_op(cli, op, seed, op_dir):
    """Issue one operation; returns (exit code, latency, records)."""
    cfg = op_dir / "campaign.cfg"
    if not cfg.exists():
        write_config(op, op_dir)
    t0 = time.perf_counter()
    rc = cli.main(op.argv(str(cfg), seed))
    latency = time.perf_counter() - t0
    out = op_dir / f"{op.command}.json"
    records = json.loads(out.read_text())["records"] if out.exists() else []
    return rc, latency, records


def _needs_escalation(op, records):
    return (op.command == "morse" and op.ell_max < ELL_CAP and
            any(r["payload"].get("error") == "TruncationUnsafe" for r in records))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)

    import fracball.cli as cli
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops = WORKLOADS[args.workload](_nproc())
    op_dirs = [workdir / "ops" / f"{i}.0" for i in range(len(ops))]
    for op, op_dir in zip(ops, op_dirs):
        write_config(op, op_dir)
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_campaign(cli, ops, op_dirs, args.seed, tracer))
        import numpy
        import scipy
        result["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    if tracer is not None:
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


def run_campaign(cli, ops, op_dirs, seed, tracer):
    done = []  # (op, exit code, latency, records)
    retries = 0
    t_start = time.perf_counter()
    for op, op_dir in zip(ops, op_dirs):
        while True:
            if tracer is not None:
                tracer.op = len(done)
            rc, latency, records = run_op(cli, op, seed, op_dir)
            done.append((op, rc, latency, records))
            if not _needs_escalation(op, records):
                break
            op = op.escalated()
            retries += 1
            op_dir = op_dir.with_suffix(f".{retries}")
    campaign_s = time.perf_counter() - t_start

    digest = hashlib.sha256()
    outcomes = []
    pohozaev = []
    for op, rc, latency, records in done:
        digest.update(json.dumps(records, separators=(",", ":")).encode())
        failures = check_records(op, records)
        if rc != 0:
            failures.append((f"exit code {rc}", False))
        outcomes.append({"label": op.label, "latency_s": latency,
                         "failures": failures})
        pohozaev += pohozaev_residuals(records)
    return {"campaign_s": campaign_s, "ops": outcomes, "retries": retries,
            "digest": digest.hexdigest(),
            "pohozaev_rel_max": max(pohozaev) if pohozaev else None}


if __name__ == "__main__":
    sys.exit(main())
