"""KWO host-cost benchmark launcher.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout of the repository.  The work runs in a
fresh child process (``bench.py``) with BLAS pinned to one thread, so
``peak_rss_mb`` is that workload's own high-water mark.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs every operation twice,
untraced and traced, and prints the per-layer metrics with the tracing
overhead as ``trace.overhead_s_per_warehouse_day``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full reports go to ``perfbench/out/``.  Exits 2 without a result when the
repository's sources are missing or a pass fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import timeit
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Wall-clock budget for the whole invocation.
DEADLINE_SECONDS = 175.0

#: The end-to-end metrics every workload reports (BENCHMARK.json).
END_TO_END = ("setup_s", "s_per_warehouse_day", "peak_rss_mb")
#: Latency metric -> the latency samples it summarizes.
SAMPLES_OF = {
    "onboard_s": "onboard",
    "tick_ms_p50": "tick",
    "tick_ms_p99": "tick",
    "checkpoint_ms_p50": "checkpoint",
    "restore_s": "restore",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_pass(args, mode: str, deadline: float) -> dict:
    """The child pass; its report is the last line it prints."""
    command = [
        sys.executable,
        str(HERE / "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", str(OUT),
    ]
    remaining = deadline - timeit.default_timer()
    if remaining <= 0:
        raise TimeoutError("no time left for the pass")
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    finally:
        # On a timeout or a signal to this launcher, the child goes too.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} pass printed nothing")
    return json.loads(lines[-1])


def show(report: dict) -> None:
    print(
        f"# {report['workload']} seed={report['seed']} mode={report['mode']} "
        f"ops={report['attempted']} failed={report['failed']} "
        f"warehouse_days={report['warehouse_days']} digest={report['digest']} "
        f"nproc={report['nproc']} numpy={report['numpy']}"
    )
    for error in report["errors"]:
        print(f"#   error: {error}")
    samples = report.get("samples", {})
    for name, metric in report["metrics"].items():
        line = f"{name:>44} = {metric['value']:.6g} {metric['unit']}"
        if SAMPLES_OF.get(name) in samples:
            line += f"  (n={samples[SAMPLES_OF[name]]})"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="KWO host-cost benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repository sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = timeit.default_timer() + DEADLINE_SECONDS
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    mode = "traced" if args.trace else "e2e"
    try:
        report = run_pass(args, mode, deadline)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, TimeoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    show(report)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True))

    metrics = report["metrics"]
    if not args.trace:
        metrics = {k: metrics[k] for k in END_TO_END}
    # The traced copy of every operation must reproduce the untraced one.
    digests_agree = report.get("untraced_digest", report["digest"]) == report["digest"]
    if not digests_agree:
        print("# error: tracing changed the simulated results")
    result = {
        "correct": report["failed"] == 0 and digests_agree,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
