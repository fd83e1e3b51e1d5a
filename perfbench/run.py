"""Run one fvtensor benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload build_bump --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports ``fvtensor`` from
``src/`` and writes only under ``.perfbench_work/``.  Each workload runs
in fresh child processes (``worker.py``): set-up is timed in several of
them, from spawn to the end of set-up, and the last one goes on to the
timed phase and the output checks.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("build_bump", "compare_dense", "eval_rom")
SETUP_RUNS = 3
DEADLINE_S = 170.0


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    if not (ROOT / ".git").exists():  # do not report an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "fvtensor").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env(blas_threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["FVT_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def spawn(args, mode, work, env, deadline, per_layer=()):
    """Run one worker to completion and return its report, or None."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--work", str(work), "--per-layer", ",".join(per_layer),
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {mode} worker timed out", file=sys.stderr)
        return None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} worker exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "fvtensor" / "__init__.py").is_file():
        die(f"no fvtensor sources under {SRC}")
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    nproc = len(os.sched_getaffinity(0))
    blas_threads = 1
    env = child_env(blas_threads)
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            rep = spawn(args, "setup", work, env, deadline)
            if rep is None:
                die("set-up failed")
            setup_times.append(rep["setup_s"])
    rep = spawn(args, "trace" if args.trace else "run", work, env, deadline,
                per_layer=list(units) if args.trace else ())
    if rep is None:
        die("workload run failed")
    setup_times.append(rep["setup_s"])
    result = rep["result"]
    if not args.trace and result["correct"]:
        result["metrics"]["setup_s"] = statistics.median(setup_times)

    values = result["metrics"]
    if result["correct"] and set(units) - set(values):
        die(f"worker gave no value for {sorted(set(units) - set(values))}")
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items() if name in values}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "git_sha": git_sha(),
                      "src_sha256": src_sha256(), "nproc": nproc,
                      "blas_threads": blas_threads,
                      "setup_runs": setup_times}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
