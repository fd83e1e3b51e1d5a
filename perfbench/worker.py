"""One fvtensor benchmark workload, run in a fresh process by ``run.py``.

The worker sets its workload up, runs the timed phase as a closed loop
with one client, then checks the outputs.  Its set-up time runs from the
moment the parent spawned it (``--spawned-at``, on the shared monotonic
clock) to the end of set-up, so it includes interpreter start and
imports.  Library output is sent to stderr; the report is one JSON line
on the original stdout.

With ``--mode setup`` it exits after set-up; ``run.py`` uses such workers
to time set-up several times.  With ``--mode trace`` it runs a fixed
number of operations twice, untraced and traced, on the same inputs, and
reports per-layer figures instead of end-to-end ones.
"""

import argparse
import json
import os
import resource
import sys
import traceback
from time import monotonic, perf_counter, perf_counter_ns

import numpy as np

from fvtensor import cli, problems, rom
from fvtensor.btensor import model_gather

from spans import Tracer

INSTANCE_SEED = 0      # fixed, so the oracle budget is an exact repeatable count
CHECKED_QUERIES = 500  # timed-phase ROM answers kept for the off-grid check


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def send(stream, report):
    stream.write(json.dumps(report) + "\n")
    stream.flush()


def run_cli(argv):
    """One CLI invocation; a non-zero exit code is a failed operation."""
    return cli.main([str(a) for a in argv]) == 0


def model_values(model, idx):
    """Model entries at scattered multi-indices, contracted independently
    of the library: ``sum_abc F1[i,a] F2[j,b] F3[k,c] core[a,b,c]``."""
    core = model.core.data
    r1, r2, r3, h = core.shape
    F1, F2, F3 = (F[idx[:, k]] for k, F in enumerate(model.factors))
    out = np.empty((idx.shape[0], h))
    for s in range(0, idx.shape[0], 256):
        sl = slice(s, s + 256)
        T = (F1[sl] @ core.reshape(r1, -1)).reshape(-1, r2, r3 * h)
        T = (F2[sl, None, :] @ T).reshape(-1, r3, h)
        out[sl] = (F3[sl, None, :] @ T)[:, 0, :]
    return out


def held_out_error(model, rng, n):
    """Relative l2(H) error of a gaussian_bump model at ``n`` seeded entries."""
    spec = problems.FamilySpec("gaussian_bump", model.dims, model.ip.h,
                               seed=INSTANCE_SEED)
    oracle = problems.make_oracle(spec)
    idx = np.stack([rng.integers(0, m, n) for m in model.dims], axis=1)
    exact = np.array([oracle.fn(tuple(i)) for i in idx])
    diff = model_values(model, idx) - exact
    w = oracle.ip.weights
    return float(np.sqrt(np.sum(diff * diff * w) / np.sum(exact * exact * w)))


def report_evals(model_path):
    """``total_evals`` from the report ``fvt build`` wrote beside a model."""
    with open(model_path[:-5] + ".report.json") as f:
        return json.load(f)["total_evals"]


def build_argv(dims, h, iters, out):
    return ["build", "--family", "gaussian_bump",
            "--dims", ",".join(str(n) for n in dims), "--h", h,
            "--seed", INSTANCE_SEED, "--iters", iters, "--rook", 1,
            "--aux", 3, "--threads", 1, "--out", out]


class BuildBump:
    """``fvt build`` on the lazy gaussian_bump oracle, 100^3 and h=256."""

    DIMS = (100, 100, 100)
    H = 256
    ITERS = 15
    HELD_OUT = 8000
    TRACE_OPS = 1
    TOL = 1e-6

    def __init__(self, seed, work):
        self.seed = seed
        self.model_path = os.path.join(work, "bump.json")

    def setup(self):
        pass

    def op(self, i):
        return run_cli(build_argv(self.DIMS, self.H, self.ITERS,
                                  self.model_path))

    def check(self):
        model = rom.load_model(self.model_path).model
        err = held_out_error(model, np.random.default_rng([self.seed, 1]),
                             self.HELD_OUT)
        check(err < self.TOL, f"held-out rel_error {err:.3e} >= {self.TOL}")
        return {"oracle_evals": report_evals(self.model_path),
                "rel_error": err}


class CompareDense:
    """``fvt compare`` on a dense-Gram FVT file, 40^3 and h=144."""

    DIMS = (40, 40, 40)
    H = 144
    ITERS = 10
    TRACE_OPS = 1

    def __init__(self, seed, work):
        self.seed = seed
        self.gram_path = os.path.join(work, "gram.bin")
        self.fvt_path = os.path.join(work, "bump.fvt")
        self.tsv_path = os.path.join(work, "compare.tsv")

    def setup(self):
        rng = np.random.default_rng([INSTANCE_SEED, self.H])
        M = rng.standard_normal((self.H, self.H))
        G = (M @ M.T + self.H * np.eye(self.H)) / self.H
        G.astype("<f8").tofile(self.gram_path)
        ok = run_cli(["gen", "--family", "gaussian_bump",
                      "--dims", ",".join(str(n) for n in self.DIMS),
                      "--h", self.H, "--gram", f"dense:{self.gram_path}",
                      "--out", self.fvt_path])
        check(ok, "fvt gen failed")

    def op(self, i):
        return run_cli(["compare", "--input", self.fvt_path,
                        "--iters", self.ITERS, "--rook", 1, "--aux", 3,
                        "--seed", INSTANCE_SEED, "--threads", 1,
                        "--out", self.tsv_path])

    def check(self):
        with open(self.tsv_path) as f:
            rows = [line.rstrip("\n").split("\t") for line in f][1:]
        check(len(rows) == self.ITERS, f"{len(rows)} rows, want {self.ITERS}")
        abc = [float(r[2]) for r in rows]
        hosvd = [float(r[3]) for r in rows]
        bound = [float(r[4]) for r in rows]
        check(all(a > b for a, b in zip(abc, abc[1:])),
              "abc_error is not strictly decreasing")
        check(all(e <= b * (1 + 1e-8) for e, b in zip(hosvd, bound)),
              "hosvd_error exceeds hosvd_bound")
        check(all(a <= 5 * e for a, e in zip(abc[2:], hosvd[2:])),
              "abc_error > 5 hosvd_error from row 3")
        return {"oracle_evals": int(rows[-1][5]), "rel_error": abc[-1]}


class EvalRom:
    """``rom_eval`` queries on a model that ``fvt build`` wrote, 60^3."""

    DIMS = (60, 60, 60)
    H = 256
    ITERS = 12
    N_POINTS = 1 << 16
    DELTA = 200
    HELD_OUT = 8000
    TOL = 1e-5
    TRACE_OPS = 20000

    def __init__(self, seed, work):
        self.seed = seed
        self.model_path = os.path.join(work, "rom.json")
        self.answers = {}

    def setup(self):
        ok = run_cli(build_argv(self.DIMS, self.H, self.ITERS,
                                self.model_path))
        check(ok, "fvt build failed")
        self.rm = rom.load_model(self.model_path)
        nodes = self.rm.grid.nodes
        rng = np.random.default_rng([self.seed, 2])
        self.points = rng.uniform([x[0] for x in nodes],
                                  [x[-1] for x in nodes],
                                  size=(self.N_POINTS, len(nodes)))

    def op(self, i):
        value = rom.rom_eval(self.rm, self.points[i % self.N_POINTS])
        if i < CHECKED_QUERIES:
            self.answers[i] = value
        return True

    def _hat_reference(self, alphas):
        """Hat-weighted sum of model entries at the neighbouring nodes."""
        grids, weights = [], []
        for x, a in zip(self.rm.grid.nodes, alphas):
            j = min(int(np.searchsorted(x, a, side="right")) - 1, x.size - 2)
            t = (a - x[j]) / (x[j + 1] - x[j])
            grids.append([j, j + 1])
            weights.append(np.array([1.0 - t, t]))
        T = model_gather(self.rm.model, grids)
        for w in weights:
            T = np.tensordot(w, T, axes=(0, 0))
        return T

    def check(self):
        model = self.rm.model
        nodes = self.rm.grid.nodes
        rng = np.random.default_rng([self.seed, 3])
        for _ in range(self.DELTA):
            pos = [int(rng.integers(len(I))) for I in model.index_sets]
            alphas = [x[I[p]] for x, I, p in zip(nodes, model.index_sets, pos)]
            got = rom.rom_eval(self.rm, alphas)
            check(got.tobytes() == model.core.data[tuple(pos)].tobytes(),
                  f"delta property broken at core position {pos}")
        for i, value in self.answers.items():
            alphas = self.points[i]
            ref = self._hat_reference(alphas)
            gap = np.linalg.norm(value - ref)
            check(gap <= 1e-12 * np.linalg.norm(ref),
                  f"off-grid answer at {alphas.tolist()} is {gap:.3e} away")
        err = held_out_error(model, rng, self.HELD_OUT)
        check(err < self.TOL, f"held-out rel_error {err:.3e} >= {self.TOL}")
        return {"oracle_evals": report_evals(self.model_path),
                "rel_error": err}


WORKLOADS = {"build_bump": BuildBump, "compare_dense": CompareDense,
             "eval_rom": EvalRom}


def closed_loop(wl, seconds=None, count=None):
    """Run operations back to back: for ``seconds`` (at least one) or
    exactly ``count`` of them.  Returns latencies in ns, failures, wall."""
    lat = []
    failed = 0
    t0 = perf_counter()
    i = 0
    while (i < count) if count is not None else (
            i == 0 or perf_counter() - t0 < seconds):
        s = perf_counter_ns()
        try:
            ok = wl.op(i)
        except Exception:
            traceback.print_exc()
            ok = False
        lat.append(perf_counter_ns() - s)
        failed += not ok
        i += 1
    elapsed = perf_counter() - t0
    print(f"closed loop: {i} ops in {elapsed:.3f} s, first "
          f"{lat[0] / 1e9:.3f} s, last {lat[-1] / 1e9:.3f} s", file=sys.stderr)
    return np.array(lat, dtype=float), failed, elapsed


def end_to_end(lat, elapsed, peak_rss_mb, checked):
    return {
        "wall_s": elapsed / lat.size,
        "query_p50_us": float(np.median(lat)) / 1e3,
        "query_p90_us": float(np.percentile(lat, 90)) / 1e3,
        "queries_per_s": lat.size / elapsed,
        "peak_rss_mb": peak_rss_mb,
        **checked,
    }


def per_layer(tracer, stats, names, overhead):
    values = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name == "sampler.requested":
            values[name] = tracer.requested
        elif name == "sampler.misses":
            values[name] = tracer.misses
        elif name == "sampler.hit_ratio":
            values[name] = (1.0 - tracer.misses / tracer.requested
                            if tracer.requested else 0.0)
        elif kind == "calls":
            values[name] = stats[layer][0] if layer in stats else 0
        elif kind == "self_s":
            values[name] = stats[layer][1] if layer in stats else 0.0
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
    return values


def print_phases(tracer, self_times, top=8):
    """Top self times per traced phase, for reading a run by eye."""
    for phase in ("setup", "run"):
        stats = tracer.layer_stats(self_times, {phase})
        ranked = sorted(stats.items(), key=lambda kv: -kv[1][1])[:top]
        print(f"[{phase}] " + ", ".join(f"{n} {c}x {s:.3f}s"
                                        for n, (c, s) in ranked),
              file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"],
                   required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--per-layer", default="",
                   help="comma-separated per-layer metric names")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="parent's time.monotonic() when it spawned us")
    args = p.parse_args(argv)
    # The report goes to the stdout the parent reads; everything else,
    # including the CLI's own messages, goes to stderr.
    proto, sys.stdout = sys.stdout, sys.stderr

    wl = WORKLOADS[args.workload](args.seed, args.work)
    tracer = Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.phase = "setup"
        tracer.install()
    try:
        wl.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = monotonic() - args.spawned_at
    if args.mode == "setup":
        send(proto, {"setup_s": setup_s})
        return 0

    if tracer:
        # A fixed number of operations, untraced and then traced, so that
        # span counts repeat exactly; the overhead is the difference.
        lat, failed, elapsed = closed_loop(wl, count=wl.TRACE_OPS)
        tracer.phase = "run"
        tracer.install()
        try:
            lat_t, failed_t, elapsed_t = closed_loop(wl, count=wl.TRACE_OPS)
        finally:
            tracer.uninstall()
        attempted = lat.size + lat_t.size
        failed += failed_t
    else:
        lat, failed, elapsed = closed_loop(wl, seconds=args.seconds)
        attempted = lat.size
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        checked = wl.check()
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        checked, correct = {}, False
    except Exception:
        # e.g. a failed operation left no output to check
        traceback.print_exc()
        checked, correct = {}, False
    if tracer:
        self_times = tracer.self_times()
        names = [n for n in args.per_layer.split(",") if n]
        metrics = per_layer(tracer, tracer.layer_stats(self_times), names,
                            elapsed_t - elapsed)
        print_phases(tracer, self_times)
        if correct and isinstance(wl, BuildBump):
            # every traced build starts from a fresh sample store
            want = checked["oracle_evals"] * wl.TRACE_OPS
            correct = tracer.misses == want
            if not correct:
                print(f"sampler.misses {tracer.misses} != {want}",
                      file=sys.stderr)
        tracer.write(os.path.join(args.work, "trace.jsonl"), self_times)
    else:
        metrics = (end_to_end(lat, elapsed, peak_rss_mb, checked)
                   if correct else {})
    send(proto, {"setup_s": setup_s,
                 "result": {"correct": correct, "attempted": attempted,
                            "failed": failed, "metrics": metrics}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
