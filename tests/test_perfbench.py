"""The benchmark in ``perfbench/`` binds library names and command lines.

``Tracer.install`` (``perfbench/spans.py``) wraps every public function
of the traced layers and a fixed list of ``CachedOracle`` and
``InnerProduct`` methods by name, and raises ``KeyError`` when one of
those methods is gone; ``perfbench/worker.py`` runs ``fvt`` command
lines.  These tests keep the library's names, its command-line syntax,
the harness and the per-layer metrics of ``BENCHMARK.json`` in step.
"""

import importlib
import inspect
import json
from pathlib import Path

import fvtensor.aca as aca
import fvtensor.btensor as btensor
import fvtensor.cli as cli
import fvtensor.problems as problems
from fvtensor.sampler import CachedOracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_an_adaptive_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    original = btensor.tucker_cross
    tracer = Tracer()
    tracer.install()
    try:
        spec = problems.FamilySpec("separable", (6, 5, 4), 3, seed=1)
        cached = CachedOracle(problems.make_oracle(spec))
        cfg = aca.AbcConfig(n_iter=2, init_aux=[[0, 1], [0, 1], [0, 1]])
        aca.tucker_abc(cached, cfg)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"aca.tucker_abc", "btensor.tucker_cross", "sampler.get_many",
            "sampler.oracle", "hilbert.pair"} <= names
    assert tracer.misses == cached.count
    assert btensor.tucker_cross is original


# Per-layer names the benchmark still lists for a deleted function, each
# to be dropped with the next change to the benchmark.
STALE = {"bmatrix.mgs_qr"}


def test_per_layer_metrics_name_live_spans(monkeypatch):
    # a deleted function would silently read 0 in every per-layer metric
    # that names it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import LAYERS, METHODS

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    live = {"sampler.oracle"}
    live |= {f"{short}.{m}" for (short, _), methods in METHODS.items()
             for m in methods}
    for short in LAYERS:
        mod = importlib.import_module(f"fvtensor.{short}")
        live |= {f"{short}.{attr}" for attr, obj in vars(mod).items()
                 if inspect.isfunction(obj) and not attr.startswith("_")
                 and obj.__module__ == mod.__name__}
    named = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
             if m["name"].endswith((".calls", ".self_s"))}
    assert named - live <= STALE


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # every fvt line a workload runs must parse as it is written
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    lines = [worker.build_argv(wl.DIMS, wl.H, wl.ITERS, tmp_path / "m.json")
             for wl in (worker.BuildBump, worker.EvalRom)]
    monkeypatch.setattr(worker, "run_cli", lambda argv: lines.append(argv)
                        or True)
    compare = worker.CompareDense(1, str(tmp_path))
    compare.setup()
    compare.op(0)
    commands = []
    for argv in lines:
        args = cli.build_parser().parse_args([str(a) for a in argv])
        commands.append(args.command)
        assert args.func.__name__ == f"_cmd_{args.command}"
    assert commands == ["build", "build", "gen", "compare"]
