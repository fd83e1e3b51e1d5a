"""Command-line front end.

Subcommands: ``gen`` writes synthetic family tensors to FVT files,
``build`` runs the adaptive sampler and stores the resulting model,
``hosvd`` computes a truncated higher-order SVD with its spectra,
``compare`` tabulates adaptive-vs-HOSVD errors per iteration, ``eval``
evaluates a stored model at a parameter point, and ``info`` summarizes a
file.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import problems, rom
from .aca import AbcConfig, tucker_abc
from .btensor import (
    BTensor,
    TuckerDecomp,
    error_norm,
    fro_norm,
    hosvd,
    hosvd_error_bound,
    tucker_cross,
)
from .fvt import FvtError, MAGIC, load_fvt, save_fvt
from .hilbert import InnerProduct, InnerProductError
from .sampler import CachedOracle, EntryOracle


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x):
    return format(float(x), ".17g")


def _parse_dims(text):
    try:
        dims = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse dims {text!r}") from None
    if not dims or any(n < 1 for n in dims):
        raise UsageError("dims must be positive integers")
    return dims


def _resolve_gram(spec_text, h):
    if spec_text is None:
        return None
    if spec_text == "identity":
        return InnerProduct.identity(h)
    if spec_text.startswith("diagonal:"):
        w = np.fromfile(spec_text.split(":", 1)[1], dtype="<f8")
        return InnerProduct.diagonal(w)
    if spec_text.startswith("dense:"):
        g = np.fromfile(spec_text.split(":", 1)[1], dtype="<f8")
        h_file = int(round(np.sqrt(g.size)))
        return InnerProduct.dense(g.reshape(h_file, h_file))
    raise UsageError(f"cannot parse gram spec {spec_text!r}")


def _family_spec(args):
    if args.family is None:
        return None
    if args.dims is None or args.h is None:
        raise UsageError("--family requires --dims and --h")
    gram = None
    if args.gram in ("identity",):
        gram = "identity"
    return problems.FamilySpec(
        family=args.family, dims=_parse_dims(args.dims), h=int(args.h),
        gram=gram, seed=int(args.seed),
    )


def _load_source(args, need_dense):
    """Resolve --input / --family into (tensor or None, oracle, grids)."""
    if args.input is not None:
        A = load_fvt(args.input)
        ip = _resolve_gram(getattr(args, "gram", None), A.h)
        if ip is not None:
            A = BTensor(A.data, ip)
        grids = [np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
                 for n in A.dims]
        return A, CachedOracle(EntryOracle.from_tensor(A),
                               threads=args.threads), grids
    spec = _family_spec(args)
    if spec is None:
        raise UsageError("give either --input or --family")
    grids = problems.param_grids(spec)
    override = None
    if args.gram is not None and args.gram != "identity":
        override = _resolve_gram(args.gram, spec.h)
    if need_dense:
        A = problems.make_tensor(spec)
        if override is not None:
            A = BTensor(A.data, override)
        return A, CachedOracle(EntryOracle.from_tensor(A),
                               threads=args.threads), grids
    oracle = problems.make_oracle(spec)
    if override is not None:
        oracle = EntryOracle(oracle.dims, override, oracle.fn)
    return None, CachedOracle(oracle, threads=args.threads), grids


def _draw_aux(dims, size, seed):
    rng = np.random.default_rng([int(seed), 17])
    return [sorted(rng.choice(n, size=min(size, n), replace=False).tolist())
            for n in dims]


def _run_abc(args, cached):
    cfg = AbcConfig(
        n_iter=int(args.iters),
        init_aux=_draw_aux(cached.dims, int(args.aux), args.seed),
        n_rook=int(args.rook),
        draw={"uniform": "uniform", "roundrobin": "round_robin",
              "leverage": "leverage"}[args.draw],
        seed=int(args.seed),
        tol_rel=float(args.tol),
    )
    return tucker_abc(cached, cfg)


def _cmd_gen(args):
    spec = _family_spec(args)
    if spec is None:
        raise UsageError("gen requires --family")
    A = problems.make_tensor(spec)
    ip = _resolve_gram(args.gram, spec.h)
    if ip is not None and args.gram != "identity":
        A = BTensor(A.data, ip)
    elif args.gram == "identity":
        A = BTensor(A.data, InnerProduct.identity(spec.h))
    save_fvt(A, args.out)
    print(f"wrote {args.out}: dims={A.dims} h={A.h} gram={A.ip.kind}")
    return 0


def _report_doc(report, cached, seed):
    return {
        "iterations_run": report.n_iter_run,
        "converged": report.converged,
        "seed": int(seed),
        "index_sets": [[i + 1 for i in I] for I in report.index_sets],
        "aux_sets": [[i + 1 for i in I] for I in report.aux_sets],
        "rank_history": [list(r) for r in report.rank_history],
        "evals_by_iter": list(report.evals_by_iter),
        "total_evals": cached.count,
    }


def _cmd_build(args):
    _, cached, grids = _load_source(args, need_dense=False)
    model, report = _run_abc(args, cached)
    rm = rom.rom_from_parts(model, grids, ["hat"] * len(grids))
    base = args.out
    model_path = base if base.endswith(".json") else base + ".json"
    rom.save_model(rm, model_path)
    report_path = model_path[:-5] + ".report.json"
    with open(report_path, "w") as f:
        json.dump(_report_doc(report, cached, args.seed), f, indent=1)
        f.write("\n")
    print(f"wrote {model_path} (+ core FVT) and {report_path}; "
          f"evals={cached.count}")
    return 0


def _cmd_hosvd(args):
    A, _, _ = _load_source(args, need_dense=True)
    ranks = _parse_dims(args.rank) if args.rank else None
    res = hosvd(A, ranks, float(args.tol))
    base = args.out
    save_fvt(res.decomp.core, base + ".core.fvt")
    with open(base + ".factors.json", "w") as f:
        json.dump({
            "ranks": list(res.ranks),
            "clamped": res.clamped,
            "factors": [{"rows": V.shape[0], "cols": V.shape[1],
                         "data": [float(v).hex() for v in V.reshape(-1)]}
                        for V in res.decomp.factors],
        }, f, indent=1)
        f.write("\n")
    with open(base + ".sigma.tsv", "w") as f:
        f.write("mode\tindex\tsigma\n")
        for k, s in enumerate(res.sigmas):
            for i, v in enumerate(s):
                f.write(f"{k + 1}\t{i + 1}\t{_fmt(v)}\n")
    print(f"wrote {base}.core.fvt, {base}.factors.json, {base}.sigma.tsv; "
          f"ranks={res.ranks}{' (clamped)' if res.clamped else ''}")
    return 0


def _hosvd_at_rank(full, ranks):
    core = full.decomp.core
    sl = tuple(slice(0, r) for r in ranks) + (slice(None),)
    return TuckerDecomp(
        core=BTensor(core.data[sl], core.ip),
        factors=[V[:, :r] for V, r in zip(full.decomp.factors, ranks)],
    )


def _cmd_compare(args):
    A, cached, _ = _load_source(args, need_dense=True)
    model, report = _run_abc(args, cached)
    full = hosvd(A, None, float(args.tol))
    norm_a = fro_norm(A)
    if norm_a <= 0.0:
        raise ValueError("reference tensor is zero")

    lines = ["iterations\trank\tabc_error\thosvd_error\thosvd_bound\tevals\n"]
    for s, (sets, rk) in enumerate(
            zip(report.index_set_history, report.rank_history), start=1):
        m = tucker_cross(cached, sets, float(args.tol))
        e_abc = error_norm(A, m) / norm_a
        rk_cl = tuple(min(r, sig.size) for r, sig in zip(rk, full.sigmas))
        e_h = error_norm(A, _hosvd_at_rank(full, rk_cl)) / norm_a
        bound = hosvd_error_bound(full.sigmas, rk_cl) / norm_a
        rank_str = "(" + ", ".join(str(r) for r in rk) + ")"
        lines.append(
            f"{s}\t{rank_str}\t{_fmt(e_abc)}\t{_fmt(e_h)}\t{_fmt(bound)}"
            f"\t{report.evals_by_iter[s - 1]}\n")
    with open(args.out, "w") as f:
        f.writelines(lines)
    print(f"wrote {args.out} ({report.n_iter_run} rows)")
    return 0


def _cmd_eval(args):
    rm = rom.load_model(args.model)
    params = tuple(float(t) for t in args.params.split(","))
    value = rom.rom_eval(rm, params)
    if args.raw:
        np.ascontiguousarray(value, dtype="<f8").tofile(args.raw)
        print(f"wrote {args.raw} ({value.size} float64)")
    else:
        for v in value:
            print(_fmt(v))
    return 0


def _cmd_info(args):
    path = args.input
    with open(path, "rb") as f:
        head = f.read(4)
    if head == MAGIC:
        A = load_fvt(path)
        print(f"FVT tensor: dims={A.dims} h={A.h} gram={A.ip.kind} "
              f"entries={int(np.prod(A.dims))}")
        return 0
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") == "fvt-rom":
        sets = doc["index_sets"]
        print(f"ROM model: dims={tuple(doc['dims'])} "
              f"rank={tuple(len(I) for I in sets)} basis={doc['basis']} "
              f"core={doc['core_file']}")
    else:
        print(json.dumps(doc, indent=1))
    return 0


def build_parser():
    parser = _Parser(prog="fvt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_common(p, dense_input=True):
        p.add_argument("--input", help="FVT tensor file")
        p.add_argument("--family", choices=problems.FAMILIES)
        p.add_argument("--dims", help="comma-separated sizes, e.g. 50,50,50")
        p.add_argument("--h", type=int, help="coefficient dimension")
        p.add_argument("--gram",
                       help="identity | diagonal:FILE | dense:FILE")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("FVT_THREADS", "1")))

    def add_abc(p):
        p.add_argument("--iters", type=int, required=True)
        p.add_argument("--rook", type=int, default=1)
        p.add_argument("--aux", type=int, default=3)
        p.add_argument("--draw", default="uniform",
                       choices=["uniform", "roundrobin", "leverage"])

    p = sub.add_parser("gen", help="generate a synthetic tensor file")
    add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="run the adaptive sampler, store a model")
    add_common(p)
    add_abc(p)
    p.add_argument("--out", required=True, help="model path (JSON)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("hosvd", help="truncated higher-order SVD")
    add_common(p)
    p.add_argument("--rank", help="comma-separated rank tuple")
    p.add_argument("--out", required=True, help="output base path")
    p.set_defaults(func=_cmd_hosvd)

    p = sub.add_parser("compare", help="tabulate adaptive vs HOSVD errors")
    add_common(p)
    add_abc(p)
    p.add_argument("--out", required=True, help="TSV output path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("eval", help="evaluate a stored model")
    p.add_argument("--model", required=True)
    p.add_argument("--params", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--raw", help="write raw float64 instead of text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("info", help="summarize an FVT or model file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FvtError, InnerProductError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
