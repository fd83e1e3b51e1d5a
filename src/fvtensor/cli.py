"""Command-line front end.

Subcommands: ``gen`` writes synthetic family tensors to FVT files,
``build`` runs the adaptive sampler and stores the resulting model,
``hosvd`` computes a truncated higher-order SVD with its spectra,
``compare`` tabulates adaptive-vs-HOSVD errors per iteration, ``eval``
evaluates a stored model at a parameter point, and ``info`` summarizes a
file.  ``build``, ``hosvd`` and ``compare`` read one source: an FVT file
(``--input``) or a synthetic family (``--family`` with ``--dims`` and
``--h``); ``gen`` takes a family only.  Each command takes only the flags
it reads, and every flag value is checked as it is parsed, so a malformed
or conflicting command line fails before any file is read.  Exit codes: 0
success, 1 usage error, 2 data error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import problems, rom
from .aca import AbcConfig, abc_sweeps, tucker_abc
from .bmatrix import _tolerance
from .btensor import (
    DEFAULT_TOL,
    SLAB,
    BTensor,
    TuckerDecomp,
    error_norm,
    hosvd,
    hosvd_error,
    hosvd_error_bound,
)
from .fvt import MAGIC, load_fvt, read_dims, save_fvt
from .hilbert import InnerProduct
from .sampler import CachedOracle, EntryOracle


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser whose errors are ``UsageError``s.  ``--dims`` and ``--h``
    describe a ``--family`` source, so either one beside ``--input`` is
    an error too.  A flag is read only when spelled in full: argparse's
    prefix matching would take ``--h`` beside ``--help`` as ``--help`` and
    ``--ra`` as ``--rank``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        ns, rest = super().parse_known_args(args, namespace)
        if getattr(ns, "input", None) is not None:
            for flag in ("dims", "h"):
                if getattr(ns, flag, None) is not None:
                    self.error(f"argument --{flag}: not allowed with "
                               "argument --input")
        return ns, rest


def _fmt(x):
    return format(float(x), ".17g")


def _parse_dims(text, flag="--dims"):
    """``--dims`` or ``--rank``: comma-separated entries, each parsed by
    the rule of ``--h`` (:func:`_int_at_least`)."""
    parse = _int_at_least(1)
    try:
        return tuple(parse(t) for t in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"argument {flag}: {exc}") from None


def _float(text):
    """``text`` as a float, read by Python's float grammar in ASCII without
    digit separators or surrounding whitespace (``nan`` and ``inf``
    parse); a ``ValueError`` otherwise.  The one real-number rule of the
    flags, as :func:`_int_at_least` is their one integer rule."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(text)
    return float(text)


def _parse_tol(text):
    """``--tol``: a relative tolerance in [0, 1) (:func:`_float`,
    :func:`~fvtensor.bmatrix._tolerance`)."""
    try:
        return _tolerance(_float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not in [0, 1)") from None


def _parse_params(text):
    """``--params``: comma-separated numbers (:func:`_float`)."""
    try:
        return tuple(map(_float, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a list of numbers") from None


def _int_at_least(low):
    """Argparse type of a decimal integer in ASCII digits of at least
    ``low`` (0 or 1)."""
    what = "a positive" if low else "a nonnegative"

    def parse(text):
        if not (text.isascii() and text.isdecimal()) or int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what} integer")
        return int(text)

    return parse


def _parse_gram(text):
    """``--gram``: ``identity``, ``diagonal:FILE`` or ``dense:FILE``, as
    the pair (kind, FILE or ``None``)."""
    kind, _, path = text.partition(":")
    if text == "identity":
        return kind, None
    if kind not in ("diagonal", "dense") or not path:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not identity, diagonal:FILE or dense:FILE")
    return kind, path


def _resolve_gram(gram, h):
    """The ``--gram`` inner product for a source of coefficient length
    ``h``; a Gram file of another length, or not a whole number of
    float64s, is a ``ValueError``."""
    if gram is None:
        return None
    kind, path = gram
    if kind == "identity":
        return InnerProduct.identity(h)
    size = os.path.getsize(path)
    if size % 8:
        raise ValueError(f"--gram {kind}:{path} holds {size} bytes, not a "
                         "whole number of float64s")
    values = np.fromfile(path, dtype="<f8")
    if kind == "diagonal":
        ip = InnerProduct.diagonal(values)
    else:
        h_file = math.isqrt(values.size)
        if h_file * h_file != values.size:
            raise ValueError(f"--gram dense:{path} holds {values.size} "
                             "floats, not a square h*h Gram")
        ip = InnerProduct.dense(values.reshape(h_file, h_file))
    if ip.h != h:
        raise ValueError(f"--gram {kind}:{path} has length {ip.h}, "
                         f"but the source has h={h}")
    return ip


def _family_spec(args):
    if args.dims is None or args.h is None:
        raise UsageError("--family requires --dims and --h")
    return problems.FamilySpec(
        family=args.family, dims=_parse_dims(args.dims), h=args.h,
        seed=args.seed,
    )


def _load_source(args, need_dense):
    """Resolve --input / --family into (tensor or None, entry oracle,
    grids); ``--gram``, when given, replaces the Gram of either source."""
    if args.input is not None:
        A = load_fvt(args.input)
        grids = problems._unit_grids(A.dims)
        oracle = EntryOracle.from_tensor(A)
    else:
        spec = _family_spec(args)
        grids = problems.param_grids(spec)
        A = problems.make_tensor(spec) if need_dense else None
        oracle = (EntryOracle.from_tensor(A) if need_dense
                  else problems.make_oracle(spec))
    ip = _resolve_gram(args.gram, oracle.ip.h)
    if ip is not None:
        A = None if A is None else BTensor(A.data, ip)
        oracle = EntryOracle(oracle.dims, ip, oracle.fn)
    return A, oracle, grids


def _draw_aux(dims, size, seed):
    rng = np.random.default_rng([int(seed), 17])
    return [sorted(rng.choice(n, size=min(size, n), replace=False).tolist())
            for n in dims]


def _abc_config(args, dims):
    return AbcConfig(
        n_iter=args.iters,
        init_aux=_draw_aux(dims, args.aux, args.seed),
        n_rook=args.rook,
        seed=args.seed,
        tol_rel=args.tol,
    )


def _cmd_gen(args):
    A, _, _ = _load_source(args, need_dense=True)
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
        "scan_evals_by_iter": list(report.scan_evals_by_iter),
        "total_evals": cached.count,
    }


def _cmd_build(args):
    _, oracle, grids = _load_source(args, need_dense=False)
    cached = CachedOracle(oracle, threads=args.threads)
    model, report = tucker_abc(cached, _abc_config(args, cached.dims))
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


def _source_order(args):
    """Order of the source tensor, from the FVT header or ``--dims``
    before any entry is read; ``None`` if neither is given."""
    if args.input is not None:
        return len(read_dims(args.input))
    return None if args.dims is None else len(_parse_dims(args.dims))


def _cmd_hosvd(args):
    ranks = None if args.rank is None else _parse_dims(args.rank, "--rank")
    d = None if ranks is None else _source_order(args)
    if d is not None and len(ranks) != d:
        raise UsageError(f"--rank has {len(ranks)} entries, but the source "
                         f"has order {d}")
    A, _, _ = _load_source(args, need_dense=True)
    res = hosvd(A, ranks, args.tol)
    base = args.out
    save_fvt(res.decomp.core, base + ".core.fvt")
    with open(base + ".factors.json", "w") as f:
        json.dump({
            "ranks": list(res.ranks),
            "clamped": res.clamped,
            "factors": [rom._factor_json(V) for V in res.decomp.factors],
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


def _cmd_compare(args):
    """Score each sweep's model as the sweep yields it, in the coordinates
    of one reference HOSVD ``A ~ G x_k U_k``, without reading ``A`` again.

    Whitening is an isometry from H onto Euclidean R^h, so norms, HOSVD
    spectra, rook pivots and cross factors are the same in whitened
    coordinates.  ``A`` is whitened in place, at most ``SLAB`` floats of
    its flat ``(N, h)`` view at a time, and taken under the identity Gram;
    the sweep samples that, so no later pass over the tensor pays a Gram
    product, and the process holds one copy of the tensor.  ``|A|`` is
    summed from the same chunks, ``w @ w`` for each whitened chunk ``w``,
    so no norm pass reads the tensor again.
    The reference HOSVD is truncated at ``--tol`` or the default
    tolerance, whichever is smaller: the sweep stops at ``--tol``, and a
    reference cut there would score its ranks as exact.

    Both error columns are measured against the reference ``G x_k U_k``.
    ``hosvd_error`` is read off the core ``G``.  ``abc_error`` scores the
    model ``M = C x_k F_k`` as ``G - C x_k (U_k^T F_k)``, a pass over the
    core: with ``P`` the product of the projections onto the ``U_k``, that
    is ``P(A - M)``, and it differs from ``A - M`` in norm by at most
    ``|A - G x_k U_k| + |M - M x_k P_k|``, both from the tail the
    reference drops.
    """
    A, _, _ = _load_source(args, need_dense=True)
    data = np.ascontiguousarray(A.data)
    flat = data.reshape(-1, A.h)
    step = max(1, SLAB // A.h)
    sq = 0.0
    for s in range(0, flat.shape[0], step):
        w = flat[s:s + step]
        w[:] = A.ip.whiten(w)
        w = w.reshape(-1)
        sq += float(w @ w)
    A = BTensor(data, InnerProduct.identity(A.h))
    cached = CachedOracle(EntryOracle.from_tensor(A), threads=args.threads)
    norm_a = float(np.sqrt(sq))
    if norm_a <= 0.0:
        raise ValueError("reference tensor is zero")
    full = hosvd(A, None, min(args.tol, DEFAULT_TOL))

    lines = ["iterations\trank\tabc_error\thosvd_error\thosvd_bound\tevals\n"]
    G, U = full.decomp.core, full.decomp.factors
    for model, report in abc_sweeps(cached, _abc_config(args, cached.dims)):
        rk = report.rank_history[-1]
        local = TuckerDecomp(model.core, [Uk.T @ F for Uk, F in
                                          zip(U, model.factors)])
        e_abc = error_norm(G, local) / norm_a
        e_h = hosvd_error(full, rk) / norm_a
        bound = hosvd_error_bound(full.sigmas, rk) / norm_a
        rank_str = "(" + ", ".join(str(r) for r in rk) + ")"
        lines.append(
            f"{report.n_iter_run}\t{rank_str}\t{_fmt(e_abc)}\t{_fmt(e_h)}"
            f"\t{_fmt(bound)}\t{report.evals_by_iter[-1]}\n")
    with open(args.out, "w") as f:
        f.writelines(lines)
    print(f"wrote {args.out} ({report.n_iter_run} rows)")
    return 0


def _cmd_eval(args):
    rm = rom.load_model(args.model)
    value = rom.rom_eval(rm, args.params)
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
              f"entries={math.prod(A.dims)}")
        return 0
    try:
        with open(path) as f:
            doc = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ValueError(
            f"{path} is neither an FVT tensor nor a JSON file") from None
    if isinstance(doc, dict) and doc.get("format") == "fvt-rom":
        rom._check_doc(doc)
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

    def add_family(p):
        p.add_argument("--dims", help="comma-separated sizes, e.g. 50,50,50")
        p.add_argument("--h", type=_int_at_least(1),
                       help="coefficient dimension")
        p.add_argument("--gram", type=_parse_gram,
                       help="identity | diagonal:FILE | dense:FILE")
        p.add_argument("--seed", type=_int_at_least(0), default=0)

    def add_common(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="FVT tensor file")
        source.add_argument("--family", choices=problems.FAMILIES)
        add_family(p)
        p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)

    def add_abc(p):
        p.add_argument("--threads", type=_int_at_least(1), default=1)
        p.add_argument("--iters", type=_int_at_least(1), required=True)
        p.add_argument("--rook", type=_int_at_least(1), default=1)
        p.add_argument("--aux", type=_int_at_least(1), default=3)

    p = sub.add_parser("gen", help="generate a synthetic tensor file")
    p.add_argument("--family", choices=problems.FAMILIES, required=True)
    add_family(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen, input=None)

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
    p.add_argument("--params", type=_parse_params, required=True,
                   help="comma-separated parameter values")
    p.add_argument("--raw", help="write raw float64 instead of text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("info", help="summarize an FVT or model file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # FvtError, InnerProductError and JSONDecodeError are ValueErrors
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
