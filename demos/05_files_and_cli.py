"""File formats and the command-line pipeline.

Tensors travel as FVT files (binary header + Gram payload + float64
entries, bitwise round-trip); models as JSON with hex-encoded floats plus
a companion core FVT.  The same pipeline is scriptable through the CLI:
gen -> build -> eval, plus compare for error tables and info for headers.
"""

import tempfile
from pathlib import Path

import numpy as np

import fvtensor as fv
from fvtensor.cli import main as fvt

with tempfile.TemporaryDirectory(prefix="fvt_demo_") as tmp:
    work = Path(tmp)
    print("working in", work)

    # binary round-trip is bitwise
    spec = fv.FamilySpec("gaussian_bump", (10, 10, 8), 36, seed=0)
    A = fv.make_tensor(spec)
    path = work / "bumps.fvt"
    fv.save_fvt(A, path)
    B = fv.load_fvt(path)
    print("round-trip bitwise identical:", A.data.tobytes() == B.data.tobytes())

    # the same through the CLI; a plain FVT input carries no grid metadata,
    # so the stored model uses default unit grids per parameter
    fvt(["info", "--input", str(path)])
    fvt(["build", "--input", str(path), "--iters", "4", "--rook", "1",
         "--aux", "2", "--seed", "3", "--out", str(work / "model.json")])
    fvt(["eval", "--model", str(work / "model.json"), "--params",
         "0.1,0.3,0.55", "--raw", str(work / "value.f64")])
    print("evaluated coefficients:",
          np.fromfile(work / "value.f64", dtype="<f8")[:4], "...")

    # error table: adaptive sampling vs the HOSVD reference at equal rank
    fvt(["compare", "--family", "gaussian_bump", "--dims", "20,20,20",
         "--h", "64", "--seed", "1", "--iters", "6", "--out",
         str(work / "table.tsv")])
    print()
    print((work / "table.tsv").read_text())
