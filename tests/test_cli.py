import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvtensor import aca, cli, rom
from fvtensor.btensor import (
    BTensor,
    error_norm,
    fro_norm,
    hosvd,
    hosvd_error,
    hosvd_error_bound,
    tucker_cross,
)
from fvtensor.cli import main
from fvtensor.fvt import load_fvt, save_fvt
from fvtensor.hilbert import InnerProduct
from fvtensor.problems import FamilySpec
from fvtensor.sampler import CachedOracle, EntryOracle

from conftest import GRAM_KINDS, tensor_under

# the most |abc_error * |A| - error_norm(A, model)| / |A| may be: twice the
# largest gap measured on the compare_dense benchmark instance (5.4e-12);
# the largest over 3205 rows of the property below was 1.3e-13
AGREEMENT = 1e-11


def write_dense_gram(path, h, seed):
    M = np.random.default_rng(seed).standard_normal((h, h))
    ((M @ M.T + h * np.eye(h)) / h).astype("<f8").tofile(path)
    return str(path)


def test_gen_and_info(tmp_path, capsys):
    out = str(tmp_path / "t.fvt")
    assert main(["gen", "--family", "separable", "--dims", "5,4,6",
                 "--h", "8", "--seed", "3", "--out", out]) == 0
    A = load_fvt(out)
    assert A.dims == (5, 4, 6) and A.h == 8
    assert main(["info", "--input", out]) == 0
    text = capsys.readouterr().out
    assert "dims=(5, 4, 6)" in text
    # a JSON file that is not a model is printed as it is
    other = tmp_path / "list.json"
    other.write_text("[1, 2]")
    assert main(["info", "--input", str(other)]) == 0
    assert json.loads(capsys.readouterr().out) == [1, 2]


def test_info_on_a_model(tmp_path, capsys):
    model = str(tmp_path / "m.json")
    assert main(["build", "--family", "separable", "--dims", "7,6,5",
                 "--h", "4", "--iters", "2", "--aux", "2", "--out",
                 model]) == 0
    doc = json.load(open(model))
    capsys.readouterr()
    assert main(["info", "--input", model]) == 0
    assert capsys.readouterr().out == (
        f"ROM model: dims=(7, 6, 5) rank=(2, 2, 2) basis={doc['basis']} "
        f"core=m.core.fvt\n")


def test_gen_deterministic(tmp_path):
    a, b = str(tmp_path / "a.fvt"), str(tmp_path / "b.fvt")
    args = ["gen", "--family", "gaussian_bump", "--dims", "6,6,5",
            "--h", "16", "--seed", "1"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_full_pipeline_byte_deterministic(tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        sub = tmp_path / tag
        sub.mkdir()
        fvt = str(sub / "t.fvt")
        model = str(sub / "model.json")
        assert main(["gen", "--family", "gaussian_bump", "--dims", "7,6,5",
                     "--h", "16", "--seed", "4", "--out", fvt]) == 0
        assert main(["build", "--input", fvt, "--iters", "3", "--aux", "2",
                     "--seed", "4", "--out", model]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", model, "--params",
                     "0.2,0.4,0.6"]) == 0
        blobs.append((open(fvt, "rb").read(),
                      open(model, "rb").read(),
                      open(model[:-5] + ".core.fvt", "rb").read(),
                      capsys.readouterr().out))
    assert blobs[0] == blobs[1]


def test_usage_errors_exit_1(tmp_path):
    assert main(["gen", "--family", "separable", "--out",
                 str(tmp_path / "x.fvt")]) == 1
    assert main(["gen", "--input", str(tmp_path / "x.fvt"), "--out",
                 str(tmp_path / "y.fvt")]) == 1
    assert main(["build", "--family", "separable", "--dims", "bad",
                 "--h", "4", "--iters", "2", "--out", str(tmp_path / "m")]) == 1
    assert main(["compare", "--iters", "2", "--out", str(tmp_path / "c")]) == 1


def test_data_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fvt"
    for blob in (b"NOPE" + b"\x00" * 32, b"NOPE1234", b"\xff\xfe\x00"):
        bad.write_bytes(blob)
        assert main(["info", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad} is neither an FVT tensor nor a JSON file\n"
    assert main(["info", "--input", str(tmp_path / "missing.fvt")]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", ["hosvd", "compare", "build"])
def test_non_finite_fvt_entry_exit_2_before_sampling(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      bad):
    # one bad coefficient in a 6x5x4, h=3 file: a build samples too few
    # entries to meet it, so only the load can refuse it
    reads = spy_reads(monkeypatch)
    data = np.random.default_rng(3).standard_normal((6, 5, 4, 3))
    data[4, 1, 3, 2] = float(bad)
    src = tmp_path / "bad.fvt"
    save_fvt(BTensor(data, InnerProduct.identity(3)), src)
    abc = [] if command == "hosvd" else ["--iters", "2"]
    out = tmp_path / "out.json"
    assert main([command, "--input", str(src), *abc, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: non-finite coefficient in entry (4, 1, 3) "
                   "(0-based)\n")
    assert reads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.fvt"]


def test_hosvd_rank_length_from_header_exit_1_before_load(tmp_path, capsys,
                                                          monkeypatch):
    src = tmp_path / "t.fvt"
    save_fvt(BTensor(np.ones((4, 3, 2, 2)), InnerProduct.identity(2)), src)
    loads = []
    monkeypatch.setattr(cli, "load_fvt", loads.append)
    assert main(["hosvd", "--input", str(src), "--rank", "2,2",
                 "--out", str(tmp_path / "h")]) == 1
    assert capsys.readouterr().err == (
        "usage error: --rank has 2 entries, but the source has order 3\n")
    assert loads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.fvt"]


def test_gen_then_build_input_matches_build_family(tmp_path):
    # the dense tensor is the oracle on the whole grid, so a model built
    # from the generated file equals the one built from the family; only
    # the stored parameter grids differ (unit grids for a plain FVT input)
    fam = ["--family", "gaussian_bump", "--dims", "9,8,7", "--h", "16",
           "--seed", "2"]
    fvt = str(tmp_path / "t.fvt")
    assert main(["gen", *fam, "--out", fvt]) == 0
    abc = ["--iters", "4", "--aux", "2", "--seed", "2"]
    models = []
    for tag, src in (("input", ["--input", fvt]), ("family", fam)):
        out = str(tmp_path / f"{tag}.json")
        assert main(["build", *src, *abc, "--out", out]) == 0
        doc = json.load(open(out))
        factors = doc["factors"]
        core = open(tmp_path / doc["core_file"], "rb").read()
        models.append((factors, core, doc["grids"]))
    assert models[0][0] == models[1][0]
    assert models[0][1] == models[1][1]
    assert models[0][2] != models[1][2]


def test_build_eval_pipeline(tmp_path, capsys):
    fvt = str(tmp_path / "t.fvt")
    assert main(["gen", "--family", "separable", "--dims", "7,6,5",
                 "--h", "4", "--seed", "2", "--out", fvt]) == 0
    model = str(tmp_path / "model.json")
    assert main(["build", "--input", fvt, "--iters", "3", "--rook", "1",
                 "--aux", "2", "--seed", "5", "--out", model]) == 0
    report = json.load(open(model[:-5] + ".report.json"))
    assert report["iterations_run"] == 3
    assert len(report["index_sets"]) == 3
    assert all(min(I) >= 1 for I in report["index_sets"])  # 1-based
    capsys.readouterr()
    # evaluate at a stored subgrid node: must reproduce the core entry
    doc = json.load(open(model))
    core = load_fvt(str(tmp_path / doc["core_file"]))
    grids = [[float.fromhex(v) for v in g] for g in doc["grids"]]
    i0 = [I[0] - 1 for I in (doc["index_sets"])]
    params = ",".join(repr(grids[k][i0[k]]) for k in range(3))
    assert main(["eval", "--model", model, "--params", params]) == 0
    got = np.array([float(t) for t in capsys.readouterr().out.split()])
    stored = core.data[0, 0, 0]
    assert np.array_equal(got, stored)


def test_build_stops_once_every_mode_is_saturated(tmp_path):
    # the separable family has exact Tucker rank (3, 3, 3): once each set
    # carries it, a further sweep would read nothing, so the build stops
    model = str(tmp_path / "sep.json")
    assert main(["build", "--family", "separable", "--dims", "12,10,8",
                 "--h", "4", "--iters", "20", "--out", model]) == 0
    report = json.load(open(model[:-5] + ".report.json"))
    assert report["converged"] is True
    assert report["iterations_run"] < 20
    assert report["total_evals"] == report["evals_by_iter"][-1] < 12 * 10 * 8
    scans = report["scan_evals_by_iter"]
    assert len(scans) == report["iterations_run"]
    assert scans == sorted(scans) and 0 < scans[-1] < report["total_evals"]


def test_eval_raw_roundtrip(tmp_path, capsys):
    model = str(tmp_path / "m.json")
    assert main(["build", "--family", "lowrank_plus_decay", "--dims", "6,5,4",
                 "--h", "8", "--iters", "2", "--seed", "9",
                 "--out", model]) == 0
    raw = str(tmp_path / "out.f64")
    assert main(["eval", "--model", model, "--params", "0.5,0.5,0.5",
                 "--raw", raw]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", model, "--params", "0.5,0.5,0.5"]) == 0
    text = np.array([float(t) for t in capsys.readouterr().out.split()])
    binary = np.fromfile(raw, dtype="<f8")
    assert np.array_equal(text, binary)


def test_eval_nonfinite_params_exit_2(tmp_path, capsys):
    model = str(tmp_path / "m.json")
    assert main(["build", "--family", "lowrank_plus_decay", "--dims", "6,5,4",
                 "--h", "8", "--iters", "2", "--seed", "9",
                 "--out", model]) == 0
    for params in ("nan,0.5,0.5", "0.5,inf,0.5"):
        assert main(["eval", "--model", model, "--params", params]) == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("n, code", [(200, 0), (3000, 2)])
def test_eval_lagrange_model_on_a_fine_short_grid(tmp_path, capsys, n, code):
    # a Lagrange basis on n nodes of [0.001, 0.1]: at 200 nodes eval
    # printed NaN and exited 0; at 3000 the values leave floating-point
    # range, which is a domain error
    rng = np.random.default_rng(3)
    A = BTensor(rng.standard_normal((n, 3, 2)), InnerProduct.identity(2))
    rm = rom.rom_from_parts(tucker_cross(A, [[0, 50, 150], [0, 2]]),
                            [np.linspace(0.001, 0.1, n), [0.0, 0.5, 1.0]],
                            ["lagrange", "hat"])
    path = str(tmp_path / "m.json")
    rom.save_model(rm, path)
    capsys.readouterr()
    assert main(["eval", "--model", path, "--params", "0.0505,0.25"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        values = [float(v) for v in out.split()]
        assert len(values) == 2 and all(math.isfinite(v) for v in values)
    else:
        assert "not finite" in err


@pytest.mark.parametrize("node", ["nan", "inf", "-inf"])
def test_eval_non_finite_grid_node_exit_2(tmp_path, capsys, node):
    model = str(tmp_path / "m.json")
    assert main(["build", "--family", "lowrank_plus_decay", "--dims", "6,5,4",
                 "--h", "8", "--iters", "2", "--seed", "9",
                 "--out", model]) == 0
    with open(model) as f:
        doc = json.load(f)
    doc["grids"][1][2] = node
    with open(model, "w") as f:
        json.dump(doc, f)
    capsys.readouterr()
    assert main(["eval", "--model", model, "--params", "0.5,0.5,0.5"]) == 2
    assert "grid for mode 1 holds a non-finite node" in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda d: d["factors"][1]["data"].__setitem__(3, "nan"),
                 "mode 1 factor holds a non-finite entry", id="nan"),
    pytest.param(lambda d: d["factors"][2]["data"].__setitem__(0, "inf"),
                 "mode 2 factor holds a non-finite entry", id="inf"),
    pytest.param(lambda d: d["factors"][0]["data"].__setitem__(0, "-inf"),
                 "mode 0 factor holds a non-finite entry", id="minus-inf"),
    pytest.param(lambda d: d["factors"][1].update(rows=4),
                 "mode 1 factor is 4 x", id="rows"),
    pytest.param(lambda d: d["factors"][0].update(cols=1),
                 "mode 0 factor is 6 x 1", id="cols"),
    pytest.param(lambda d: d["index_sets"][2].pop(),
                 "mode 2 factor is", id="index-set-shorter-than-core"),
    pytest.param(lambda d: d["dims"].__setitem__(0, 7),
                 "mode 0 factor is 6 x", id="dims"),
    pytest.param(lambda d: d["index_sets"][1].__setitem__(-1, 6),
                 "mode 1 index set out of range for size 5",
                 id="index-past-dims"),
    pytest.param(lambda d: d["index_sets"][0].__setitem__(0, 0),
                 "mode 0 index set out of range for size 6",
                 id="index-zero"),
    pytest.param(lambda d: d["index_sets"][2].reverse(),
                 "mode 2 index set is not sorted and distinct",
                 id="index-unsorted"),
    pytest.param(lambda d: d["factors"].pop(),
                 "3 dims, 3 index sets, 2 factors", id="missing-factor"),
    # each of these was once truncated by int() and loaded
    pytest.param(lambda d: d["index_sets"][0].__setitem__(
        0, d["index_sets"][0][0] + 0.7),
                 "mode 0 size or index set holds a non-integer",
                 id="float-index"),
    pytest.param(lambda d: d["index_sets"][1].__setitem__(
        0, str(d["index_sets"][1][0])),
                 "mode 1 size or index set holds a non-integer",
                 id="string-index"),
    pytest.param(lambda d: d["index_sets"][2].__setitem__(0, True),
                 "mode 2 size or index set holds a non-integer",
                 id="bool-index"),
    pytest.param(lambda d: d["dims"].__setitem__(0, 6.5),
                 "mode 0 size or index set holds a non-integer",
                 id="float-dims"),
    # each of these once raised an uncaught TypeError or AttributeError
    pytest.param(lambda d: [d], "not a version-1 ROM file", id="json-list"),
    pytest.param(lambda d: d["grids"][1].__setitem__(0, 0.5),
                 "ROM field 'grids' must hold lists of hex strings",
                 id="number-node"),
    pytest.param(lambda d: d["factors"][2]["data"].__setitem__(0, 1.0),
                 "ROM field 'factors' must hold lists of hex strings",
                 id="number-factor-entry"),
    pytest.param(lambda d: d.update(basis=5), "ROM field 'basis' is not a list",
                 id="basis-number"),
    pytest.param(lambda d: d.update(index_sets=None),
                 "ROM field 'index_sets' is not a list", id="index-sets-null"),
    pytest.param(lambda d: d.update(core_file=3),
                 "ROM field 'core_file' is not a string", id="core-file-number"),
    pytest.param(lambda d: d["index_sets"].__setitem__(1, 2),
                 "ROM field 'index_sets' holds a non-list",
                 id="index-set-number"),
    pytest.param(lambda d: d["factors"].__setitem__(0, [1.0]),
                 "ROM field 'factors' holds a non-object", id="factor-list"),
    # the core lies beside the model: this one is the same file, named by
    # a path
    pytest.param(lambda d: d.update(core_file="./" + d["core_file"]),
                 "ROM field 'core_file' is not a bare file name",
                 id="core-file-path"),
])
def test_eval_refuses_an_inconsistent_model_exit_2(tmp_path, capsys, edit,
                                                   named):
    model = str(tmp_path / "m.json")
    assert main(["build", "--family", "lowrank_plus_decay", "--dims", "6,5,4",
                 "--h", "8", "--iters", "2", "--seed", "9",
                 "--out", model]) == 0
    with open(model) as f:
        doc = json.load(f)
    assert all(len(I) >= 2 for I in doc["index_sets"])
    edited = edit(doc)
    with open(model, "w") as f:
        # an edit returns a list only to replace the whole document
        json.dump(edited if isinstance(edited, list) else doc, f)
    capsys.readouterr()
    assert main(["eval", "--model", model, "--params", "0.5,0.5,0.5"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("field, value, named", [
    pytest.param("index_sets", None, "ROM field 'index_sets' is not a list",
                 id="index-sets-null"),
    pytest.param("dims", 7, "ROM field 'dims' is not a list",
                 id="dims-number"),
])
def test_info_refuses_a_malformed_model_exit_2(tmp_path, capsys, field, value,
                                               named):
    model = str(tmp_path / "m.json")
    assert main(["build", "--family", "separable", "--dims", "5,4,3",
                 "--h", "2", "--iters", "1", "--out", model]) == 0
    with open(model) as f:
        doc = json.load(f)
    doc[field] = value
    with open(model, "w") as f:
        json.dump(doc, f)
    capsys.readouterr()
    assert main(["info", "--input", model]) == 2
    assert named in capsys.readouterr().err


def test_model_core_outside_its_directory_is_refused_exit_2(tmp_path,
                                                           capsys):
    # a core_file that names a path, absolute or relative, could load a
    # core from anywhere; save_model writes a bare file name
    model = tmp_path / "a" / "m.json"
    model.parent.mkdir()
    assert main(["build", "--family", "separable", "--dims", "5,4,3",
                 "--h", "2", "--iters", "1", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    elsewhere = tmp_path / "b" / doc["core_file"]
    elsewhere.parent.mkdir()
    os.replace(model.parent / doc["core_file"], elsewhere)
    for path in (str(elsewhere), os.path.join("..", "b", doc["core_file"])):
        doc["core_file"] = path
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (["info", "--input", str(model)],
                     ["eval", "--model", str(model), "--params", "0,0,0"]):
            assert main(argv) == 2
            assert ("ROM field 'core_file' is not a bare file name"
                    in capsys.readouterr().err)


def test_gram_file_of_a_partial_float64_exit_2(tmp_path, capsys):
    # three weights and 3 stray bytes: not read as h=3
    gfile = tmp_path / "w.f64"
    gfile.write_bytes(np.full(3, 1.5).astype("<f8").tobytes() + b"abc")
    out = tmp_path / "t.fvt"
    assert main(["gen", "--family", "separable", "--dims", "3,3,3",
                 "--h", "3", "--gram", f"diagonal:{gfile}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --gram diagonal:{gfile} holds 27 bytes, not a whole number "
        "of float64s\n")
    assert not out.exists()


def test_hosvd_outputs(tmp_path):
    base = str(tmp_path / "dec")
    assert main(["hosvd", "--family", "lowrank_plus_decay", "--dims", "8,7,6",
                 "--h", "5", "--seed", "4", "--rank", "3,3,3",
                 "--out", base]) == 0
    core = load_fvt(base + ".core.fvt")
    assert core.dims == (3, 3, 3)
    doc = json.load(open(base + ".factors.json"))
    assert doc["ranks"] == [3, 3, 3]
    lines = open(base + ".sigma.tsv").read().splitlines()
    assert lines[0] == "mode\tindex\tsigma"
    sig = {}
    for row in lines[1:]:
        mode, idx, val = row.split("\t")
        sig.setdefault(int(mode), []).append(float(val))
    for s in sig.values():
        assert all(np.diff(s) <= 0)


def test_compare_table_and_bound(tmp_path):
    out = str(tmp_path / "cmp.tsv")
    assert main(["compare", "--family", "separable", "--dims", "9,8,7",
                 "--h", "6", "--seed", "3", "--iters", "3", "--rook", "1",
                 "--aux", "2", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == \
        "iterations\trank\tabc_error\thosvd_error\thosvd_bound\tevals"
    assert len(lines) == 4
    prev_evals = 0
    for row in lines[1:]:
        it, rank, e_abc, e_h, bound, evals = row.split("\t")
        assert rank.startswith("(") and rank.endswith(")")
        assert float(e_h) <= float(bound) * (1 + 1e-8) + 1e-15
        # quasi-optimal reference never loses to the sampled model here
        assert float(e_h) <= float(e_abc) + 1e-15
        assert int(evals) >= prev_evals
        prev_evals = int(evals)
    # separable rank 3 family: exact recovery by the third sweep
    assert float(lines[3].split("\t")[2]) <= 1e-8


def test_compare_builds_each_sweep_model_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    # count through every fvtensor module that binds the function
    real = aca.tucker_cross
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("fvtensor")
                and getattr(mod, "tucker_cross", None) is real):
            monkeypatch.setattr(mod, "tucker_cross", counted)
    out = str(tmp_path / "cmp.tsv")
    assert main(["compare", "--family", "lowrank_plus_decay",
                 "--dims", "8,7,6", "--h", "5", "--seed", "2",
                 "--iters", "4", "--out", out]) == 0
    assert len(open(out).read().splitlines()) == 1 + 4
    assert len(calls) == 4


def test_compare_zero_tensor_fails_first(tmp_path, capsys, monkeypatch):
    # the zero check runs before the sweep and the HOSVD, and writes nothing
    started = []
    monkeypatch.setattr(cli, "abc_sweeps", lambda *a: started.append("sweep"))
    monkeypatch.setattr(cli, "hosvd", lambda *a: started.append("hosvd"))
    src = str(tmp_path / "zero.fvt")
    save_fvt(BTensor(np.zeros((4, 5, 3, 2)), InnerProduct.identity(2)), src)
    out = tmp_path / "cmp.tsv"
    assert main(["compare", "--input", src, "--iters", "2",
                 "--out", str(out)]) == 2
    assert "reference tensor is zero" in capsys.readouterr().err
    assert not out.exists()
    assert started == []


def test_compare_threads_byte_identical(tmp_path):
    gram = write_dense_gram(tmp_path / "g.f64", 6, 5)
    for tag, extra in (("default", []), ("dense", ["--gram", f"dense:{gram}"])):
        outs = []
        for t in (1, 4):
            out = str(tmp_path / f"{tag}{t}.tsv")
            assert main(["compare", "--family", "lowrank_plus_decay",
                         "--dims", "8,8,8", "--h", "6", "--seed", "6",
                         "--iters", "3", "--threads", str(t), *extra,
                         "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


def test_compare_whitened_matches_coefficient_space(tmp_path):
    # compare runs on the whitened tensor under the identity Gram; the
    # library run in coefficient space under the dense Gram must print
    # the same table
    gram = write_dense_gram(tmp_path / "g.f64", 12, 3)
    src = str(tmp_path / "t.fvt")
    assert main(["gen", "--family", "gaussian_bump", "--dims", "10,9,8",
                 "--h", "12", "--seed", "1", "--gram", f"dense:{gram}",
                 "--out", src]) == 0
    out = str(tmp_path / "cmp.tsv")
    argv = ["compare", "--input", src, "--iters", "5", "--aux", "2",
            "--seed", "1", "--out", out]
    assert main(argv) == 0
    got = [row.split("\t") for row in open(out).read().splitlines()[1:]]

    A = load_fvt(src)
    assert A.ip.kind == "dense"
    cached = CachedOracle(EntryOracle.from_tensor(A))
    cfg = cli._abc_config(cli.build_parser().parse_args(argv), A.dims)
    full = hosvd(A)
    norm_a = fro_norm(A)
    want = []
    for model, report in aca.abc_sweeps(cached, cfg):
        rk = report.rank_history[-1]
        want.append((str(report.n_iter_run),
                     "(" + ", ".join(str(r) for r in rk) + ")",
                     error_norm(A, model) / norm_a,
                     hosvd_error(full, rk) / norm_a,
                     hosvd_error_bound(full.sigmas, rk) / norm_a,
                     str(report.evals_by_iter[-1])))
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert (g[0], g[1], g[5]) == (w[0], w[1], w[5])
        for col in (2, 3, 4):
            assert float(g[col]) == pytest.approx(w[col], rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(dims=st.lists(st.integers(3, 7), min_size=2, max_size=4),
       h=st.integers(1, 6), kind=st.sampled_from(GRAM_KINDS),
       rank=st.integers(1, 3), n_noise=st.integers(0, 12),
       seed=st.integers(0, 50), iters=st.integers(1, 4))
# if sweep 1 picks each index on its own, this draw's first core entry
# is near zero and its model's error 5e7 |A|, whose round-off alone
# exceeds the agreement bound
@example(dims=[3, 3, 3, 7], h=1, kind="identity", rank=2, n_noise=3,
         seed=39, iters=1)
def test_compare_abc_error_agrees_with_error_norm(dims, h, kind, rank,
                                                   n_noise, seed, iters):
    # each row's abc_error is scored in the reference HOSVD's coordinates;
    # it differs from the sweep model's exact error by the tail the
    # reference drops, which is round-off at its 1e-12 cut
    A = tensor_under(FamilySpec("lowrank_plus_decay", dims, h, seed=seed,
                                params={"rank": rank, "n_noise": n_noise}),
                     kind)
    models = []

    def recorded(*args):
        for model, report in aca.abc_sweeps(*args):
            models.append(model)
            yield model, report

    with tempfile.TemporaryDirectory() as workdir, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "abc_sweeps", recorded)
        src, out = (os.path.join(workdir, f) for f in ("t.fvt", "c.tsv"))
        save_fvt(A, src)
        assert main(["compare", "--input", src, "--iters", str(iters),
                     "--aux", "2", "--seed", str(seed), "--out", out]) == 0
        rows = [row.split("\t") for row in open(out).read().splitlines()[1:]]
    assert len(rows) == len(models) > 0
    W = BTensor(A.ip.whiten(A.data), InnerProduct.identity(h))
    norm_a = fro_norm(W)
    for row, model in zip(rows, models):
        assert abs(float(row[2]) * norm_a - error_norm(W, model)) \
            <= AGREEMENT * norm_a


def test_compare_scores_each_row_on_the_reference_core(tmp_path,
                                                       monkeypatch):
    # one error_norm per row, each over the reference HOSVD's core: no
    # row makes a pass over the tensor
    calls, cores = [], []
    real_norm, real_hosvd = cli.error_norm, cli.hosvd

    def counted_norm(A, model):
        calls.append(A.dims)
        return real_norm(A, model)

    def kept_hosvd(*args):
        res = real_hosvd(*args)
        cores.append(res.decomp.core.dims)
        return res

    monkeypatch.setattr(cli, "error_norm", counted_norm)
    monkeypatch.setattr(cli, "hosvd", kept_hosvd)
    out = str(tmp_path / "cmp.tsv")
    assert main(["compare", "--family", "lowrank_plus_decay",
                 "--dims", "12,11,10", "--h", "5", "--seed", "2",
                 "--iters", "4", "--out", out]) == 0
    assert len(open(out).read().splitlines()) == 1 + 4
    # nine terms: the reference core is at most 9 wide in every mode
    assert len(cores) == 1 and max(cores[0]) <= 9
    assert calls == cores * 4


def test_hosvd_full_rank_default(tmp_path):
    base = str(tmp_path / "full")
    assert main(["hosvd", "--family", "separable", "--dims", "6,5,4",
                 "--h", "3", "--seed", "1", "--out", base]) == 0
    doc = json.load(open(base + ".factors.json"))
    assert doc["ranks"] == [3, 3, 3]  # separable rank-3 family


def test_hosvd_rank_is_the_leading_block_of_the_full_run(tmp_path):
    # --rank cuts the full-rank factors and core: the factors bit for bit,
    # the core to round-off, and the spectra are the same whole vectors
    source = ["--family", "lowrank_plus_decay", "--dims", "8,7,6", "--h", "5",
              "--seed", "4"]
    full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
    assert main(["hosvd", *source, "--out", full]) == 0
    assert main(["hosvd", *source, "--rank", "2,2,2", "--out", cut]) == 0
    whole = json.load(open(full + ".factors.json"))
    lead = json.load(open(cut + ".factors.json"))
    assert lead["ranks"] == [2, 2, 2] and min(whole["ranks"]) > 2
    for F, G in zip(whole["factors"], lead["factors"]):
        assert (G["rows"], G["cols"]) == (F["rows"], 2)
        rows = np.array(F["data"]).reshape(F["rows"], F["cols"])
        assert G["data"] == rows[:, :2].reshape(-1).tolist()
    C, B = load_fvt(full + ".core.fvt").data, load_fvt(cut + ".core.fvt").data
    assert np.abs(B - C[:2, :2, :2]).max() <= 1e-12 * np.abs(C).max()
    assert (open(full + ".sigma.tsv").read()
            == open(cut + ".sigma.tsv").read())


def test_compare_tol_scores_against_the_untruncated_hosvd(tmp_path):
    # the sweep stops at --tol 0.5 with rank (1, 1, 1); the reference HOSVD
    # is cut at the default tolerance, so its columns read the error of the
    # rank-(1, 1, 1) HOSVD, not a false 0
    src, out = str(tmp_path / "t.fvt"), str(tmp_path / "cmp.tsv")
    assert main(["gen", "--family", "separable", "--dims", "6,5,4", "--h", "3",
                 "--out", src]) == 0
    assert main(["compare", "--input", src, "--tol", "0.5", "--iters", "3",
                 "--out", out]) == 0
    _, rank, _, e_h, bound, _ = open(out).read().splitlines()[1].split("\t")
    A = load_fvt(src)
    want = error_norm(A, hosvd(A, (1, 1, 1)).decomp) / fro_norm(A)
    assert rank == "(1, 1, 1)" and want == pytest.approx(0.4985, abs=1e-4)
    assert float(e_h) == pytest.approx(want, rel=1e-10)
    assert want <= float(bound)


def test_gram_file_flags(tmp_path):
    w = np.abs(np.random.default_rng(0).random(8)) + 0.5
    wfile = str(tmp_path / "w.f64")
    w.astype("<f8").tofile(wfile)
    out = str(tmp_path / "t.fvt")
    assert main(["gen", "--family", "separable", "--dims", "4,4,4", "--h", "8",
                 "--gram", f"diagonal:{wfile}", "--out", out]) == 0
    A = load_fvt(out)
    assert A.ip.kind == "diagonal"
    assert np.array_equal(A.ip.weights, w)


@pytest.mark.parametrize("command", ["build", "compare"])
@pytest.mark.parametrize("kind", ["diagonal", "dense", "nonsquare"])
def test_gram_length_mismatch_exit_2_before_sampling(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     kind):
    reads = []
    real = CachedOracle.get_many

    def counted(self, indices):
        reads.append(len(indices))
        return real(self, indices)

    monkeypatch.setattr(CachedOracle, "get_many", counted)
    gfile = tmp_path / "g.f64"
    if kind == "diagonal":
        np.full(8, 1.5).astype("<f8").tofile(gfile)
    elif kind == "dense":
        write_dense_gram(gfile, 8, 2)
    else:
        np.ones(10).astype("<f8").tofile(gfile)
    spec = f"{'dense' if kind == 'nonsquare' else kind}:{gfile}"
    out = tmp_path / "out.json"
    assert main([command, "--family", "separable", "--dims", "5,5,5",
                 "--h", "4", "--gram", spec, "--iters", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if kind == "nonsquare":
        assert err == (f"error: --gram {spec} holds 10 floats, "
                       "not a square h*h Gram\n")
    else:
        assert err == f"error: --gram {spec} has length 8, but the source has h=4\n"
    assert reads == []
    assert not out.exists()


def test_gen_gram_overrides_family_default(tmp_path):
    # gaussian_bump defaults to a diagonal Gram; --gram replaces it
    gfile = write_dense_gram(tmp_path / "g.f64", 6, 1)
    base = ["gen", "--family", "gaussian_bump", "--dims", "4,3,5", "--h", "6"]
    kinds = {}
    for tag, gram in (("default", []), ("identity", ["--gram", "identity"]),
                      ("dense", ["--gram", f"dense:{gfile}"])):
        out = str(tmp_path / f"{tag}.fvt")
        assert main(base + gram + ["--out", out]) == 0
        kinds[tag] = load_fvt(out).ip.kind
    assert kinds == {"default": "diagonal", "identity": "identity",
                     "dense": "dense"}


def test_threads_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys):
    source = ["--family", "separable", "--dims", "4,4,4", "--h", "2"]
    build = ["build", *source, "--iters", "1",
             "--out", str(tmp_path / "m.json")]
    for bad in ("0", "-3"):
        assert main(build + ["--threads", bad]) == 1
        assert "argument --threads" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()
    # --threads has no environment fallback: the variable is not read
    monkeypatch.setenv("FVT_THREADS", "x")
    assert main(build) == 0


def spy_reads(monkeypatch):
    """List that records every oracle read and dense-tensor build."""
    reads = []
    real_get_many = CachedOracle.get_many
    real_make_tensor = cli.problems.make_tensor

    def counted(self, indices):
        reads.append(len(indices))
        return real_get_many(self, indices)

    def made(spec):
        reads.append(spec)
        return real_make_tensor(spec)

    monkeypatch.setattr(CachedOracle, "get_many", counted)
    monkeypatch.setattr(cli.problems, "make_tensor", made)
    return reads


@pytest.mark.parametrize("command", ["build", "hosvd", "compare"])
@pytest.mark.parametrize("tol", ["nan", "-1", "1"])
def test_bad_tol_exit_1_before_sampling(tmp_path, capsys, monkeypatch,
                                        command, tol):
    reads = spy_reads(monkeypatch)
    abc = [] if command == "hosvd" else ["--iters", "2"]
    out = tmp_path / "out"
    assert main([command, "--family", "separable", "--dims", "5,5,5",
                 "--h", "4", "--tol", tol, *abc, "--out", str(out)]) == 1
    assert "argument --tol" in capsys.readouterr().err
    assert reads == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags, named", [
    pytest.param("build", ["--iters", "0"], "argument --iters",
                 id="build-iters"),
    pytest.param("compare", ["--iters", "0"], "argument --iters",
                 id="compare-iters"),
    pytest.param("build", ["--iters", "2", "--rook", "-1"], "argument --rook",
                 id="build-rook"),
    pytest.param("build", ["--iters", "2", "--rook", "0"], "argument --rook",
                 id="build-rook-zero"),
    pytest.param("build", ["--iters", "2", "--aux", "0"], "argument --aux",
                 id="build-aux"),
    pytest.param("compare", ["--iters", "2", "--aux", "x"], "argument --aux",
                 id="compare-aux"),
    pytest.param("build", ["--iters", "2", "--h", "0"], "argument --h",
                 id="build-h"),
    pytest.param("hosvd", ["--seed", "-1"], "argument --seed",
                 id="hosvd-seed"),
    pytest.param("hosvd", ["--rank", "0,2,2"],
                 "argument --rank: '0' is not a positive integer",
                 id="hosvd-rank"),
    pytest.param("hosvd", ["--rank", "2,x"],
                 "argument --rank: 'x' is not a positive integer",
                 id="hosvd-rank-text"),
    # --dims and --rank entries are parsed by the rule of --h: ASCII
    # digits only, so no digit separator, sign, space or other script
    *(pytest.param(command, [flag, text],
                   f"argument {flag}: {text.split(',')[0]!r} is not a "
                   "positive integer", id=f"{command}{flag}-{text}")
      for command, flag in (("gen", "--dims"), ("hosvd", "--rank"))
      for text in ("1_0,3,3", " 3,3,3", "+2,2,2", "\u0663,3,3")),
    pytest.param("gen", ["--h", "\u0664"], "argument --h", id="gen-h-arabic"),
    pytest.param("hosvd", ["--rank", "2,2"], "--rank has 2 entries",
                 id="hosvd-rank-length"),
    # --tol and --params read one float rule: ASCII, no digit separator
    # or surrounding space (nan and inf parse; a nonfinite --params exits 2)
    *(pytest.param("hosvd", ["--tol", text], "argument --tol",
                   id=f"hosvd--tol-{text}")
      for text in (" 0.000_1", "0.000_1", "1e-1_0", " 0.0001", "0.0001 ",
                   "\u0660.\u0661")),
    *(pytest.param("eval", ["--model", "missing.json", "--params", text],
                   "argument --params", id=f"eval--params-{text}")
      for text in (" 0.2_5,+0.5,0.5", "0.2_5,0.5,0.5", "0.25,0.5, 0.5",
                   "0.25,0.5,0.5\n", "\u0660.5,0.5,0.5")),
    # a flag is read only when spelled in full: --h is not eval's --help,
    # and --ra is not hosvd's --rank
    pytest.param("eval", ["--model", "m.json", "--params", "0.5", "--h", "4"],
                 "unrecognized arguments: --h 4", id="eval-h-not-help"),
    pytest.param("hosvd", ["--ra", "2,2,2"], "unrecognized arguments: --ra",
                 id="hosvd-ra-not-rank"),
])
def test_bad_flag_values_exit_1_before_sampling(tmp_path, capsys, monkeypatch,
                                                command, flags, named):
    # eval reads a model, not a source, and writes its --raw output
    reads = spy_reads(monkeypatch)
    out = tmp_path / "out"
    source = ([] if command == "eval" else
              ["--family", "separable", "--dims", "5,5,5", "--h", "4"])
    written = "--raw" if command == "eval" else "--out"
    assert main([command, *source, *flags, written, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err
    assert reads == []
    assert list(tmp_path.iterdir()) == []


FAMILY = ["--family", "separable", "--dims", "5,5,5", "--h", "4"]


@pytest.mark.parametrize("argv, named", [
    pytest.param(["build", "--input", "{fvt}", "--family", "gaussian_bump",
                  "--dims", "9,9,9", "--h", "300", "--iters", "1"],
                 "argument --family: not allowed with argument --input",
                 id="build-input-and-family"),
    pytest.param(["build", "--input", "{fvt}", "--dims", "9,9,9",
                  "--iters", "1"],
                 "argument --dims: not allowed with argument --input",
                 id="build-input-dims"),
    pytest.param(["compare", "--input", "{fvt}", "--h", "4", "--iters", "1"],
                 "argument --h: not allowed with argument --input",
                 id="compare-input-h"),
    pytest.param(["hosvd", "--input", "{fvt}", "--dims", "5,5,5",
                  "--rank", "2,2,2"],
                 "argument --dims: not allowed with argument --input",
                 id="hosvd-input-dims"),
    pytest.param(["hosvd", "--dims", "5,5,5", "--h", "4"],
                 "one of the arguments --input --family is required",
                 id="hosvd-no-source"),
    pytest.param(["gen", *FAMILY, "--tol", "0.5"],
                 "unrecognized arguments: --tol", id="gen-tol"),
    pytest.param(["gen", "--input", "{fvt}"],
                 "the following arguments are required: --family",
                 id="gen-input"),
    pytest.param(["hosvd", "--family", "separable", "--dims", "20,20,20",
                  "--h", "8", "--gram", "bogus"], "argument --gram",
                 id="hosvd-gram-bogus"),
    pytest.param(["build", *FAMILY, "--gram", "dense:", "--iters", "1"],
                 "argument --gram", id="build-gram-no-file"),
    pytest.param(["gen", *FAMILY, "--gram", "diagonal"], "argument --gram",
                 id="gen-gram-no-colon"),
])
def test_conflicting_source_flags_exit_1_before_any_read(
        tmp_path, capsys, monkeypatch, argv, named):
    fvt = tmp_path / "g.fvt"
    save_fvt(BTensor(np.ones((5, 5, 5, 4)), InnerProduct.identity(4)), fvt)
    reads = spy_reads(monkeypatch)
    monkeypatch.setattr(cli, "load_fvt", reads.append)
    monkeypatch.setattr(cli, "read_dims", reads.append)
    argv = [str(fvt) if t == "{fvt}" else t for t in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert reads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.fvt"]


# a command line per command that runs, as flag -> value; the typed flags
# (all but --family) are the ones a malformed value replaces
SOURCE = {"--family": "separable", "--dims": "4,4,4", "--h": "2",
          "--seed": "0", "--gram": "identity"}
TOL = {"--tol": "1e-12"}
ABC = {"--iters": "1", "--aux": "2", "--rook": "1", "--threads": "1"}
LINES = {"gen": SOURCE, "hosvd": {**SOURCE, **TOL, "--rank": "2,2,2"},
         "build": {**SOURCE, **TOL, **ABC},
         "compare": {**SOURCE, **TOL, **ABC},
         "eval": {"--params": "0.5,0.5,0.5"}}
TYPED = {command: sorted(set(line) - {"--family"})
         for command, line in LINES.items()}


def argv_for(command, workdir, flag=None, token=None):
    """``LINES[command]`` with ``flag`` set to ``token``, writing under
    ``workdir``; ``eval`` reads a model file that does not exist."""
    out = os.path.join(workdir, "out")
    line = dict(LINES[command])
    if command == "eval":
        line.update({"--model": os.path.join(workdir, "missing.json"),
                     "--raw": out})
    else:
        line["--out"] = out
    if flag is not None:
        line[flag] = token
    return [command] + [t for pair in line.items() for t in pair]


@pytest.mark.parametrize("command", sorted(LINES))
def test_unmodified_lines_get_past_parsing(tmp_path, command):
    # the lines the property below breaks are valid: eval fails only on
    # its missing model (a data error)
    want = 2 if command == "eval" else 0
    assert main(argv_for(command, str(tmp_path))) == want


@st.composite
def malformed_flag(draw):
    """A command, one of its typed flags, and a token no flag accepts: a
    comma list with an empty field, or one with a character that no
    integer or float literal holds."""
    command = draw(st.sampled_from(sorted(LINES)))
    flag = draw(st.sampled_from(TYPED[command]))
    fields = draw(st.lists(st.text("0123456789.+-", max_size=3),
                           min_size=1, max_size=4))
    i = draw(st.integers(0, len(fields) - 1))
    if draw(st.booleans()):
        fields[i] = ""
    else:
        at = draw(st.integers(0, len(fields[i])))
        junk = draw(st.sampled_from("xqz#/:%?"))
        fields[i] = fields[i][:at] + junk + fields[i][at:]
    return command, flag, ",".join(fields)


@settings(max_examples=80, deadline=None)
@given(malformed_flag())
@example(("eval", "--params", "0.1,abc,0.05"))
@example(("eval", "--params", "0.1,,0.05"))
@example(("eval", "--params", "0.1,0.5,"))
@example(("hosvd", "--rank", ""))
def test_malformed_flag_value_exit_1_before_any_work(case):
    command, flag, token = case
    calls = []
    real_make_oracle = cli.problems.make_oracle
    real_make_tensor = cli.problems.make_tensor

    def make_oracle(spec):
        oracle = real_make_oracle(spec)
        return EntryOracle(oracle.dims, oracle.ip,
                           lambda idx: calls.append(idx) or oracle.fn(idx))

    def make_tensor(spec):
        calls.append(spec)
        return real_make_tensor(spec)

    with tempfile.TemporaryDirectory() as workdir, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.problems, "make_oracle", make_oracle)
        mp.setattr(cli.problems, "make_tensor", make_tensor)
        assert main(argv_for(command, workdir, flag, token)) == 1
        assert os.listdir(workdir) == []
    assert calls == []
