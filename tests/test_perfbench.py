"""The benchmark tracer in ``perfbench/spans.py`` binds library names.

``Tracer.install`` wraps every public function of the traced layers and
a fixed list of ``CachedOracle`` and ``InnerProduct`` methods by name, and
raises ``KeyError`` when one of those methods is gone.  This test keeps
the library's names and the harness in step.
"""

from pathlib import Path

import fvtensor.aca as aca
import fvtensor.btensor as btensor
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
