import numpy as np
import pytest

from fvtensor.hilbert import (
    InnerProduct,
    InnerProductError,
    NonPositiveWeightError,
    NonSPDError,
    NonSymmetricError,
)

from conftest import GRAM_KINDS, make_ip


def test_dot_orthonormal_identity():
    ip = InnerProduct.identity(2)
    assert ip.pair([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_dot_diagonal_direct():
    ip = InnerProduct.diagonal([2.0, 3.0])
    assert ip.pair([1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)


def test_dot_dense_direct():
    ip = InnerProduct.dense([[2.0, 1.0], [1.0, 2.0]])
    assert ip.pair([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_dot_dimension_mismatch():
    ip = InnerProduct.identity(3)
    with pytest.raises(ValueError):
        ip.pair([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ip.pair([1.0, 2.0, 3.0], [1.0, 2.0])


def test_norm_zero_and_pythagoras():
    assert InnerProduct.identity(2).norms([0.0, 0.0]) == 0.0
    assert InnerProduct.identity(2).norms([3.0, 4.0]) == pytest.approx(5.0)
    assert InnerProduct.diagonal([2.0, 3.0]).norms([1.0, 1.0]) == \
        pytest.approx(np.sqrt(5.0))


def test_validate_negative_weight():
    with pytest.raises(NonPositiveWeightError):
        InnerProduct.diagonal([1.0, -1.0])


def test_validate_non_spd():
    # eigenvalues 3 and -1
    with pytest.raises(NonSPDError):
        InnerProduct.dense([[1.0, 2.0], [2.0, 1.0]])


def test_validate_non_symmetric():
    with pytest.raises(NonSymmetricError):
        InnerProduct.dense([[1.0, 0.5], [0.0, 1.0]])


def test_dense_symmetrized_after_tiny_asymmetry():
    G = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
    ip = InnerProduct.dense(G)
    assert np.array_equal(ip.gram, ip.gram.T)


def test_symmetry_positivity_cauchy_schwarz():
    rng = np.random.default_rng(7)
    for trial in range(200):
        h = int(rng.integers(1, 7))
        ip = make_ip(GRAM_KINDS[trial % 3], h, rng)
        u = rng.standard_normal(h)
        v = rng.standard_normal(h)
        duv, dvu = ip.pair(u, v), ip.pair(v, u)
        assert abs(duv - dvu) <= 1e-12 * (1.0 + abs(duv))
        duu, dvv = ip.pair(u, u), ip.pair(v, v)
        assert duu > 0.0
        assert duv**2 <= duu * dvv * (1.0 + 1e-10)


def test_immutability():
    ip = InnerProduct.diagonal([1.0, 2.0])
    with pytest.raises(ValueError):
        ip.weights[0] = 5.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, error", [
    pytest.param(lambda: InnerProduct(0), InnerProductError, id="h-0"),
    pytest.param(lambda: InnerProduct(-2, "dense", gram=np.eye(2)),
                 InnerProductError, id="h-negative"),
    pytest.param(lambda: InnerProduct.identity(0), InnerProductError,
                 id="identity-h-0"),
    # a fractional or integral-float h is refused, not truncated
    pytest.param(lambda: InnerProduct(2.5), InnerProductError,
                 id="h-fractional"),
    pytest.param(lambda: InnerProduct.identity(2.0), InnerProductError,
                 id="identity-h-float"),
    # a bool is not a coefficient dimension
    pytest.param(lambda: InnerProduct(True), InnerProductError, id="h-bool"),
    pytest.param(lambda: InnerProduct.diagonal([]), InnerProductError,
                 id="diagonal-empty"),
    pytest.param(lambda: InnerProduct.dense(np.zeros((0, 0))),
                 InnerProductError, id="dense-empty"),
    pytest.param(lambda: InnerProduct(2, "sparse"), InnerProductError,
                 id="unknown-kind"),
    pytest.param(lambda: InnerProduct(3, "diagonal", weights=[1.0, 2.0]),
                 InnerProductError, id="weights-short"),
    pytest.param(lambda: InnerProduct(2, "diagonal"), InnerProductError,
                 id="weights-missing"),
    pytest.param(lambda: InnerProduct(1, "diagonal", weights=[[1.0, 2.0]]),
                 InnerProductError, id="weights-long"),
    pytest.param(lambda: InnerProduct.diagonal([1.0, NAN]),
                 NonPositiveWeightError, id="weights-nan"),
    pytest.param(lambda: InnerProduct(2, "diagonal", weights=[INF, 1.0]),
                 NonPositiveWeightError, id="weights-inf"),
    pytest.param(lambda: InnerProduct.diagonal([1.0, 0.0]),
                 NonPositiveWeightError, id="weights-zero"),
    pytest.param(lambda: InnerProduct.diagonal([1.0, -1.0]),
                 NonPositiveWeightError, id="weights-negative"),
    pytest.param(lambda: InnerProduct(2, "dense", gram=np.ones((2, 3))),
                 InnerProductError, id="gram-non-square"),
    pytest.param(lambda: InnerProduct.dense(np.ones((2, 3))),
                 InnerProductError, id="gram-non-square-classmethod"),
    pytest.param(lambda: InnerProduct(3, "dense", gram=np.eye(2)),
                 InnerProductError, id="gram-wrong-h"),
    pytest.param(lambda: InnerProduct(2, "dense"), InnerProductError,
                 id="gram-missing"),
    pytest.param(lambda: InnerProduct.dense([[1.0, NAN], [NAN, 1.0]]),
                 NonSPDError, id="gram-nan"),
    pytest.param(lambda: InnerProduct.dense([[INF, 0.0], [0.0, 1.0]]),
                 NonSPDError, id="gram-inf"),
    pytest.param(lambda: InnerProduct.dense(np.zeros((2, 2))), NonSPDError,
                 id="gram-zero"),
    pytest.param(lambda: InnerProduct(2, "dense",
                                      gram=[[1.0, 0.5], [0.0, 1.0]]),
                 NonSymmetricError, id="gram-asymmetric"),
    pytest.param(lambda: InnerProduct.dense([[1.0, 2.0], [2.0, 1.0]]),
                 NonSPDError, id="gram-indefinite"),
    pytest.param(lambda: InnerProduct.dense([[1.0, 1.0], [1.0, 1.0]]),
                 NonSPDError, id="gram-singular"),
])
def test_constructor_refuses_bad_specs(make, error):
    # the exact type: fvt and the CLI report InnerProductError subclasses
    with pytest.raises(InnerProductError) as info:
        make()
    assert type(info.value) is error


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_stored_arrays_are_read_only_copies(kind):
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    arg = {"identity": None, "diagonal": 0.5 + rng.random(4),
           "dense": (M @ M.T + 4 * np.eye(4)) / 4}[kind]
    # each kind reads only its own argument
    ip = InnerProduct(4, kind, weights=arg, gram=arg)
    stored = [a for a in (ip.weights, ip.gram, ip.chol) if a is not None]
    assert len(stored) == (0 if kind == "identity" else 2)
    for a in stored:
        assert not a.flags.writeable
        assert arg is None or not np.shares_memory(a, arg)
    if arg is not None:
        # the caller's array is neither frozen nor read later
        before = ip.weights.copy() if kind == "diagonal" else ip.gram.copy()
        arg[...] = 7.0
        assert np.array_equal(
            ip.weights if kind == "diagonal" else ip.gram, before)


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_whiten_is_an_isometry(kind):
    # Euclidean products of whitened vectors are H-inner products: pair
    # is exactly that product, and it agrees with the Gram route; unwhiten
    # inverts whiten, on batches along the last axis
    rng = np.random.default_rng(43)
    ip = make_ip(kind, 5, rng)
    x = rng.standard_normal((3, 4, 5))
    y = rng.standard_normal((3, 4, 5))
    xw, yw = ip.whiten(x), ip.whiten(y)
    assert np.array_equal(ip.pair(x, y), np.sum(xw * yw, axis=-1))
    assert np.allclose(ip.pair(x, y), np.sum(x * ip.apply(y), axis=-1),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(ip.pair(x, x), np.sum(x * ip.apply(x), axis=-1),
                       rtol=1e-12, atol=1e-12)
    # the norm is the root of the whitened sum of squares, bit for bit,
    # so it needs no clamp: even a tiny vector's norm is never negative
    for z in (x, 1e-160 * x, np.zeros((2, 5))):
        n = ip.norms(z)
        assert np.array_equal(n, np.sqrt(ip.pair(z, z)))
        assert np.all(n >= 0.0)
    assert np.allclose(ip.unwhiten(xw), x, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        ip.whiten(np.zeros((2, 4)))


def _assert_dense_flat_product(method, factor):
    # a stacked matmul with a length-1 second-to-last axis takes BLAS's
    # matrix-vector path, which differed from the flat product in the
    # last bits; the result must not depend on the shape of the grid
    rng = np.random.default_rng(11)
    ip = make_ip("dense", 144, rng)
    M = getattr(ip, factor)
    for shape in [(4, 4, 1, 144), (3, 1, 144), (1, 144), (144,), (2, 5, 144)]:
        x = rng.standard_normal(shape)
        flat = (x.reshape(-1, 144) @ M).reshape(shape)
        gx = getattr(ip, method)(x)
        assert np.array_equal(gx, flat)
        # an owning result lets pair's product of two arrays reuse the
        # whitened one in place; a view cost one more full-size allocation
        assert gx.base is None and gx.flags.c_contiguous


def test_dense_apply_is_the_flat_product():
    _assert_dense_flat_product("apply", "gram")


def test_dense_whiten_is_the_flat_product():
    # error_norm whitens grid-shaped chunks, so its bits would otherwise
    # depend on the chunk shape
    _assert_dense_flat_product("whiten", "chol")
