import numpy as np
import pytest

from fvtensor.hilbert import (
    InnerProduct,
    NonPositiveWeightError,
    NonSPDError,
    NonSymmetricError,
    dot,
    norm,
    validate,
)

from conftest import GRAM_KINDS, make_ip


def test_dot_orthonormal_identity():
    ip = InnerProduct.identity(2)
    assert dot([1.0, 0.0], [0.0, 1.0], ip) == 0.0


def test_dot_diagonal_direct():
    ip = InnerProduct.diagonal([2.0, 3.0])
    assert dot([1.0, 1.0], [1.0, 1.0], ip) == pytest.approx(5.0)


def test_dot_dense_direct():
    ip = InnerProduct.dense([[2.0, 1.0], [1.0, 2.0]])
    assert dot([1.0, 0.0], [0.0, 1.0], ip) == pytest.approx(1.0)


def test_dot_dimension_mismatch():
    ip = InnerProduct.identity(3)
    with pytest.raises(ValueError):
        dot([1.0, 2.0], [1.0, 2.0, 3.0], ip)


def test_dot_nonfinite():
    ip = InnerProduct.identity(2)
    with pytest.raises(ValueError):
        dot([np.inf, 0.0], [1.0, 0.0], ip)


def test_norm_zero_and_pythagoras():
    assert norm([0.0, 0.0], InnerProduct.identity(2)) == 0.0
    assert norm([3.0, 4.0], InnerProduct.identity(2)) == pytest.approx(5.0)
    assert norm([1.0, 1.0], InnerProduct.diagonal([2.0, 3.0])) == \
        pytest.approx(np.sqrt(5.0))


def test_validate_identity_ok():
    validate(InnerProduct.identity(3))


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
        duv, dvu = dot(u, v, ip), dot(v, u, ip)
        assert abs(duv - dvu) <= 1e-12 * (1.0 + abs(duv))
        duu, dvv = dot(u, u, ip), dot(v, v, ip)
        assert duu > 0.0
        assert duv**2 <= duu * dvv * (1.0 + 1e-10)


def test_immutability():
    ip = InnerProduct.diagonal([1.0, 2.0])
    with pytest.raises(ValueError):
        ip.weights[0] = 5.0


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_whiten_is_an_isometry(kind):
    # Euclidean products of whitened vectors are H-inner products, and
    # unwhiten inverts whiten, on batches along the last axis
    rng = np.random.default_rng(43)
    ip = make_ip(kind, 5, rng)
    x = rng.standard_normal((3, 4, 5))
    y = rng.standard_normal((3, 4, 5))
    xw, yw = ip.whiten(x), ip.whiten(y)
    assert np.allclose(np.sum(xw * yw, axis=-1), ip.pair(x, y),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(ip.unwhiten(xw), x, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        ip.whiten(np.zeros((2, 4)))
