import numpy as np
import pytest

from lqkernel.errors import SingularMatrixError
from lqkernel.linalg import spd_inverse, sym_eig_pinv


def test_spd_inverse_diagonal():
    assert np.allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_spd_inverse_identity():
    assert np.allclose(spd_inverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_spd_inverse_2x2_hand_checked():
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    expected = np.array([[1.0, -1.0], [-1.0, 2.0]])
    inv = spd_inverse(A)
    assert np.allclose(inv, expected, atol=1e-12)
    assert np.allclose(A @ inv, np.eye(2), atol=1e-12)  # multiply back


def test_spd_inverse_rejects_indefinite():
    with pytest.raises(SingularMatrixError) as exc:
        spd_inverse(np.diag([1.0, -2.0]))
    assert exc.value.min_eigenvalue == pytest.approx(-2.0)


def test_spd_factor_reconstruction():
    # the spectral inverse of the spectral inverse gives A back
    rng = np.random.default_rng(0)
    L = rng.normal(size=(4, 4))
    A = L @ L.T + 0.5 * np.eye(4)
    back = spd_inverse(spd_inverse(A))
    assert np.max(np.abs(back - A)) <= 1e-12 * np.max(np.abs(A))


def test_sym_eig_pinv_clips_tiny_eigenvalues():
    A = np.diag([1.0, 1e-14])
    inv = sym_eig_pinv(A)
    assert inv[0, 0] == pytest.approx(1.0)
    assert inv[1, 1] == 0.0
    assert np.array_equal(sym_eig_pinv(np.zeros((2, 2))), np.zeros((2, 2)))
