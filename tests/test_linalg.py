import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqkernel.errors import SingularMatrixError
from lqkernel.kernel import minimal_control
from lqkernel.linalg import spd_inverse, sym_eig_pinv
from lqkernel.model import LQProblem, MatrixSchedule
from lqkernel.ode import DenseSolution


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


# -- the weighted pseudoinverse inside minimal_control -------------------------
# With A = 0, minimal_control maps a trajectory with x' = v at the nodes to
# u = R^(-1/2) pinv(B R^(-1/2)) v: the minimal-R-norm u with B u = v.

def _weighted_pinv_apply(B, R, v):
    """minimal_control on x(t) = t v for constant B, R and A = 0, at t = 0.

    `v` is a vector or a stack of row vectors; the result has the same
    leading shape with one control per row."""
    B, R, v = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (B, R, v))
    n, m = B.shape
    c = MatrixSchedule.constant
    problem = LQProblem(n, m, 0.0, 1.0, c(np.zeros((n, n))), c(B),
                        c(np.zeros((n, n))), c(R), np.eye(n))
    ts = np.linspace(0.0, 1.0, 3)
    x = DenseSolution.from_nodes(ts, ts[:, None, None] * v, np.broadcast_to(v, (3,) + v.shape))
    return minimal_control(problem, x).values[0]


def _plain_pinv(B):
    """The Moore-Penrose pseudoinverse of B, as minimal_control applies it
    at R = I."""
    n, m = np.shape(B)
    return _weighted_pinv_apply(B, np.eye(m), np.eye(n)).T


def test_pinv_diagonal_rank_deficient():
    assert np.allclose(_plain_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_matches_inverse_when_invertible():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    assert np.max(np.abs(_plain_pinv(A) - np.linalg.inv(A))) < 1e-10


def test_pinv_tall_column():
    B = np.array([[1.0], [0.0]])
    P = _plain_pinv(B)
    assert P.shape == (1, 2)
    assert np.allclose(P, [[1.0, 0.0]])
    # Penrose identities by hand for this matrix
    assert np.allclose(B @ P @ B, B)
    assert np.allclose(P @ B @ P, P)
    assert np.allclose((B @ P).T, B @ P)
    assert np.allclose((P @ B).T, P @ B)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_pinv_penrose_identities(seed, n, m):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, m))
    if rng.random() < 0.3 and min(n, m) > 1:  # force rank deficiency sometimes
        A[:, 0] = A[:, -1]
    P = _plain_pinv(A)
    scale = 1.0 + np.max(np.abs(A))
    assert np.max(np.abs(A @ P @ A - A)) < 1e-10 * scale
    assert np.max(np.abs(P @ A @ P - P)) < 1e-10 * scale
    assert np.max(np.abs((A @ P).T - A @ P)) < 1e-10
    assert np.max(np.abs((P @ A).T - P @ A)) < 1e-10


def test_weighted_pinv_unique_preimage_ignores_weight():
    u = _weighted_pinv_apply([[1.0], [0.0]], [[2.0]], [1.0, 0.0])[0]
    assert u == pytest.approx([1.0])


def test_weighted_pinv_minimal_weighted_norm_solution():
    # minimize u1^2 + 4 u2^2 subject to u1 + u2 = 1: u = (0.8, 0.2), cost 0.8
    R = np.diag([1.0, 4.0])
    u = _weighted_pinv_apply([[1.0, 1.0]], R, [1.0])[0]
    assert np.allclose(u, [0.8, 0.2], atol=1e-12)
    assert u @ R @ u == pytest.approx(0.8, abs=1e-12)


def test_weighted_pinv_zero_map():
    # rows of the identity give the whole map, transposed
    got = _weighted_pinv_apply(np.zeros((2, 3)), np.eye(3), np.eye(2))
    assert np.array_equal(got, np.zeros((2, 3)))


def test_weighted_pinv_rejects_indefinite_weight():
    with pytest.raises(SingularMatrixError):
        _weighted_pinv_apply(np.ones((2, 2)), np.diag([1.0, 0.0]), [1.0, 0.0])


# fixed examples: numpy's batched pinv inside minimal_control and a single
# pinv call need not round alike
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_weighted_pinv_identity_weight_is_plain_pinv(seed, n, m):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, m))
    assert np.max(np.abs(_plain_pinv(B) - np.linalg.pinv(B, rcond=1e-12))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_weighted_pinv_minimal_norm_property(seed, n, m):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, m))
    L = rng.normal(size=(m, m))
    R = L @ L.T + 0.1 * np.eye(m)
    w = rng.normal(size=m)
    u = _weighted_pinv_apply(B, R, B @ w)[0]
    assert u @ R @ u <= w @ R @ w + 1e-10
    assert np.max(np.abs(B @ u - B @ w)) < 1e-10 * (1.0 + np.max(np.abs(B @ w)))


def test_sym_eig_pinv_clips_tiny_eigenvalues():
    A = np.diag([1.0, 1e-14])
    inv = sym_eig_pinv(A)
    assert inv[0, 0] == pytest.approx(1.0)
    assert inv[1, 1] == 0.0
    assert np.array_equal(sym_eig_pinv(np.zeros((2, 2))), np.zeros((2, 2)))
