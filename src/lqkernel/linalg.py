"""Small dense linear-algebra kernels used throughout.

Everything is eigendecomposition- or SVD-based: problems here are tiny
(N, M well under 50), and spectral routes keep symmetric results symmetric.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

PD_TOL = 1e-10  # strict positive definiteness threshold (J_T, spd_inverse)
RANK_TOL = 1e-12


def _symmetrized(Y: np.ndarray) -> tuple[np.ndarray, float]:
    """(Y + Y')/2 of a matrix or a stack, and the drift max |Y - Y'| it absorbs."""
    YT = np.swapaxes(Y, -1, -2)
    return 0.5 * (Y + YT), float(np.max(np.abs(Y - YT)))


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, explicitly symmetric.

    Raises SingularMatrixError, with the minimum eigenvalue, if A is not PD.
    """
    w, V = np.linalg.eigh(_symmetrized(np.asarray(A, dtype=float))[0])
    if w[0] <= PD_TOL:
        raise SingularMatrixError(
            f"matrix not positive definite (min eigenvalue {w[0]:.3e})",
            min_eigenvalue=float(w[0]))
    return _symmetrized((V / w) @ V.T)[0]


def sym_eig_pinv(A: np.ndarray) -> np.ndarray:
    """Symmetric eigendecomposition inverse with small eigenvalues clipped.

    Eigenvalues below 1e-10 * max(|eigenvalues|) are treated as zero, so a
    nominally PD matrix that is numerically degenerate inverts gracefully.
    """
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eigh(_symmetrized(A)[0])
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if wmax == 0.0:
        return np.zeros_like(A)
    inv = np.where(np.abs(w) > 1e-10 * wmax, 1.0 / w, 0.0)
    return _symmetrized((V * inv) @ V.T)[0]
