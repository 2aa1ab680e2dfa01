"""Small dense linear-algebra kernels used throughout.

Everything is eigendecomposition- or SVD-based: problems here are tiny
(N, M well under 50), and spectral routes keep symmetric results symmetric.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

PD_TOL = 1e-10  # strict positive definiteness threshold (J_T, spd_inverse)
RANK_TOL = 1e-12


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, explicitly symmetric.

    Raises SingularMatrixError, with the minimum eigenvalue, if A is not PD.
    """
    w, V = np.linalg.eigh(_sym(np.asarray(A, dtype=float)))
    if w[0] <= PD_TOL:
        raise SingularMatrixError(
            f"matrix not positive definite (min eigenvalue {w[0]:.3e})",
            min_eigenvalue=float(w[0]))
    return _sym((V / w) @ V.T)


def sym_eig_pinv(A: np.ndarray) -> np.ndarray:
    """Symmetric eigendecomposition inverse with small eigenvalues clipped.

    Eigenvalues below 1e-10 * max(|eigenvalues|) are treated as zero, so a
    nominally PD matrix that is numerically degenerate inverts gracefully.
    """
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eigh(_sym(A))
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if wmax == 0.0:
        return np.zeros_like(A)
    inv = np.where(np.abs(w) > 1e-10 * wmax, 1.0 / w, 0.0)
    return _sym((V * inv) @ V.T)
