"""Symmetric positive definite solves with residual verification, in numpy alone.

Explicit matrix inversion is deliberately avoided everywhere.  A Cholesky
factorization checks that the matrix is positive definite, an LU solve
(``np.linalg.solve``) computes the answer, and the relative residual of that
answer is verified before it is returned.  The oracle's gain matrix
(``observation.central_solver``) follows the same rule: it is a solve against
the stacked ``W_i``, not an inverse, and every estimate made with it has its
residual verified.
"""

from __future__ import annotations

import numpy as np


def solve_spd(a: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive definite ``a``.

    Raises ``np.linalg.LinAlgError`` when ``a`` is not positive definite and
    ``ArithmeticError``, with the relative residual as its ``residual``, when
    that residual exceeds ``rtol``.  Callers translate these into their
    module-specific error types.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    np.linalg.cholesky(a)  # raises LinAlgError unless a is positive definite
    x = np.linalg.solve(a, b)
    residual = np.linalg.norm(a @ x - b)
    scale = np.linalg.norm(b)
    rel = residual / scale if scale > 0 else residual
    if not rel <= rtol:
        exc = ArithmeticError(f"solve residual {rel:.3e} exceeds tolerance {rtol:.3e}")
        exc.residual = float(rel)
        raise exc
    return x


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(np.asarray(a, dtype=float))[0])


def trace_of_inverse(a: np.ndarray) -> float:
    """Trace of the inverse of an SPD matrix, via a solve against the identity."""
    a = np.asarray(a, dtype=float)
    np.linalg.cholesky(a)  # raises LinAlgError unless a is positive definite
    return float(np.trace(np.linalg.solve(a, np.eye(a.shape[0]))))
