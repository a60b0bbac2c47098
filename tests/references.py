"""Test-only references shared by several test modules: the inverse of
vec_to_herm, the incomparability of two cone elements, and two families
of polyhedral cones (rotated orthants and the n-gon cones)."""

import numpy as np

from eudoxus.cone_space import TOL, ConeSpace
from eudoxus.face_lattice import face_of


def herm_to_vec(A):
    """Hermitian k x k matrix -> real vector of length k^2 (isometric), the
    inverse of vec_to_herm: each diagonal entry, then sqrt(2) times the
    real and imaginary parts of each entry above it, row by row."""
    A = np.asarray(A, dtype=complex)
    k = A.shape[0]
    out = []
    for i in range(k):
        out.append(A[i, i].real)
        for j in range(i + 1, k):
            out.append(np.sqrt(2.0) * A[i, j].real)
            out.append(np.sqrt(2.0) * A[i, j].imag)
    return np.array(out)


def incomparable(space, a, b):
    """Orthogonal cone elements whose generated faces meet only at zero."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (space.contains(a) and space.contains(b)):
        raise ValueError("incomparability is defined for cone elements")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= TOL or nb <= TOL:
        return True
    if abs(np.dot(a, b)) > 1e-8 * na * nb:
        return False
    return np.linalg.norm(face_of(space, a).projector @ face_of(space, b).projector) <= 1e-7


def rotated_orthant(n, seed):
    """The orthant of R^n turned by the Q of a seeded Gaussian's QR, as a
    polyhedral cone."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return ConeSpace.polyhedral(list(q.T))


def ngon_cone(n):
    """The cone over a regular n-gon in R^3, scaled to be self-dual for odd
    n; the 3-gon cone is a rotated orthant."""
    r = np.cos(np.pi / n) ** -0.5
    return ConeSpace.polyhedral([np.array([1.0, r * np.cos(2 * np.pi * i / n),
                                           r * np.sin(2 * np.pi * i / n)])
                                 for i in range(n)])
