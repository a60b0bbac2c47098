"""Faces of a cone and the operators attached to them.

A face is a hereditary subcone (0 <= x <= a in F forces x in F), carried
as a Face (defined in cone_space, re-exported here): the orthogonal
projector onto its span and a relative-interior witness, built by the
kind's stacked hooks _faces_of and _orthogonal_faces.  This module answers
the lattice questions on top of them, and forms the facial derivative
(1/2)(I + P_F - P_{F'}) of F, F' the orthogonal face (facial_derivative).
ratio_calculus.to_derivation and derivation_algebra.reconstruct_from_faces
build no face: the facial derivative of U_c is L(c) on a Jordan kind (Peirce
decomposition), and every extreme ray of a polyhedral cone is an
eigenvector of every derivation (cone_space._ray_multipliers).
"""

import numpy as np

from eudoxus.cone_space import Face, _checked_faces
from eudoxus.derivation_algebra import (
    Derivation,
    Verdict,
    _Refutation,
    _derivation_residuals,
    is_derivation,
)


def face_of(space, a):
    """Smallest closed face of the cone containing a.

    Eigenvalues of a (dual pairings, for polyhedral cones) up to the face
    band TOL * max(1, |a|) count as zero.  For a Jordan kind the face is
    the Peirce compression U_c of the support idempotent c of a, witnessed
    by c.  A point outside the cone raises ValueError.
    """
    (P,), (W,) = space._faces_of(space._check_dim(a)[None])
    return Face(space, P, W)


def facial_derivative(F):
    """The derivation (1/2)(I + P_F - P_{F-perp}) attached to a face."""
    (P,), _, (Pp,) = _checked_faces(F.host, (F.projector[None], F.witness[None]))
    return Derivation(F.host, 0.5 * (np.eye(F.host.dim) + P - Pp))


def minimal_decomposition(space, a):
    """a as a sum of minimal elements.

    Returns a list of (coefficient, component) with a = sum coeff *
    component; components are the Jordan frame elements of a with
    eigenvalue above face_of's band TOL * max(1, |a|) (coordinate
    units, the half-(1, +-w) idempotent pair, rank-one eigenprojections),
    pairwise incomparable, or the unit extreme rays of a simplicial
    cone, disjoint in its lattice order but pairwise incomparable only
    where the rays are orthogonal (not on the cone of (1, 0.2) and
    (0.2, 1)).  One spectral decomposition of a (on a
    simplicial cone, its dual pairings and one solve against the extreme
    rays), through the kind's stacked frame terms with a as a one-row
    stack, gives both the components and the membership verdict: an
    eigenvalue (pairing) below minus the band raises "point is outside
    the cone".  For a degenerate spectrum the frame is not unique;
    equality of ratios must go through the cut classes, never through
    literal component lists.
    """
    return space._frame_terms(space._check_dim(a)[None])[0]


def is_facially_homogeneous(space):
    """Check that P_F - P_{F-perp} is a derivation for every face F.

    Polyhedral cones test the faces of their m extreme rays, and Verified
    is exhaustive, as these decide every face.  The ray face {r_i} gives
    M_i = r_i r_i^T - P_i, P_i the projector onto the span of the rays
    orthogonal to r_i.  If M_i keeps every ray an eigenvector (the
    polyhedral Der), a ray r_j with r_i . r_j != 0 has the eigenvalue 1 of
    r_i, as eigenspaces of a symmetric matrix are orthogonal; then
    r_j = c r_i + w with w perp r_i gives P_i w = -w, so w = 0: r_j is r_i.
    So if the m ray faces pass, the rays are pairwise orthogonal and every
    P_F - P_{F-perp} is +-1 on them, in Der.

    Jordan kinds test U_c for the r - 1 proper partial sums c_1 + ... + c_k
    of one Jordan frame of e, and Verified covers every face: each face is
    U_c for an idempotent c, with P_F - P_{F-perp} = 2 L(c) - I (Peirce),
    and Aut(V), orthogonal, fixing e and normalising Der, is transitive on
    Jordan frames (Faraut & Koranyi, ch. IV; on the orthant, coordinate
    permutations), so the partial sum of rank k decides every idempotent
    of rank k.  The zero face and the whole cone give -I and I,
    derivations of every cone, and are not tested.  One projection onto
    the Der frame decides the stack; only a refuting face becomes a Face.
    A Refuted verdict's witness is that Face with is_derivation's witness,
    whose search runs when the witness is first read.
    """
    faces, how = space._face_points()
    P, W, Pp = _checked_faces(space, faces)
    M = P - Pp
    for i in np.flatnonzero(_derivation_residuals(space, M)[1]):
        verdict = is_derivation(space, M[i])
        if not verdict:
            F = Face(space, P[i], W[i])
            return _Refutation("face of dim %d" % F.dim, lambda: (F, verdict.witness))
    return Verdict("Verified", how)


def is_riesz(space):
    """Whether the cone order is a lattice: exactly when the canonical unit
    splits into dim minimal pieces (rank = dim on a Jordan kind, a
    simplicial cone on a polyhedral one).

    Returns (flag, witness).  With one piece the witness names the reason.
    With more, the algebra is simple, so its first two pieces a, c have a
    nonzero Peirce space, the span of P_(a+c) - P_a - P_c, between them;
    for a unit h in it, x = (a + c + h)/2 lies in the face of a + c but
    not in face(a) + face(c), and the witness is the dict of a, c and x.
    """
    pieces = minimal_decomposition(space, space.canonical_unit())
    if len(pieces) == space.dim:
        return True, None
    if len(pieces) == 1:
        return False, {"reason": "non-simplicial: the unit is 1 piece in dimension %d"
                       % space.dim}
    (_, a), (_, c) = pieces[:2]
    (Pac, Pa, Pc), _ = space._faces_of(np.array([a + c, a, c]))
    V = Pac - Pa - Pc
    h = V[:, np.argmax(np.linalg.norm(V, axis=0))]
    return False, {"a": a, "c": c, "x": (a + c + h / np.linalg.norm(h)) / 2.0}
