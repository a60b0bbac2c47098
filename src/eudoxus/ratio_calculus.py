"""Ratios of geometric quantities and their operator form.

A ratio antecedent:consequent (consequent an order unit) is carried with
a decomposition of the consequent into pairwise-incomparable components
and a real multiplier lambda per component.  Each multiplier's exact
rational bracket, the ratio's Eudoxian cut, is computed the first time
the decomposition is read: composition, addition and the operator form
never read a cut.
Every ratio corresponds to a unique self-adjoint cone derivation mapping
consequent to antecedent, and every self-adjoint derivation arises this
way from its spectral faces, which alone decide, on every path to a
ratio, whether an operator is one; composition and addition of ratios
are operator composition and sum, with the Jordan symmetrized product
as the fallback when a product leaves the self-adjoint world.  Two
ratios are equal when their multipliers, paired on one frame of both
(the coordinates of delta_r e and delta_s e on a common Jordan frame, or
the extreme rays' multipliers), have overlapping cuts; they are comparable
when both delta e are rebuilt from that frame to within 1e-8 of their
norms, and no operator is built to decide either.

The classical one-dimensional checks (cut classes, ex aequali,
compositio, step-figure quadrature) run on exact rationals.
"""

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from eudoxus.cone_space import TOL, Membership, _face_pieces
from eudoxus.exact_rational import (
    CLASS_ABOVE,
    CLASS_BELOW,
    CutOracle,
    classify_fraction,
    stern_brocot_bracket,
)
from eudoxus.derivation_algebra import (
    Derivation,
    NotSelfAdjointDerivation,
    _pow2_scaled,
    spectral_faces,
)


class NotAnOrderUnit(ValueError):
    pass


class NotComparable(ValueError):
    pass


# ---------------------------------------------------------------------------
# ratios

class Ratio:
    """antecedent : consequent with its minimal decomposition.

    pieces are (lam, component): the consequent is the sum of the
    components (minimal_decomposition's pieces) and the antecedent acts as
    lam on each.  decomposition entries are (lam, bracket, component),
    bracket the exact rational Stern-Brocot bracket of lam at max_den
    (None when lam is at or below TOL times the largest |lam|, as _cluster
    bands its values, so that a scaled ratio brackets the same multipliers;
    such multipliers are admitted, and lambdas() gives their sign).  The
    brackets are computed on the first read of decomposition, one per
    distinct multiplier; lambdas() and to_derivation read the pieces and
    compute none.
    """

    def __init__(self, host, antecedent, consequent, pieces, max_den):
        self.host = host
        self.antecedent = np.asarray(antecedent, dtype=float)
        self.consequent = np.asarray(consequent, dtype=float)
        self.pieces = pieces
        self.max_den = max_den

    def lambdas(self):
        return [lam for lam, _ in self.pieces]

    @functools.cached_property
    def decomposition(self):
        lams = self.lambdas()
        floor = TOL * max(map(abs, lams), default=0.0)
        brackets = {lam: stern_brocot_bracket(RealOracleFromValue(lam), self.max_den)
                    for lam in dict.fromkeys(lams) if lam > floor}
        return [(lam, brackets.get(lam), comp) for lam, comp in self.pieces]

    @functools.cached_property
    def _units(self):
        """The unit of the face of each piece, which to_derivation reads: the
        support idempotent on a Jordan kind, from one decomposition of the
        stacked pieces, which refuses a piece outside the cone; the piece
        itself on a polyhedral cone (the kind's _supports)."""
        X = np.array([piece for _, piece in self.pieces]).reshape(-1, self.host.dim)
        return self.host._supports(X)

    def __repr__(self):
        return "Ratio(lambdas=%s over %r)" % (
            ["%.6g" % lam for lam in self.lambdas()], self.host)


class _FrameRatio(Ratio):
    """A ratio whose pieces the package split off a frame (from_derivation,
    ratio_from_pair, and so compose and add): the unit of each piece's face
    is known as it is built, a frame element on a Jordan kind, and is set
    as _units in place of the cached property, so to_derivation decomposes
    no piece."""

    def __init__(self, host, antecedent, consequent, pieces, max_den, units):
        super().__init__(host, antecedent, consequent, pieces, max_den)
        self._units = units


def _solve_selfadjoint_derivation(space, a, a_prime):
    """The self-adjoint derivation with delta a = a_prime, if one exists: one
    least-squares solve over the space's self-adjoint basis stack S.  Order
    units separate derivations, so it is unique when it exists."""
    S = space._selfadjoint_mats
    A = (S @ a).T
    coef, _, _, _ = np.linalg.lstsq(A, a_prime, rcond=None)
    # |A coef - a'| > 1e-8 max(1, |a'|), with both vectors divided by the
    # power of two of _pow2_scaled(a'): the same decision, but no norm
    # overflows (the residual is no longer than a')
    b, s = _pow2_scaled(a_prime)
    if np.linalg.norm((A @ coef - a_prime) / s) > 1e-8 * max(1.0 / s, np.linalg.norm(b)):
        return None
    return Derivation(space, np.tensordot(coef, S, axes=1))


def ratio_from_pair(space, a_prime, a, max_den=10**6):
    """Compose the ratio a_prime : a over an order-unit consequent.

    The consequent must be interior; the antecedent must act
    face-diagonally on some incomparable decomposition of the consequent
    (equivalently, some self-adjoint derivation maps a to a_prime).
    """
    a = np.asarray(a, dtype=float)
    a_prime = space._check_dim(a_prime)
    if not space.is_order_unit(a):
        raise NotAnOrderUnit("consequent is not an order unit")
    delta = _solve_selfadjoint_derivation(space, a, a_prime)
    if delta is None:
        raise NotComparable("antecedent is not face-diagonal over the consequent")
    return _ratio_from_family(space, delta.mat, spectral_faces(space, delta), a, max_den)


def _ratio_from_family(space, M, family, a, max_den):
    """The ratio M a : a of an arbitrary order unit a, decomposed along the
    spectral faces of M: the consequent is compressed onto every face at
    once by the family's projectors, and the parts are split into minimal
    pieces by one stacked call of the kind's frame terms (one spectral
    decomposition on a Jordan kind); the parts must sum back to a."""
    max_den = _check_max_den(max_den)
    parts = family.projectors @ a
    terms = space._frame_terms(parts)
    pieces = _face_pieces(family.lams, terms)
    _check_split(np.linalg.norm(parts.sum(axis=0) - a), np.linalg.norm(a))
    units = [comp for face_terms in terms for _, comp in face_terms]
    return _FrameRatio(space, M @ a, a, pieces, max_den, units)


def _check_max_den(max_den):
    """operator.index(max_den), so that nan, inf or 2.5 raise TypeError, and
    ValueError below 1: checked as a ratio is built, as its brackets are
    computed only when read."""
    max_den = operator.index(max_den)
    if max_den < 1:
        raise ValueError("max_den must be a positive integer")
    return max_den


def _check_split(residual, scale):
    """The consequent must split along the spectral faces, to within a
    residual of 1e-7 max(1, scale); otherwise the antecedent is not
    face-diagonal over any decomposition of it."""
    if residual > 1e-7 * max(1.0, scale):
        raise NotComparable("consequent does not decompose along the "
                            "antecedent's spectral faces")


def to_derivation(r):
    """The unique self-adjoint derivation mapping consequent to
    antecedent: the lam-weighted sum of the facial derivatives of the
    decomposition component faces, given by the units of the faces.

    For a complete pairwise-incomparable family the facial derivatives
    act as identity on their own face, zero on its orthogonal face and
    one half in between, so the cross directions automatically pick up
    the mean of the adjacent multipliers.  On a Jordan kind the facial
    derivative of the face U_c is L(c), so the sum is the closed form
    L(sum lam_i c_i) over the support idempotents c_i of the components,
    and no face is built.  A ratio the package split off a frame holds its
    c_i, the frame elements, and no component is decomposed; a ratio built
    by the public constructor finds them by one decomposition of its
    components.  On a polyhedral cone it is R diag(mu) R+ over the extreme
    rays R, with no face either: mu are their _ray_multipliers.
    """
    return Derivation(r.host, r.host._ratio_derivation(*_terms(r)))


def _terms(r):
    """(lams, C): the multipliers and the units of the faces of the pieces,
    rows of C, as the kind hooks take them."""
    return np.array(r.lambdas()), np.array(r._units).reshape(-1, r.host.dim)


def from_derivation(space, delta, max_den=10**6):
    """The ratio of a self-adjoint derivation (a Derivation or a matrix,
    which spectral_faces checks): consequent is the sum a of the units of
    its spectral faces, the family's witnesses, antecedent its image.

    The part of a in each face is that face's witness, U_c (sum_j c_j) = c
    for orthogonal idempotents (the Peirce decomposition; Faraut & Koranyi,
    Analysis on Symmetric Cones, ch. IV), so the ratio's pieces are the
    family's: the frame elements of each run on a Jordan kind, the frame
    terms of each witness on a polyhedral cone.  No projector is built and
    no second spectral decomposition is made.  That a splits along the faces
    is decided by the witnesses alone: they must be pairwise orthogonal, the
    off-diagonal part of their f x f Gram matrix within 1e-7 max(1, |a|)^2."""
    family = spectral_faces(space, delta)
    W = family.witnesses
    a = W.sum(axis=0)
    if space.membership(a) is not Membership.INTERIOR:
        raise ValueError("spectral-face units do not sum to an order unit")
    max_den = _check_max_den(max_den)
    pieces = family.pieces
    G = W @ W.T
    _check_split(np.linalg.norm(G - np.diag(G.diagonal())), a @ a)
    units = [comp for _, comp in pieces]
    return _FrameRatio(space, np.asarray(delta, dtype=float) @ a, a, pieces, max_den, units)


# ---------------------------------------------------------------------------
# equality

def _same_host(r, s):
    """Raise NotComparable unless r and s live over one cone (equal _key)."""
    if r.host is not s.host and r.host._key != s.host._key:
        raise NotComparable("ratios live over different cones")


def ratio_equal(r, s, max_den=None):
    """Generalized cut equality of two ratios.

    Comparability requires commuting derivations (a matched common
    decomposition); incomparable ratios raise NotComparable, which is a
    different outcome from inequality.  The multipliers are compared in
    the pairs _multiplier_pairs reads off one frame of both ratios, r
    pairs on a Jordan kind and no Peirce mean.  Without max_den the ratios
    are equal when max |lam_j - mu_j| <= 1e-8 max(max |lam|, max |mu|, 1):
    ||delta_r - delta_s||_2 against the larger operator norm or 1, as the
    operator norm of L(x) is max |lam(x)|.  With max_den two paired
    multipliers above TOL times the largest |multiplier| of either ratio
    are equal when their Stern-Brocot brackets at max_den overlap, and a
    pair with one at or below it is compared at tolerance.  A bracket
    depends only on the value and max_den, so each distinct value is
    bracketed once per call, when a pair first needs it.  max_den, when
    given, is an integer of at least 1 (_check_max_den).
    """
    if max_den is not None:
        max_den = _check_max_den(max_den)
    lams, mus = _multiplier_pairs(r, s)
    top = float(max(np.abs(lams).max(initial=0.0), np.abs(mus).max(initial=0.0)))
    if max_den is None:
        return float(np.abs(lams - mus).max(initial=0.0)) <= 1e-8 * max(top, 1.0)
    floor = TOL * top
    bracket = functools.cache(lambda lam: stern_brocot_bracket(RealOracleFromValue(lam), max_den))
    for lam_r, lam_s in zip(lams.tolist(), mus.tolist()):
        if lam_r <= floor or lam_s <= floor:
            if abs(lam_r - lam_s) > 1e-8 * max(1.0, abs(lam_r), abs(lam_s)):
                return False
            continue
        (lo_r, hi_r), (lo_s, hi_s) = bracket(lam_r), bracket(lam_s)
        if hi_r < lo_s or hi_s < lo_r:
            return False
    return True


def _multiplier_pairs(r, s):
    """The multipliers (lams, mus) of two ratios over one cone, paired on a
    frame of both by the kind's _frame_pairs, with no operator built on a
    Jordan kind: the coordinates of a = delta_r e and b = delta_s e on one
    Jordan frame, or the extreme rays' multipliers on a polyhedral cone,
    where every pair commutes.  The ratios commute when each of a and
    b lies within 1e-8 of its norm of the point its coordinates rebuild,
    taken with each ratio's multipliers divided by the power of two of
    their largest (_pow2_scaled), so that no norm overflows or underflows;
    otherwise NotComparable."""
    _same_host(r, s)
    (lams_r, C_r), (lams_s, C_s) = _terms(r), _terms(s)
    (lams_r, scale_r), (lams_s, scale_s) = _pow2_scaled(lams_r), _pow2_scaled(lams_s)
    coords, residuals = r.host._frame_pairs([(lams_r, C_r), (lams_s, C_s)])
    if residuals.max() > 1e-8:
        raise NotComparable("ratios do not admit a matched decomposition")
    return coords[0] * scale_r, coords[1] * scale_s


class RealOracleFromValue(CutOracle):
    """Banded oracle for a floating multiplier: m/n within the membership
    band TOL of the value counts as an exact hit.  One float product n*value
    per query; m and n are positive, so the band is TOL (m + n*value)."""

    def __init__(self, value):
        value = float(value)
        if not (math.isfinite(value) and value > 0):
            raise ValueError("cut must be positive and finite, got %r" % value)
        self.value = value

    def strict_above(self, m, n):
        nv = n * self.value
        return m - nv > TOL * (m + nv)

    def exact_hit(self, m, n):
        nv = n * self.value
        return abs(m - nv) <= TOL * (m + nv)


def eudoxus_equal_three(o1, o2, fractions):
    """Three-class equality criterion: every test fraction falls in the
    same class (below/equal/above) for both cuts."""
    return all(classify_fraction(q, o1) == classify_fraction(q, o2)
               for q in fractions)


def eudoxus_equal_two(o1, o2, fractions):
    """Two-condition variant: agreement of the below class and of the
    not-above (below-or-equal) class."""
    for q in fractions:
        c1 = classify_fraction(q, o1)
        c2 = classify_fraction(q, o2)
        if (c1 == CLASS_BELOW) != (c2 == CLASS_BELOW):
            return False
        if (c1 != CLASS_ABOVE) != (c2 != CLASS_ABOVE):
            return False
    return True


# ---------------------------------------------------------------------------
# composition and addition

class JordanOnly:
    """Marker result: the operator product left the self-adjoint
    derivations, so only the symmetrized product is returned."""

    def __init__(self, derivation):
        self.derivation = derivation


def compose(r, s, max_den=10**6):
    """Operator composition of ratios.  For comparable (commuting)
    ratios the product is again a self-adjoint derivation and a Ratio is
    returned; when spectral_faces refuses the product, the Jordan
    symmetrized product is returned, flagged.  Both must live over one
    cone."""
    _same_host(r, s)
    dr = to_derivation(r)
    ds = to_derivation(s)
    with np.errstate(over="ignore", invalid="ignore"):  # spectral_faces refuses non-finite
        prod = dr.mat @ ds.mat
    try:
        return from_derivation(r.host, prod, max_den)
    except NotSelfAdjointDerivation:
        return JordanOnly(Derivation(r.host, 0.5 * (prod + ds.mat @ dr.mat)))


def add(r, s, max_den=10**6):
    """Sum of ratios over one cone: derivations add (Der is linear)."""
    _same_host(r, s)
    dr = to_derivation(r)
    ds = to_derivation(s)
    with np.errstate(over="ignore", invalid="ignore"):  # spectral_faces refuses non-finite
        total = dr.mat + ds.mat
    return from_derivation(r.host, total, max_den=max_den)


# ---------------------------------------------------------------------------
# classical checks on exact rationals

def classic_ratio_equal(a_prime, a, c_prime, c):
    """Exact equality of segment ratios a':a and c':c."""
    return Fraction(a_prime) * Fraction(c) == Fraction(c_prime) * Fraction(a)


def ex_aequali_check(a, b, c, a_prime, b_prime, c_prime):
    """The perturbed ex aequali law: from a:b = b':c' and b:c = a':b'
    conclude a:c = a':c'.  Exact rationals; Vacuous when the hypothesis
    fails."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    ap, bp, cp = Fraction(a_prime), Fraction(b_prime), Fraction(c_prime)
    if not (classic_ratio_equal(a, b, bp, cp) and classic_ratio_equal(b, c, ap, bp)):
        return "Vacuous"
    return classic_ratio_equal(a, c, ap, cp)


def compositio_check(a_prime, a, b_prime, b):
    """From a':a = b':b conclude (a'+b'):(a+b) equals both.  Exact
    rationals; Vacuous when the hypothesis fails."""
    ap, a = Fraction(a_prime), Fraction(a)
    bp, b = Fraction(b_prime), Fraction(b)
    if not classic_ratio_equal(ap, a, bp, b):
        return "Vacuous"
    return (classic_ratio_equal(ap + bp, a + b, ap, a)
            and classic_ratio_equal(ap + bp, a + b, bp, b))


# ---------------------------------------------------------------------------
# quadrature demos

def quadrature_demo(f, k):
    """Inscribed and circumscribed step sums of a monotone f on [0, 1]
    with k equal bases.

    Returns (lower, upper, ultimate_ratio_gap) where the gap is
    upper/lower - 1; with a rational-valued f everything is exact.  The
    bracket width upper - lower equals (f(1) - f(0))/k.
    """
    if k < 1:
        raise ValueError("need at least one subdivision")
    xs = [Fraction(i, k) for i in range(k + 1)]
    vals = [f(x) for x in xs]
    increasing = all(b >= a for a, b in zip(vals, vals[1:]))
    decreasing = all(b <= a for a, b in zip(vals, vals[1:]))
    if not (increasing or decreasing):
        raise ValueError("samples are not monotone")
    base = Fraction(1, k)
    lower = sum(min(u, v) for u, v in zip(vals, vals[1:])) * base
    upper = sum(max(u, v) for u, v in zip(vals, vals[1:])) * base
    gap = upper / lower - 1 if lower != 0 else Fraction(0)
    return lower, upper, gap


def quadrature_ratio_demo(f, g, k):
    """Two step figures whose columns are in a fixed ratio rho have
    areas in that same ratio, exactly, at every subdivision count.

    Returns (rho, lower_ratio_holds, upper_ratio_holds).
    """
    lf, uf, _ = quadrature_demo(f, k)
    lg, ug, _ = quadrature_demo(g, k)
    rhos = set()
    for i in range(k + 1):
        x = Fraction(i, k)
        fv, gv = f(x), g(x)
        if fv != 0:
            rhos.add(Fraction(gv) / Fraction(fv))
    if len(rhos) != 1:
        raise ValueError("columns are not in a single fixed ratio")
    rho = rhos.pop()
    return rho, lg == rho * lf, ug == rho * uf
