"""The acceptance battery: one callable per criterion.

Each check returns (passed: bool, detail: str) and is deterministic for
a fixed seed.  The CLI `suite all` command and the test suite both run
these, so there is a single implementation of every criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np

from eudoxus.cone_space import ConeSpace, Membership, sym_to_vec
from eudoxus.conjunct_product import DimWord, Quantity, conjunct
from eudoxus.derivation_algebra import (
    derivation_basis,
    orientability,
    reconstruct_from_faces,
    selfadjoint_derivations,
    spectral_faces,
    tangency_dimension_oracle,
    Derivation,
)
from eudoxus.exact_rational import (
    FractionCutOracle,
    RealCutOracle,
    stern_brocot_bracket,
)
from eudoxus.face_lattice import face_of, is_riesz, minimal_decomposition
from eudoxus.krein_states import (
    KreinSpace,
    mixed_state,
    multiplicative_characterization,
)
from eudoxus.ratio_calculus import (
    compositio_check,
    eudoxus_equal_three,
    eudoxus_equal_two,
    ex_aequali_check,
    from_derivation,
    quadrature_demo,
    quadrature_ratio_demo,
    ratio_equal,
    ratio_from_pair,
    to_derivation,
)


def _roundtrip_spaces():
    return [ConeSpace.orthant(3), ConeSpace.lorentz(3),
            ConeSpace.psd_real(2), ConeSpace.hermitian(2)]


def _random_selfadjoint(space, rng):
    basis = selfadjoint_derivations(space)
    c = rng.standard_normal(len(basis))
    mat = sum(ci * b.mat for ci, b in zip(c, basis))
    return Derivation(space, mat)


def check_conjunct_anchors(seed=0):
    """Definition anchors: density x bulk and velocity x matter."""
    density = Quantity(Fraction(2), DimWord(("mass", "vol^-1"), "free"))
    vol2 = Quantity(Fraction(2), DimWord(("vol",), "free"))
    vol3 = Quantity(Fraction(3), DimWord(("vol",), "free"))
    velocity = Quantity(Fraction(2), DimWord(("len", "time^-1"), "free"))
    matter = Quantity(Fraction(2), DimWord(("mass",), "free"))
    a = conjunct(density, vol2).magnitude
    b = conjunct(density, vol3).magnitude
    c = conjunct(velocity, matter).magnitude
    ok = (a == 4) and (b == 6) and (c == 4)
    return ok, "2x2=%s, 2x3=%s, 2x2=%s (exact integers)" % (a, b, c)


def check_theorem_roundtrips(seed=0):
    """Derivation -> ratio -> derivation and ratio -> derivation ->
    ratio round trips on the four worked cone kinds."""
    samples = 200
    rng = np.random.default_rng(seed)
    worst = 0.0
    for space in _roundtrip_spaces():
        for _ in range(samples):
            delta = _random_selfadjoint(space, rng)
            r = from_derivation(space, delta, max_den=64)
            back = to_derivation(r)
            worst = max(worst, np.linalg.norm(back.mat - delta.mat, 2))
            if worst >= 1e-9:
                return False, "%s: operator residual %.3g" % (space.kind, worst)
        for _ in range(samples):
            delta = _random_selfadjoint(space, rng)
            r = from_derivation(space, delta, max_den=64)
            r2 = from_derivation(space, to_derivation(r).mat, max_den=64)
            if not ratio_equal(r2, r):
                return False, "%s: ratio round trip broke" % space.kind
    return True, "4 kinds x %d derivations + %d ratios, worst residual %.2g" % (
        samples, samples, worst)


def check_facial_spectral_theorem(seed=0):
    """reconstruct_from_faces after spectral_faces is the identity,
    including the spectrum-with-a-trivial-face example."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for space in _roundtrip_spaces():
        for _ in range(200):
            delta = _random_selfadjoint(space, rng)
            fam = spectral_faces(space, delta)
            back = reconstruct_from_faces(space, fam)
            worst = max(worst, np.linalg.norm(back.mat - delta.mat, 2))
            if worst >= 1e-9:
                return False, "%s: residual %.3g" % (space.kind, worst)
    # the zero-spectral-face case: compression along diag(0, 1)
    space = ConeSpace.psd_real(2)
    M = 2.0 * space.L(sym_to_vec(np.diag([0.0, 1.0])))
    fam = spectral_faces(space, M)
    zero_faces = [F for _, F in fam if F.is_zero()]
    back = reconstruct_from_faces(space, fam)
    res = np.linalg.norm(back.mat - M, 2)
    if len(zero_faces) != 1 or res >= 1e-9:
        return False, "zero-face case: %d trivial faces, residual %.3g" % (
            len(zero_faces), res)
    return True, "worst residual %.2g; zero-face case reconstructed" % worst


def check_jordan_moreau(seed=0):
    """Orthogonal positive-part decompositions, with the closed-form
    boundary case on the second-order cone."""
    samples = 1000
    rng = np.random.default_rng(seed)
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    spaces = _roundtrip_spaces() + [
        ConeSpace.polyhedral([rot[:, 0], rot[:, 1]])]  # rotated orthant, self-dual
    for space in spaces:
        for _ in range(samples):
            x = space.sample_vector(rng)
            xp, xm = space.jordan_decompose(x)
            n2 = float(np.dot(x, x))
            if space.membership(xp) is Membership.OUTSIDE:
                return False, "%s: positive part left the cone" % space.kind
            if space.membership(xm) is Membership.OUTSIDE:
                return False, "%s: negative part left the cone" % space.kind
            if abs(np.dot(xp, xm)) >= 1e-9 * max(n2, 1e-30):
                return False, "%s: parts not orthogonal" % space.kind
    soc = ConeSpace.lorentz(3)
    xp, xm = soc.jordan_decompose(np.array([0.0, 1.0, 0.0]))
    ref_p = np.array([0.5, 0.5, 0.0])
    ref_m = np.array([0.5, -0.5, 0.0])
    if np.max(np.abs(xp - ref_p)) > 1e-12 or np.max(np.abs(xm - ref_m)) > 1e-12:
        return False, "closed-form SOC case off: %s / %s" % (xp, xm)
    return True, "%d samples per kind orthogonal to 1e-9; SOC case exact" % samples


def check_derivation_dimensions(seed=0):
    """Lie algebra dimensions per kind against the tangency oracle."""
    samples = 150
    rng = np.random.default_rng(seed)
    expect = [
        (ConeSpace.orthant(3), 3, 3),
        (ConeSpace.psd_real(2), 4, 3),
        (ConeSpace.lorentz(3), 4, 3),
    ]
    details = []
    for space, want_full, want_sa in expect:
        full = len(derivation_basis(space))
        sa = len(selfadjoint_derivations(space))
        ofull = tangency_dimension_oracle(space, samples=samples, rng=rng)
        osa = tangency_dimension_oracle(space, samples=samples, rng=rng,
                                        symmetric_only=True)
        details.append("%s: %d/%d (oracle %d/%d)" % (space.kind, full, sa, ofull, osa))
        if not (full == ofull == want_full and sa == osa == want_sa):
            return False, "; ".join(details)
    herm = ConeSpace.hermitian(2)
    sa = len(selfadjoint_derivations(herm))
    osa = tangency_dimension_oracle(herm, samples=samples, rng=rng,
                                    symmetric_only=True)
    details.append("hermitian: sa %d (oracle %d)" % (sa, osa))
    if not (sa == osa == 4):
        return False, "; ".join(details)
    return True, "; ".join(details)


def check_dichotomy_table(seed=0):
    """Lattice order, ratio commutativity and orientability per kind."""
    rng = np.random.default_rng(seed)
    rows = []

    orthant = ConeSpace.orthant(3)
    riesz, _ = is_riesz(orthant)
    commutes = True
    for _ in range(20):
        d1 = _random_selfadjoint(orthant, rng)
        d2 = _random_selfadjoint(orthant, rng)
        if np.linalg.norm(d1.mat @ d2.mat - d2.mat @ d1.mat) > 1e-9:
            commutes = False
    o = orientability(orthant)
    rows.append("orthant: riesz=%s commutative=%s %r" % (riesz, commutes, o))
    if not (riesz and commutes and o.status == "Orientable"):
        return False, "; ".join(rows)

    for space in (ConeSpace.psd_real(2), ConeSpace.lorentz(3)):
        riesz, witness = is_riesz(space)
        if riesz or witness is None:
            return False, "%s should fail the lattice test" % space.kind
        Fsum = face_of(space, witness["a"] + witness["c"])
        in_sum_face = Fsum.contains(witness["x"])
        Pa = face_of(space, witness["a"]).projector
        Pc = face_of(space, witness["c"]).projector
        span = Pa + Pc
        x = witness["x"]
        outside_parts = np.linalg.norm(span @ x - x) > 1e-6
        pair = _noncommuting_pair(space, rng)
        rows.append("%s: riesz=False witness ok=%s noncommuting pair=%s"
                    % (space.kind, in_sum_face and outside_parts, pair is not None))
        if not (in_sum_face and outside_parts and pair is not None):
            return False, "; ".join(rows)

    o_psd = orientability(ConeSpace.psd_real(2))
    o_herm = orientability(ConeSpace.hermitian(2))
    rows.append("psd: %r; hermitian: %r" % (o_psd, o_herm))
    ok = (o_psd.status == "NotOrientable" and "odd" in o_psd.detail
          and o_herm.status == "Orientable")
    return ok, "; ".join(rows)


def _noncommuting_pair(space, rng):
    for _ in range(50):
        d1 = _random_selfadjoint(space, rng)
        d2 = _random_selfadjoint(space, rng)
        if np.linalg.norm(d1.mat @ d2.mat - d2.mat @ d1.mat) > 1e-6:
            r = from_derivation(space, d1, max_den=64)
            s = from_derivation(space, d2, max_den=64)
            return r, s
    return None


def check_eudoxus_kernel(seed=0):
    """Bracket quality for an irrational cut; agreement of the equality
    variants; the two classical proportion laws on exact rationals."""
    samples = 200
    lo, hi = stern_brocot_bracket(RealCutOracle(math.sqrt(2.0)), 10**6)
    width = hi - lo
    root2 = Fraction(math.sqrt(2.0))
    contains = lo <= root2 <= hi
    # lo^2 < 2 < hi^2 pins the true cut between the endpoints
    contains_exact = lo * lo < 2 < hi * hi
    if not (width < Fraction(1, 10**11) and contains and contains_exact):
        return False, "bracket (%s, %s), width %s" % (lo, hi, float(width))

    rng = np.random.default_rng(seed)
    fracs = [Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
             for _ in range(40)]
    for _ in range(1000):
        a = Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
        k = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 60)))
        b = a * k if rng.integers(0, 2) else Fraction(
            int(rng.integers(1, 1000)), int(rng.integers(1, 1000)))
        o1, o2 = FractionCutOracle(a), FractionCutOracle(b)
        if eudoxus_equal_three(o1, o2, fracs) != eudoxus_equal_two(o1, o2, fracs):
            return False, "equality variants disagree at %s vs %s" % (a, b)

    for _ in range(samples):
        a, b, c = (Fraction(int(rng.integers(1, 100)), int(rng.integers(1, 100)))
                   for _ in range(3))
        k = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        # matched triple with a:b = b':c' and b:c = a':b'
        bp = k * b
        cp = bp * b / a
        ap = k * b * b / c
        if ex_aequali_check(a, b, c, ap, bp, cp) is not True:
            return False, "ex aequali failed at %s" % ((a, b, c),)
        x, y = (Fraction(int(rng.integers(1, 100)), int(rng.integers(1, 100)))
                for _ in range(2))
        if compositio_check(k * x, x, k * y, y) is not True:
            return False, "compositio failed at %s" % ((k, x, y),)
    return True, "bracket width %.2g; 1000 variant agreements; %d+%d exact laws" % (
        float(width), samples, samples)


def check_quadrature(seed=0):
    """Step-sum bracketing of the parabola area and the fixed-column
    ratio law."""
    lower, upper, ratio_gap = quadrature_demo(lambda x: x * x, 1024)
    ok1 = lower < Fraction(1, 3) < upper and (upper - lower) < Fraction(1, 512)
    rho, lo_ok, up_ok = quadrature_ratio_demo(lambda x: x * x,
                                              lambda x: 2 * x * x, 1024)
    ok2 = rho == 2 and lo_ok and up_ok
    return ok1 and ok2, (
        "bracket (%.6f, %.6f) around 1/3, width %s = 2^-10; "
        "column ratio %s transfers to areas exactly" % (
            float(lower), float(upper), upper - lower, rho))


def check_krein(seed=0):
    """Pure states, multiplicativity and the isometric function-space
    picture on small lattice cones."""
    rng = np.random.default_rng(seed)
    for n in range(1, 6):
        space = ConeSpace.orthant(n)
        kr = KreinSpace(space)
        pures = kr.pure_states()
        if len(pures) != n:
            return False, "orthant(%d): %d pure states" % (n, len(pures))
        for f in pures:
            okf, _ = multiplicative_characterization(kr, f)
            if not okf:
                return False, "orthant(%d): pure state not multiplicative" % n
        if n >= 2:
            w = np.zeros(n)
            w[0] = w[1] = 0.5
            mid = mixed_state(kr, w)
            okm, witness = multiplicative_characterization(kr, mid)
            if okm or witness is None:
                return False, "orthant(%d): midpoint state looked multiplicative" % n
        for _ in range(500 if n == 5 else 50):
            x = space.sample_vector(rng)
            lhs = space.order_unit_norm(x, kr.u)
            rhs = float(np.max(np.abs(kr.gelfand_map(x))))
            if abs(lhs - rhs) > 1e-9 * max(1.0, lhs):
                return False, "orthant(%d): isometry broke (%.3g vs %.3g)" % (
                    n, lhs, rhs)
    return True, "orthant(1..5): n pure states, multiplicative iff pure, isometric"


def check_refinement_monotonicity(seed=0):
    """Along random refinement chains of unit decompositions the
    spectral sum operators decrease in the operator order: each is
    to_derivation of the ratio (sum_g lam_g u_g) : u, u_g the sum of the
    unit's coordinate pieces in group g, lam_g the largest antecedent
    coordinate on g."""
    samples = 100
    rng = np.random.default_rng(seed)
    space = ConeSpace.orthant(6)
    u = space.canonical_unit()
    pieces = np.array([c * p for c, p in minimal_decomposition(space, u)])
    for _ in range(samples):
        a_prime = rng.uniform(0.2, 5.0, size=6)
        chain = _random_refinement_chain(list(range(6)), rng)
        prev = None
        for partition in chain:
            antecedent = sum(a_prime[g].max() * pieces[g].sum(axis=0) for g in partition)
            S = to_derivation(ratio_from_pair(space, antecedent, u)).mat
            if prev is not None and np.linalg.eigvalsh(prev - S).min() < -1e-12:
                return False, "spectral sum increased under refinement"
            prev = S
    return True, "%d chains on orthant(6) monotone decreasing" % samples


def _random_refinement_chain(indices, rng):
    chain = [[list(indices)]]
    current = [list(indices)]
    while any(len(g) > 1 for g in current):
        nxt = []
        for g in current:
            if len(g) > 1 and rng.integers(0, 2):
                cut = int(rng.integers(1, len(g)))
                nxt.extend([g[:cut], g[cut:]])
            else:
                nxt.append(g)
        if nxt == current:
            g = max(current, key=len)
            current = [x for x in current if x is not g]
            cut = int(rng.integers(1, len(g)))
            current.extend([g[:cut], g[cut:]])
            nxt = list(current)
        current = nxt
        chain.append([list(g) for g in current])
    return chain


ALL_CHECKS = [
    ("conjunct_anchors", check_conjunct_anchors),
    ("theorem_roundtrips", check_theorem_roundtrips),
    ("facial_spectral_theorem", check_facial_spectral_theorem),
    ("jordan_moreau", check_jordan_moreau),
    ("derivation_dimensions", check_derivation_dimensions),
    ("dichotomy_table", check_dichotomy_table),
    ("eudoxus_kernel", check_eudoxus_kernel),
    ("quadrature", check_quadrature),
    ("krein_reconstruction", check_krein),
    ("refinement_monotonicity", check_refinement_monotonicity),
]


def run_all(seed=0):
    """Run the whole battery; yields (name, passed, detail, seconds)."""
    for name, fn in ALL_CHECKS:
        t0 = time.perf_counter()
        passed, detail = fn(seed=seed)
        yield name, passed, detail, time.perf_counter() - t0
