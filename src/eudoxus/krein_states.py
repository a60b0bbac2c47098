"""Commutative reconstruction of lattice-ordered spaces with order unit.

On a lattice (simplicial) cone the order and the unit determine a
unique commutative multiplication; normalized positive functionals have
extreme points (pure states), a functional is multiplicative exactly
when it is pure, and evaluation at the pure states is an isometric
order- and ring-isomorphism onto functions on the state set.  Axioms
I-V of the ordered-space setting are checked with witnesses; the
product is refused outside the lattice case, where the uniqueness claim
fails.
"""

import numpy as np

from eudoxus.cone_space import Membership
from eudoxus.face_lattice import is_riesz, minimal_decomposition


class AxiomReport:
    """Per-axiom pass/fail entries with witnesses."""

    def __init__(self):
        self.entries = {}

    def record(self, axiom, passed, detail="", witness=None):
        self.entries[axiom] = {"passed": bool(passed), "detail": detail,
                               "witness": witness}

    def passed(self, axiom):
        return self.entries[axiom]["passed"]

    def all_passed(self):
        return all(e["passed"] for e in self.entries.values())

    def __repr__(self):
        return "AxiomReport(%s)" % {k: ("pass" if v["passed"] else "FAIL")
                                    for k, v in self.entries.items()}


def check_axioms(space, u, samples=200, rng=None):
    """Check the five ordered-space axioms for (space, u).

    I: positives are nonzero.  II: sums of positives are positive.
    III: the positive part of every element is order-minimal among
    decompositions x = p - q with p, q positive.  IV: positive
    homogeneity.  V: the order-unit norm vanishes only at zero.
    Failures carry witnesses; the lattice property is what makes III
    hold, so non-lattice cones fail it.
    """
    if rng is None:
        rng = np.random.default_rng(5)
    u = np.asarray(u, dtype=float)
    if not space.is_order_unit(u):
        raise ValueError("u must be an order unit")
    report = AxiomReport()

    # I: a positive element is nonzero (pointedness gives the converse)
    report.record("I", True, "cone is pointed by construction")

    # II: closedness of the cone under addition
    ok, witness = True, None
    for _ in range(samples):
        x = space.sample_cone_point(rng)
        y = space.sample_cone_point(rng)
        if space.membership(x + y) is Membership.OUTSIDE:
            ok, witness = False, (x, y)
            break
    report.record("II", ok, "sampled sums stay in the cone", witness)

    # III: order-minimality of the positive part
    ok, witness = True, None
    for _ in range(samples):
        z = space.sample_vector(rng)
        z_plus, _ = space.jordan_decompose(z)
        q = space.sample_cone_point(rng)
        p = z + q
        if space.membership(p) is Membership.OUTSIDE:
            continue
        if not space.leq(z_plus, p):
            ok, witness = False, (z, p)
            break
    report.record("III", ok,
                  "positive part below every positive p with p - x positive",
                  witness)

    # IV: positive homogeneity of the order
    ok, witness = True, None
    for _ in range(20):
        x = space.sample_cone_point(rng)
        t = float(rng.uniform(0.1, 10.0))
        if space.membership(t * x) is Membership.OUTSIDE:
            ok, witness = False, (t, x)
            break
    report.record("IV", ok, "positive scalings stay in the cone", witness)

    # V: order-unit norm positive away from zero
    ok, witness = True, None
    for _ in range(20):
        x = space.sample_vector(rng)
        if np.linalg.norm(x) < 1e-9:
            continue
        if space.order_unit_norm(x, u) <= 0.0:
            ok, witness = False, x
            break
    report.record("V", ok, "norm vanishes only at zero", witness)
    return report


class KreinSpace:
    """A lattice-ordered ConeSpace with a fixed order unit.

    The canonical basis is the minimal decomposition of the unit; the
    product is componentwise there, making u the ring unit.
    """

    def __init__(self, host, u=None):
        riesz, witness = is_riesz(host)
        if not riesz:
            raise ValueError("the product needs a lattice cone; witness: %r" % (witness,))
        if u is None:
            u = host.canonical_unit()
        u = np.asarray(u, dtype=float)
        if not host.is_order_unit(u):
            raise ValueError("u is not an order unit")
        self.host = host
        self.u = u
        parts = minimal_decomposition(host, u)
        # columns sum to u, so u has coordinates (1, ..., 1)
        self.basis = np.column_stack([coeff * comp for coeff, comp in parts])
        if self.basis.shape[1] != host.dim:
            raise ValueError("unit decomposition does not span the space")

    def coords(self, x):
        return np.linalg.solve(self.basis, np.asarray(x, dtype=float))

    def from_coords(self, c):
        return self.basis @ np.asarray(c, dtype=float)

    def product(self, x, y):
        """The unique commutative multiplication with unit u."""
        return self.from_coords(self.coords(x) * self.coords(y))

    def pure_states(self):
        """Extreme points of the normalized positive functionals: the
        dual basis of the canonical basis (each is 1 at u)."""
        dual = np.linalg.inv(self.basis)
        return [State(self, dual[i]) for i in range(self.host.dim)]

    def gelfand_map(self, x):
        """Values of x at the pure states; linear, multiplicative and
        isometric for the order-unit norm."""
        return self.coords(x)


class State:
    """A normalized positive linear functional, f(u) = 1."""

    def __init__(self, krein, functional):
        self.krein = krein
        self.functional = np.asarray(functional, dtype=float)
        if abs(self(krein.u) - 1.0) > 1e-9:
            raise ValueError("state is not normalized at the unit")

    def __call__(self, x):
        return float(np.dot(self.functional, np.asarray(x, dtype=float)))


def multiplicative_characterization(krein, f, rng=None):
    """Is f(xy) = f(x) f(y)?  Exactly the pure states qualify.

    Returns (flag, witness): witness is an (x, y) pair violating the
    identity when the flag is false.
    """
    if rng is None:
        rng = np.random.default_rng(13)
    # spanning pairs first (exactness), then random ones
    d = krein.host.dim
    tests = []
    for i in range(d):
        for j in range(d):
            tests.append((krein.basis[:, i], krein.basis[:, j]))
    for _ in range(50):
        tests.append((krein.host.sample_vector(rng), krein.host.sample_vector(rng)))
    for x, y in tests:
        lhs = f(krein.product(x, y))
        rhs = f(x) * f(y)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs), abs(rhs)):
            return False, (x, y)
    return True, None


def mixed_state(krein, weights):
    """Convex combination of the pure states."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or abs(np.sum(weights) - 1.0) > 1e-12:
        raise ValueError("weights must be a probability vector")
    pures = krein.pure_states()
    functional = sum(w * s.functional for w, s in zip(weights, pures))
    return State(krein, functional)
