"""Commutative reconstruction of lattice-ordered spaces with order unit.

On a lattice (simplicial) cone the order and the unit determine a
unique commutative multiplication; normalized positive functionals have
extreme points (pure states), a functional is multiplicative exactly
when it is pure, and evaluation at the pure states is an isometric
order- and ring-isomorphism onto functions on the state set.  Of the
ordered-space axioms I-V, four hold for every ConeSpace by construction
(a pointed closed convex cone with an order unit), and III, the
order-minimality of the positive part, holds exactly on lattice cones,
which `is_riesz` decides; the product is refused outside the lattice
case, where the uniqueness claim fails.
"""

import itertools

import numpy as np

from eudoxus.face_lattice import is_riesz, minimal_decomposition


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
        # on a lattice cone every order unit splits into dim pieces; the
        # columns sum to u, so u has coordinates (1, ..., 1)
        parts = minimal_decomposition(host, u)
        self.basis = np.column_stack([coeff * comp for coeff, comp in parts])

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
        if self.functional.shape != (krein.host.dim,) or not np.all(np.isfinite(self.functional)):
            raise ValueError("a state is a finite functional of shape (%d,), got %r"
                             % (krein.host.dim, functional))
        if not abs(self(krein.u) - 1.0) <= 1e-9:
            raise ValueError("state is not normalized at the unit")

    def __call__(self, x):
        return float(np.dot(self.functional, np.asarray(x, dtype=float)))


def multiplicative_characterization(krein, f):
    """Is f(xy) = f(x) f(y)?  Exactly the pure states qualify.

    Both sides are bilinear in (x, y), so the d^2 pairs of basis elements
    decide the identity.  Returns (flag, witness): witness is a basis pair
    violating the identity when the flag is false.
    """
    for x, y in itertools.product(krein.basis.T, repeat=2):
        lhs = f(krein.product(x, y))
        rhs = f(x) * f(y)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs), abs(rhs)):
            return False, (x, y)
    return True, None


def mixed_state(krein, weights):
    """Convex combination of the pure states."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (krein.host.dim,):
        raise ValueError("need one weight per pure state (%d), got %r" % (krein.host.dim, weights))
    if not (np.all(weights >= 0) and abs(np.sum(weights) - 1.0) <= 1e-12):
        raise ValueError("weights must be a probability vector")
    pures = krein.pure_states()
    functional = sum(w * s.functional for w, s in zip(weights, pures))
    return State(krein, functional)
