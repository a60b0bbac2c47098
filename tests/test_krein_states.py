import numpy as np
import pytest

from eudoxus.cone_space import ConeSpace, sym_to_vec
from eudoxus.face_lattice import is_riesz, minimal_decomposition
from eudoxus.krein_states import (
    KreinSpace,
    State,
    mixed_state,
    multiplicative_characterization,
)
from references import ngon_cone, rotated_orthant


def _axiom_three_counterexample(sp, z, p):
    """p >= 0 and p >= z, yet the positive part z+ is not below p."""
    z_plus, _ = sp.jordan_decompose(z)
    assert sp.contains(p) and sp.leq(z, p)
    assert not sp.leq(z_plus, p)


def test_axiom_three_fails_on_lorentz():
    sp = ConeSpace.lorentz(3)
    assert is_riesz(sp)[0] is False
    _axiom_three_counterexample(sp, np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.5, 0.8]))


def test_axiom_three_fails_on_psd_real():
    sp = ConeSpace.psd_real(2)
    assert is_riesz(sp)[0] is False
    _axiom_three_counterexample(sp, sym_to_vec(np.diag([1.0, -1.0])),
                                sym_to_vec(np.array([[2.0, 1.0], [1.0, 0.6]])))


@pytest.mark.parametrize("sp", [ConeSpace.orthant(n) for n in range(1, 7)]
                         + [rotated_orthant(n, 1) for n in range(2, 7)] + [ngon_cone(3)],
                         ids=repr)
def test_axiom_three_holds_on_self_dual_lattice_cones(sp):
    # z+ is the lattice supremum z v 0: below every p with p >= 0 and p >= z.
    # Each such pair is (p, p - b) for cone points p and b, so both are drawn.
    assert is_riesz(sp)[0]
    rng = np.random.default_rng(sp.dim)
    for _ in range(200):
        p, b = sp.sample_cone_point(rng), sp.sample_cone_point(rng)
        z_plus, _ = sp.jordan_decompose(p - b)
        assert sp.contains(z_plus) and sp.leq(p - b, z_plus)
        assert sp.leq(z_plus, p)


def test_krein_space_refuses_non_lattice():
    with pytest.raises(ValueError):
        KreinSpace(ConeSpace.psd_real(2))
    with pytest.raises(ValueError):
        KreinSpace(ConeSpace.lorentz(3))


def test_krein_space_requires_order_unit():
    with pytest.raises(ValueError, match="not an order unit"):
        KreinSpace(ConeSpace.orthant(2), np.array([1.0, 0.0]))


@pytest.mark.parametrize("sp", [ConeSpace.orthant(n) for n in range(1, 7)]
                         + [ConeSpace.lorentz(2), ConeSpace.psd_real(1), ConeSpace.hermitian(1)]
                         + [rotated_orthant(n, 1) for n in range(2, 6)] + [ngon_cone(3)],
                         ids=repr)
def test_every_order_unit_of_a_lattice_cone_splits_into_dim_pieces(sp):
    # KreinSpace's basis is the unit's pieces, with no check of their count
    assert is_riesz(sp)[0]
    rng = np.random.default_rng(sp.dim)
    for _ in range(20):
        u = sp.sample_interior_point(rng)
        assert len(minimal_decomposition(sp, u)) == sp.dim
        ks = KreinSpace(sp, u)
        assert ks.basis.shape == (sp.dim, sp.dim)
        assert np.allclose(ks.coords(u), np.ones(sp.dim), atol=1e-9)


def test_basis_recovers_unit():
    for n in range(1, 6):
        sp = ConeSpace.orthant(n)
        ks = KreinSpace(sp)
        assert np.allclose(ks.basis.sum(axis=1), ks.u, atol=1e-12)
        assert np.allclose(ks.coords(ks.u), np.ones(n), atol=1e-12)


def test_unit_is_ring_unit():
    rng = np.random.default_rng(2)
    sp = ConeSpace.orthant(4)
    ks = KreinSpace(sp, np.array([1.0, 2.0, 0.5, 3.0]))
    for _ in range(20):
        x = sp.sample_vector(rng)
        assert np.allclose(ks.product(ks.u, x), x, atol=1e-9)
        y = sp.sample_vector(rng)
        assert np.allclose(ks.product(x, y), ks.product(y, x), atol=1e-9)
        z = sp.sample_vector(rng)
        assert np.allclose(ks.product(x, ks.product(y, z)),
                           ks.product(ks.product(x, y), z), atol=1e-8)


def test_pure_state_count_and_positivity():
    for n in range(1, 6):
        ks = KreinSpace(ConeSpace.orthant(n))
        pures = ks.pure_states()
        assert len(pures) == n
        # a functional is positive on the self-dual orthant when it lies in the cone
        for s in pures:
            assert ks.host.contains(s.functional)


def test_multiplicative_iff_pure():
    ks = KreinSpace(ConeSpace.orthant(3))
    for s in ks.pure_states():
        flag, witness = multiplicative_characterization(ks, s)
        assert flag and witness is None
    mid = mixed_state(ks, [0.5, 0.5, 0.0])
    flag, witness = multiplicative_characterization(ks, mid)
    assert not flag
    x, y = witness
    assert abs(mid(ks.product(x, y)) - mid(x) * mid(y)) > 1e-8


def sampled_multiplicativity(krein, f, rng):
    """The identity f(xy) = f(x) f(y) on the d^2 basis pairs and 50 pairs of
    Gaussian vectors, at the same relative 1e-8."""
    d = krein.host.dim
    pairs = [(krein.basis[:, i], krein.basis[:, j]) for i in range(d) for j in range(d)]
    pairs += [(krein.host.sample_vector(rng), krein.host.sample_vector(rng)) for _ in range(50)]
    for x, y in pairs:
        lhs, rhs = f(krein.product(x, y)), f(x) * f(y)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs), abs(rhs)):
            return False
    return True


@pytest.mark.parametrize("n", range(1, 6))
def test_basis_pairs_decide_multiplicativity_as_sampled_pairs_do(n):
    ks = KreinSpace(ConeSpace.orthant(n))
    rng = np.random.default_rng(n)
    states = ks.pure_states() + [mixed_state(ks, w) for w in rng.dirichlet(np.ones(n), size=10)]
    if n >= 2:
        states += [mixed_state(ks, np.eye(n)[0] * 0.5 + np.eye(n)[1] * 0.5)]
    for f in states:
        flag, witness = multiplicative_characterization(ks, f)
        assert flag == sampled_multiplicativity(ks, f, rng)
        assert (witness is None) == flag


def test_gelfand_map_is_isometric_and_multiplicative():
    rng = np.random.default_rng(7)
    sp = ConeSpace.orthant(4)
    ks = KreinSpace(sp)
    for _ in range(100):
        x = sp.sample_vector(rng)
        y = sp.sample_vector(rng)
        gx, gy = ks.gelfand_map(x), ks.gelfand_map(y)
        assert np.isclose(sp.order_unit_norm(x, ks.u), np.max(np.abs(gx)),
                          atol=1e-9)
        assert np.allclose(ks.gelfand_map(ks.product(x, y)), gx * gy, atol=1e-9)
        assert np.allclose(ks.gelfand_map(x + y), gx + gy, atol=1e-12)


@pytest.mark.parametrize("weights", [[0.7, 0.7], [-0.5, 1.5], [np.nan, np.nan]],
                         ids=["sum", "negative", "nan"])
def test_mixed_state_refuses_a_non_probability_vector(weights):
    ks = KreinSpace(ConeSpace.orthant(2))
    with pytest.raises(ValueError, match="probability vector"):
        mixed_state(ks, weights)


@pytest.mark.parametrize("weights", [[1.0], [1.0, 0.0, 0.0, 0.0]], ids=["short", "long"])
def test_mixed_state_needs_one_weight_per_pure_state(weights):
    ks = KreinSpace(ConeSpace.orthant(3))
    with pytest.raises(ValueError, match="one weight per pure state"):
        mixed_state(ks, weights)


def test_state_normalization_enforced():
    ks = KreinSpace(ConeSpace.orthant(2))
    with pytest.raises(ValueError, match="not normalized"):
        State(ks, np.array([1.0, 1.0]))


@pytest.mark.parametrize("functional", [[np.nan, 0.0, 0.0], [np.inf, -np.inf, 1.0], [1.0, 0.0]],
                         ids=["nan", "inf", "short"])
def test_state_needs_a_finite_functional_of_the_space_dimension(functional):
    ks = KreinSpace(ConeSpace.orthant(3))
    with pytest.raises(ValueError, match="finite functional of shape"):
        State(ks, functional)



@pytest.mark.parametrize("sp", [ConeSpace.orthant(3), rotated_orthant(3, 1)], ids=repr)
def test_state_refuses_a_functional_negative_on_the_cone(sp):
    # 1 at the unit but -1 at the second basis element: on the orthant this
    # is the functional (2, -1, 0), which gave -1 at the cone point (0, 1, 0)
    ks = KreinSpace(sp)
    with pytest.raises(ValueError, match="negative on the cone"):
        State(ks, np.linalg.solve(ks.basis.T, [2.0, -1.0, 0.0]))
    # a value within the band of zero is kept, as pure states round to it
    nearly = State(ks, np.linalg.solve(ks.basis.T, [1.0 + 1e-12, -1e-12, 0.0]))
    assert nearly(ks.basis[:, 1]) < 0.0
    assert len(ks.pure_states()) == 3
