import numpy as np
import pytest

from eudoxus.cone_space import ConeSpace
from eudoxus.krein_states import (
    KreinSpace,
    State,
    check_axioms,
    mixed_state,
    multiplicative_characterization,
)


def test_axioms_orthant_all_pass():
    sp = ConeSpace.orthant(3)
    report = check_axioms(sp, sp.canonical_unit(), samples=100)
    assert report.all_passed()


def test_axiom_three_fails_on_lorentz_with_witness():
    sp = ConeSpace.lorentz(3)
    report = check_axioms(sp, sp.canonical_unit(), samples=400)
    assert not report.passed("III")
    z, p = report.entries["III"]["witness"]
    z_plus, _ = sp.jordan_decompose(z)
    assert sp.contains(p - z)
    assert not sp.leq(z_plus, p)


def test_check_axioms_requires_order_unit():
    sp = ConeSpace.orthant(2)
    with pytest.raises(ValueError):
        check_axioms(sp, np.array([1.0, 0.0]))


def test_krein_space_refuses_non_lattice():
    with pytest.raises(ValueError):
        KreinSpace(ConeSpace.psd_real(2))
    with pytest.raises(ValueError):
        KreinSpace(ConeSpace.lorentz(3))


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


def test_mixed_state_weight_validation():
    ks = KreinSpace(ConeSpace.orthant(2))
    with pytest.raises(ValueError):
        mixed_state(ks, [0.7, 0.7])
    with pytest.raises(ValueError):
        mixed_state(ks, [-0.5, 1.5])


def test_state_normalization_enforced():
    ks = KreinSpace(ConeSpace.orthant(2))
    with pytest.raises(ValueError):
        State(ks, np.array([1.0, 1.0]))
