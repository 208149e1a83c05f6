import pytest

from scbundles import (
    FundamentalClass,
    BoundExceeded,
    IntCochain,
    MismatchedCarriers,
    NonOrientable,
    boundary_sphere,
    build_surface_bundle,
    chern_cocycle_general,
    chern_number,
    cocycle_for_chern,
    delta_torus,
    fundamental_class,
    homology_groups,
    octahedron_sphere,
    parity_check,
)

from oracles import is_classical_bundle


class TestParityCheck:
    def test_tetra_splits_two_two(self):
        base = boundary_sphere(3)
        data = parity_check(base, fundamental_class(base, seed=3, sign=1))
        assert (data.positives, data.negatives) == (2, 2)
        assert data.chern_bound == 2

    def test_torus_splits_one_one(self):
        base = delta_torus()
        data = parity_check(base, fundamental_class(base))
        assert (data.positives, data.negatives) == (1, 1)
        assert data.chern_bound == 1

    def test_octahedron_splits_four_four(self):
        base = octahedron_sphere()
        data = parity_check(base, fundamental_class(base))
        assert (data.positives, data.negatives) == (4, 4)
        assert data.chern_bound == 4

    def test_foreign_fundamental_class(self):
        fm = fundamental_class(delta_torus())
        with pytest.raises(MismatchedCarriers):
            parity_check(octahedron_sphere(), fm)

    def test_unbalanced_signs_raise(self):
        # all-positive coefficients do not orient the octahedron
        base = octahedron_sphere()
        fm = FundamentalClass(base, (1,) * 8)
        with pytest.raises(NonOrientable):
            parity_check(base, fm)


class TestCocyclePlacement:
    def test_zero_gives_zero_cochain(self):
        base = delta_torus()
        u = cocycle_for_chern(base, fundamental_class(base), 0)
        assert u.is_zero()

    def test_deterministic_lowest_ids_first(self):
        base = octahedron_sphere()
        fm = fundamental_class(base)
        u = cocycle_for_chern(base, fm, 2)
        positive = [i for i, s in enumerate(fm.coefficients) if s == 1]
        assert [i for i, v in enumerate(u.values) if v] == positive[:2]

    def test_negative_c_lands_on_negative_triangles(self):
        base = octahedron_sphere()
        fm = fundamental_class(base)
        u = cocycle_for_chern(base, fm, -3)
        support = [i for i, v in enumerate(u.values) if v]
        assert len(support) == 3
        assert all(fm.coefficients[i] == -1 for i in support)
        assert chern_number(u, fm) == -3

    def test_seeded_shuffle_same_chern_different_support(self):
        base = octahedron_sphere()
        fm = fundamental_class(base)
        plain = cocycle_for_chern(base, fm, 2)
        seen = {plain.values}
        for seed in range(6):
            u = cocycle_for_chern(base, fm, 2, seed=seed)
            assert chern_number(u, fm) == 2
            seen.add(u.values)
        assert len(seen) > 1

    def test_bound_exceeded(self):
        oct_base = octahedron_sphere()
        with pytest.raises(BoundExceeded) as info:
            cocycle_for_chern(oct_base, fundamental_class(oct_base), 5)
        assert "4" in str(info.value)
        torus = delta_torus()
        with pytest.raises(BoundExceeded):
            cocycle_for_chern(torus, fundamental_class(torus), 2)
        with pytest.raises(BoundExceeded):
            cocycle_for_chern(torus, fundamental_class(torus), -2)

    def test_every_value_up_to_bound_realized(self):
        base = octahedron_sphere()
        fm = fundamental_class(base)
        for c in range(-4, 5):
            assert chern_number(cocycle_for_chern(base, fm, c), fm) == c


class TestBuiltBundles:
    def test_lens_space_three(self):
        base = octahedron_sphere()
        fm = fundamental_class(base)
        bundle = build_surface_bundle(base, fm, 3)
        assert chern_number(chern_cocycle_general(bundle.as_local_system()), fm) == 3
        from scbundles import assemble

        total = assemble(bundle.as_local_system()).total
        assert str(homology_groups(total)) == "H0=Z, H1=Z/3, H2=0, H3=Z"

    def test_torus_flat_and_twisted(self):
        base = delta_torus()
        fm = fundamental_class(base)
        flat = build_surface_bundle(base, fm, 0)
        assert chern_cocycle_general(flat.as_local_system()).is_zero()
        twisted = build_surface_bundle(base, fm, 1)
        assert chern_number(chern_cocycle_general(twisted.as_local_system()), fm) == 1

    def test_seed_changes_cochain_not_class(self):
        base = octahedron_sphere()
        fm = fundamental_class(base)
        a = build_surface_bundle(base, fm, 2)
        b = build_surface_bundle(base, fm, 2, seed=1)
        assert chern_number(chern_cocycle_general(a.as_local_system()), fm) == 2
        assert chern_number(chern_cocycle_general(b.as_local_system()), fm) == 2

    def test_minimal_bundles_are_never_classical(self):
        # one-bead fibers close up into vertical loops, so the total
        # 1-skeleton of a minimal bundle is never simple
        base = octahedron_sphere()
        fm = fundamental_class(base)
        for c in (0, 2, 4):
            bundle = build_surface_bundle(base, fm, c)
            ok, witness = is_classical_bundle(bundle.as_local_system())
            assert not ok
            assert witness
