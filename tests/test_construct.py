"""Constructors: cyclic, dihedral, products, actions, holomorph, splits."""

import gc
import random
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupkit.aut
import groupkit.core
from groupkit.aut import aut_group, automorphisms
from groupkit.construct import (
    Action,
    action_classes,
    actions,
    cyclic,
    dihedral,
    direct_product,
    hom_set,
    holomorph,
    kh_copies,
    power_action,
    recognize_split,
    semidirect,
    trivial_action,
)
from groupkit.core import (
    Morphism,
    SizeCapError,
    SubgroupRef,
    center,
    identity_morphism,
    is_abelian,
    make_table,
    subgroup_generated,
    subgroup_table,
    verify_group_axioms,
)
from groupkit.expr import ExprEvalError, parse_and_eval
from groupkit.iso import are_isomorphic, identify
from groupkit.numth import euler_phi
from groupkit.verify import check_characteristic_theorems, run_all


def _inversion_action(n: int):
    k = cyclic(n)
    h = cyclic(2, "s")
    flip = Morphism(k, k, tuple((-x) % n for x in range(n)))
    return k, h, Action(h, k, (Morphism(k, k, tuple(range(n))), flip))


def _is_trivial(a: Action) -> bool:
    return a == trivial_action(a.h_group, a.k_group)


class TestCyclic:
    def test_names_and_identity(self):
        g = cyclic(4)
        assert g.elem_names == ("e", "r", "r^2", "r^3")
        assert g.identity == 0
        assert verify_group_axioms(g).ok

    def test_custom_generator_letter(self):
        assert cyclic(3, "t").elem_names == ("e", "t", "t^2")

    def test_trivial_group(self):
        g = cyclic(1)
        assert g.order == 1
        assert g.elem_names == ("e",)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclic(0)


class TestDihedral:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^dihedral parameter must be >= 1, got 0$"):
            dihedral(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
    def test_order_and_axioms(self, n):
        g = dihedral(n)
        assert g.order == 2 * n
        assert verify_group_axioms(g).ok

    def test_nonabelian_from_three(self):
        assert is_abelian(dihedral(2))
        assert not is_abelian(dihedral(3))

    def test_reflection_conjugates_rotation_to_its_inverse(self):
        # pair encoding (k, h) -> 2k + h: r is index 2, s is index 1,
        # and s * r = r^(n-1) * s lands at index 2(n-1) + 1
        for n in (3, 4, 5, 8):
            g = dihedral(n)
            assert g.mul[1][2] == 2 * (n - 1) + 1

    def test_d4_table_relation(self):
        assert dihedral(4).mul[1][2] == 7


class TestDirectProduct:
    def test_order_multiplies(self):
        g = direct_product(cyclic(4), cyclic(3))
        assert g.order == 12
        assert is_abelian(g)

    def test_matches_semidirect_with_trivial_action(self):
        k, h = cyclic(4), cyclic(3, "s")
        direct = direct_product(k, h)
        via_semidirect = semidirect(k, h, trivial_action(h, k))
        assert direct.mul == via_semidirect.mul
        assert direct.elem_names == via_semidirect.elem_names

    def test_pair_encoding_layout(self):
        k, h = cyclic(3), cyclic(2, "s")
        g = direct_product(k, h)
        # (k, h) -> k * |H| + h
        for k1 in range(3):
            for h1 in range(2):
                for k2 in range(3):
                    for h2 in range(2):
                        left = k1 * 2 + h1
                        right = k2 * 2 + h2
                        expect = ((k1 + k2) % 3) * 2 + (h1 + h2) % 2
                        assert g.mul[left][right] == expect


class TestSemidirect:
    def test_inversion_action_gives_dihedral(self):
        k, h, act = _inversion_action(5)
        g = semidirect(k, h, act)
        assert verify_group_axioms(g).ok
        assert are_isomorphic(g, dihedral(5)) is not None

    def test_nontrivial_action_breaks_commutativity(self):
        k, h, act = _inversion_action(3)
        assert not is_abelian(semidirect(k, h, act))

    def test_power_action_maps_r_to_its_powers(self):
        k, h = cyclic(5), cyclic(4, "s")
        act = power_action(h, k, 2)
        assert [m.image for m in act.maps] == [
            tuple(2**t * x % 5 for x in range(5)) for t in range(4)]
        assert power_action(cyclic(2, "s"), k, -1) == _inversion_action(5)[2]

    def test_action_validation_rejects_non_automorphism(self):
        k = cyclic(4)
        h = cyclic(2, "s")
        ident = Morphism(k, k, (0, 1, 2, 3))
        squash = Morphism(k, k, (0, 2, 0, 2))
        with pytest.raises(ValueError):
            Action(h, k, (ident, squash))

    def test_action_validation_rejects_nontrivial_identity(self):
        k = cyclic(5)
        h = cyclic(2, "s")
        flip = Morphism(k, k, tuple((-x) % 5 for x in range(5)))
        with pytest.raises(ValueError):
            Action(h, k, (flip, flip))

    def test_action_validation_rejects_non_homomorphism(self):
        # maps[1] of order 4 cannot be the image of an order-2 generator
        k = cyclic(5)
        h = cyclic(2, "s")
        ident = Morphism(k, k, tuple(range(5)))
        double = Morphism(k, k, tuple(2 * x % 5 for x in range(5)))
        with pytest.raises(ValueError):
            Action(h, k, (ident, double))

    def test_action_validation_rejects_maps_of_the_wrong_count_or_group(self):
        k, z3, h = cyclic(5), cyclic(3), cyclic(2, "s")
        ident = identity_morphism(k)
        with pytest.raises(ValueError, match="^need exactly one automorphism per element of H$"):
            Action(h, k, (ident,))
        for off_k in (identity_morphism(z3), Morphism(z3, k, (0, 1, 2)),
                      Morphism(k, z3, (0, 1, 2, 0, 1))):
            with pytest.raises(ValueError, match=r"^maps\[1\] is not a self-map of K$"):
                Action(h, k, (ident, off_k))

    def test_rejects_an_action_built_for_other_factors(self):
        h = cyclic(2, "s")
        with pytest.raises(ValueError, match="^action does not match the given K and H$"):
            semidirect(cyclic(3), h, power_action(h, cyclic(5), -1))


def _all_pairs_action_check(h, maps) -> bool:
    """The action axioms on every pair of H: maps[e] = id, maps[a*b] = maps[a] o maps[b]."""
    images = [m.image for m in maps]
    if images[h.identity] != tuple(range(len(images[0]))):
        return False
    return all(images[h.mul[a][b]] == tuple(images[a][x] for x in images[b])
               for a in range(h.order) for b in range(h.order))


_ACTING = [cyclic(n, "s") for n in range(2, 7)] + [
    dihedral(3), direct_product(cyclic(2, "s"), cyclic(2, "t"))]
_ACTED_ON = [cyclic(3), cyclic(4), cyclic(5), direct_product(cyclic(2), cyclic(2)), dihedral(3)]


class TestActionGeneratorCheck:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_all_pairs_check(self, data):
        h = data.draw(st.sampled_from(_ACTING))
        k = data.draw(st.sampled_from(_ACTED_ON))
        autos = automorphisms(k)
        if data.draw(st.booleans()):
            maps = [data.draw(st.sampled_from(autos)) for _ in range(h.order)]
        else:
            # an action of any listed group of the same order, read on H's
            # elements, is often right on some generators and wrong on others
            twin = data.draw(st.sampled_from([t for t in _ACTING if t.order == h.order]))
            maps = list(data.draw(st.sampled_from(actions(twin, k))).maps)
            for i in data.draw(st.lists(st.integers(0, h.order - 1), max_size=2)):
                maps[i] = data.draw(st.sampled_from(autos))
        try:
            Action(h, k, tuple(maps))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _all_pairs_action_check(h, maps)

    def test_rejects_a_map_wrong_only_on_the_last_generator(self):
        # on Z2 x Z2 = <t, s>, t acts trivially and s by an order-4 map: every
        # product by t is consistent, but maps[s*s] = id != maps[s] o maps[s]
        k, h = cyclic(5), direct_product(cyclic(2, "s"), cyclic(2, "t"))
        ident = Morphism(k, k, tuple(range(5)))
        double = Morphism(k, k, tuple(2 * x % 5 for x in range(5)))
        maps = (ident, ident, double, double)
        assert not _all_pairs_action_check(h, maps)
        with pytest.raises(ValueError):
            Action(h, k, maps)


class TestHomSet:
    @pytest.mark.parametrize(
        "h, k, count",
        [
            (cyclic(2), cyclic(3), 1),
            (cyclic(2), cyclic(2), 2),
            (cyclic(4), cyclic(2), 2),
            (cyclic(2), cyclic(4), 2),
            (cyclic(6), cyclic(6), 6),
            (dihedral(3), cyclic(2), 2),
            (cyclic(2), dihedral(3), 4),
        ],
    )
    def test_known_counts(self, h, k, count):
        assert len(hom_set(h, k)) == count

    def test_all_results_are_homomorphisms_sorted(self):
        homs = hom_set(dihedral(3), dihedral(3))
        assert all(m.is_homomorphism() for m in homs)
        images = [m.image for m in homs]
        assert images == sorted(images)

    @pytest.mark.parametrize(
        "h, k",
        [
            (cyclic(4), cyclic(4)),
            (direct_product(cyclic(2), cyclic(2)), dihedral(4)),
            (dihedral(3), direct_product(cyclic(2), cyclic(2))),
            (cyclic(6), cyclic(3)),
            (dihedral(4), cyclic(2)),
            (cyclic(3), dihedral(3)),
        ],
        ids=["Z4-Z4", "Z2xZ2-D4", "D3-Z2xZ2", "Z6-Z3", "D4-Z2", "Z3-D3"],
    )
    def test_complete_against_exhaustive_enumeration(self, h, k):
        import itertools

        expected = set()
        for image in itertools.product(range(k.order), repeat=h.order):
            if Morphism(h, k, image).is_homomorphism():
                expected.add(image)
        assert [m.image for m in hom_set(h, k)] == sorted(expected)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            hom_set(cyclic(6), cyclic(6), cap=3)


def _power_units(n: int, m: int) -> set[int]:
    """The u mod m with gcd(u, m) = 1 and u^n = 1 (mod m): Z_n acts on Z_m
    by r -> r^u for exactly these u."""
    return {u for u in range(m) if gcd(u, m) == 1 and pow(u, n, m) == 1 % m}


class TestActions:
    @pytest.mark.parametrize(
        "h, k, count",
        [
            (cyclic(2), cyclic(3), 2),
            (cyclic(2), cyclic(8), 4),
            (cyclic(4), cyclic(5), 4),
            (cyclic(3), cyclic(4), 1),
        ] + [(cyclic(n), cyclic(m), len(_power_units(n, m)))
             for m in range(1, 25) for n in range(1, 13)],
    )
    def test_known_counts(self, h, k, count):
        acts = actions(h, k)
        assert len(acts) == count
        if h.order >= 2:
            # the image of r under the generator of Z_n: r itself when m = 1
            m = k.order
            assert {a.maps[1].image[1 % m] for a in acts} == _power_units(h.order, m)

    def test_first_action_is_trivial(self):
        acts = actions(cyclic(2), cyclic(8))
        assert acts[0] == trivial_action(cyclic(2), cyclic(8))
        assert sum(_is_trivial(a) for a in acts) == 1

    def test_class_sizes_for_z4_on_z5(self):
        classes = action_classes(cyclic(4), cyclic(5))
        assert [len(c) for c in classes] == [1, 2, 1]

    def test_class_sizes_for_z2_on_z8(self):
        classes = action_classes(cyclic(2), cyclic(8))
        assert [len(c) for c in classes] == [1, 1, 1, 1]

    def test_classmates_give_isomorphic_products(self):
        k, h = cyclic(5), cyclic(4)
        for cls in action_classes(h, k):
            products = [semidirect(k, h, a) for a in cls]
            for other in products[1:]:
                assert are_isomorphic(products[0], other) is not None

    def test_holomorph_refuses_past_the_size_cap_before_aut(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Aut built for a holomorph past the size cap")
        monkeypatch.setattr(groupkit.aut, "aut_group", refuse)
        with pytest.raises(SizeCapError, match=r"^order 48 exceeds size cap 47$"):
            holomorph(12, size_cap=47)  # 12 * phi(12) = 48

    @pytest.mark.parametrize("n", [4097, 1_000_000_000_000_000_003])
    def test_holomorph_past_the_cap_refuses_before_phi(self, monkeypatch, n):
        # |Hol n| = n * phi(n) >= n; phi(10^18 + 3) by trial division would not return
        def refuse(m):
            raise AssertionError(f"phi({m}) computed for a holomorph past the size cap")
        monkeypatch.setattr(groupkit.construct, "euler_phi", refuse)
        with pytest.raises(SizeCapError, match=rf"^order at least {n} exceeds size cap 4096$"):
            holomorph(n)

    def test_classes_honour_the_aut_cap_on_h(self):
        z2 = cyclic(2)
        h = direct_product(direct_product(direct_product(direct_product(z2, z2), z2), z2), z2)
        with pytest.raises(SizeCapError):
            action_classes(h, z2)  # |Aut(Z2^5)| = 9,999,360, refused before searching
        with pytest.raises(SizeCapError):
            action_classes(dihedral(4), cyclic(3), aut_cap=7)  # |Aut(D4)| = 8
        classes = action_classes(dihedral(4), cyclic(3), aut_cap=8)
        assert [len(c) for c in classes] == [1, 2, 1]

    def test_partition_covers_all_actions(self):
        k, h = cyclic(7), cyclic(6)
        classes = action_classes(h, k)
        flattened = [a.maps for cls in classes for a in cls]
        assert len(flattened) == len(actions(h, k))
        assert len({tuple(m.image for m in maps) for maps in flattened}) == len(flattened)


class TestKhCopies:
    def test_copies_in_dihedral(self):
        g = dihedral(3)
        kc, hc = kh_copies(3, 2, g)
        assert kc.members == (0, 2, 4)
        assert hc.members == (0, 1)

    def test_copies_intersect_trivially(self):
        k, h, act = _inversion_action(6)
        g = semidirect(k, h, act)
        kc, hc = kh_copies(6, 2, g)
        assert set(kc.members) & set(hc.members) == {0}
        assert len(kc) * len(hc) == g.order

    def test_rejects_a_wrong_order(self):
        with pytest.raises(ValueError, match="^product order does not match k_order \\* h_order$"):
            kh_copies(3, 3, dihedral(3))


class TestHolomorph:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_order_is_n_phi_n(self, n):
        assert holomorph(n).order == n * euler_phi(n)

    def test_holomorph_of_z5_is_nonabelian_order_20(self):
        g = holomorph(5)
        assert g.order == 20
        assert not is_abelian(g)

    def test_small_holomorphs_are_familiar(self):
        assert are_isomorphic(holomorph(3), dihedral(3)) is not None
        assert are_isomorphic(holomorph(4), dihedral(4)) is not None
        assert are_isomorphic(holomorph(2), cyclic(2)) is not None


class TestRecognizeSplit:
    def test_dihedral_splits_over_rotations(self):
        g = dihedral(8)
        rotations = subgroup_generated(g, [2])
        witness = recognize_split(g, rotations)
        assert witness is not None
        assert witness.complement.members == (0, 1)
        assert not _is_trivial(witness.action)
        assert witness.iso.is_isomorphism()

    def test_z4_does_not_split_over_its_half(self):
        g = cyclic(4)
        assert recognize_split(g, subgroup_generated(g, [2])) is None

    def test_rejects_non_normal_subgroup(self):
        g = dihedral(3)
        with pytest.raises(ValueError):
            recognize_split(g, subgroup_generated(g, [1]))

    def test_round_trip_over_constructed_products(self):
        cases = []
        for h_n, k_n in [(2, 3), (2, 8), (4, 5), (2, 7)]:
            h, k = cyclic(h_n, "s"), cyclic(k_n)
            for a in actions(h, k):
                cases.append((k, h, a))
        for k, h, a in cases:
            g = semidirect(k, h, a)
            kcopy, _ = kh_copies(k.order, h.order, g)
            witness = recognize_split(g, kcopy)
            assert witness is not None
            assert witness.iso.is_isomorphism()
            # the iso maps the reconstructed pair-encoded product onto g
            assert witness.iso.target is g
            assert are_isomorphic(witness.iso.source, g) is not None

    def test_direct_product_splits_with_trivial_action(self):
        g = direct_product(cyclic(3), cyclic(4))
        kcopy, _ = kh_copies(3, 4, g)
        witness = recognize_split(g, kcopy)
        assert witness is not None
        assert _is_trivial(witness.action)


def _shifted(g):
    """g relabelled by x -> x + 1 mod |g|, so its identity is not at 0."""
    n = g.order
    return make_table([[(g.mul[(a - 1) % n][(b - 1) % n] + 1) % n for b in range(n)]
                       for a in range(n)])


def _assert_pair_formula(g, k, h, a):
    """g is K x| H under a, cell by cell: (k1,h1)(k2,h2) = (k1 * h1(k2), h1*h2)."""
    n_h = h.order
    assert g.identity == k.identity * n_h + h.identity
    for k1 in range(k.order):
        for h1 in range(n_h):
            image = a.maps[h1].image
            assert g.mul[k1 * n_h + h1] == tuple(
                k.mul[k1][image[k2]] * n_h + h.mul[h1][h2]
                for k2 in range(k.order) for h2 in range(n_h))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_semidirect_table_follows_the_pair_formula(data):
    k = data.draw(st.sampled_from(_ACTED_ON + [cyclic(1), _shifted(dihedral(3))]))
    h = data.draw(st.sampled_from(_ACTING + [cyclic(1, "s"), _shifted(cyclic(4, "s"))]))
    a = data.draw(st.sampled_from(actions(h, k)))
    _assert_pair_formula(semidirect(k, h, a), k, h, a)


def _holomorph_factors(n):
    k = cyclic(n)
    ag = aut_group(k)
    return k, ag.table, Action(ag.table, k, ag.elements)


@pytest.mark.parametrize("build, factors", [
    (lambda: dihedral(192),
     lambda: (cyclic(192), cyclic(2, "s"), power_action(cyclic(2, "s"), cyclic(192), -1))),
    (lambda: direct_product(dihedral(48), cyclic(2)),
     lambda: (dihedral(48), cyclic(2), trivial_action(cyclic(2), dihedral(48)))),
    (lambda: holomorph(16), lambda: _holomorph_factors(16)),
], ids=["D192", "D48 x Z2", "Hol 16"])
def test_products_at_bench_orders_follow_the_pair_formula(build, factors):
    # orders 384, 192 and 128, past the factors of order 6 or less that the test above draws
    _assert_pair_formula(build(), *factors())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_semidirect_tables_always_pass_axioms(data):
    k_n = data.draw(st.integers(2, 9))
    h_n = data.draw(st.sampled_from([2, 3, 4]))
    k, h = cyclic(k_n), cyclic(h_n, "s")
    acts = actions(h, k)
    a = data.draw(st.sampled_from(acts))
    g = semidirect(k, h, a)
    assert g.order == k_n * h_n
    assert verify_group_axioms(g).ok


def test_searches_leave_no_reference_cycles():
    # a recursive closure holds itself through its cell, and with it the search state
    z6 = direct_product(cyclic(6), cyclic(6))
    hol, d8 = holomorph(11), dihedral(8)
    calls = [lambda: hom_set(z6, z6), lambda: are_isomorphic(hol, hol),
             lambda: automorphisms(dihedral(6)),
             lambda: recognize_split(d8, subgroup_generated(d8, [2])),
             lambda: recognize_split(cyclic(4), subgroup_generated(cyclic(4), [2])),
             lambda: identify(aut_group(dihedral(16)).table)]  # walks the whole catalog
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_built_tables_and_actions_pass_the_full_checks(monkeypatch):
    """Tables, actions and subgroups built from checked parts, without
    make_table, Action's check or SubgroupRef's, against all three: each
    table equals make_table of its rows and passes verify_group_axioms, its
    derived inverses are two-sided, and each value that core._trusted builds,
    through any module's binding, passes its class's own check."""
    built = []
    trusted = groupkit.core._trusted

    def recorded(cls, *values):
        built.append(trusted(cls, *values))
        return built[-1]

    bindings = [m for name, m in sys.modules.items()
                if name.startswith("groupkit") and getattr(m, "_trusted", None) is trusted]
    assert {m.__name__ for m in bindings} >= {
        "groupkit.core", "groupkit.construct", "groupkit.verify"}
    for module in bindings:
        monkeypatch.setattr(module, "_trusted", recorded)
    rng = random.Random(0)
    small = ([cyclic(n, "s") for n in range(1, 7)] + [dihedral(n) for n in range(1, 5)]
             + [_shifted(cyclic(4)), _shifted(dihedral(3))])
    tables = [cyclic(n) for n in range(1, 41)] + [dihedral(n) for n in range(1, 31)]
    tables += [holomorph(n) for n in range(2, 17)]
    tables += [aut_group(g).table for g in small]
    for m in range(1, 13):
        for n in range(1, 7):
            for i in range(m):
                try:
                    a = power_action(cyclic(n, "s"), cyclic(m), i)
                except ValueError:
                    continue
                tables.append(semidirect(a.k_group, a.h_group, a))
    for k in small:
        for h in small:
            if k.order * h.order > 48:
                continue
            tables.append(direct_product(k, h))
            for a in actions(h, k):
                g = semidirect(k, h, a)
                k_copy = [x * h.order + h.identity for x in range(k.order)]
                k_ref = SubgroupRef(g, tuple(k_copy))
                tables += [g, subgroup_table(center(g))[0], subgroup_table(k_ref)[0]]
                witness = recognize_split(g, k_ref)
                # both checked by their classes below
                assert (witness.complement, witness.action) == tuple(built[-2:])
                if g.order <= 12:
                    tables.append(aut_group(g).table)
    for t in tables:
        assert t == make_table(t.mul, t.elem_names)
        assert verify_group_axioms(t).ok
        assert all(t.mul[x][y] == t.identity == t.mul[y][x] for x, y in enumerate(t.inv))
        center(t)
        subgroup_generated(t, rng.sample(range(t.order), rng.randint(0, min(3, t.order))))
    check_characteristic_theorems(12)  # verify's K-copies
    assert len(tables) > 1000
    built_actions = [v for v in built if isinstance(v, Action)]
    built_subgroups = [v for v in built if isinstance(v, SubgroupRef)]
    assert len(built_actions) + len(built_subgroups) == len(built)
    assert {a.h_group.order for a in built_actions} >= {1, 2, 4, 6, 8}
    assert len(built_subgroups) > 2 * len(tables)
    for a in built_actions:
        assert Action(a.h_group, a.k_group, a.maps) == a
    for ref in built_subgroups:
        assert SubgroupRef(ref.parent, ref.members) == ref


def _count_subgroup_checks(monkeypatch) -> list[str]:
    """Patch SubgroupRef's check to record, per call, the name of the
    function that called SubgroupRef(...); returns the record."""
    callers = []
    check = SubgroupRef.__post_init__

    def counted(self):
        callers.append(sys._getframe(2).f_code.co_name)  # past the dataclass __init__
        check(self)

    monkeypatch.setattr(SubgroupRef, "__post_init__", counted)
    return callers


def test_held_subgroups_are_not_checked_again(monkeypatch):
    rotations = [SubgroupRef(g, tuple(range(0, g.order, 2)))
                 for g in (dihedral(n) for n in range(3, 13))]
    callers = _count_subgroup_checks(monkeypatch)
    for ref in rotations:
        table, embed = subgroup_table(ref)
        assert table.order == len(ref) and sorted(embed) == list(ref.members)
        witness = recognize_split(ref.parent, ref)
        assert witness.iso.is_isomorphism() and len(witness.complement) == 2
    assert callers == []
    SubgroupRef(dihedral(3), (0, 2, 4))  # the counter itself sees a check
    assert callers == ["test_held_subgroups_are_not_checked_again"]


def test_default_verify_run_checks_only_the_subgroups_it_finds(monkeypatch):
    # kernels and K-copies are checked where they are made; each ref is then
    # handed on (to subgroup_table, recognize_split) without a second check
    callers = _count_subgroup_checks(monkeypatch)
    assert run_all()[1].failed == 0
    assert len(callers) == 26 and set(callers) == {"kernel", "kh_copies"}


def _power_maps(h, k, i):
    m = k.order
    return tuple(Morphism(k, k, tuple(pow(i, t, m) * x % m for x in range(m)))
                 for t in range(h.order))


@pytest.mark.parametrize("m", range(1, 17))
def test_power_action_refuses_exactly_what_the_action_check_refuses(m):
    k = cyclic(m)
    for n in range(2, 17):
        h = cyclic(n, "s")
        for i in range(-m, 2 * m):
            try:
                expected = Action(h, k, _power_maps(h, k, i))
            except ValueError:
                with pytest.raises(ValueError):
                    power_action(h, k, i)
            else:
                assert power_action(h, k, i) == expected


def test_power_action_of_the_trivial_group_needs_r_to_r():
    # Z1's generator is its identity, so r -> r^i is an action only for i = 1 mod m
    h = cyclic(1, "s")
    for m in range(1, 17):
        k = cyclic(m)
        for i in range(-m, 2 * m):
            if (i - 1) % m:
                with pytest.raises(ValueError):
                    power_action(h, k, i)
            else:
                assert power_action(h, k, i).maps == (identity_morphism(k),)
    with pytest.raises(ValueError) as refused:
        power_action(h, cyclic(8), 3)
    with pytest.raises(ExprEvalError) as refused_expr:
        parse_and_eval("Z8 : Z1 [r^3]")
    assert str(refused.value) == str(refused_expr.value) == (
        "r^3 generates an automorphism of order 2 in Aut(Z8), "
        "which does not divide 1, so Z1 cannot act that way")


@pytest.mark.parametrize("other", [_shifted(cyclic(4)), dihedral(3),
                                   direct_product(cyclic(2), cyclic(2))],
                         ids=["shifted Z4", "D3", "Z2 x Z2"])
def test_power_action_refuses_tables_outside_cyclic_labelling(other):
    for h, k in ((other, cyclic(5)), (cyclic(2, "s"), other)):
        with pytest.raises(ValueError, match="labelled as cyclic"):
            power_action(h, k, 1)


def test_package_built_actions_run_no_action_check(monkeypatch):
    checked = []
    check = Action.__post_init__

    def counted(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(Action, "__post_init__", counted)
    for n in range(3, 13):
        dihedral(n)
    parse_and_eval("Z8 : Z2 [r^3]")
    identify(parse_and_eval("Hol 5"))
    assert checked == []
    k, h, act = _inversion_action(3)  # builds with Action(...), so the counter counts
    assert checked == [act]
