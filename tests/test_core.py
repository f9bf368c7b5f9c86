"""Group tables, axiom checking, morphisms, subgroups."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupkit.core
from groupkit.aut import aut_group, automorphisms, is_characteristic
from groupkit.construct import (
    Action,
    cyclic,
    dihedral,
    direct_product,
    holomorph,
    hom_set,
    kh_copies,
    power_action,
    recognize_split,
    semidirect,
    trivial_action,
)
from groupkit.core import (
    GroupTable,
    Morphism,
    SizeCapError,
    SubgroupRef,
    _compose_rows,
    center,
    grow_closure,
    identity_morphism,
    is_abelian,
    is_normal,
    kernel,
    make_table,
    order_spectrum,
    respects_products,
    subgroup_generated,
    subgroup_table,
    to_json_dict,
    verify_group_axioms,
)
from groupkit.expr import parse_and_eval
from groupkit.iso import are_isomorphic

Z2_MUL = [[0, 1], [1, 0]]
Z3_MUL = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
Z4_MUL = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]


def _groups_pool():
    return [
        cyclic(1),
        cyclic(8),
        cyclic(12),
        dihedral(3),
        dihedral(4),
        dihedral(6),
        direct_product(cyclic(2), cyclic(4)),
        direct_product(cyclic(3), cyclic(3)),
    ]


class TestVerifyGroupAxioms:
    def test_valid_tables_pass(self):
        assert verify_group_axioms(Z4_MUL).ok
        assert verify_group_axioms(cyclic(6)).ok
        assert verify_group_axioms(dihedral(5)).ok

    def test_identity_may_sit_anywhere_in_a_raw_table(self):
        # the order-2 group written with its identity at index 1
        assert verify_group_axioms([[1, 0], [0, 1]]).ok

    def test_ragged_table_reports_dimensions(self):
        verdict = verify_group_axioms([[0, 1], [1]])
        assert not verdict.ok
        assert verdict.axiom == "dimensions"

    def test_table_whose_order_disagrees_with_its_rows_reports_dimensions(self):
        g = cyclic(3)
        verdict = verify_group_axioms(GroupTable(4, g.mul, g.identity, g.elem_names))
        assert not verdict.ok
        assert (verdict.axiom, verdict.witness) == ("dimensions", (3,))

    def test_out_of_range_entry_reports_closure(self):
        verdict = verify_group_axioms([[0, 5], [1, 0]])
        assert not verdict.ok
        assert verdict.axiom == "closure"
        assert verdict.witness == (0, 1)

    def test_missing_identity_reported(self):
        verdict = verify_group_axioms([[1, 0], [0, 0]])
        assert not verdict.ok
        assert verdict.axiom in ("identity", "inverses", "associativity")

    def test_missing_inverse_reported_with_witness(self):
        # 0 is the identity but 1 is idempotent, so 1 has no inverse
        verdict = verify_group_axioms([[0, 1], [1, 1]])
        assert not verdict.ok
        assert verdict.axiom == "inverses"
        assert verdict.witness == (1,)

    def test_broken_associativity_carries_a_checkable_witness(self):
        broken = [list(r) for r in Z4_MUL]
        broken[1][1] = 1
        verdict = verify_group_axioms(broken, identity=0)
        assert not verdict.ok
        assert verdict.axiom == "associativity"
        a, b, c = verdict.witness
        assert broken[broken[a][b]][c] != broken[a][broken[b][c]]

    def test_verdict_is_truthy_iff_ok(self):
        assert bool(verify_group_axioms(Z2_MUL))
        assert not bool(verify_group_axioms([[0, 1], [1, 1]]))


class TestMakeTable:
    def test_derives_identity_and_inverses(self):
        g = make_table(Z3_MUL)
        assert g.identity == 0
        assert g.inv == (0, 2, 1)
        assert g.elem_names == ("g0", "g1", "g2")

    def test_rejects_table_without_identity(self):
        with pytest.raises(ValueError):
            make_table([[1, 0], [0, 0]])

    def test_finds_an_identity_away_from_index_0(self):
        g = make_table([[1, 0], [0, 1]])
        assert g.identity == 1
        assert g.inv == (0, 1)

    def test_rejects_left_identities_that_are_not_two_sided(self):
        # both rows are left identities (0*x = 1*x = x), but x*0 = x*1 = x fails
        with pytest.raises(ValueError, match="identity"):
            make_table([[0, 1], [0, 1]])

    def test_rejects_element_without_inverse(self):
        with pytest.raises(ValueError, match="inverse"):
            make_table([[0, 1], [1, 1]])

    def test_inverse_is_the_lowest_two_sided_one(self):
        # row 2 holds the identity first at 1, but 1 * 2 = 2, so that cell is
        # one-sided; the check goes on to 2 * 2 = e, a two-sided inverse, and
        # only associativity fails
        mul = [[0, 1, 2], [1, 0, 2], [2, 0, 0]]
        assert mul[2][1] == 0 != mul[1][2] and mul[2][2] == 0
        assert verify_group_axioms(mul).axiom == "associativity"
        with pytest.raises(ValueError, match=r"^\(a\*b\)\*c != a\*\(b\*c\)"):
            make_table(mul)

    @pytest.mark.parametrize("b, cell", [(1, 0.0), (2, 1.0), (2, True)])
    def test_rejects_cells_that_only_compare_equal_to_an_index(self, b, cell):
        # each cell equals the index it replaces, so a range test alone lets it through
        mul = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert mul[2][b] == cell
        mul[2][b] = cell
        with pytest.raises(ValueError, match=rf"^mul\[2\]\[{b}\] = {cell!r} lies outside"):
            make_table(mul)

    def test_names_the_first_bad_cell(self):
        with pytest.raises(ValueError, match=r"^mul\[0\]\[1\] = 'x' lies outside"):
            make_table([[0, "x"], [1, 9]])

    def test_accepts_int_subclass_cells(self):
        class IntLike(int):
            pass
        z2 = make_table([[IntLike(0), IntLike(1)], [IntLike(1), IntLike(0)]])
        assert z2.identity == 0 and z2.inv == (0, 1)
        # the one index test accepts them as members, generators and images too
        g = cyclic(4)
        assert SubgroupRef(g, (IntLike(0), IntLike(2))).members == (0, 2)
        assert subgroup_generated(g, [IntLike(2)]).members == (0, 2)
        ident = Morphism(g, g, tuple(map(IntLike, range(4))))
        assert ident.is_bijective() and ident.is_isomorphism()
        assert Action(z2, g, (ident, ident)).maps == (ident, ident)

    def test_rejects_entries_outside_the_index_range(self):
        with pytest.raises(ValueError, match="outside"):
            make_table([[0, 1, 2], [1, 2, 0], [2, 0, 9]])
        with pytest.raises(ValueError, match="outside"):
            make_table([[0, 1], [1, -1]])
        with pytest.raises(ValueError, match="identity"):
            make_table([])

    def test_rejects_names_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="1 names given for 2 elements"):
            make_table(Z2_MUL, names=["e"])
        with pytest.raises(ValueError, match="3 names given for 2 elements"):
            make_table(Z2_MUL, names=["e", "a", "b"])
        assert make_table(Z2_MUL, names=["e", "a"]).name_of(1) == "a"

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            make_table([[0, 1]])

    def test_name_of(self):
        g = cyclic(4)
        assert g.name_of(0) == "e"
        assert g.name_of(2) == "r^2"


class TestElementOrders:
    def test_orders_in_z6(self):
        g = cyclic(6)
        assert g.orders == (1, 6, 3, 2, 3, 6)

    def test_orders_in_d4(self):
        g = dihedral(4)
        # pair encoding (k, h) -> 2k + h: index 2 is the rotation r
        assert g.orders[2] == 4
        assert g.orders[1] == 2

    def test_powers_that_miss_the_identity_raise(self):
        # identity 0 and inverses exist, but 1*1 = 1, so 1^k = 1 for every k;
        # make_table refuses such a table, so it is built by hand
        g = GroupTable(4, ((0, 1, 2, 3), (1, 1, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)), 0,
                       ("e", "a", "b", "c"))
        with pytest.raises(ValueError, match="element 1"):
            g.orders
        with pytest.raises(ValueError, match="element 1"):
            g.inv  # 2*2 = 0, but the orders and inverses are read as a whole

    @pytest.mark.parametrize(
        "g, spectrum",
        [
            (dihedral(4), {1: 1, 2: 5, 4: 2}),
            (cyclic(6), {1: 1, 2: 1, 3: 2, 6: 2}),
            (direct_product(cyclic(2), cyclic(2)), {1: 1, 2: 3}),
        ],
    )
    def test_order_spectrum(self, g, spectrum):
        assert order_spectrum(g) == spectrum

    def test_spectrum_counts_every_element(self):
        for g in _groups_pool():
            assert sum(order_spectrum(g).values()) == g.order

    def test_orders_divide_group_order(self):
        for g in _groups_pool():
            assert all(g.order % d == 0 for d in g.orders)


class TestCenterAndAbelian:
    def test_abelian_flags(self):
        assert is_abelian(cyclic(12))
        assert not is_abelian(dihedral(3))

    def test_center_sizes(self):
        assert len(center(dihedral(3))) == 1
        assert len(center(dihedral(4))) == 2
        assert len(center(cyclic(8))) == 8

    def test_center_of_d4_contains_half_turn(self):
        g = dihedral(4)
        # index 4 is r^2 under the (k, h) -> 2k + h encoding
        assert center(g).members == (0, 4)


class TestSubgroups:
    def test_generated_subgroups_in_d4(self):
        g = dihedral(4)
        rot = subgroup_generated(g, [2])
        assert len(rot) == 4
        assert subgroup_generated(g, [1]).members == (0, 1)
        assert len(subgroup_generated(g, [4, 1])) == 4

    def test_is_subgroup(self):
        g = dihedral(4)
        assert SubgroupRef(g, (0, 2, 4, 6)).members == (0, 2, 4, 6)
        with pytest.raises(ValueError):
            SubgroupRef(g, (0, 2))  # not closed: 2*2 = 4

    def test_members_must_hold_the_identity(self):
        with pytest.raises(ValueError, match="^subgroup must contain the identity$"):
            SubgroupRef(cyclic(4), (1, 2, 3))

    @pytest.mark.parametrize("members, bad", [
        ((0, True, 2, 3), "True"), ((0, 2.0), "2.0"), ((0, "a"), "'a'"),
        ((0, 4), "4"), ((-1, 0), "-1"), ((0, 1.0), "1.0"), ((0, "x"), "'x'")])
    def test_members_must_be_element_indices(self, members, bad):
        # True == 1 and 2.0 == 2 pass a range test, and 'a' does not sort with ints
        with pytest.raises(ValueError, match=rf"^member {bad} is not an element index 0..3$"):
            SubgroupRef(cyclic(4), members)

    def test_generators_must_be_element_indices(self):
        g = cyclic(4)
        for x in (True, 2.0, "a", 1.0, "x"):
            with pytest.raises(ValueError, match="is not an element index"):
                subgroup_generated(g, [0, x])
        for x in (-1, 4):
            with pytest.raises(IndexError, match=rf"^generator index {x} out of range$"):
                subgroup_generated(g, [x])

    def test_normality(self):
        d4 = dihedral(4)
        assert is_normal(d4, subgroup_generated(d4, [2]))  # index 2
        d3 = dihedral(3)
        assert not is_normal(d3, subgroup_generated(d3, [1]))

    @pytest.mark.parametrize("check", [is_normal, is_characteristic, recognize_split])
    def test_a_subgroup_of_another_table_is_refused(self, check):
        rotations = subgroup_generated(dihedral(4), [2])
        with pytest.raises(ValueError, match="^subgroup belongs to a different parent group$"):
            check(dihedral(5), rotations)

    def test_index_two_subgroups_are_normal(self):
        for g in [dihedral(4), dihedral(6), direct_product(cyclic(2), cyclic(4))]:
            for x in range(g.order):
                h = subgroup_generated(g, [x])
                if len(h) * 2 == g.order:
                    assert is_normal(g, h)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_lagrange(self, data):
        pool = _groups_pool()
        g = data.draw(st.sampled_from(pool))
        gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=0, max_size=3))
        h = subgroup_generated(g, gens)
        assert g.order % len(h) == 0
        SubgroupRef(g, h.members)

    def test_two_commuting_involutions_span_a_klein_subgroup(self):
        # x, y of order 2 with xy = yx and distinct generate a 4-element subgroup
        g = direct_product(cyclic(2), cyclic(2))
        x, y = 1, 2
        assert g.orders[x] == g.orders[y] == 2
        assert g.mul[x][y] == g.mul[y][x]
        h = subgroup_generated(g, [x, y])
        assert len(h) == 4
        assert order_spectrum(subgroup_table(h)[0]) == {1: 1, 2: 3}

    def test_noncommuting_involutions_span_a_dihedral_subgroup(self):
        # in D6, a reflection and a rotated reflection generate a dihedral
        # subgroup of order twice the order of their product
        g = dihedral(6)
        x, y = 1, 5  # s and r^2 s
        assert g.orders[x] == g.orders[y] == 2
        prod_order = g.orders[g.mul[x][y]]
        h = subgroup_generated(g, [x, y])
        assert len(h) == 2 * prod_order
        sub, _ = subgroup_table(h)
        assert are_isomorphic(sub, dihedral(prod_order)) is not None


class TestSubgroupTable:
    def test_rotations_of_d4_form_z4(self):
        g = dihedral(4)
        sub, embed = subgroup_table(SubgroupRef(g, (0, 2, 4, 6)))
        assert sub.order == 4
        assert sub.identity == 0
        assert are_isomorphic(sub, cyclic(4)) is not None
        # embedding respects multiplication
        for a in range(4):
            for b in range(4):
                assert embed[sub.mul[a][b]] == g.mul[embed[a]][embed[b]]


class TestMorphisms:
    def test_identity_morphism(self):
        g = dihedral(3)
        m = identity_morphism(g)
        assert m.is_isomorphism()
        assert m.image[4] == 4

    def test_reduction_mod_2_is_a_homomorphism(self):
        m = Morphism(cyclic(4), cyclic(2), (0, 1, 0, 1))
        assert m.is_homomorphism()
        assert not m.is_bijective()
        assert kernel(m).members == (0, 2)

    def test_malformed_images_are_not_bijections(self):
        z2, z3 = cyclic(2), cyclic(3)
        for image in ((0, 1, 0), (0,), (0, -1), (0, 2), (0, 5)):
            assert not Morphism(z2, z2, image).is_bijective()
        assert not Morphism(z2, z2, (0, 5)).is_isomorphism()
        with pytest.raises(ValueError, match=r"maps\[1\] is not an automorphism of K"):
            Action(z2, z3, (identity_morphism(z3), Morphism(z3, z3, (0, 2, 7))))

    @pytest.mark.parametrize("image", [(0, 0.5), (0, 1.0), (0, True), (0, "x")])
    def test_non_integer_images_are_not_bijections(self, image):
        z2 = cyclic(2)
        assert not Morphism(z2, z2, image).is_bijective()
        assert not Morphism(z2, z2, image).is_isomorphism()
        with pytest.raises(ValueError, match=r"maps\[1\] is not an automorphism of K"):
            Action(z2, z2, (identity_morphism(z2), Morphism(z2, z2, image)))

    def test_non_homomorphism_detected(self):
        m = Morphism(cyclic(3), cyclic(3), (0, 0, 1))
        assert not m.is_homomorphism()

    def test_inversion_is_an_automorphism_of_z5(self):
        g = cyclic(5)
        inv_map = Morphism(g, g, tuple((-x) % 5 for x in range(5)))
        assert inv_map.is_isomorphism()
        assert tuple(inv_map.image[x] for x in inv_map.image) == identity_morphism(g).image

    def test_homomorphism_requires_identity_to_identity(self):
        m = Morphism(cyclic(2), cyclic(2), (1, 0))
        assert not m.is_homomorphism()


def _relabelled(g: GroupTable, shift: int) -> GroupTable:
    """g with element x renamed (x + shift) mod n, so the identity moves."""
    n = g.order
    back = [(y - shift) % n for y in range(n)]
    return make_table([[(g.mul[back[a]][back[b]] + shift) % n for b in range(n)]
                       for a in range(n)])


_HOM_POOL = [
    cyclic(1),
    cyclic(2),
    cyclic(4),
    cyclic(6),
    dihedral(3),
    dihedral(4),
    direct_product(cyclic(2), cyclic(2)),
    _relabelled(dihedral(3), 2),
]


def _respects_all_pairs(m: Morphism) -> bool:
    s, t, f = m.source, m.target, m.image
    return all(f[s.mul[a][b]] == t.mul[f[a]][f[b]]
               for a in range(s.order) for b in range(s.order))


class TestHomomorphismCheck:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_generator_rows_agree_with_all_pairs(self, data):
        src = data.draw(st.sampled_from(_HOM_POOL))
        tgt = data.draw(st.sampled_from(_HOM_POOL))
        if data.draw(st.booleans()):
            # a genuine homomorphism, then maybe one entry overwritten
            image = list(data.draw(st.sampled_from(hom_set(src, tgt))).image)
            pos = data.draw(st.integers(-1, src.order - 1))
            if pos >= 0:
                image[pos] = data.draw(st.integers(0, tgt.order - 1))
        else:
            image = data.draw(st.lists(st.integers(0, tgt.order - 1),
                                       min_size=src.order, max_size=src.order))
        m = Morphism(src, tgt, tuple(image))
        expected = _respects_all_pairs(m)
        assert m.is_homomorphism() == expected
        # search_morphisms passes its image as a list
        assert respects_products(src, tgt, image) == expected


_PLAN_POOL = _groups_pool() + [
    _relabelled(g, shift) for g in _groups_pool() for shift in (1, 5)] + [
    direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
    _relabelled(direct_product(dihedral(3), cyclic(3)), 7),
]


class TestDerivedData:
    def test_cached_data_leaves_eq_hash_and_repr_alone(self):
        a, b = dihedral(4), dihedral(4)
        assert a.orders and a.inv and a.gens_and_plans
        assert {"orders", "inv"} <= set(vars(a)) and not {"orders", "inv"} & set(vars(b))
        aut_group(a)
        assert {"_aut_chain", "_aut_images", "_aut_table"} <= set(vars(a)) - set(vars(b))
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert len({a, b}) == 1

    def test_second_automorphisms_call_runs_no_closure(self, monkeypatch):
        calls = []
        real = groupkit.core.grow_closure

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(groupkit.core, "grow_closure", counting)
        g = dihedral(6)
        first = automorphisms(g)
        assert calls
        seen = len(calls)
        assert automorphisms(g) == first
        assert len(calls) == seen

    @pytest.mark.parametrize("g", _PLAN_POOL)
    def test_plans_assign_every_element_once_from_earlier_ones(self, g):
        gens, plans = g.gens_and_plans
        listed = [g.identity]
        for gen, plan in zip(gens, plans):
            listed.append(gen)
            for p, x, y in plan:
                assert x in listed and y in listed
                assert g.mul[x][y] == p
                listed.append(p)
        assert sorted(listed) == list(range(g.order))


def _recorded_battery() -> list[tuple[GroupTable, list[SubgroupRef]]]:
    """Tables whose constructors record their generators, each with subgroups
    to test for normality: the K- and H-copies of a pair-encoded product, the
    cyclic subgroups of the rest."""
    products = [(direct_product(cyclic(m), cyclic(n, "s")), m, n)
                for m, n in [(1, 1), (1, 5), (4, 6), (2, 2), (3, 9)]]
    products += [(direct_product(k, h), k.order, h.order) for k, h in [
        (dihedral(3), cyclic(2)), (cyclic(2), direct_product(cyclic(2), cyclic(2))),
        (dihedral(4), dihedral(3))]]
    products += [(semidirect(cyclic(m), cyclic(n, "s"), power_action(cyclic(n, "s"), cyclic(m), i)),
                  m, n) for m, n, i in [(8, 2, 3), (7, 3, 2), (16, 4, 3), (9, 6, 2), (5, 4, 2)]]
    products += [(parse_and_eval(expr), k, h) for expr, k, h in [
        ("(Z2 x Z2) : Z3 [#1]", 4, 3), ("(Z4 x Z2) : Z2 [#3]", 8, 2), ("D4 : Z2 [#1]", 8, 2),
        ("Z8 : (Z2 x Z2) [#2]", 8, 4)]]
    products += [(dihedral(n), n, 2) for n in (1, 2, 5, 8)]
    products += [(g, n, g.order // n) for n in (1, 2, 7, 8, 12) for g in [holomorph(n)]]
    battery = [(g, list(kh_copies(k, h, g))) for g, k, h in products]
    others = [cyclic(n) for n in range(1, 13)]
    others += [aut_group(g).table for g in (
        cyclic(1), cyclic(2), cyclic(8), dihedral(4), holomorph(8), holomorph(7),
        direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))))]
    battery += [(g, [subgroup_generated(g, [x]) for x in range(g.order)]) for g in others]
    return battery


class TestRecordedGenerators:
    """cyclic, semidirect and aut_group record a generating set; the checks
    that read it answer as they do on a copy that falls back to the greedy
    sequence."""

    @pytest.mark.parametrize("g, subgroups", _recorded_battery())
    def test_recorded_generators_generate_and_the_checks_agree(self, g, subgroups):
        assert "generators" in vars(g)
        assert len(subgroup_generated(g, g.generators)) == g.order
        copy = GroupTable(g.order, g.mul, g.identity, g.elem_names)
        assert copy.generators == copy.gens_and_plans[0]
        assert is_abelian(g) == is_abelian(copy)
        assert center(g) == center(copy)
        assert [is_normal(g, s) for s in subgroups] == [is_normal(copy, s) for s in subgroups]
        assert g._class_key == copy._class_key
        rng = random.Random(g.order)
        images = [a.image for a in automorphisms(g)[:4]] + [
            (g.identity,) * g.order,
            tuple(g.inv),
            (g.identity, *rng.sample(range(g.order), g.order))[:g.order],
        ]
        for img in images:
            assert respects_products(g, g, img) == respects_products(copy, copy, img)

    def test_the_battery_meets_both_verdicts(self):
        battery = _recorded_battery()
        assert {is_normal(g, s) for g, subs in battery for s in subs} == {True, False}
        assert {is_abelian(g) for g, _ in battery} == {True, False}
        assert {respects_products(g, g, g.inv) for g, _ in battery} == {True, False}


def _greedy_by_full_closures(g: GroupTable):
    """gens_and_plans by the earlier rule: every trial sized by a full
    grow_closure, and at index 2 or 3 the lowest outside element taken untried."""
    n, mul, orders = g.order, g.mul, g.orders
    have, gens, plans = [g.identity], [], []
    while len(have) < n:
        inside = set(have)
        if not gens:
            x = max(range(n), key=lambda x: (orders[x], -x))
        elif 4 * len(have) > n:
            x = next(x for x in range(n) if x not in inside)
        else:
            size = 0
            for y in range(n):
                if y not in inside:
                    grown = len(grow_closure(mul, have, y, [], n))
                    if grown > size:
                        x, size = y, grown
                    inside.update(mul[h][y] for h in have)
        steps = []
        have = grow_closure(mul, have, x, steps, n)
        gens.append(x)
        plans.append(tuple(steps))
    return tuple(gens), tuple(plans)


_GREEDY_EXPRS = [
    "Z1", "Z12", "D6", "Hol 7", "Hol 8", "Hol 12", "Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2",
    "Z4 x Z4", "Z6 x Z6", "Z3 x Z3 x Z3", "Z2 x Z4 x Z8", "Z2 x Z2 x Z3 x Z3", "D4 x Z2",
    "D4 x D4", "Z3 x D5", "Z2 x Z2 x D8", "Z8 : Z2 [r^3]", "Z8 : Z2 [r^5]", "Z7 : Z3 [r^2]",
    "Z16 : Z4 [r^3]", "Z9 : Z6 [r^2]", "(Z2 x D4) : Z2 [#1]", "Z3 x Z8 : Z2 [r^3]",
]


class TestGreedyGenerators:
    @pytest.mark.parametrize("expr", _GREEDY_EXPRS)
    def test_coset_trials_pick_what_full_closures_picked(self, expr):
        g = parse_and_eval(expr)
        for table in (g, _relabelled(g, 1), _relabelled(g, g.order // 2 + 1)):
            assert table.gens_and_plans == _greedy_by_full_closures(table)

    @pytest.mark.parametrize("expr", ["Z8 x Z2 x Z2", "Hol 8"])
    def test_on_aut_tables(self, expr):
        table = aut_group(parse_and_eval(expr)).table
        for t in (table, _relabelled(table, 7)):
            assert t.gens_and_plans == _greedy_by_full_closures(t)


def _order_by_powers(g: GroupTable, x: int) -> int:
    y = x
    for k in range(1, g.order + 1):
        if y == g.identity:
            return k
        y = g.mul[y][x]
    raise ValueError(f"powers of element {x} never reach the identity")


def _abelian_by_scan(g: GroupTable) -> bool:
    mul = g.mul
    return all(mul[a][b] == mul[b][a] for a in range(g.order) for b in range(a + 1, g.order))


def _center_by_scan(g: GroupTable) -> tuple[int, ...]:
    mul = g.mul
    return tuple(a for a in range(g.order) if all(mul[a][b] == mul[b][a] for b in range(g.order)))


def _inverses_by_scan(g: GroupTable) -> tuple[int, ...]:
    """Where each row holds the identity: in a group, the one two-sided inverse."""
    return tuple(row.index(g.identity) for row in g.mul)


def _normal_by_scan(g: GroupTable, members) -> bool:
    mem, mul, inv = set(members), g.mul, _inverses_by_scan(g)
    return all(mul[mul[x][a]][inv[x]] in mem for x in range(g.order) for a in members)


def _closed_by_scan(g: GroupTable, members) -> bool:
    mem, inv = set(members), _inverses_by_scan(g)
    return g.identity in mem and all(
        inv[a] in mem and all(g.mul[a][b] in mem for b in mem) for a in mem)


def _first_failure_by_scan(g: GroupTable, members):
    """(a, b) for the first member b, ascending, outside the product closure
    of the ones kept before it, with some a*b outside the set, and the least
    such a; None when every kept b passes."""
    mem, closure = sorted(set(members)), {g.identity}
    for b in mem:
        if b not in closure:
            bad = [a for a in mem if g.mul[a][b] not in mem]
            if bad:
                return bad[0], b
            grown = closure | {b}
            while grown != closure:
                closure, grown = grown, grown | {g.mul[x][y] for x in grown for y in grown}
    return None


def _root_key_counts_by_scan(g: GroupTable) -> Counter:
    return Counter((_order_by_powers(g, x), sum(1 for z in range(g.order) if g.mul[z][z] == x))
                   for x in range(g.order))


def _class_sizes_by_scan(g: GroupTable) -> list[int]:
    mul, inv = g.mul, _inverses_by_scan(g)
    return [len({mul[mul[h][x]][inv[h]] for h in range(g.order)}) for x in range(g.order)]


def _cyclic_subgroups(g: GroupTable):
    """The powers of each element, as the members of the subgroup it generates."""
    for x in range(g.order):
        powers, y = [g.identity], x
        while y != g.identity:
            powers.append(y)
            y = g.mul[y][x]
        yield powers


# A4, (Z2 x Z2) : Z3 [#1], has a trivial centre and an element with no square root
_SHORTCUT_POOL = _PLAN_POOL + [
    t for expr in [*_GREEDY_EXPRS, "(Z2 x Z2) : Z3 [#1]"] for g in [parse_and_eval(expr)]
    for t in (g, _relabelled(g, g.order // 2 + 1))]


class TestGeneratorShortcuts:
    """The generator-only invariants, the inverses, the root counts, the class sizes and
    subgroup checks against full scans."""

    @pytest.mark.parametrize("g", _SHORTCUT_POOL, ids=repr)
    def test_invariants_match_full_scans(self, g):
        assert g.orders == tuple(_order_by_powers(g, x) for x in range(g.order))
        assert g.inv == _inverses_by_scan(g)
        assert is_abelian(g) == _abelian_by_scan(g)
        assert center(g).members == _center_by_scan(g)
        assert Counter(g._root_key) == _root_key_counts_by_scan(g)
        assert [key[:2] for key in g._class_key] == list(g._root_key)
        assert [key[2] for key in g._class_key] == _class_sizes_by_scan(g)

    @pytest.mark.parametrize("g", _SHORTCUT_POOL, ids=repr)
    def test_subgroup_checks_match_full_scans(self, g):
        seen = set()
        for powers in _cyclic_subgroups(g):
            h = SubgroupRef(g, powers)
            assert is_normal(g, h) == _normal_by_scan(g, powers)
            assert subgroup_generated(g, powers[1:2]) == h
            # a cyclic subgroup plus its lowest outside element: accepted iff the scan accepts it
            y = next((y for y in range(g.order) if y not in h.members), None)
            if y is None or (frozenset(powers), y) in seen:
                continue
            seen.add((frozenset(powers), y))
            members = (*powers, y)
            if _closed_by_scan(g, members):
                assert SubgroupRef(g, members).members == tuple(sorted(members))
            else:
                with pytest.raises(ValueError, match="not closed under product at") as err:
                    SubgroupRef(g, members)
                a, b = map(int, str(err.value).split("at (")[1].rstrip(")").split(", "))
                assert a in members and b in members and g.mul[a][b] not in members

    @pytest.mark.parametrize("g", _SHORTCUT_POOL, ids=repr)
    def test_subgroup_witness_is_the_first_failing_kept_member(self, g):
        rng = random.Random(g.order)
        for _ in range(20):
            members = {g.identity, *rng.sample(range(g.order), rng.randrange(g.order))}
            expected = _first_failure_by_scan(g, members)
            if expected is None:
                assert SubgroupRef(g, tuple(members)).members == tuple(sorted(members))
            else:
                a, b = expected
                with pytest.raises(ValueError, match=rf"^not closed under product at \({a}, {b}\)$"):
                    SubgroupRef(g, tuple(members))

    def test_rejects_a_set_whose_first_element_multiplies_into_it(self):
        g = direct_product(cyclic(4), cyclic(2))  # index 2k + h: 1 = (0, 1), 2 = (1, 0)
        members = (0, 1, 2, 3)  # 1*S = S*1 = S, but 2*2 = 4
        assert all(g.mul[1][a] in members and g.mul[a][1] in members for a in members)
        with pytest.raises(ValueError, match=r"not closed under product at \(2, 2\)"):
            SubgroupRef(g, members)


class TestComposeRows:
    def test_rows_that_do_not_generate_raise(self):
        # Z4 given only the row of 2 reaches {0, 2}
        with pytest.raises(RuntimeError, match="internal error"):
            _compose_rows(4, 0, [cyclic(4).mul[2]])

    def test_order_one_without_generators(self):
        assert _compose_rows(1, 0, []) == ((0,),)


class TestExtendOrbit:
    def test_links_reach_the_closure_and_skip_existing_keys(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randrange(1, 12)
            perms = [rng.sample(range(n), n) for _ in range(rng.randrange(4))]
            start = rng.sample(range(n), rng.randrange(1, n + 1))
            blocked = set(rng.sample(range(n), rng.randrange(n))) - set(start)
            orbit = dict.fromkeys(start) | dict.fromkeys(blocked, "blocked")
            groupkit.core._extend_orbit(orbit, perms, start)
            # the points reached from start by steps that avoid the blocked keys
            reached, frontier = set(start), list(start)
            while frontier:
                p = frontier.pop()
                for s in perms:
                    if s[p] not in reached and s[p] not in blocked:
                        reached.add(s[p])
                        frontier.append(s[p])
            assert set(orbit) == reached | blocked
            for q in blocked:
                assert orbit[q] == "blocked"
            for q in reached - set(start):
                i, p = orbit[q]
                assert perms[i][p] == q and p in reached
                while p not in start:  # the links lead back to a start point
                    p = orbit[p][1]


class TestJson:
    def test_exact_key_set_and_values(self):
        g = cyclic(3)
        d = to_json_dict(g)
        assert set(d) == {"order", "identity", "mul", "names"}
        assert d["order"] == 3
        assert d["identity"] == 0
        assert d["mul"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert d["names"] == ["e", "r", "r^2"]


class TestSizeCap:
    def test_cyclic_respects_cap(self):
        with pytest.raises(SizeCapError):
            cyclic(5000)

    def test_product_respects_cap(self):
        k, h = cyclic(70), cyclic(70)
        with pytest.raises(SizeCapError):
            semidirect(k, h, trivial_action(h, k))
