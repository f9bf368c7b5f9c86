"""Automorphism groups, lifting maps on semidirect products, caps."""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupkit._search
import groupkit.aut
from groupkit.aut import (
    DEFAULT_AUT_CAP,
    aut_group,
    automorphisms,
    is_characteristic,
    lambda_lift,
    zeta_lift,
)
from groupkit.construct import (
    action_classes,
    actions,
    cyclic,
    dihedral,
    direct_product,
    kh_copies,
    semidirect,
    trivial_action,
)
from groupkit.core import (
    SizeCapError,
    SubgroupRef,
    center,
    is_abelian,
    subgroup_generated,
    verify_group_axioms,
)
from groupkit.expr import parse_and_eval
from groupkit.iso import are_isomorphic
from groupkit.numth import euler_phi
from groupkit._search import generating_sequence


def _elementary_abelian(p: int, m: int):
    g = cyclic(p)
    for _ in range(m - 1):
        g = direct_product(g, cyclic(p))
    return g


class TestAutomorphismCounts:
    @pytest.mark.parametrize(
        "g, count",
        [
            (cyclic(1), 1),
            (cyclic(5), 4),
            (cyclic(8), 4),
            (direct_product(cyclic(2), cyclic(2)), 6),
            (dihedral(3), 6),
            (dihedral(4), 8),
            (direct_product(cyclic(2), cyclic(4)), 8),
            (dihedral(6), 12),
        ],
    )
    def test_known_counts(self, g, count):
        assert len(automorphisms(g)) == count

    def test_every_result_is_an_automorphism(self):
        for a in automorphisms(dihedral(4)):
            assert a.is_isomorphism()
            assert a.source is a.target

    def test_results_are_distinct_and_sorted(self):
        images = [a.image for a in automorphisms(dihedral(4))]
        assert images == sorted(images)
        assert len(set(images)) == len(images)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_cyclic_aut_count_is_phi(self, n):
        assert len(automorphisms(cyclic(n))) == euler_phi(n)

    @pytest.mark.parametrize(
        "expr, count, leaves",
        [("Hol 7", 42, 3), ("Hol 9", 54, 2), ("Hol 11", 110, 2), ("Z16 : Z4 [r^3]", 128, 4)],
    )
    def test_collision_pruning_checks_only_automorphisms_at_the_leaf(
            self, monkeypatch, expr, count, leaves):
        g = parse_and_eval(expr)  # built first: a holomorph searches Aut(Z_n)
        real, verdicts = groupkit._search.respects_products, []

        def counting(*args):
            verdicts.append(real(*args))
            return verdicts[-1]

        monkeypatch.setattr(groupkit._search, "respects_products", counting)
        assert len(automorphisms(g)) == count
        # one leaf per strong generator of Aut(G), not one per automorphism
        assert verdicts == [True] * leaves

    def test_aut_of_cyclic_is_abelian(self):
        for n in (5, 8, 12, 15):
            assert is_abelian(aut_group(cyclic(n)).table)

    def test_aut_of_z5_is_cyclic_of_order_4(self):
        ag = aut_group(cyclic(5))
        assert are_isomorphic(ag.table, cyclic(4)) is not None


class TestAutGroup:
    def test_table_passes_axioms_and_identity_first(self):
        ag = aut_group(dihedral(4))
        assert verify_group_axioms(ag.table).ok
        assert ag.table.identity == 0
        assert ag.elements[0].image == tuple(range(8))

    def test_table_encodes_composition(self):
        ag = aut_group(dihedral(3))
        for i, a in enumerate(ag.elements):
            for j, b in enumerate(ag.elements):
                composed = tuple(a.image[b.image[x]] for x in range(6))
                assert ag.elements[ag.table.mul[i][j]].image == composed

    @pytest.mark.parametrize("expr", [
        "Z1", "Z2", "Z3", "Z256", "D16", "Z8 x Z2 x Z2", "Hol 7", "Hol 16", "D12",
        "Z2 x Z2 x Z2", "Z2 x D4", "Z8 : Z2 [r^5]",
    ])
    def test_table_equals_full_image_composition(self, expr):
        ag = aut_group(parse_and_eval(expr))
        oracle = groupkit._search.search_morphisms(ag.base, ag.base, bijective=True)
        assert [a.image for a in ag.elements] == oracle
        index_of = {a.image: i for i, a in enumerate(ag.elements)}
        mul = tuple(tuple(index_of[tuple(a.image[x] for x in b.image)] for b in ag.elements)
                    for a in ag.elements)
        assert ag.table.mul == mul
        assert ag.table.identity == index_of[tuple(range(ag.base.order))]
        again = aut_group(ag.base)
        assert again.table == ag.table and again.elements == ag.elements

    def test_runs_the_chain_once(self, monkeypatch):
        g, calls, chain = parse_and_eval("Hol 16"), [], groupkit.aut._aut_chain
        monkeypatch.setattr(groupkit.aut, "_aut_chain", lambda *a: calls.append(a) or chain(*a))
        aut_group(g)
        assert len(calls) == 1

    def test_aut_is_computed_once_per_table(self, monkeypatch):
        real, searches = groupkit.aut.search_morphisms, []
        monkeypatch.setattr(groupkit.aut, "search_morphisms",
                            lambda *a, **k: searches.append(1) or real(*a, **k))
        g = dihedral(6)
        first = automorphisms(g)
        assert searches
        seen = len(searches)
        table = aut_group(g).table
        assert is_characteristic(g, center(g))
        assert groupkit.aut._aut_order(g) == len(first) == table.order
        assert action_classes(cyclic(2), g) and actions(cyclic(3), g)
        assert automorphisms(g) == first and aut_group(g).table is table
        assert len(searches) == seen

    def test_cap_is_checked_on_every_call(self):
        g = dihedral(6)
        with pytest.raises(SizeCapError, match="group of order 12 has 12 automorphisms") as first:
            automorphisms(g, cap=11)
        assert len(aut_group(g, cap=12).elements) == 12
        for call in (automorphisms, aut_group, groupkit.aut._aut_order):
            with pytest.raises(SizeCapError) as again:
                call(g, cap=11)
            assert str(again.value) == str(first.value)
        with pytest.raises(SizeCapError):
            is_characteristic(g, center(g), cap=11)

    def test_cache_keeps_no_reference_to_its_table(self):
        g = parse_and_eval("D4 x Z3")
        aut_group(g)
        automorphisms(g)
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    def test_aut_of_klein_four_is_d3(self):
        ag = aut_group(direct_product(cyclic(2), cyclic(2)))
        assert are_isomorphic(ag.table, dihedral(3)) is not None

    def test_element_names_cover_generators(self):
        ag = aut_group(cyclic(5))
        assert ag.table.elem_names[0] == "id"


class TestElementaryAbelianCap:
    def test_formula_refusal_mentions_projected_count(self):
        g = _elementary_abelian(2, 5)
        with pytest.raises(SizeCapError) as exc:
            automorphisms(g)
        assert "9999360" in str(exc.value)

    def test_refusal_at_default_cap_for_16(self):
        with pytest.raises(SizeCapError):
            automorphisms(_elementary_abelian(2, 4))

    def test_raising_the_cap_enumerates(self):
        autos = automorphisms(_elementary_abelian(2, 4), cap=30_000)
        assert len(autos) == 20160

    @pytest.mark.parametrize(
        "p, m, count",
        [(2, 2, 6), (2, 3, 168), (3, 2, 48)],
    )
    def test_small_elementary_abelian_counts(self, p, m, count):
        assert len(automorphisms(_elementary_abelian(p, m))) == count

    def test_search_cap_applies_to_general_groups(self):
        with pytest.raises(SizeCapError):
            automorphisms(dihedral(6), cap=5)

    @pytest.mark.parametrize("factors", [
        [2], [9], [2, 2], [2, 4], [4, 4], [2, 2, 4], [2, 8], [3, 9], [4, 6], [6, 6], [2, 4, 4],
    ])
    def test_abelian_refusal_names_the_enumerated_count(self, factors):
        g = parse_and_eval(" x ".join(f"Z{f}" for f in factors))
        count = len(automorphisms(g))
        with pytest.raises(SizeCapError, match=f"has {count} automorphisms"):
            automorphisms(g, cap=count - 1)

    @pytest.mark.parametrize("expr", ["D6", "Hol 7", "D4 x Z2", "Z16 : Z4 [r^3]"])
    def test_non_abelian_refusal_names_the_enumerated_count(self, expr):
        g = parse_and_eval(expr)
        count = len(automorphisms(g))
        with pytest.raises(SizeCapError, match=f"group of order {g.order} has {count} automorphisms"):
            automorphisms(g, cap=count - 1)

    def test_refuses_a_non_abelian_group_from_its_orbit_lengths(self, monkeypatch):
        g = parse_and_eval("Z2 x Z2 x D8")
        count = len(groupkit._search.search_morphisms(g, g, bijective=True))
        assert count == 12288
        real, leaves = groupkit._search.respects_products, []

        def counting(*args):
            leaves.append(1)
            return real(*args)

        monkeypatch.setattr(groupkit._search, "respects_products", counting)
        with pytest.raises(SizeCapError, match=f"has {count} automorphisms"):
            automorphisms(g)
        assert len(leaves) <= 20

    def test_refusal_names_the_count_of_z2_cubed_times_z4(self):
        # |Aut(Z2^3 x Z4)| = 21504 (Hillar & Rhea), read from the orbit lengths
        with pytest.raises(SizeCapError, match="group of order 32 has 21504 automorphisms"):
            automorphisms(parse_and_eval("Z2 x Z2 x Z2 x Z4"))


class TestCharacteristic:
    def test_center_is_characteristic(self):
        for g in [dihedral(4), dihedral(6), direct_product(cyclic(2), cyclic(4))]:
            assert is_characteristic(g, center(g))

    def test_unique_cyclic_subgroup_is_characteristic(self):
        g = dihedral(4)
        assert is_characteristic(g, subgroup_generated(g, [2]))

    def test_klein_four_factor_is_not_characteristic(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert not is_characteristic(g, subgroup_generated(g, [1]))

    def test_whole_group_and_trivial_subgroup_always_characteristic(self):
        g = dihedral(5)
        assert is_characteristic(g, subgroup_generated(g, []))
        assert is_characteristic(g, subgroup_generated(g, [1, 2]))

    def test_k_copies_of_coprime_products_are_certified_without_a_search(self, monkeypatch):
        # the K-copy of Z15 x| Z4 is a normal Hall subgroup: every element of
        # order dividing 15 lies in it, so element orders certify it
        count = len(actions(cyclic(4), cyclic(15)))
        products = [parse_and_eval(f"Z15 : Z4 [#{j}]") for j in range(count)]
        searches = []
        monkeypatch.setattr(groupkit.aut, "search_morphisms",
                            lambda *a, **k: searches.append(a) or [])
        for g in products:
            assert is_characteristic(g, kh_copies(15, 4, g)[0])
        assert count == 8 and searches == []

    def test_certified_subgroup_needs_no_cap(self):
        # |Aut(Z2 x Z2 x Z2 x Z4)| = 21504 is over the cap, but the elements
        # of order at most 2 are all the elements of orders 1 and 2
        g = parse_and_eval("Z2 x Z2 x Z2 x Z4")
        omega = SubgroupRef(g, tuple(x for x in range(g.order) if g.orders[x] <= 2))
        assert len(omega) == 16
        assert is_characteristic(g, omega)

    def test_uncertified_subgroup_still_refuses_past_the_cap(self):
        g = parse_and_eval("Z2 x Z2 x Z2 x Z4")
        with pytest.raises(SizeCapError, match="group of order 32 has 21504 automorphisms"):
            is_characteristic(g, subgroup_generated(g, [1]))


def _chain_battery() -> list[str]:
    """Every Z m x Z n, D m x Z n and Z m : Z n [r^i] of order <= 48, and Hol n for n <= 13."""
    battery = [f"Z{m} x Z{n}" for m in range(2, 25) for n in range(m, 25) if m * n <= 48]
    battery += [f"D{m} x Z{n}" for m in range(3, 25) for n in range(2, 25) if 2 * m * n <= 48]
    battery += [f"Z{m} : Z{n} [r^{i}]" for m in range(3, 25) for n in range(2, 25) if m * n <= 48
                for i in range(2, m) if math.gcd(i, m) == 1 and pow(i, n, m) == 1]
    battery += [f"Hol {n}" for n in range(2, 14)]
    assert len(battery) == 182
    return battery


def _unpruned_chain(g):
    """_aut_chain's walk with no dead set: one search for every point of g_t's
    order outside g_t's orbit."""
    gens, orders = g.gens_and_plans[0], g.orders
    strong, vectors = [], []
    for t, x in reversed([*enumerate(gens)]):
        orbit = {x: None}
        for w in range(g.order):
            if orders[w] != orders[x] or w in orbit:
                continue
            if found := groupkit._search.search_morphisms(
                    g, g, bijective=True, first_only=True, fixed=(*gens[:t], w)):
                strong.append(found[0])
                queue = list(orbit)
                for p in queue:
                    for i, s in enumerate(strong):
                        if s[p] not in orbit:
                            orbit[s[p]] = (i, p)
                            queue.append(s[p])
        vectors.insert(0, orbit)
    return strong, vectors


def test_pruned_chain_matches_the_unpruned_walk():
    # the same strong generators, and each vector with the same entries in the same order
    for expr in _chain_battery():
        strong, vectors = _unpruned_chain(parse_and_eval(expr))
        got_strong, got_vectors = groupkit.aut._aut_chain(parse_and_eval(expr), DEFAULT_AUT_CAP)
        assert list(got_strong) == strong, expr
        assert [list(v.items()) for v in got_vectors] == [list(v.items()) for v in vectors], expr


@pytest.mark.parametrize("expr, failed", [("Hol 32", 194), ("D4 x Z8", 13)])
def test_chain_skips_the_orbits_of_failed_points(monkeypatch, expr, failed):
    # the unpruned walk made 366 and 43 failed searches
    misses, search = [], groupkit.aut.search_morphisms

    def counting(*args, **kwargs):
        found = search(*args, **kwargs)
        misses.append(not found)
        return found

    monkeypatch.setattr(groupkit.aut, "search_morphisms", counting)
    groupkit.aut._aut_chain(parse_and_eval(expr), DEFAULT_AUT_CAP)
    assert sum(misses) <= failed


def test_chain_matches_the_full_search():
    for expr in _chain_battery():
        g = parse_and_eval(expr)
        oracle = groupkit._search.search_morphisms(g, g, bijective=True)
        assert [a.image for a in automorphisms(g)] == oracle, expr
        subgroups = [center(g), *(subgroup_generated(g, [x]) for x in range(g.order))]
        for c in {c.members: c for c in subgroups}.values():
            members = set(c.members)
            verdict = all({image[x] for x in members} == members for image in oracle)
            assert is_characteristic(g, c) == verdict, (expr, c.members)


def _faithful_action_z4_on_z5():
    k, h = cyclic(5), cyclic(4, "s")
    for a in actions(h, k):
        if len({m.image for m in a.maps}) == 4:
            return k, h, a
    raise AssertionError("expected a faithful action")


class TestLifts:
    def test_zeta_lifts_all_succeed_when_aut_k_is_abelian(self):
        k, h, act = _faithful_action_z4_on_z5()
        g = semidirect(k, h, act)
        verdicts = [zeta_lift(om, g)[1] for om in automorphisms(k)]
        assert verdicts == [True, True, True, True]

    def test_zeta_candidates_fix_h_coordinate(self):
        k, h, act = _faithful_action_z4_on_z5()
        g = semidirect(k, h, act)
        om = automorphisms(k)[1]
        candidate, _ = zeta_lift(om, g)
        for p in range(g.order):
            assert candidate.image[p] % 4 == p % 4

    def test_zeta_fails_exactly_off_the_centralizer(self):
        # K = Z2 x Z2 has nonabelian Aut; an involution's centralizer there
        # has order 2, so exactly 2 of the 6 lifts succeed
        k = direct_product(cyclic(2), cyclic(2))
        h = cyclic(2, "s")
        act = next(a for a in actions(h, k) if a != trivial_action(h, k))
        g = semidirect(k, h, act)
        verdicts = [zeta_lift(om, g)[1] for om in automorphisms(k)]
        assert sum(verdicts) == 2

    def test_zeta_all_succeed_on_direct_products(self):
        k = dihedral(3)
        h = cyclic(2, "s")
        g = semidirect(k, h, trivial_action(h, k))
        assert all(zeta_lift(om, g)[1] for om in automorphisms(k))

    def test_lambda_succeeds_only_when_action_is_preserved(self):
        k, h, act = _faithful_action_z4_on_z5()
        g = semidirect(k, h, act)
        verdicts = [lambda_lift(d, g)[1] for d in automorphisms(h)]
        # the action is faithful, so only the identity of Aut(H) preserves it
        assert sorted(verdicts) == [False, True]

    def test_lambda_all_succeed_on_direct_products(self):
        k, h = cyclic(5), cyclic(4, "s")
        g = direct_product(k, h)
        assert all(lambda_lift(d, g)[1] for d in automorphisms(h))

    def test_lift_images_meet_only_at_identity(self):
        k, h, act = _faithful_action_z4_on_z5()
        g = semidirect(k, h, act)
        zetas = {zeta_lift(om, g)[0].image
                 for om in automorphisms(k) if zeta_lift(om, g)[1]}
        lambdas = {lambda_lift(d, g)[0].image
                   for d in automorphisms(h) if lambda_lift(d, g)[1]}
        assert zetas & lambdas == {tuple(range(g.order))}

    def test_verdicts_match_the_automorphism_list(self):
        # oracle: a candidate lifts exactly when it is one of the enumerated
        # automorphisms of the product
        for m in range(1, 25):
            k, autos_k = cyclic(m), automorphisms(cyclic(m))
            for n in range(1, 24 // m + 1):
                h = cyclic(n, "s")
                autos_h = automorphisms(h)
                for act in actions(h, k):
                    g = semidirect(k, h, act)
                    auts = {a.image for a in automorphisms(g)}
                    for om in autos_k:
                        candidate, ok = zeta_lift(om, g)
                        assert ok == (candidate.image in auts)
                    for d in autos_h:
                        candidate, ok = lambda_lift(d, g)
                        assert ok == (candidate.image in auts)

    def test_lift_rejects_non_automorphism(self):
        from groupkit.core import Morphism

        k, h, act = _faithful_action_z4_on_z5()
        g = semidirect(k, h, act)
        squash = Morphism(k, k, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            zeta_lift(squash, g)
        flat = Morphism(h, h, (0, 0, 0, 0))
        with pytest.raises(ValueError):
            lambda_lift(flat, g)

    def test_zeta_rejects_k_order_not_dividing_product_order(self):
        g = direct_product(cyclic(4), cyclic(3, "s"))
        with pytest.raises(ValueError, match="does not divide"):
            zeta_lift(automorphisms(cyclic(5))[1], g)

    def test_lambda_rejects_h_order_not_dividing_product_order(self):
        g = direct_product(cyclic(4), cyclic(3, "s"))
        with pytest.raises(ValueError, match="does not divide"):
            lambda_lift(automorphisms(cyclic(5, "s"))[1], g)


class TestGeneratingSequence:
    @pytest.mark.parametrize(
        "g, expected",
        [(cyclic(6), [1]), (dihedral(4), [2, 1]), (cyclic(1), [])],
    )
    def test_known_sequences(self, g, expected):
        assert generating_sequence(g) == expected

    def test_first_pick_has_maximal_order(self):
        for g in [dihedral(6), direct_product(cyclic(2), cyclic(8)), cyclic(12)]:
            gens = generating_sequence(g)
            orders = g.orders
            assert orders[gens[0]] == max(orders)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([3, 4, 5, 6, 8, 9, 10, 12]))
    def test_sequence_generates_whole_group(self, n):
        for g in (dihedral(n), cyclic(n)):
            gens = generating_sequence(g)
            assert len(subgroup_generated(g, gens)) == g.order


class TestDefaultCap:
    def test_default_cap_value(self):
        assert DEFAULT_AUT_CAP == 10_000
