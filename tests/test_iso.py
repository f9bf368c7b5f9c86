"""Isomorphism testing, abelian invariants, catalog identification."""

import math
import random
from collections import Counter
from functools import cache, cached_property, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupkit.iso
from groupkit._search import search_morphisms
from groupkit.aut import _aut_chain, aut_group
from groupkit.construct import (
    actions,
    cyclic,
    dihedral,
    direct_product,
    holomorph,
    power_action,
    semidirect,
    trivial_action,
)
from groupkit.core import GroupTable, is_abelian, make_table, order_spectrum
from groupkit.expr import parse_and_eval, parse_expr
from groupkit.iso import (
    CatalogName,
    _basic_pool,
    _counts,
    _expr_info,
    _factorings,
    _presentation,
    _presents,
    abelian_invariants,
    are_isomorphic,
    identify,
)


def _relabel(g: GroupTable, seed: int) -> GroupTable:
    """An isomorphic copy of g under a random permutation of element indices."""
    rng = random.Random(seed)
    perm = list(range(g.order))
    rng.shuffle(perm)
    inverse = [0] * g.order
    for i, p in enumerate(perm):
        inverse[p] = i
    mul = [[perm[g.mul[inverse[a]][inverse[b]]] for b in range(g.order)]
           for a in range(g.order)]
    return make_table(mul)


def _small_pool() -> list[GroupTable]:
    """The catalog's names of order <= 16, the (Z4 x Z2) : Z2 and (Z2 x Z2) : Z3
    families, and a relabelled copy of each."""
    exprs = {name.display for n in range(1, 17) for name in _basic_pool(n)}
    exprs |= {" x ".join(display for _, display in factors)
              for n in range(1, 17) for factors in _reference_products(n)}
    exprs |= {f"(Z4 x Z2) : Z2 [#{k}]" for k in range(6)}
    exprs |= {f"(Z2 x Z2) : Z3 [#{k}]" for k in range(3)}
    groups = [parse_and_eval(expr) for expr in sorted(exprs)]
    return groups + [_relabel(g, seed) for seed, g in enumerate(groups)]


class TestAreIsomorphic:
    @pytest.mark.parametrize(
        "g1, g2",
        [
            (cyclic(6), direct_product(cyclic(2), cyclic(3))),
            (dihedral(6), direct_product(cyclic(2), dihedral(3))),
            (cyclic(1), cyclic(1)),
            (parse_and_eval("Z8 : Z2 [r^7]"), dihedral(8)),
            (holomorph(5), parse_and_eval("Z5 : Z4 [r^2]")),
        ],
    )
    def test_positive_pairs_return_verified_witness(self, g1, g2):
        witness = are_isomorphic(g1, g2)
        assert witness is not None
        assert witness.is_isomorphism()
        assert witness.source is g1 and witness.target is g2

    @pytest.mark.parametrize(
        "g1, g2",
        [
            (cyclic(4), direct_product(cyclic(2), cyclic(2))),
            (cyclic(6), dihedral(3)),
            (cyclic(5), cyclic(7)),
            (dihedral(4), direct_product(cyclic(2), cyclic(4))),
            (cyclic(16), direct_product(cyclic(4), cyclic(4))),
            (parse_and_eval("Z8 : Z2 [r^3]"), parse_and_eval("Z8 : Z2 [r^5]")),
        ],
    )
    def test_negative_pairs(self, g1, g2):
        assert are_isomorphic(g1, g2) is None

    def test_negative_pair_that_only_square_roots_tell_apart(self):
        # same order, both nonabelian, equal order spectra, equal center
        # sizes; the square-root counts tell them apart before any search
        g1 = parse_and_eval("(Z4 x Z2) : Z2 [#1]")
        g2 = parse_and_eval("(Z4 x Z2) : Z2 [#4]")
        from groupkit.core import center, is_abelian, order_spectrum

        assert g1.order == g2.order == 16
        assert not is_abelian(g1) and not is_abelian(g2)
        assert order_spectrum(g1) == order_spectrum(g2)
        assert len(center(g1)) == len(center(g2))
        assert Counter(g1._root_key) != Counter(g2._root_key)
        assert are_isomorphic(g1, g2) is None
        assert search_morphisms(g1, g2, bijective=True, first_only=True) == []

    def test_bijective_search_between_unequal_orders_finds_nothing(self):
        assert search_morphisms(cyclic(4), cyclic(2), bijective=False)  # homomorphisms exist
        assert search_morphisms(cyclic(4), cyclic(2), bijective=True) == []

    def test_order_128_pair_is_told_apart_without_a_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(groupkit.iso, "search_morphisms", refuse)
        g1 = parse_and_eval("Z2 x Z2 x Z8 : Z4 [r^3]")
        g2 = parse_and_eval("Z2 x Z2 x Z8 : Z4 [r^7]")
        assert are_isomorphic(g1, g2) is None

    def test_order_64_pair_that_only_class_sizes_tell_apart(self, monkeypatch):
        # equal order, square-root counts and centre size; the class sizes
        # differ, so no search runs
        from groupkit.core import center

        g1 = aut_group(parse_and_eval("Z32 x Z2")).table
        g2 = parse_and_eval("Z2 x Z2 x Z8 : Z2 [r^5]")
        assert g1.order == g2.order == 64
        assert Counter(g1._root_key) == Counter(g2._root_key)
        assert len(center(g1)) == len(center(g2))

        def refuse(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(groupkit.iso, "search_morphisms", refuse)
        assert are_isomorphic(g1, g2) is None

    def test_class_key_is_computed_once_and_only_past_the_root_key(self, monkeypatch):
        walks = []
        scan = GroupTable._class_key.func

        def counted(g):
            walks.append(g)
            return scan(g)

        key = cached_property(counted)
        key.__set_name__(GroupTable, "_class_key")
        monkeypatch.setattr(GroupTable, "_class_key", key)
        g1 = parse_and_eval("Z8 : Z2 [r^3]")
        g2 = _relabel(g1, 0)
        for _ in range(3):
            assert are_isomorphic(g1, g2) is not None
            assert are_isomorphic(g2, g1) is not None
        assert sorted(map(id, walks)) == sorted([id(g1), id(g2)])
        walks.clear()
        assert are_isomorphic(parse_and_eval("D48 x Z2"), parse_and_eval("D96")) is None
        assert walks == []

    def test_root_key_is_computed_once_per_table(self, monkeypatch):
        walks = []
        scan = GroupTable._root_key.func

        def counted(g):
            walks.append(g)
            return scan(g)

        key = cached_property(counted)
        key.__set_name__(GroupTable, "_root_key")
        monkeypatch.setattr(GroupTable, "_root_key", key)
        g1 = parse_and_eval("Z8 : Z2 [r^3]")
        g2 = _relabel(g1, 0)
        for _ in range(3):
            assert are_isomorphic(g1, g2) is not None
            assert are_isomorphic(g2, g1) is not None
        assert sorted(map(id, walks)) == sorted([id(g1), id(g2)])

    @pytest.mark.parametrize("expr", ["Z8 : Z2 [r^3]", "Z2 x D4", "Hol 8", "(Z2 x Z2) : Z3 [#1]"])
    def test_root_key_matches_a_diagonal_scan(self, expr):
        for seed in range(3):
            g = _relabel(parse_and_eval(expr), seed)
            assert g._root_key == tuple(
                (g.orders[x], sum(1 for z in range(g.order) if g.mul[z][z] == x))
                for x in range(g.order))

    def test_root_key_multisets_agree_on_relabelled_copies(self):
        for seed, expr in enumerate(["Z8 : Z2 [r^3]", "Z2 x D4", "Hol 8", "Z4 x Z4"]):
            g = parse_and_eval(expr)
            assert Counter(_relabel(g, seed)._root_key) == Counter(g._root_key)

    def test_prefilter_rejects_no_isomorphic_pair(self):
        # every pair the invariants reject must be one the search rejects too
        by_order: dict[int, list[GroupTable]] = {}
        for g in _small_pool():
            by_order.setdefault(g.order, []).append(g)
        for groups in by_order.values():
            for i, g1 in enumerate(groups):
                for g2 in groups[i:]:
                    found = search_morphisms(g1, g2, bijective=True, first_only=True)
                    assert (are_isomorphic(g1, g2) is not None) == bool(found)

    def test_relabelled_copies_are_isomorphic(self):
        for seed, g in enumerate([dihedral(4), cyclic(12), holomorph(5)]):
            copy = _relabel(g, seed)
            witness = are_isomorphic(g, copy)
            assert witness is not None
            assert witness.is_isomorphism()


class TestAbelianInvariants:
    @pytest.mark.parametrize(
        "g, chain",
        [
            (cyclic(1), []),
            (cyclic(12), [12]),
            (direct_product(cyclic(2), cyclic(6)), [2, 6]),
            (direct_product(cyclic(4), cyclic(6)), [2, 12]),
            (direct_product(cyclic(8), cyclic(3)), [24]),
            (direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(9)), [2, 18]),
            (direct_product(cyclic(6), cyclic(10)), [2, 30]),
        ],
    )
    def test_known_chains(self, g, chain):
        assert abelian_invariants(g) == chain

    def test_rejects_nonabelian(self):
        with pytest.raises(ValueError):
            abelian_invariants(dihedral(3))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), min_size=1, max_size=3)
           .filter(lambda orders: math.prod(orders) <= 64))
    def test_chain_divides_and_reconstructs(self, orders):
        g = cyclic(orders[0])
        for n in orders[1:]:
            g = direct_product(g, cyclic(n))
        chain = abelian_invariants(g)
        assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
        product = 1
        for d in chain:
            product *= d
        assert product == g.order
        rebuilt = cyclic(chain[0]) if chain else cyclic(1)
        for d in chain[1:]:
            rebuilt = direct_product(rebuilt, cyclic(d))
        assert are_isomorphic(g, rebuilt) is not None

    def test_invariants_agree_for_isomorphic_presentations(self):
        assert abelian_invariants(cyclic(6)) == abelian_invariants(
            direct_product(cyclic(2), cyclic(3)))

    def test_every_abelian_group_up_to_order_96_against_arithmetic(self):
        rng = random.Random(0)
        lists = [f for n in range(1, 97) for f in _factor_lists(n)]
        assert len(lists) == 340
        for factors in lists:
            rng.shuffle(factors)
            g = reduce(direct_product, map(cyclic, factors), cyclic(1))
            invs, count = _oracle_invariants(factors), _oracle_aut_count(factors)
            for table in (g, _relabel(g, len(factors))):
                assert abelian_invariants(table) == invs, factors
                # |Aut| is the product of the chain's orbit lengths, capped at the oracle's count
                assert math.prod(map(len, _aut_chain(table, count)[1])) == count, factors
            assert are_isomorphic(g, reduce(direct_product, map(cyclic, invs), cyclic(1)))
        for g in (dihedral(3), holomorph(5), parse_and_eval("Z4 x D4")):
            with pytest.raises(ValueError):
                abelian_invariants(g)


def _factor_lists(n: int, least: int = 2) -> list[list[int]]:
    """Every multiset of cyclic orders > 1 with product n, each ascending."""
    if n == 1:
        return [[]]
    return [[d, *rest] for d in range(least, n + 1) if n % d == 0
            for rest in _factor_lists(n // d, d)]


def _oracle_invariants(factors: list[int]) -> list[int]:
    """Invariant factors by Z_a x Z_b = Z_gcd(a,b) x Z_lcm(a,b), applied to every pair in turn."""
    invs = list(factors)
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            invs[i], invs[j] = math.gcd(invs[i], invs[j]), math.lcm(invs[i], invs[j])
    return [d for d in invs if d > 1]


def _oracle_aut_count(factors: list[int]) -> int:
    """|Aut| as the units of End: for each p-part with exponents e_i, of which m_e
    equal e, End has p^(sum min(e_i, e_j)) elements and End / J(End) is the
    product of the matrix rings M_{m_e}(F_p), so
    |Aut| = |End| * prod_e |GL_{m_e}(F_p)| / p^(m_e^2)."""
    parts: dict[int, list[int]] = {}
    for n in factors:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e:
                parts.setdefault(p, []).append(e)
            p += 1
    count = 1
    for p, es in parts.items():
        mult = [es.count(e) for e in set(es)]
        count *= p ** (sum(min(a, b) for a in es for b in es) - sum(m * m for m in mult))
        for m in mult:
            count *= math.prod(p**m - p**x for x in range(m))
    return count


class TestIdentify:
    @pytest.mark.parametrize(
        "g, display",
        [
            (cyclic(1), "Z1"),
            (cyclic(6), "Z6"),
            (direct_product(cyclic(2), cyclic(3)), "Z6"),
            (direct_product(cyclic(2), cyclic(2)), "Z2 x Z2"),
            (direct_product(cyclic(2), cyclic(4)), "Z2 x Z4"),
            (dihedral(3), "D3"),
            (dihedral(6), "D6"),
            (dihedral(1), "Z2"),
            (dihedral(2), "Z2 x Z2"),
            (parse_and_eval("Z8 : Z2 [r^3]"), "Z8 : Z2 [r^3]"),
            (parse_and_eval("Z8 : Z2 [r^5]"), "Z8 : Z2 [r^5]"),
            (parse_and_eval("Z8 : Z2 [r^7]"), "D8"),
            (direct_product(cyclic(2), dihedral(4)), "Z2 x D4"),
            (direct_product(cyclic(3), dihedral(4)), "Z3 x D4"),
            (holomorph(5), "Z5 : Z4 [r^2]"),
            # a product beats the semidirect family, at odd order too
            (parse_and_eval("Z21 : Z3 [r^4]"), "Z3 x Z7 : Z3 [r^2]"),
            (parse_and_eval("Z15 : Z2 [r^4]"), "Z3 x D5"),
            (parse_and_eval("Z2 x Z3 x D3"), "Z2 x Z3 : Z6 [r^2]"),
            (aut_group(holomorph(8)).table, "D4 x D4"),
            # factors of one order are listed by display, not by pool order
            (parse_and_eval("Z8 x D4"), "D4 x Z8"),
        ],
    )
    def test_known_displays(self, g, display):
        assert identify(g).display == display

    def test_kinds_and_params(self):
        assert identify(cyclic(6)) == CatalogName("cyclic", (6,), "Z6")
        assert identify(dihedral(4)) == CatalogName("dihedral", (4,), "D4")
        assert identify(direct_product(cyclic(2), cyclic(4))) == CatalogName(
            "abelian-product", (2, 4), "Z2 x Z4")
        name = identify(parse_and_eval("Z8 : Z2 [r^3]"))
        assert name.kind == "semidirect-cyclic"
        assert name.params == (8, 2, 3)

    def test_unidentified_groups_report_order(self):
        # the alternating group on 4 letters is none of the catalog shapes
        k = direct_product(cyclic(2), cyclic(2))
        h = cyclic(3, "s")
        act = next(a for a in actions(h, k) if a != trivial_action(h, k))
        a4 = semidirect(k, h, act)
        name = identify(a4)
        assert name.kind == "unidentified"
        assert name.display == "unidentified (order 12)"

    def test_dihedral_beats_semidirect_spelling(self):
        g = parse_and_eval("Z3 : Z2 [r^2]")
        assert identify(g).display == "D3"

    def test_identification_is_isomorphism_invariant(self):
        for seed, g in enumerate([dihedral(4), parse_and_eval("Z8 : Z2 [r^3]"),
                                  direct_product(cyclic(2), dihedral(4))]):
            assert identify(_relabel(g, seed)).display == identify(g).display

    @pytest.mark.parametrize(
        "expr",
        ["Z6", "Z2 x Z2", "D4", "Z8 : Z2 [r^3]", "Z2 x D4", "Z5 : Z4 [r^2]",
         "Z4 x Z4", "Z2 x Z2 x Z3"],
    )
    def test_display_round_trips_through_the_parser(self, expr):
        g = parse_and_eval(expr)
        display = identify(g).display
        rebuilt = parse_and_eval(display)
        assert are_isomorphic(g, rebuilt) is not None
        assert identify(rebuilt).display == display

    def test_abelian_group_is_scanned_for_commutativity_once(self, monkeypatch):
        g, calls = parse_and_eval("Z4 x Z6"), []

        def counting(table):
            calls.append(table)
            return is_abelian(table)

        monkeypatch.setattr(groupkit.iso, "is_abelian", counting)
        assert identify(g).display == "Z2 x Z12"
        assert len(calls) == 1

    def test_smallest_semidirect_parameters_win(self):
        # Z5 : Z4 [r^3] is isomorphic to Z5 : Z4 [r^2]; the display uses
        # the lexicographically smallest parameter triple
        g = parse_and_eval("Z5 : Z4 [r^3]")
        assert identify(g).display == "Z5 : Z4 [r^2]"


def _reference_basics(order: int) -> list[CatalogName]:
    """The catalog's non-product names of one order."""
    basics = [CatalogName("cyclic", (order,), f"Z{order}")]
    if order % 2 == 0 and order >= 6:
        basics.append(CatalogName("dihedral", (order // 2,), f"D{order // 2}"))
    if order <= 128:
        for m in range(2, order // 2 + 1):
            n = order // m
            if order % m == 0 and n >= 2:
                basics += [CatalogName("semidirect-cyclic", (m, n, i), f"Z{m} : Z{n} [r^{i}]")
                           for i in range(2, m) if math.gcd(i, m) == 1 and pow(i, n, m) == 1]
    return basics


@cache
def _reference_products(order: int) -> tuple[tuple[tuple[int, str], ...], ...]:
    """Factor lists ((order, display), ...) of the catalog's products, in precedence order."""
    out = []
    for d in range(2, math.isqrt(order) + 1):
        if order % d == 0:
            for a in _reference_basics(d):
                out += [((d, a.display), (order // d, b.display))
                        for b in _reference_basics(order // d)]
                out += [((d, a.display), *rest) for rest in _reference_products(order // d)]
    return tuple(out)


def test_factorings_list_the_reference_multisets_once_in_order():
    for n in [*range(1, 400), 1536]:
        firsts = list(dict.fromkeys(tuple(sorted(factors)) for factors in _reference_products(n)))
        walked = [tuple(sorted((d, name.display) for d, name in factors))
                  for factors in _factorings(n)]
        assert walked == firsts, n


def _reference_identify(g: GroupTable) -> CatalogName:
    """identify without shortcuts: every candidate is built and searched, in order."""
    n = g.order
    if max(g.orders) == n:
        return CatalogName("cyclic", (n,), f"Z{n}")
    if is_abelian(g):
        invs = tuple(abelian_invariants(g))
        return CatalogName("abelian-product", invs, " x ".join(f"Z{d}" for d in invs))
    singles = _reference_basics(n)
    for name in singles:
        if name.kind == "dihedral" and are_isomorphic(g, parse_and_eval(name.display)):
            return name
    for factors in _reference_products(n):
        factors = sorted(factors)
        display = " x ".join(d for _, d in factors)
        if are_isomorphic(g, parse_and_eval(display)):
            return CatalogName("product-of-named", tuple(o for o, _ in factors), display)
    for name in singles:
        if name.kind == "semidirect-cyclic" and are_isomorphic(g, parse_and_eval(name.display)):
            return name
    return CatalogName("unidentified", (n,), f"unidentified (order {n})")


def _sweep_groups():
    """Every Z_m : Z_n built from actions with m*n <= 40, and Aut of each up to order 24."""
    groups = []
    for m in range(2, 21):
        for n in range(2, 40 // m + 1):
            k, h = cyclic(m, "r"), cyclic(n, "s")
            groups += [semidirect(k, h, a) for a in actions(h, k)]
    groups += [aut_group(g).table for g in groups if g.order <= 24]
    return groups


def test_identify_matches_the_reference_walk():
    for g in _sweep_groups():
        assert identify(g) == _reference_identify(g)


def test_basic_counts_are_closed_form(monkeypatch):
    # k runs past the name's order, as _factorings asks each factor for the k dividing the product
    named = [(order, name) for order in range(1, 401) for name in _basic_pool(order)]
    assert len(named) == 1076 and named[0][1].display == "Z1"

    def refuse(*args, **kwargs):
        raise AssertionError("_counts built a table")

    with monkeypatch.context() as patch:
        patch.setattr(groupkit.iso, "parse_and_eval", refuse)
        counts = [_counts(_presentation(name.kind, name.params), range(1, 2 * order + 1))
                  for order, name in named]
    for (order, name), got in zip(named, counts):
        spec = order_spectrum(parse_and_eval(name.display))
        assert got == tuple(sum(c for d, c in spec.items() if k % d == 0)
                            for k in range(1, 2 * order + 1)), name.display


@pytest.mark.parametrize("text", [
    "Hol 5", "Z3 x Hol 5", "Z8 : Z2 [#1]", "D4 : Z2 [r^3]", "Z2 : D4 [r^1]",
    "(Z8 : Z2 [r^3]) : Z2 [r^1]", "Z8 : Z3 [r^3]", "Z5000", "D2048 x Z2", "Z64 x Z65"])
def test_expr_counts_defer_past_their_trees(text):
    # Hol, [#j], [r^i] on operands that are not cyclic leaves, an action power_action
    # refuses, and orders past the size cap
    assert _expr_info(parse_expr(text)) is None


def test_pool_keeps_the_powers_power_action_builds():
    pooled = {name.params for order in range(1, 129) for name in _basic_pool(order)
              if name.kind == "semidirect-cyclic"}
    built = set()
    for m in range(2, 129):
        k = cyclic(m)
        for n in range(1, 128 // m + 1):
            h = cyclic(n, "s")
            for i in range(2, m):
                try:
                    power_action(h, k, i)
                except ValueError:
                    continue
                built.add((m, n, i))
    assert pooled == built


def test_presents_agrees_with_the_built_table():
    """_presents(G, name) against are_isomorphic with the name's table: every
    basic name of order <= 64 against every catalog group of that order, its
    basic names and product lists, each relabelled."""
    pairs = presented = 0
    for order in range(1, 65):
        basics = list(_basic_pool(order))
        named = [(b, parse_and_eval(b.display)) for b in basics]
        displays = [b.display for b in basics] + [
            " x ".join(name.display for _, name in factors) for factors in _factorings(order)]
        for display in displays:
            g = _relabel(parse_and_eval(display), pairs)
            for name, table in named:
                got = _presents(g, name)
                assert got == (are_isomorphic(g, table) is not None), (display, name.display)
                pairs += 1
                presented += got
    assert (pairs, presented) == (5391, 623)


@pytest.mark.parametrize("expr, display", [
    ("D192", "D192"),
    ("Hol 11", "Z11 : Z10 [r^2]"),
    ("Z16 : Z8 [r^9]", "Z16 : Z8 [r^9]"),
    ("Z7 : Z6 [r^3]", "Z7 : Z6 [r^3]"),
    ("Z9 : Z6 [r^2]", "Z9 : Z6 [r^2]"),
    ("Hol 27", "unidentified (order 486)"),
])
def test_single_names_build_no_table(monkeypatch, expr, display):
    # Z16 : Z8 [r^9] has the counts N_k of Z8 x Z16, an abelian list identify skips
    # Z9 : Z6 [r^2] and Hol 27 share their counts with Z3 x D9 and Z9 x D27, whose centres differ
    g = parse_and_eval(expr)

    def refuse(*args, **kwargs):
        raise AssertionError("identify built a table")

    monkeypatch.setattr(groupkit.iso, "parse_and_eval", refuse)
    assert identify(g).display == display
