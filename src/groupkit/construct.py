"""Group constructors: cyclic, dihedral, direct and semidirect products.

Product groups use the pair encoding (k, h) -> k*|H| + h, so the K-copy
sits at indices {k*|H|} and the H-copy at {0..|H|-1}. A semidirect product
with the trivial action produces a table identical to the direct product,
not merely isomorphic to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import aut as _aut
from .core import (
    DEFAULT_SIZE_CAP,
    GroupTable,
    Morphism,
    SizeCapError,
    SubgroupRef,
    _compose_rows,
    _coset_closure,
    _trusted,
    identity_morphism,
    is_normal,
    make_table,  # unused here; bench/test_bench.py checks that its tracer rewraps this binding
    subgroup_table,
)
from ._search import search_morphisms
from .numth import euler_phi, multiplicative_order


@dataclass(frozen=True)
class Action:
    """A group H acting on K by automorphisms: maps[h] is what h does to K.

    The constructor checks the maps a caller supplies: each must be an
    automorphism of K, the identity of H must act trivially, and maps[a*b]
    must equal maps[a] after maps[b]. That last check runs only for a in
    h_group.generators, O(d*|H|*|K|), which suffices when H is a
    group: the set of a with maps[a*b] = maps[a] o maps[b] for all b contains
    the identity (maps[e] = id is checked first) and the generators, and it is
    closed under products: for a, a' in it, maps[(a*a')*b] = maps[a*(a'*b)] =
    maps[a] o maps[a'*b] = maps[a] o maps[a'] o maps[b] = maps[a*a'] o
    maps[b], by associativity in H and of composition. Every element of a
    finite group is a product of its generators (inverses are positive
    powers), so that set is all of H. The actions this module builds as
    actions by construction (trivial_action, power_action, actions,
    holomorph, recognize_split) skip the check (core._trusted).
    """

    h_group: GroupTable
    k_group: GroupTable
    maps: tuple[Morphism, ...]

    def __post_init__(self):
        h, k = self.h_group, self.k_group
        if len(self.maps) != h.order:
            raise ValueError("need exactly one automorphism per element of H")
        for i, m in enumerate(self.maps):
            if m.source != k or m.target != k:
                raise ValueError(f"maps[{i}] is not a self-map of K")
            if not m.is_isomorphism():
                raise ValueError(f"maps[{i}] is not an automorphism of K")
        images = [list(m.image) for m in self.maps]
        if images[h.identity] != list(range(k.order)):
            raise ValueError("identity of H must act trivially")
        for a in h.generators:
            ia = images[a]
            for b, ab in enumerate(h.mul[a]):
                if [ia[x] for x in images[b]] != images[ab]:
                    raise ValueError(
                        f"action is not a homomorphism: maps[{a}*{b}] != maps[{a}] o maps[{b}]")


@dataclass(frozen=True)
class SplitWitness:
    """Evidence that G splits as normal_part x| complement.

    `iso` maps the reconstructed semidirect product (pair encoding) onto G.
    """

    normal_part: SubgroupRef
    complement: SubgroupRef
    action: Action
    iso: Morphism


def trivial_action(h_group: GroupTable, k_group: GroupTable) -> Action:
    """Each h acting as the identity map, an automorphism with id o id = id."""
    return _trusted(Action, h_group, k_group, (identity_morphism(k_group),) * h_group.order)


def _check_power(m: int, n: int, i: int) -> None:
    """ValueError unless 1 in Z_n sending r to r^i extends to an action of
    Z_n on Z_m, with no table: a homomorphism Z_n -> Aut(Z_m) sending 1 to
    x -> i*x exists exactly when gcd(i, m) = 1 and i^n = 1 mod m, as 1^n = 0
    acts trivially."""
    if gcd(i, m) != 1:
        raise ValueError(f"r^{i} is not an automorphism of Z{m}: gcd({i}, {m}) != 1")
    if pow(i, n, m) != 1 % m:  # 1 % m is 0 when m == 1
        raise ValueError(f"r^{i} generates an automorphism of order {multiplicative_order(i, m)}"
                         f" in Aut(Z{m}), which does not divide {n}, so Z{n} cannot act that way")


def power_action(h_group: GroupTable, k_group: GroupTable, i: int) -> Action:
    """Z_n acting on Z_m, both labelled as cyclic() builds them, with 1 in
    Z_n sending r to r^i; ValueError when no such action exists, in O(m + n).

    A group with identity 0 and row 1 equal to 1, 2, ..., n-1, 0 has 1^x = x
    for x < n, by induction, so x*y = 1^(x+y) = x + y mod n. Whether the
    action exists is the one rule _check_power decides from (m, n, i), which
    iso._expr_leaves applies with no table; the action sends t to maps[t],
    x -> i^t * x. So the action skips Action's check (_trusted).
    """
    m, n = k_group.order, h_group.order
    if any(t.identity or t.order > 1 and tuple(t.mul[1]) != (*range(1, t.order), 0)
           for t in (h_group, k_group)):
        raise ValueError("power_action needs H and K labelled as cyclic() builds them")
    _check_power(m, n, i)
    return _trusted(Action, h_group, k_group, tuple(
        Morphism(k_group, k_group, tuple(pow(i, t, m) * x % m for x in range(m)))
        for t in range(n)))


def _check_size(order: int, size_cap: int) -> None:
    """SizeCapError when a table of `order` elements would pass size_cap."""
    if order > size_cap:
        raise SizeCapError(f"order {order} exceeds size cap {size_cap}")


def _check_hol_size(n: int, size_cap: int) -> int:
    """n*phi(n), the order of Hol n = Z_n x| Aut(Z_n); SizeCapError when it
    would pass size_cap. An n above the cap is refused before phi(n) factors
    n: n*phi(n) >= n, so that order is oversize whatever phi(n) is."""
    if n > size_cap:
        raise SizeCapError(f"order at least {n} exceeds size cap {size_cap}")
    _check_size(order := n * euler_phi(n), size_cap)
    return order


def cyclic(n: int, gen: str = "r", size_cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    """Z_n with elements 0..n-1 named e, gen, gen^2, ...; it records (1,) as
    its generators, () for n = 1, as the powers of 1 are every element."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    _check_size(n, size_cap)
    cells = tuple(range(n)) * 2
    mul = tuple(cells[a:a + n] for a in range(n))
    names = ["e", gen][:n] + [f"{gen}^{i}" for i in range(2, n)]
    table = GroupTable(n, mul, 0, tuple(names))
    table.__dict__["generators"] = (1,) if n > 1 else ()
    return table


def _pair_names(k: GroupTable, h: GroupTable) -> tuple[str, ...]:
    names = []
    for kk in range(k.order):
        for hh in range(h.order):
            if hh == h.identity:
                names.append(k.elem_names[kk])
            elif kk == k.identity:
                names.append(h.elem_names[hh])
            else:
                names.append(f"{k.elem_names[kk]}·{h.elem_names[hh]}")
    return tuple(names)


def semidirect(k: GroupTable, h: GroupTable, action: Action,
               size_cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    """K x| H with (k1,h1)(k2,h2) = (k1 * h1(k2), h1*h2), pair encoded.

    K and H are groups and Action holds a homomorphism H -> Aut(K), so the
    product is a group, built without make_table's check. Only the rows of
    (x, e_H) and (e_K, y), for x in k.generators and y in h.generators, are
    computed from the definition, every entry in range(order), and
    _compose_rows builds the other rows from them. They generate the
    product, which the table records as its generators: (k, h) =
    (k, e_H)(e_K, h), and k -> (k, e_H) and h -> (e_K, h) respect products,
    as (k1, e_H)(k2, e_H) = (k1*k2, e_H) and (e_K, h1)(e_K, h2) =
    (e_K*h1(e_K), h1*h2) = (e_K, h1*h2), so each (k, e_H) is a product of
    the (x, e_H) and each (e_K, h) of the (e_K, y). Any generating sets of K
    and H give the same table. The identity is (e_K, e_H).
    """
    if action.k_group != k or action.h_group != h:
        raise ValueError("action does not match the given K and H")
    order = k.order * h.order
    _check_size(order, size_cap)
    no_h = h.order
    # the rows of (x, e_H) and (e_K, y): (x, e_H)(k2, h2) = (x*k2, h2) and
    # (e_K, y)(k2, h2) = (y(k2), y*h2), with (k2, h2) at k2*|H| + h2
    gen_rows = [[xk * no_h + h2 for xk in k.mul[x] for h2 in range(no_h)]
                for x in k.generators]
    gen_rows += [[yk * no_h + yh for yk in action.maps[y].image for yh in h.mul[y]]
                 for y in h.generators]
    identity = k.identity * no_h + h.identity
    table = GroupTable(order, _compose_rows(order, identity, gen_rows),
                       identity, _pair_names(k, h))
    table.__dict__["generators"] = (*(x * no_h + h.identity for x in k.generators),
                                    *(k.identity * no_h + y for y in h.generators))
    return table


def direct_product(k: GroupTable, h: GroupTable,
                   size_cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    return semidirect(k, h, trivial_action(h, k), size_cap=size_cap)


def dihedral(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> GroupTable:
    """D_n of order 2n: rotations r and a reflection s with s r s = r^-1."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    k = cyclic(n, "r", size_cap=size_cap)
    h = cyclic(2, "s", size_cap=size_cap)
    return semidirect(k, h, power_action(h, k, -1), size_cap=size_cap)


def kh_copies(k_order: int, h_order: int, product: GroupTable) -> tuple[SubgroupRef, SubgroupRef]:
    """The K-copy and H-copy of a pair-encoded product as subgroup refs."""
    if product.order != k_order * h_order:
        raise ValueError("product order does not match k_order * h_order")
    return (SubgroupRef(product, tuple(range(0, product.order, h_order))),
            SubgroupRef(product, tuple(range(h_order))))


def hom_set(h: GroupTable, k: GroupTable, cap: int | None = 100_000) -> list[Morphism]:
    """Every homomorphism H -> K, sorted lexicographically by image array."""
    return [Morphism(h, k, img)
            for img in search_morphisms(h, k, bijective=False, cap=cap)]


def _actions_by_hom(h: GroupTable, k: GroupTable, aut_cap: int):
    """Each homomorphism H -> Aut(K), in hom_set order, as (image, Action)."""
    ag = _aut.aut_group(k, cap=aut_cap)
    for hom in hom_set(h, ag.table):
        # a homomorphism into Aut(K)'s composition table: maps[a*b] = maps[a] o maps[b]
        yield hom.image, _trusted(Action, h, k, tuple(ag.elements[i] for i in hom.image))


def actions(h: GroupTable, k: GroupTable, aut_cap: int = _aut.DEFAULT_AUT_CAP) -> list[Action]:
    """All actions of H on K, one per homomorphism H -> Aut(K).

    Deterministic order: lexicographic on the underlying arrays of
    Aut(K)-element indices.
    """
    return [a for _, a in _actions_by_hom(h, k, aut_cap)]


def action_classes(h: GroupTable, k: GroupTable,
                   aut_cap: int = _aut.DEFAULT_AUT_CAP) -> list[list[Action]]:
    """Partition actions(H, K) by precomposition with Aut(H).

    Two actions land in one class when one is the other composed with an
    automorphism of H. Classes are ordered by their smallest member and each
    class is sorted, so the output is deterministic. aut_cap bounds both
    Aut(K) and Aut(H).
    """
    h_autos = [d.image for d in _aut.automorphisms(h, cap=aut_cap)]
    classes = []
    remaining = dict(_actions_by_hom(h, k, aut_cap))
    while remaining:
        seed = next(iter(remaining))
        orbit = {tuple(seed[d[x]] for x in range(h.order)) for d in h_autos}
        classes.append([remaining.pop(key) for key in sorted(orbit) if key in remaining])
    return classes


def holomorph(n: int, size_cap: int = DEFAULT_SIZE_CAP,
              aut_cap: int = _aut.DEFAULT_AUT_CAP) -> GroupTable:
    """Z_n x| Aut(Z_n) under the identity action, order n * phi(n), which
    is checked against size_cap before Z_n or Aut(Z_n) is built
    (_check_hol_size)."""
    _check_hol_size(n, size_cap)
    k = cyclic(n, size_cap=size_cap)
    ag = _aut.aut_group(k, cap=aut_cap)
    # elements[i] o elements[j] = elements[table[i][j]], as aut_group builds the table
    return semidirect(k, ag.table, _trusted(Action, ag.table, k, ag.elements), size_cap=size_cap)


def recognize_split(g: GroupTable, k: SubgroupRef) -> SplitWitness | None:
    """Find a complement H for a normal subgroup K, or None.

    Searches subgroups meeting K trivially by adding generators in ascending
    index order, pruning branches whose partial subgroup cannot sit inside a
    complement. On success returns the conjugation action of H on K and the
    isomorphism (k, h) -> k*h from the reconstructed semidirect product onto
    G: it respects (k1, h1)(k2, h2) = (k1*h1*k2*h1^-1, h1*h2), is one-to-one
    as K meets H in e, and so is onto, as |K|*|H| = |G|.

    G is a group (see GroupTable) and K is normal, so x -> h*x*h^-1 maps K
    onto K as an automorphism, and the map for h*h' is the map for h' followed
    by the map for h. The maps, read in the subgroup tables of K and H, are
    therefore an action by construction (core._trusted). H, a _coset_closure
    of a subgroup and one element, skips SubgroupRef's check too. K is a
    subgroup, so |K| divides |G| (Lagrange) and q = |G|/|K| is exact.
    """
    if k.parent != g:
        raise ValueError("subgroup belongs to a different parent group")
    if not is_normal(g, k):
        raise ValueError("recognize_split requires a normal subgroup")
    n = g.order
    kset = set(k.members)
    q = n // len(k.members)

    def extend(members: set[int], gens: list[int], start: int) -> set[int] | None:
        if len(members) == q:
            return members
        for x in range(start, n):
            if x in members or x in kset:
                continue
            grown = _coset_closure(g.mul, members, gens, x)
            if q % len(grown) or len(kset.intersection(grown)) > 1:
                continue
            found = extend(grown, [*gens, x], x + 1)
            if found is not None:
                return found
        return None

    comp = extend({g.identity}, [], 0)
    del extend  # extend holds itself through its closure cell; free it without the cyclic GC
    if comp is None:
        return None
    h_ref = _trusted(SubgroupRef, g, tuple(sorted(comp)))
    k_table, k_embed = subgroup_table(k)
    h_table, h_embed = subgroup_table(h_ref)
    k_back = {x: i for i, x in enumerate(k_embed)}
    mul, inv = g.mul, g.inv
    action = _trusted(Action, h_table, k_table, tuple(
        Morphism(k_table, k_table, tuple(k_back[mul[mul[hh][x]][inv[hh]]] for x in k_embed))
        for hh in h_embed))
    product = semidirect(k_table, h_table, action, size_cap=max(n, DEFAULT_SIZE_CAP))
    iso_img = tuple(mul[k_embed[p // h_table.order]][h_embed[p % h_table.order]]
                    for p in range(product.order))
    return SplitWitness(k, h_ref, action, Morphism(product, g, iso_img))
