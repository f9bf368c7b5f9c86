"""Automorphism groups via pruned backtracking, plus lift constructions."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GroupTable,
    Morphism,
    SizeCapError,
    SubgroupRef,
    is_abelian,
    make_table,
)
from ._search import generating_sequence, search_morphisms

DEFAULT_AUT_CAP = 10_000


def _elementary_abelian_projection(g: GroupTable) -> int | None:
    """Projected |Aut| when G is elementary abelian (Z_p^m), else None."""
    if g.order == 1 or not is_abelian(g):
        return None
    orders = {d for x, d in enumerate(g.orders) if x != g.identity}
    if len(orders) != 1:
        return None
    p = orders.pop()
    size, m = g.order, 0
    while size % p == 0 and size > 1:
        size //= p
        m += 1
    if size != 1:
        return None
    total = 1
    for x in range(m):
        total *= p**m - p**x
    return total


def automorphisms(g: GroupTable, cap: int = DEFAULT_AUT_CAP) -> list[Morphism]:
    """All automorphisms of G, sorted lexicographically by image array.

    Backtracks over order-preserving generator images with forced-assignment
    pruning. Refuses up front when the projected count for an elementary
    abelian input already exceeds the cap, since those blow up fastest
    (the count is prod over x < m of p^m - p^x).
    """
    projected = _elementary_abelian_projection(g)
    if projected is not None and projected > cap:
        raise SizeCapError(
            f"elementary abelian group of order {g.order} has {projected} "
            f"automorphisms, beyond the cap of {cap}; raise the cap to enumerate")
    return [Morphism(g, g, img)
            for img in search_morphisms(g, g, injective=True, exact_order=True, cap=cap)]


@dataclass(frozen=True)
class AutGroup:
    """Aut(base) with composition realized as its own Cayley table.

    elements[i] is the automorphism at table index i; multiplication is
    composition, table[i][j] = index of elements[i] after elements[j].
    """

    base: GroupTable
    elements: tuple[Morphism, ...]
    table: GroupTable


def _aut_names(g: GroupTable, autos: list[Morphism]) -> list[str]:
    gens = generating_sequence(g)
    names = []
    ident = tuple(range(g.order))
    for a in autos:
        if a.image == ident:
            names.append("id")
        else:
            names.append("(" + ", ".join(
                f"{g.elem_names[x]}↦{g.elem_names[a.image[x]]}" for x in gens) + ")")
    return names


def aut_group(g: GroupTable, cap: int = DEFAULT_AUT_CAP) -> AutGroup:
    """Aut(G) as a group table; identity map lands at index 0."""
    autos = automorphisms(g, cap=cap)
    index_of = {a.image: i for i, a in enumerate(autos)}
    k = len(autos)
    mul = []
    for a in autos:
        ia = a.image
        mul.append(tuple(index_of[tuple(ia[x] for x in b.image)] for b in autos))
    table = make_table(mul, _aut_names(g, autos), identity=index_of[tuple(range(g.order))])
    return AutGroup(g, tuple(autos), table)


def is_characteristic(g: GroupTable, c: SubgroupRef, cap: int = DEFAULT_AUT_CAP) -> bool:
    """True when every automorphism of G maps the subgroup C onto itself."""
    if c.parent != g:
        raise ValueError("subgroup belongs to a different parent group")
    members = set(c.members)
    for a in automorphisms(g, cap=cap):
        img = a.image
        if {img[x] for x in members} != members:
            return False
    return True


def _factor_order(auto: Morphism, product: GroupTable, factor: str) -> int:
    """auto.source.order; auto must be an automorphism and that order divide |product|."""
    if auto.target != auto.source or not auto.is_isomorphism():
        raise ValueError(f"the map to lift must be an automorphism of {factor}")
    if product.order % auto.source.order:
        raise ValueError(f"|{factor}| = {auto.source.order} does not divide "
                         f"the product order {product.order}")
    return auto.source.order


def zeta_lift(omega: Morphism, product: GroupTable) -> tuple[Morphism, bool]:
    """Lift an automorphism of K to (k,h) -> (omega(k), h) on the product.

    `product` must be pair encoded as semidirect builds it, (k, h) at index
    k*|H| + h, with omega's source as K and |H| = product.order // |K|.
    Returns the candidate and whether it is an automorphism of `product`;
    on K x| H under psi that holds exactly when omega commutes with every
    psi(h).
    """
    nh = product.order // _factor_order(omega, product, "K")
    oi = omega.image
    candidate = Morphism(product, product,
                         tuple(oi[p // nh] * nh + p % nh for p in range(product.order)))
    return candidate, candidate.is_homomorphism()


def lambda_lift(delta: Morphism, product: GroupTable) -> tuple[Morphism, bool]:
    """Lift an automorphism of H to (k,h) -> (k, delta(h)) on the product.

    `product` must be pair encoded as semidirect builds it, (k, h) at index
    k*|H| + h, with delta's source as H. Returns the candidate and whether it
    is an automorphism of `product`; on K x| H under psi that holds exactly
    when psi composed with delta equals psi.
    """
    nh = _factor_order(delta, product, "H")
    di = delta.image
    candidate = Morphism(product, product,
                         tuple((p // nh) * nh + di[p % nh] for p in range(product.order)))
    return candidate, candidate.is_homomorphism()
