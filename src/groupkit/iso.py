"""Isomorphism testing, abelian invariants, and a small-group catalog."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GroupTable,
    Morphism,
    is_abelian,
    center,
    order_spectrum,
    quotient,
    subgroup_generated,
)
from ._search import search_morphisms
from .construct import cyclic, dihedral, direct_product, power_action, semidirect
from .numth import multiplicative_order, totatives

SEMIDIRECT_POOL_LIMIT = 128


def _derived_size(g: GroupTable) -> int:
    mul, inv = g.mul, g.inv
    comms = {mul[mul[inv[a]][inv[b]]][mul[a][b]]
             for a in range(g.order) for b in range(a + 1, g.order)}
    return len(subgroup_generated(g, comms).members)


def are_isomorphic(g1: GroupTable, g2: GroupTable) -> Morphism | None:
    """A verified isomorphism G1 -> G2, or None.

    Cheap invariants run first (order, abelianness, order spectrum, center
    size, derived subgroup size); only then does the generator-image
    backtracking search start.
    """
    if g1.order != g2.order:
        return None
    if is_abelian(g1) != is_abelian(g2):
        return None
    if order_spectrum(g1) != order_spectrum(g2):
        return None
    if len(center(g1)) != len(center(g2)):
        return None
    if _derived_size(g1) != _derived_size(g2):
        return None
    found = search_morphisms(g1, g2, injective=True, exact_order=True, first_only=True)
    if not found:
        return None
    witness = Morphism(g1, g2, found[0])
    if not witness.is_isomorphism():
        raise RuntimeError("internal error: search returned a non-isomorphism")
    return witness


def abelian_invariants(g: GroupTable) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_k of an abelian group.

    Splits off a maximal-order cyclic factor repeatedly, then verifies the
    answer by reconstructing the product of cyclics and checking it really
    is isomorphic to G.
    """
    if not is_abelian(g):
        raise ValueError("abelian invariants require an abelian group")
    invs: list[int] = []
    cur = g
    while cur.order > 1:
        orders = cur.orders
        top = max(orders)
        invs.append(top)
        gen = orders.index(top)
        cur = quotient(cur, subgroup_generated(cur, [gen]))
    invs.reverse()
    for a, b in zip(invs, invs[1:]):
        if b % a:
            raise RuntimeError(f"internal error: invariant chain {invs} is not a divisor chain")
    if invs:
        rebuilt = cyclic(invs[0])
        for d in invs[1:]:
            rebuilt = direct_product(rebuilt, cyclic(d))
        if are_isomorphic(g, rebuilt) is None:
            raise RuntimeError(f"internal error: reconstruction from {invs} failed")
    return invs


@dataclass(frozen=True)
class CatalogName:
    """A recognized small-group name: kind, integer parameters, display."""

    kind: str  # cyclic | abelian-product | dihedral | product-of-named |
    #            semidirect-cyclic | unidentified
    params: tuple[int, ...]
    display: str


def _semidirect_cyclic_params(order: int):
    """(m, n, i) triples with m*n = order, ascending, nontrivial action."""
    for m in range(2, order // 2 + 1):
        if order % m:
            continue
        n = order // m
        if n < 2:
            continue
        for i in totatives(m):
            if i == 1:
                continue
            # the action sends the K generator to its i-th power; its order
            # (multiplicative order of i mod m) must divide |H| = n
            if n % multiplicative_order(i, m) == 0:
                yield m, n, i


def _build_semidirect_cyclic(m: int, n: int, i: int) -> GroupTable:
    k, h = cyclic(m, "r"), cyclic(n, "s")
    return semidirect(k, h, power_action(h, k, i))


def _basic_pool(order: int):
    """Non-product catalog candidates of a given order, cheapest first."""
    yield CatalogName("cyclic", (order,), f"Z{order}"), lambda: cyclic(order)
    if order % 2 == 0 and order // 2 >= 3:
        half = order // 2
        yield CatalogName("dihedral", (half,), f"D{half}"), lambda: dihedral(half)
    if order <= SEMIDIRECT_POOL_LIMIT:
        for m, n, i in _semidirect_cyclic_params(order):
            yield (CatalogName("semidirect-cyclic", (m, n, i), f"Z{m} : Z{n} [r^{i}]"),
                   lambda m=m, n=n, i=i: _build_semidirect_cyclic(m, n, i))


def _full_pool(order: int):
    """Basic candidates plus two-factor products, recursively."""
    yield from _basic_pool(order)
    d1 = 2
    while d1 * d1 <= order:
        if order % d1 == 0:
            for name_a, build_a in _basic_pool(d1):
                for name_b, build_b in _full_pool(order // d1):
                    factors = _factors_of(name_a) + _factors_of(name_b)
                    factors.sort(key=lambda f: (f[0], f[1]))
                    display = " x ".join(f[1] for f in factors)
                    params = tuple(f[0] for f in factors)
                    yield (CatalogName("product-of-named", params, display),
                           lambda a=build_a, b=build_b: direct_product(a(), b()))
        d1 += 1


def _factors_of(name: CatalogName) -> list[tuple[int, str]]:
    if name.kind == "product-of-named":
        return list(zip(name.params, name.display.split(" x ")))
    order = name.params[0] if name.kind != "semidirect-cyclic" else name.params[0] * name.params[1]
    if name.kind == "dihedral":
        order = 2 * name.params[0]
    return [(order, name.display)]


def identify(g: GroupTable) -> CatalogName:
    """Name a group against the catalog.

    Precedence: cyclic, abelian product of cyclics, dihedral, direct product
    of named groups, cyclic-by-cyclic semidirect product (order <= 128,
    smallest (m, n, i) wins), otherwise unidentified. Matching is by
    are_isomorphic, so the answer only depends on the isomorphism type.
    """
    n = g.order
    if max(g.orders) == n:
        return CatalogName("cyclic", (n,), f"Z{n}")
    if is_abelian(g):
        invs = tuple(abelian_invariants(g))
        return CatalogName("abelian-product", invs, " x ".join(f"Z{d}" for d in invs))
    if n % 2 == 0 and n // 2 >= 3 and are_isomorphic(g, dihedral(n // 2)):
        return CatalogName("dihedral", (n // 2,), f"D{n // 2}")
    spec = order_spectrum(g)
    for name, build in _full_pool(n):
        if name.kind != "product-of-named":
            continue
        candidate = build()
        if order_spectrum(candidate) == spec and are_isomorphic(g, candidate):
            return name
    if n <= SEMIDIRECT_POOL_LIMIT:
        for m, nn, i in _semidirect_cyclic_params(n):
            candidate = _build_semidirect_cyclic(m, nn, i)
            if order_spectrum(candidate) != spec:
                continue
            if are_isomorphic(g, candidate):
                return CatalogName("semidirect-cyclic", (m, nn, i), f"Z{m} : Z{nn} [r^{i}]")
    return CatalogName("unidentified", (n,), f"unidentified (order {n})")
