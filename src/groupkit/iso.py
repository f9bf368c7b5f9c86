"""Isomorphism testing, abelian invariants, and a small-group catalog."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, product
from math import gcd, isqrt, lcm, log, prod

from .core import (
    GroupTable,
    Morphism,
    _coset_closure,
    is_abelian,
    center,
    order_spectrum,
)
from ._search import search_morphisms
from .expr import parse_and_eval
from .numth import factorize, multiplicative_order, totatives

SEMIDIRECT_POOL_LIMIT = 128


def _derived_size(g: GroupTable) -> int:
    """|G'|, grown as the normal closure N of the commutators a^-1*b^-1*a*b of
    pairs of generators, in about |G'| * log|G'| + d^2 products.

    Each generator t that _coset_closure adds to N queues its conjugates
    x^-1*t*x by the generators x of G, so at the end x^-1*N*x lies in N for
    each x, and N is normal (see is_normal). N lies in G', a normal subgroup
    holding every commutator. G/N is generated by the images of G's
    generators, which commute, so it is abelian and G' lies in N.
    """
    mul, inv, gens = g.mul, g.inv, g.gens_and_plans[0]
    pending = [mul[mul[inv[a]][inv[b]]][mul[a][b]] for a, b in combinations(gens, 2)]
    closure, used = {g.identity}, []
    for t in pending:  # list iterators see conjugates appended while they run
        if t not in closure:
            closure = _coset_closure(mul, closure, used, t)
            used.append(t)
            pending.extend(mul[mul[inv[x]][t]][x] for x in gens)
    return len(closure)


def are_isomorphic(g1: GroupTable, g2: GroupTable) -> Morphism | None:
    """A verified isomorphism G1 -> G2, or None.

    Cheap invariants run first: order, abelianness, order spectrum, center
    size and derived subgroup size, each read from the cached orders or
    generators in O(d*n) products (up to log factors), never from all n^2
    products. Only then does the generator-image backtracking search start.
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
    found = search_morphisms(g1, g2, bijective=True, first_only=True)
    if not found:
        return None
    witness = Morphism(g1, g2, found[0])
    if not witness.is_isomorphism():
        raise RuntimeError("internal error: search returned a non-isomorphism")
    return witness


def abelian_invariants(g: GroupTable) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_k of an abelian group."""
    if not is_abelian(g):
        raise ValueError("abelian invariants require an abelian group")
    return _invariant_factors(g)


def _abelian_p_exponents(g: GroupTable) -> dict[int, list[int]]:
    """For abelian G, each prime p of |G| with the ascending e_i of its p-part.

    G is the product of its p-parts, and every x with x^(p^j) = e lies in the
    p-part Z_{p^e_1} x ... x Z_{p^e_k}, whose i-th coordinate holds
    p^min(e_i, j) such elements. So p^(sum_i min(e_i, j)) elements of G have
    order dividing p^j. That exponent rises from j - 1 to j by r_j, the number
    of e_i >= j, and r_j - r_{j+1} of the e_i equal j. G must be abelian.
    """
    exponents = {}
    for p, m in factorize(g.order):
        sums = [round(log(sum(1 for d in g.orders if p**j % d == 0), p)) for j in range(m + 1)]
        r = [b - a for a, b in zip(sums, sums[1:])] + [0]  # r[j - 1] = r_j
        exponents[p] = [j for j in range(1, m + 1) for _ in range(r[j - 1] - r[j])]
    return exponents


def _invariant_factors(g: GroupTable) -> list[int]:
    """abelian_invariants of G, which the caller has checked to be abelian.

    Read from the element orders: G is the product of its p-parts, each
    Z_{p^e_1} x ... x Z_{p^e_j} with e ascending (_abelian_p_exponents).
    Align every prime's exponents from the largest, padding with zeros, and
    set d_t = prod_p p^(e_p,t). Each prime's exponents ascend, so
    d_t | d_{t+1}; Z_{d_t} = prod_p Z_{p^(e_p,t)} by the Chinese remainder
    theorem, so Z_{d_1} x ... x Z_{d_k} is G.
    """
    exponents = _abelian_p_exponents(g)
    k = max(map(len, exponents.values()), default=0)
    return [prod(p ** es[t] for p, es in exponents.items() if -t <= len(es))
            for t in range(-k, 0)]


@dataclass(frozen=True)
class CatalogName:
    """A recognized small-group name: kind, integer parameters, display."""

    kind: str  # cyclic | abelian-product | dihedral | product-of-named |
    #            semidirect-cyclic | unidentified
    params: tuple[int, ...]
    display: str


def _basic_pool(order: int):
    """Catalog names of one order that are not products, cheapest first."""
    yield CatalogName("cyclic", (order,), f"Z{order}")
    if order % 2 == 0 and order // 2 >= 3:
        yield CatalogName("dihedral", (order // 2,), f"D{order // 2}")
    if order <= SEMIDIRECT_POOL_LIMIT:
        for m in range(2, order // 2 + 1):
            if order % m:
                continue
            n = order // m
            # r -> r^i needs i coprime to m, i != 1, and its order mod m dividing |H| = n
            for i in totatives(m)[1:]:
                if n % multiplicative_order(i, m) == 0:
                    yield CatalogName("semidirect-cyclic", (m, n, i), f"Z{m} : Z{n} [r^{i}]")


def _spectrum(name: CatalogName) -> dict[int, int]:
    """The order spectrum of a name from _basic_pool, in closed form.

    Each basic name is Z_m x| Z_n with s acting by r -> r^i: cyclic is
    n = 1, dihedral D_k is m = k, n = 2, i = -1. An element (a, t) = r^a s^t
    has powers (a, t)^j = (a * (1 + u + ... + u^(j-1)), j*t) with u = i^t
    mod m. Its H-part is trivial exactly when q = n / gcd(n, t) divides j, and
    (a, t)^q = (a*S, 0) with S = 1 + u + ... + u^(q-1), whose order in Z_m is
    m / gcd(m, a*S). So (a, t) has order q * m / gcd(m, a*S).
    """
    m, n, i = name.params if name.kind == "semidirect-cyclic" else (
        name.params[0], 1 if name.kind == "cyclic" else 2, -1)
    spec: dict[int, int] = {}
    for t in range(n):
        q = n // gcd(n, t)
        s = sum(pow(i, t * j, m) for j in range(q))
        for a in range(m):
            d = q * m // gcd(m, a * s)
            spec[d] = spec.get(d, 0) + 1
    return spec


def _products(order: int):
    """Lists [(order, basic name), ...] of two or more factors: for each divisor d,
    d*d <= order, ascending, each basic a of order d times each basic, then each
    product, of order // d."""
    for d in range(2, isqrt(order) + 1):
        if order % d == 0:
            for a in _basic_pool(d):
                yield from ([(d, a), (order // d, b)] for b in _basic_pool(order // d))
                yield from ([(d, a), *rest] for rest in _products(order // d))


def identify(g: GroupTable) -> CatalogName:
    """Name a group against the catalog.

    Precedence: cyclic, abelian product of cyclics, dihedral, direct product
    of named groups, cyclic-by-cyclic semidirect product (order <= 128,
    smallest (m, n, i) wins), otherwise unidentified. Matching is by
    are_isomorphic, so the answer only depends on the isomorphism type.

    An abelian group is named from its element orders (abelian_invariants),
    with one commutativity scan and no search. For the rest, one loop walks
    the candidates in that order. Each multiset of factors is tried once; its
    spectrum is folded from the closed-form spectra of its factors
    (_spectrum), as o((a, b)) = lcm(o(a), o(b)). Only when that spectrum is
    G's is a table built, by parse_and_eval of the display the candidate
    would return, and searched; so the name is the text of the group that
    matched. Neither skip changes the answer.
    """
    n = g.order
    if max(g.orders) == n:
        return CatalogName("cyclic", (n,), f"Z{n}")
    if is_abelian(g):
        invs = tuple(_invariant_factors(g))
        return CatalogName("abelian-product", invs, " x ".join(f"Z{d}" for d in invs))
    basics = list(_basic_pool(n))
    candidates = chain(([(n, b)] for b in basics if b.kind == "dihedral"), _products(n),
                       ([(n, b)] for b in basics if b.kind == "semidirect-cyclic"))
    spec, tried = order_spectrum(g), set()
    spectrum = cache(_spectrum)
    for factors in candidates:
        factors.sort(key=lambda f: (f[0], f[1].display))
        names = tuple(name for _, name in factors)
        if names in tried:
            continue
        tried.add(names)
        joint = {1: 1}
        for name in names:
            step: dict[int, int] = {}
            for (a, x), (b, y) in product(joint.items(), spectrum(name).items()):
                c = lcm(a, b)
                step[c] = step.get(c, 0) + x * y
            joint = step
        display = " x ".join(name.display for name in names)
        if joint == spec and are_isomorphic(g, parse_and_eval(display)):
            return names[0] if len(names) == 1 else CatalogName(
                "product-of-named", tuple(d for d, _ in factors), display)
    return CatalogName("unidentified", (n,), f"unidentified (order {n})")
