"""Isomorphism testing, abelian invariants, and a small-group catalog."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice
from math import gcd, isqrt, log, prod
from operator import mul

from .core import GroupTable, Morphism, is_abelian, order_spectrum
from ._search import search_morphisms
from .expr import parse_and_eval
from .numth import factorize, totatives

SEMIDIRECT_POOL_LIMIT = 128


def are_isomorphic(g1: GroupTable, g2: GroupTable) -> Morphism | None:
    """An isomorphism G1 -> G2, or None.

    Cheap invariants, cached on each table and O(d*n) products each, run
    first: the order, the multisets of GroupTable._root_key (square-root
    counts by element order, which hold the order spectrum) and then of
    GroupTable._class_key, which adds class sizes and so |Z(G)|. Only then
    does the search start and decide the rest; its map respects products and
    keeps orders, so it is one-to-one (search_morphisms) and onto.
    """
    if g1.order != g2.order or Counter(g1._root_key) != Counter(g2._root_key):
        return None
    if Counter(g1._class_key) != Counter(g2._class_key):
        return None
    found = search_morphisms(g1, g2, bijective=True, first_only=True)
    return Morphism(g1, g2, found[0]) if found else None


def abelian_invariants(g: GroupTable) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_k of an abelian group, read from
    its element orders.

    G is the product of its p-parts, each Z_{p^e_1} x ... x Z_{p^e_k} with
    e ascending, and every x with x^(p^j) = e lies in the p-part, whose i-th
    coordinate holds p^min(e_i, j) such elements. So p^(sum_i min(e_i, j))
    elements of G have order dividing p^j. That exponent rises from j - 1 to
    j by r_j, the number of e_i >= j, and r_j - r_{j+1} of the e_i equal j.

    Align every prime's exponents from the largest, padding with zeros, and
    set d_t = prod_p p^(e_p,t). Each prime's exponents ascend, so
    d_t | d_{t+1}; Z_{d_t} = prod_p Z_{p^(e_p,t)} by the Chinese remainder
    theorem, so Z_{d_1} x ... x Z_{d_k} is G.
    """
    if not is_abelian(g):
        raise ValueError("abelian invariants require an abelian group")
    exponents = {}
    for p, m in factorize(g.order):
        sums = [round(log(sum(1 for d in g.orders if p**j % d == 0), p)) for j in range(m + 1)]
        r = [b - a for a, b in zip(sums, sums[1:])] + [0]  # r[j - 1] = r_j
        exponents[p] = [j for j in range(1, m + 1) for _ in range(r[j - 1] - r[j])]
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
            # r -> r^i needs i coprime to m, i != 1, and i^n = 1 mod m, as in power_action
            for i in totatives(m)[1:]:
                if pow(i, n, m) == 1:
                    yield CatalogName("semidirect-cyclic", (m, n, i), f"Z{m} : Z{n} [r^{i}]")


def _counts(name: CatalogName, ks) -> tuple[int, ...]:
    """N_k = |{x : x^k = e}| of a name from _basic_pool for each k in ks, in
    closed form.

    Each basic name is Z_m x| Z_n with s acting by r -> r^i: cyclic is
    n = 1, dihedral D_k is m = k, n = 2, i = -1. An element (a, t) = r^a s^t
    has (a, t)^k = (a*S, k*t) with S = 1 + u + ... + u^(k-1), u = i^t mod m.
    That is e exactly when n / gcd(n, k) divides t and m divides a*S, which
    gcd(m, S) of the a in Z_m do. S is k when u = 1, and otherwise
    (u^k - 1)/(u - 1), whose numerator is read mod m*(u - 1) so that the
    quotient is S mod m. So each N_k is a sum of gcd(n, k) terms.
    """
    m, n, i = name.params if name.kind == "semidirect-cyclic" else (
        name.params[0], 1 if name.kind == "cyclic" else 2, -1)

    def s(u, k):  # 1 % m is 0 when m == 1
        return k if u == 1 % m else (pow(u, k, m * (u - 1)) - 1) // (u - 1)

    return tuple(sum(gcd(m, s(pow(i, t, m), k)) for t in range(0, n, n // gcd(n, k))) for k in ks)


def _factorings(order: int, ks=(), goal: tuple[int, ...] = ()):
    """Lists [(order, basic name), ...] of two or more factors whose orders
    multiply to order, each multiset once, ascending in (order, _basic_pool
    index), in the first-occurrence order of the walk over each divisor d,
    d*d <= order, each name a of order d, then each name and each list of
    order order // d. With goal, the counts N_k = |{x : x^k = e}| for each
    k in ks, only lists whose product has those counts: N_k multiplies over
    direct factors, so a prefix whose N_k does not divide goal's has no match.
    """
    n_of = cache(lambda name: _counts(name, ks))

    def walk(rest, least, got):
        for d in range(least[0], isqrt(rest) + 1):
            if rest % d:
                continue
            for i, a in islice(enumerate(_basic_pool(d)), least[1] if d == least[0] else 0, None):
                n_a = tuple(map(mul, got, n_of(a)))
                if goal and any(want % have for want, have in zip(goal, n_a)):
                    continue
                yield from ([(d, a), (rest // d, b)] for j, b in enumerate(_basic_pool(rest // d))
                            if (rest // d > d or j >= i)
                            and (not goal or tuple(map(mul, n_a, n_of(b))) == goal))
                yield from ([(d, a), *more] for more in walk(rest // d, (d, i), n_a))

    try:
        yield from walk(order, (2, 0), (1,) * len(ks))
    finally:
        del walk  # walk holds itself through its closure cell; free it without the cyclic GC


def identify(g: GroupTable) -> CatalogName:
    """Name a group against the catalog.

    Precedence: cyclic, abelian product of cyclics, dihedral, direct product
    of named groups, cyclic-by-cyclic semidirect product (order <= 128,
    smallest (m, n, i) wins), otherwise unidentified. Matching is by
    are_isomorphic, so the answer only depends on the isomorphism type.

    An abelian group is named from its element orders by abelian_invariants,
    whose O(d^2) commutativity test is the only one identify runs, with no
    search. For the rest, one loop walks the candidates in that order, each
    filtered by G's counts N_k = |{x : x^k = e}| for k | |G|, which sum the
    order spectrum over k's divisors and so hold it: the dihedral and
    semidirect names whose closed-form counts (_counts) are G's, and between
    them the factor multisets _factorings lists for those counts, each once,
    pruned by the counts of its prefixes. Only then is a table built, by
    parse_and_eval of the display the candidate would return, and searched;
    so the name is the text of the group that matched. Neither skip changes
    the answer.
    """
    n = g.order
    if max(g.orders) == n:
        return CatalogName("cyclic", (n,), f"Z{n}")
    try:
        invs = tuple(abelian_invariants(g))
    except ValueError:  # G is not abelian
        pass
    else:
        return CatalogName("abelian-product", invs, " x ".join(f"Z{d}" for d in invs))
    basics, spec = list(_basic_pool(n)), order_spectrum(g)
    ks = [k for k in range(1, n + 1) if n % k == 0]
    goal = tuple(sum(c for d, c in spec.items() if k % d == 0) for k in ks)

    def singles(kind):
        return ([(n, b)] for b in basics if b.kind == kind and _counts(b, ks) == goal)

    products = _factorings(n, ks, goal)
    for factors in chain(singles("dihedral"), products, singles("semidirect-cyclic")):
        factors.sort(key=lambda f: (f[0], f[1].display))
        display = " x ".join(name.display for _, name in factors)
        if are_isomorphic(g, parse_and_eval(display)):
            return factors[0][1] if len(factors) == 1 else CatalogName(
                "product-of-named", tuple(d for d, _ in factors), display)
    return CatalogName("unidentified", (n,), f"unidentified (order {n})")
