"""Isomorphism testing, abelian invariants, and a small-group catalog."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import islice
from math import gcd, isqrt, log, prod
from operator import mul

from .core import DEFAULT_SIZE_CAP, GroupTable, Morphism, is_abelian, order_spectrum
from ._search import search_morphisms
from .construct import _check_power
from .expr import Cyclic, CyclicPower, Dihedral, GroupExpr, Product, Semidirect, parse_and_eval
from .numth import factorize, multiplicative_order, totatives

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


def _presentation(name: CatalogName) -> tuple[int, int, int]:
    """(m, n, i) for a name from _basic_pool, the group Z_m x| Z_n with s
    acting by r -> r^i: cyclic Z_m is n = 1, i = 1, dihedral D_k is m = k,
    n = 2, i = -1."""
    if name.kind == "semidirect-cyclic":
        return name.params
    return (name.params[0], 1, 1) if name.kind == "cyclic" else (name.params[0], 2, -1)


def _counts(presentation: tuple[int, int, int], ks) -> tuple[int, ...]:
    """N_k = |{x : x^k = e}| of Z_m x| Z_n with s acting by r -> r^i, given
    as its presentation (m, n, i) (_presentation), for each k in ks, in
    closed form.

    An element (a, t) = r^a s^t has (a, t)^k = (a*S, k*t) with
    S = 1 + u + ... + u^(k-1), u = i^t mod m. That is e exactly when
    n / gcd(n, k) divides t and m divides a*S, which gcd(m, S) of the a in
    Z_m do. S is k when u = 1, and otherwise
    (u^k - 1)/(u - 1), whose numerator is read mod m*(u - 1) so that the
    quotient is S mod m. So each N_k is a sum of gcd(n, k) terms.
    """
    m, n, i = presentation

    def s(u, k):  # 1 % m is 0 when m == 1
        return k if u == 1 % m else (pow(u, k, m * (u - 1)) - 1) // (u - 1)

    return tuple(sum(gcd(m, s(pow(i, t, m), k)) for t in range(0, n, n // gcd(n, k))) for k in ks)


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def _expr_leaves(e: GroupExpr) -> list[tuple[int, int, int]] | None:
    """The presentations (m, n, i) (_presentation) of the leaves of a parsed
    expression that is direct products of Z n, D n and Z m : Z n [r^i] on
    cyclic operands, read from its tree with no table: (n, 1, 1), (n, 2, -1)
    and (m, n, i). None for any other tree, such as one with Hol or [#j],
    for |G| = prod m*n past DEFAULT_SIZE_CAP, and for an [r^i] that
    power_action refuses: its rule, construct._check_power, holds for every
    Z and D. So a tree with leaves evaluates with no error.
    """
    leaves, todo = [], [e]
    for e in todo:  # list iterators see nodes appended while they run
        if isinstance(e, Product):
            todo += (e.left, e.right)
        elif isinstance(e, (Cyclic, Dihedral)):
            leaves.append((e.n, 1, 1) if isinstance(e, Cyclic) else (e.n, 2, -1))
        elif (isinstance(e, Semidirect) and isinstance(e.action, CyclicPower)
              and isinstance(e.k_expr, Cyclic) and isinstance(e.h_expr, Cyclic)):
            leaves.append((e.k_expr.n, e.h_expr.n, e.action.i))
        else:
            return None
    if prod(m * n for m, n, _ in leaves) > DEFAULT_SIZE_CAP:
        return None
    try:
        for leaf in leaves:
            _check_power(*leaf)
    except ValueError:
        return None
    return leaves


def _leaf_counts(leaves: list[tuple[int, int, int]]) -> tuple[int, tuple[int, ...]]:
    """(|G|, N_k for each k dividing |G|) of the direct product of the
    leaves' groups: each leaf's N_k is _counts's closed form, and
    (a, b)^k = e exactly when a^k = e and b^k = e, so N_k multiplies over
    direct factors."""
    ks = _divisors(order := prod(m * n for m, n, _ in leaves))
    return order, tuple(map(prod, zip(*(_counts(leaf, ks) for leaf in leaves))))


def _expr_counts(e: GroupExpr) -> tuple[int, tuple[int, ...]] | None:
    """(|G|, N_k for each k dividing |G|) of the group a parsed expression
    names, read from its leaves (_expr_leaves) with no table, or None."""
    leaves = _expr_leaves(e)
    return None if leaves is None else _leaf_counts(leaves)


def _expr_info(e: GroupExpr) -> tuple[int, bool, int, dict[int, int]] | None:
    """(|G|, abelian, |Z(G)|, order spectrum) of the group a parsed
    expression names, read from its leaves' presentations (m, n, i)
    (_expr_leaves) with no table, or None.

    G is the direct product of the leaves' Z_m x| Z_n, s acting by r -> r^i.
    - |G| is prod m*n.
    - G is abelian exactly when every leaf has i = 1 mod m: Z_m x| Z_n is
      abelian exactly when s acts trivially, as s*r*s^-1 = r^i, and a direct
      product is abelian exactly when each factor is.
    - |Z(G)| is prod gcd(i - 1, m) * n / ord_m(i). Under
      (k1, h1)(k2, h2) = (k1 + i^h1*k2, h1 + h2), (a, t) commutes with
      r = (1, 0) exactly when i^t = 1 mod m, which n / ord_m(i) of the t in
      Z_n do (ord_m(i) divides n, _check_power), and with s = (0, 1) exactly
      when (i - 1)*a = 0 mod m, which gcd(i - 1, m) of the a in Z_m do.
      Commuting with the generators r and s is enough, and the centre of a
      direct product is the product of the centres.
    - The order spectrum is the Moebius inversion of the counts N_k
      (_leaf_counts): N_d counts the elements whose order divides d, so for
      each divisor d of |G| in ascending order, #(order d) is N_d less
      #(order q) summed over the q < d dividing d. Only nonzero counts are
      listed, as order_spectrum lists them.
    """
    if (leaves := _expr_leaves(e)) is None:
        return None
    order, counts = _leaf_counts(leaves)
    spectrum: dict[int, int] = {}
    for d, n_d in zip(_divisors(order), counts):
        spectrum[d] = n_d - sum(c for q, c in spectrum.items() if d % q == 0)
    return (order, all(i % m == 1 % m for m, _, i in leaves),
            prod(gcd(i - 1, m) * n // multiplicative_order(i, m) for m, n, i in leaves),
            {d: c for d, c in spectrum.items() if c})


def _presents(g: GroupTable, name: CatalogName) -> bool:
    """For G of order m*n, True when G is the group a name from _basic_pool
    gives, Z_m x| Z_n with s acting by r -> r^i (_presentation).

    That group is <r, s | r^m, s^n, s*r*s^-1 = r^i>: the relations write
    every element as r^a*s^t, so the presented group has at most m*n
    elements, and semidirect's product, of m*n elements and generated by r
    and s, satisfies them. So G is that group exactly when some a of order
    m and b of order n satisfy b*a*b^-1 = a^i with <b> meeting <a> only in
    e: the relations then give a homomorphism onto <a, b> (von Dyck), which
    is <a><b> as b normalises <a>, of m*n = |G| elements, so it is
    one-to-one; conversely the images of r and s satisfy them. The relation
    for a gives it for each a^j, (a^j)^i = b*a^j*b^-1, so one a per cyclic
    subgroup of order m is tried against each b of order n, one relation
    check per pair; once one holds, <b> is walked to its first power in
    <a>, which is e exactly when they meet only in e.
    """
    m, n, i = _presentation(name)
    mul, inv, orders, e = g.mul, g.inv, g.orders, g.identity
    bs = [b for b in range(g.order) if orders[b] == n]
    tried = set()
    for a in range(g.order):
        if orders[a] != m or a in tried:
            continue
        powers = [e]
        for _ in range(m - 1):
            powers.append(mul[powers[-1]][a])
        tried.update(p for j, p in enumerate(powers) if gcd(j, m) == 1)
        cyc, a_i = set(powers), powers[i % m]
        for b in bs:
            if mul[mul[b][a]][inv[b]] == a_i:
                y = b
                while y not in cyc:
                    y = mul[y][b]
                if y == e:
                    return True
    return False


def _factorings(order: int, ks=(), goal: tuple[int, ...] = ()):
    """Lists [(order, basic name), ...] of two or more factors whose orders
    multiply to order, each multiset once, ascending in (order, _basic_pool
    index), in the first-occurrence order of the walk over each divisor d,
    d*d <= order, each name a of order d, then each name and each list of
    order order // d. With goal, the counts N_k = |{x : x^k = e}| for each
    k in ks, only lists whose product has those counts: N_k multiplies over
    direct factors, so a prefix whose N_k does not divide goal's has no match.
    """
    n_of = cache(lambda name: _counts(_presentation(name), ks))

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
    _presents for a single name and by are_isomorphic for a product, so the
    answer only depends on the isomorphism type.

    An abelian group is named from its element orders by abelian_invariants,
    whose O(d^2) commutativity test is the only one identify runs, with no
    search. For the rest, the candidates are walked in that order, each
    filtered by G's counts N_k = |{x : x^k = e}| for k | |G|, which sum the
    order spectrum over k's divisors and so hold it: the dihedral and
    semidirect names whose closed-form counts (_counts) are G's, each then
    checked against its presentation (_presents) with no table, and between
    them the factor multisets _factorings lists for those counts, each once,
    pruned by the counts of its prefixes. A list of cyclic factors alone is
    abelian and is skipped; for any other a table is built, by
    parse_and_eval of the display the candidate would return, and searched,
    so the name is the text of the group that matched. No skip changes the
    answer. A product candidate has |G| elements, so it is built under a
    size cap of max(DEFAULT_SIZE_CAP, |G|): G's own table exists, so the
    candidate at most doubles the live table memory, and a G past the size
    cap, as Aut's cap allows, can still be named.
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
    ks = _divisors(n)
    goal = tuple(sum(c for d, c in spec.items() if k % d == 0) for k in ks)

    def single(kind):
        return next((b for b in basics if b.kind == kind
                     and _counts(_presentation(b), ks) == goal and _presents(g, b)), None)

    if dihedral := single("dihedral"):
        return dihedral
    cap = max(DEFAULT_SIZE_CAP, n)
    for factors in _factorings(n, ks, goal):
        if all(name.kind == "cyclic" for _, name in factors):
            continue  # an abelian product, and G is not abelian
        factors.sort(key=lambda f: (f[0], f[1].display))
        display = " x ".join(name.display for _, name in factors)
        if are_isomorphic(g, parse_and_eval(display, size_cap=cap)):
            return CatalogName("product-of-named", tuple(d for d, _ in factors), display)
    return single("semidirect-cyclic") or CatalogName(
        "unidentified", (n,), f"unidentified (order {n})")
