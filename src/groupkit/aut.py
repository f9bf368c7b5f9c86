"""Automorphism groups from a stabiliser chain, characteristic subgroups, lifts."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter

from .core import GroupTable, Morphism, SizeCapError, SubgroupRef, _compose_rows, _extend_orbit
from ._search import generating_sequence, search_morphisms

DEFAULT_AUT_CAP = 10_000
_Images = tuple[tuple[int, ...], ...]


def _aut_chain(g: GroupTable, cap: int) -> tuple[_Images, tuple[dict, ...]]:
    """Strong generators S of Aut(G) and a Schreier vector per generator of G.

    A_t fixes g_0, ..., g_{t-1} of the generating sequence; A_d = 1, since a
    map that fixes the generators is the identity. For t from d - 1 down,
    vectors[t] is the orbit of g_t under S, q -> (i, p) with q = S[i][p] and
    g_t -> None. Each element of g_t's order outside it, ascending, gets one
    search for a map that fixes g_0, ..., g_{t-1} and sends g_t there; a map
    found joins S and the orbit is closed again (Sims 1970; Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4). When the
    search for w fails, w's orbit under S is marked dead and skipped: every
    map in S fixes g_0, ..., g_{t-1}, so lies in A_t, and the A_t-orbit of
    g_t is A_t-invariant, so with w outside it, w's whole orbit is (the
    orbit pruning of backtrack searches in Butler, Fundamental Algorithms
    for Permutation Groups, LNCS 559, 1991). Only points outside the A_t-orbit
    are skipped, so the same searches succeed in the same order, and S and the
    vectors are what the unpruned walk finds.

    By induction on t, <S> = A_t after level t: S held generators of A_{t+1},
    which fix g_t; each point of the A_t-orbit of g_t was reached or searched,
    and a search there succeeds, so the orbit ends as the A_t-orbit. For a in
    A_t some u in <S> has u(g_t) = a(g_t), and u^-1 a lies in A_{t+1}, so a
    lies in <S>. Hence |Aut G| is the product of the orbit lengths, checked
    against the cap, for every group, before anything is listed. Each S[i]
    passed respects_products at its leaf, and products of automorphisms are
    automorphisms. It is searched once per table and kept in g.__dict__, as
    cached_property keeps g.orders, and the cap is checked on every call; like
    _chain_images and aut_group, it caches no Morphism, which points back at g.
    """
    if (chain := g.__dict__.get("_aut_chain")) is None:
        gens, orders = g.gens_and_plans[0], g.orders
        strong, vectors = [], []
        for t, x in reversed([*enumerate(gens)]):
            orbit, dead = {x: None}, {}  # each q -> (i, p) with q = S[i][p]
            for w in range(g.order):
                if orders[w] != orders[x] or w in orbit or w in dead:
                    continue
                if found := search_morphisms(g, g, bijective=True, first_only=True,
                                             fixed=(*gens[:t], w)):
                    strong.append(found[0])
                    _extend_orbit(orbit, strong, orbit)
                else:
                    dead[w] = None
                    _extend_orbit(dead, strong, [w])
            vectors.insert(0, orbit)
        chain = g.__dict__["_aut_chain"] = tuple(strong), tuple(vectors)
    strong, vectors = chain
    if (count := prod(map(len, vectors))) > cap:
        raise SizeCapError(
            f"group of order {g.order} has {count} automorphisms, "
            f"beyond the cap of {cap}; raise the cap to enumerate")
    return strong, vectors


def _chain_images(g: GroupTable, cap: int) -> tuple[_Images, _Images]:
    """The strong generators of _aut_chain and every automorphism's image array, sorted.

    Refuses past the cap (_aut_chain). Vector t gives the transversal of
    A_{t+1} in A_t, u_q = S[i] after u_p for q -> (i, p), and each automorphism
    is u_0 u_1 ... u_{d-1} in one way: one composition of image arrays apiece.
    Each level composes its transversal's u with every e listed so far,
    (u after e)[x] = u[e[x]], by one itemgetter(*e) per e; u after id = u.
    Listed once per table and cached on g, as _aut_chain is.
    """
    strong, vectors = _aut_chain(g, cap)
    if (autos := g.__dict__.get("_aut_images")) is None:
        ident = tuple(range(g.order))
        autos = [ident]
        # every gather has n >= 3 indices (Aut G > 1), so returns a tuple, as in core._compose_rows
        for orbit in reversed(vectors):
            transversal = {}
            for q, link in orbit.items():
                transversal[q] = ident if link is None else (
                    itemgetter(*transversal[link[1]])(strong[link[0]]))
            new = list(transversal.values())[1:]
            autos += new if len(autos) == 1 else [
                get(u) for e in autos for get in [itemgetter(*e)] for u in new]
        autos.sort()
        autos = g.__dict__["_aut_images"] = tuple(autos)
    return strong, autos


def automorphisms(g: GroupTable, cap: int = DEFAULT_AUT_CAP) -> list[Morphism]:
    """All automorphisms of G, sorted lexicographically by image array (_chain_images)."""
    return [Morphism(g, g, img) for img in _chain_images(g, cap)[1]]


@dataclass(frozen=True)
class AutGroup:
    """Aut(base) with composition realized as its own Cayley table.

    elements[i] is the automorphism at table index i; multiplication is
    composition, table[i][j] = index of elements[i] after elements[j].
    aut_group composes the rows from the strong generators of Aut(base).
    """

    base: GroupTable
    elements: tuple[Morphism, ...]
    table: GroupTable


def _aut_names(g: GroupTable, images: _Images) -> tuple[str, ...]:
    gens, ident = generating_sequence(g), tuple(range(g.order))
    return tuple("id" if img == ident else "(" + ", ".join(
        f"{g.elem_names[x]}↦{g.elem_names[img[x]]}" for x in gens) + ")" for img in images)


def aut_group(g: GroupTable, cap: int = DEFAULT_AUT_CAP) -> AutGroup:
    """Aut(G) as a group table, its rows composed from the strong generators.

    a_j is the automorphism with the j-th smallest image array, so a_0 is the
    identity map and row 0 is 0, 1, ..., N-1. For a strong generator s, lift[j]
    is the index of s after a_j, keyed by its images of the generators of G,
    which fix an automorphism: per generator x, one gather of s at a_j(x) over
    all j lists them, and the gather of a_0 gives the keys. So lift is s's row,
    every entry in range; composition is a group operation and <S> is Aut G
    (_aut_chain), so _compose_rows builds every row from the lifts, without
    make_table's check. The table records the strong generators' indices,
    lift[0] as a_0 is the identity, as its generators. It is cached on g as
    _aut_chain is; the Morphism and AutGroup wrappers are new on each call.
    """
    strong, images = _chain_images(g, cap)
    if (table := g.__dict__.get("_aut_table")) is None:
        gens = generating_sequence(g) if strong else []  # S != {} so N > 1: gathers give tuples
        gets = [itemgetter(*map(itemgetter(x), images)) for x in gens]
        index_of = dict(zip(zip(*[get(images[0]) for get in gets]), range(len(images))))
        lifts = [list(map(index_of.__getitem__, zip(*[get(s) for get in gets]))) for s in strong]
        rows = _compose_rows(len(images), 0, lifts)
        table = g.__dict__["_aut_table"] = GroupTable(len(rows), rows, 0, _aut_names(g, images))
        table.__dict__["generators"] = tuple(lift[0] for lift in lifts)
    return AutGroup(g, tuple(Morphism(g, g, img) for img in images), table)


def _aut_order(g: GroupTable, cap: int = DEFAULT_AUT_CAP) -> int:
    """|Aut G|, the product of _aut_chain's orbit lengths, without listing Aut."""
    return prod(map(len, _aut_chain(g, cap)[1]))


def is_characteristic(g: GroupTable, c: SubgroupRef, cap: int = DEFAULT_AUT_CAP) -> bool:
    """True when every automorphism of G maps the subgroup C onto itself.

    First an O(n) certificate from g.orders: with O the set of orders of the
    members of C, when C is every element of G whose order lies in O, C is
    characteristic, since an automorphism keeps each element's order and so
    maps that set onto itself. A normal Hall subgroup N, such as the K-copy
    of K x| H with gcd(|K|, |H|) = 1, is certified so, without the chain or
    its cap: an x whose order divides |N| maps to an element of G/N whose
    order divides both |N| and |G/N|, so x lies in N. Otherwise it tests
    only the strong generators of _aut_chain, which refuses past the cap: the
    automorphisms that map C onto C form a subgroup, and one that holds a
    generating set of Aut G holds all of it.
    """
    if c.parent != g:
        raise ValueError("subgroup belongs to a different parent group")
    orders = g.orders
    wanted = {orders[x] for x in c.members}
    if sum(o in wanted for o in orders) == len(c.members):  # C lies in that set, so equals it
        return True
    members = set(c.members)
    return all({a[x] for x in members} == members for a in _aut_chain(g, cap)[0])


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
