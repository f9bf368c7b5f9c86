"""Finite groups as explicit Cayley tables, plus element-level queries."""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, combinations, islice
from math import gcd
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Sequence, Union

DEFAULT_SIZE_CAP = 4096

Step = tuple[int, int, int]  # (p, x, y) with p = x*y


class SizeCapError(Exception):
    """A construction or enumeration would exceed its configured cap."""


def _trusted(cls, *values):
    """The frozen dataclass cls with these field values, built without its
    __post_init__ check; each caller's docstring says why the values pass it."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip([f.name for f in fields(cls)], values))
    return obj


@dataclass(frozen=True)
class GroupTable:
    """A finite group stored as a full multiplication table.

    Elements are dense indices 0..order-1 and mul[a][b] is the index of a*b.
    Constructors in this package put the identity at index 0, but every query
    honours the stored identity field, so relabeled tables stay valid.
    elem_names are display-only and never affect semantics.

    A table from make_table, which runs verify_group_axioms, or from a
    constructor in this package is a group; a table built by hand with
    GroupTable(...) is taken on trust. Everything below assumes a group.

    Derived data (element orders, inverses, root counts, class sizes, a
    generating set, the generating sequence and its plans; Aut's chain,
    images and table in aut) is computed on first use and cached on the
    instance, outside eq, hash, repr.
    The orders and inverses cost O(n) products up to a log log n factor, and
    each step of the generating sequence one coset walk of
    O(|<H, y>| * (d + 1)) products per right coset of the subgroup H grown so
    far, then one closure walk that stops at the size the winning trial found. The queries below
    (is_abelian, center, is_normal, subgroup checks) test generators only,
    so none of them reads all n^2 products.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    elem_names: tuple[str, ...]

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """orders[x] is the order of element x (see _orders_and_inverses)."""
        return self._orders_and_inverses[0]

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """inv[x] is the inverse of element x (see _orders_and_inverses)."""
        return self._orders_and_inverses[1]

    @cached_property
    def _orders_and_inverses(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(orders, inv); ValueError when the powers of some element miss the
        identity for |G| steps, which no group allows.

        One walk per cyclic subgroup: for each x whose order is still unknown,
        the powers x, x^2, ..., x^k = e list <x>, and in a group
        ord(x^j) = k / gcd(j, k) and (x^j)^-1 = x^(k-j), so the walk sets the
        order and the inverse of every power. It sets at least the phi(k)
        generators of <x> for the first time (a generator seen before would
        have listed <x> already), so the walks take at most n * max k/phi(k)
        products.
        """
        n, mul, e = self.order, self.mul, self.identity
        orders, inv = [0] * n, [0] * n
        for x in range(n):
            if orders[x]:
                continue
            powers, y = [x], x
            while y != e:
                if len(powers) == n:
                    raise ValueError(f"powers of element {x} never reach the identity; "
                                     "the table is not a group")
                y = mul[y][x]
                powers.append(y)
            k = len(powers)
            for j, p in enumerate(powers, 1):
                orders[p] = k // gcd(j, k)
                inv[p] = powers[k - j - 1]
        return tuple(orders), tuple(inv)

    @cached_property
    def _root_key(self) -> tuple[tuple[int, int], ...]:
        """(o(x), |{z : z*z = x}|) for each element x, from one pass over the
        diagonal of mul; iso.are_isomorphic compares its multisets, which an
        isomorphism f keeps: o(f(x)) = o(x), and z*z = x iff f(z)*f(z) = f(x)."""
        roots = [0] * self.order
        for z, row in enumerate(self.mul):
            roots[row[z]] += 1
        return tuple(zip(self.orders, roots))

    @cached_property
    def _class_key(self) -> tuple[tuple[int, int, int], ...]:
        """_root_key plus each element's conjugacy-class size, in O(d*n)
        products: the classes are the orbits of the maps y -> s^-1*y*s, one
        itemgetter each, for the generators s, as conjugation by a product is
        the composite of conjugations. The centre is the classes of size 1."""
        mul, size = self.mul, [0] * self.order
        perms = [itemgetter(*mul[self.inv[s]])([row[s] for row in mul])
                 for s in self.generators]
        for x in range(self.order):
            if not size[x]:
                orbit, size[x] = [x], 1
                for y in orbit:  # list iterators see elements appended while they run
                    for p in perms:
                        if not size[p[y]]:
                            size[p[y]] = 1
                            orbit.append(p[y])
                for y in orbit:
                    size[y] = len(orbit)
        return tuple((o, r, c) for (o, r), c in zip(self._root_key, size))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Elements that generate the group: the set its constructor recorded
        in the instance dict (cyclic, semidirect and aut.aut_group do, each
        with the reason in its docstring), otherwise the greedy sequence of
        gens_and_plans. The checks whose proofs hold for any generating set
        read it, so a constructed table skips the greedy search; the search,
        and all that names a map by its images of generators, keep the
        sequence."""
        return self.gens_and_plans[0]

    @cached_property
    def gens_and_plans(self) -> tuple[tuple[int, ...], tuple[tuple[Step, ...], ...]]:
        """A greedy minimal generating sequence and its extension plans.

        The sequence repeatedly adds the element whose inclusion grows the
        generated subgroup the most, breaking ties by lowest index; it is
        empty for the trivial group. Each trial is sized by _coset_closure,
        and the chosen element's closure is grown by grow_closure, which stops
        once it has listed the size already known: orders[x] for the first
        generator, the winning trial's size for each later one. No trial can
        beat one that reached n, so the trials stop there. plans[t]
        lists steps (p, x, y) with p = x*y, meaning: once generators 0..t have
        images, the image of p is forced as img[x]*img[y]. Walking the plans
        in order assigns every element of the group exactly once.
        """
        n, mul, orders = self.order, self.mul, self.orders
        have = [self.identity]
        gens: list[int] = []
        plans: list[tuple[Step, ...]] = []
        while len(have) < n:
            if not gens:
                size = max(orders)
                x = orders.index(size)
            else:
                # <have, h*x> = <have, x> for h in have, so one trial per coset
                inside, size = set(have), 0
                for y in range(n):
                    if y not in inside:
                        grown = len(_coset_closure(mul, have, gens, y))
                        if grown > size:
                            x, size = y, grown
                            if size == n:
                                break
                        inside.update(mul[h][y] for h in have)
            steps: list[Step] = []
            have = grow_closure(mul, have, x, steps, size)
            gens.append(x)
            plans.append(tuple(steps))
        return tuple(gens), tuple(plans)

    def name_of(self, x: int) -> str:
        return self.elem_names[x]

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


@dataclass(frozen=True)
class Morphism:
    """A map between two groups, stored as an image array over source indices."""

    source: GroupTable
    target: GroupTable
    image: tuple[int, ...]

    def is_homomorphism(self) -> bool:
        """True when the image array respects products.

        Both tables must be groups (see GroupTable), and the image must be
        a map: one entry per source element, each in 0..|target|-1. See
        respects_products.
        """
        return respects_products(self.source, self.target, self.image)

    def is_bijective(self) -> bool:
        """True when image has |source| = |target| distinct element indices (_bad_cell)."""
        n = self.source.order
        return (self.target.order == n == len(self.image) == len(set(self.image))
                and not _bad_cell((self.image,), n))

    def is_isomorphism(self) -> bool:
        return self.is_bijective() and self.is_homomorphism()


def respects_products(src: GroupTable, tgt: GroupTable, img: Sequence[int]) -> bool:
    """True when f = img satisfies f(a*b) = f(a)*f(b) for all a, b in src.

    Checks f(e) = e, then f(g*x) = f(g)*f(x) for each g in src.generators
    and every x, which costs O(d*n). That suffices when both tables are
    groups: the set of a with f(a*x) = f(a)*f(x) for all
    x contains the generators and is closed under products, because
    f(ab*x) = f(a)*f(b*x) = f(a)*f(b)*f(x) = f(ab)*f(x) by associativity in
    both tables; a nonempty subset of a finite group closed under products is
    a subgroup, so it is all of src. With no generators (order 1) the f(e) = e
    test is the whole check.
    """
    if img[src.identity] != tgt.identity:
        return False
    smul, tmul = src.mul, tgt.mul
    # the loop runs only when src has generators, so order >= 2: every gather
    # it applies has at least 2 indices and returns a tuple
    gather_img = itemgetter(*img)
    for a in src.generators:
        if itemgetter(*smul[a])(img) != gather_img(tmul[img[a]]):
            return False
    return True


def identity_morphism(g: GroupTable) -> Morphism:
    return Morphism(g, g, tuple(range(g.order)))


@dataclass(frozen=True)
class SubgroupRef:
    """A subgroup of `parent`, stored as a sorted tuple of element indices.

    The set S must hold the identity, and _greedy_walk over its members in
    ascending order must end at |S| elements, in O(|<S>| * (d + 1)) products
    for d <= log2 |<S>| kept members. In a group that last closure is <S>,
    which holds S, so the sizes agree exactly when S = <S>. Otherwise the
    witness (a, b) is the first kept b with some a*b outside S, and the least
    such a; one exists, or S would hold e*b_1*...*b_k for all kept b_i, so
    all of <S>.
    """

    parent: GroupTable
    members: tuple[int, ...]

    def __post_init__(self):
        g, given = self.parent, tuple(self.members)
        if bad := _bad_cell((given,), g.order):
            raise ValueError(f"member {given[bad[1]]!r} is not an element index "
                             f"0..{g.order - 1}")
        inside = set(given)
        mem = tuple(sorted(inside))
        object.__setattr__(self, "members", mem)
        if g.identity not in inside:
            raise ValueError("subgroup must contain the identity")
        mul, closure, kept = g.mul, {g.identity}, []
        for b, closure in _greedy_walk(mul, g.identity, mem):
            kept.append(b)
        if len(closure) != len(mem):
            a, b = next((a, b) for b in kept for a in mem if mul[a][b] not in inside)
            raise ValueError(f"not closed under product at ({a}, {b})")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of verify_group_axioms: ok, or the first violated axiom."""

    ok: bool
    axiom: str | None = None  # dimensions|closure|identity|inverses|associativity
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


TableCandidate = Union[GroupTable, Sequence[Sequence[int]]]


def _bad_cell(mul: Sequence[Sequence[int]], n: int) -> tuple[int, int] | None:
    """The first cell (a, b) in row-major order whose entry is not an element
    index, an int in 0..n-1 that is not a bool, or None when every one is;
    the one index test. Int entries are ranged by the ends of their sorted set."""
    cells = chain.from_iterable
    if set(map(type, cells(mul))) <= {int}:
        values = sorted(set(cells(mul)))  # faster than min and max of the set
        if not values or 0 <= values[0] and values[-1] < n:
            return None
    for a, row in enumerate(mul):  # a bad cell, or only an int subclass
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                return a, b
    return None


def verify_group_axioms(candidate: TableCandidate, identity: int | None = None) -> AxiomVerdict:
    """Check closure, identity, inverses and associativity on a raw table.

    Accepts a GroupTable (its claimed identity is verified) or a bare mul
    array with an optional claimed identity. Returns the first violated
    axiom with a concrete witness; malformed dimensions are reported
    distinctly from axiom failures.

    The identity is found by trying each row in turn. A table has at most
    one, as e = e*e' = e' for two of them, so a claimed identity holds only
    when it equals the one found. Each row is then searched for a two-sided
    inverse, past any cell that holds the identity on one side only.

    Associativity is Light's test, O(d*n^2): (a*b)*c = a*(b*c) for all a, c
    and each b that _greedy_walk over the elements keeps, stopping at the
    first that fails. That suffices in any table, group or not: the b that
    pass form a set A holding e, and for b, b' in A, (a*(bb'))*c =
    ((a*b)*b')*c = (a*b)*(b'*c) = a*(b*(b'*c)) = a*((bb')*c), so A is closed
    under products. It holds the kept b, so their product closure, which is
    the whole table (_greedy_walk). The witness fails but is not always the
    first.
    """
    # rows as tuples, which compare equal to the tuples itemgetter returns
    if isinstance(candidate, GroupTable):
        mul, n, identity = tuple(map(tuple, candidate.mul)), candidate.order, candidate.identity
        if len(mul) != n:
            return AxiomVerdict(False, "dimensions", (len(mul),),
                                f"order says {n} but mul has {len(mul)} rows")
    else:
        mul, n = tuple(map(tuple, candidate)), len(candidate)
    for i, row in enumerate(mul):
        if len(row) != n:
            return AxiomVerdict(False, "dimensions", (i,),
                                f"row {i} has length {len(row)}, expected {n}")
    if bad := _bad_cell(mul, n):
        a, b = bad
        return AxiomVerdict(False, "closure", bad, f"mul[{a}][{b}] = {mul[a][b]!r} "
                            f"lies outside the element indices 0..{n - 1}")

    e = next((e for e in range(n)
              if all(mul[e][x] == x and mul[x][e] == x for x in range(n))), None)
    if e is None:
        return AxiomVerdict(False, "identity", None, "no two-sided identity exists")
    if identity is not None and identity != e:
        return AxiomVerdict(False, "identity", (identity,),
                            f"claimed identity {identity!r} is not {e}, the identity")
    for x, row in enumerate(mul):
        try:
            y = row.index(e)
            while mul[y][x] != e:
                y = row.index(e, y + 1)
        except ValueError:
            return AxiomVerdict(False, "inverses", (x,), f"element {x} has no two-sided inverse")

    for b, _ in _greedy_walk(mul, e, range(n)):
        a_bc = itemgetter(*mul[b])  # a_bc(mul[a])[c] = a*(b*c); n > 1 here
        for a, ra in enumerate(mul):
            if mul[ra[b]] != a_bc(ra):
                c = next(c for c in range(n) if mul[ra[b]][c] != ra[mul[b][c]])
                return AxiomVerdict(False, "associativity", (a, b, c),
                                    f"(a*b)*c != a*(b*c) at a={a}, b={b}, c={c}")
    return AxiomVerdict(True)


def make_table(mul: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> GroupTable:
    """Build a GroupTable from a mul array a caller supplies, once
    verify_group_axioms passes it.

    ValueError carries the first failure's detail, or says that names, when
    given, has not n entries. The identity is the element whose row is
    0, 1, ..., n-1: in a group x*y = y for one y only when x = e.
    """
    rows = tuple(map(tuple, mul))
    if not (verdict := verify_group_axioms(rows)):
        raise ValueError(verdict.detail)
    n = len(rows)
    names = tuple(f"g{i}" for i in range(n)) if names is None else tuple(names)
    if len(names) != n:
        raise ValueError(f"{len(names)} names given for {n} elements")
    return GroupTable(n, rows, rows.index(tuple(range(n))), names)


def order_spectrum(g: GroupTable) -> dict[int, int]:
    """Map each element order to its multiplicity; an isomorphism invariant."""
    spec: dict[int, int] = {}
    for d in g.orders:
        spec[d] = spec.get(d, 0) + 1
    return dict(sorted(spec.items()))


def is_abelian(g: GroupTable) -> bool:
    """True when the generators of g commute pairwise, O(d^2) products.

    That suffices: the centraliser of a generator is a subgroup holding every
    generator, so it is G; so each generator lies in the centre, a subgroup
    that then is G as well.
    """
    mul = g.mul
    return all(mul[a][b] == mul[b][a] for a, b in combinations(g.generators, 2))


def center(g: GroupTable) -> SubgroupRef:
    """Z(G): the elements that commute with each generator, O(d*n) products.

    That suffices: the centraliser of z is a subgroup, so it is G once it
    holds every generator. Z(G) is a subgroup, listed in ascending order, so
    its SubgroupRef skips the check (_trusted).
    """
    mul, members = g.mul, range(g.order)
    for x in g.generators:
        rx = mul[x]
        members = [z for z in members if mul[z][x] == rx[z]]
    return _trusted(SubgroupRef, g, tuple(members))


def _coset_closure(mul, subgroup: Collection[int], gens: Sequence[int], y: int) -> set[int]:
    """The members of <H, y> for the subgroup H = <gens> whose members are
    `subgroup`, by Dimino's coset closure (Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991), in O(|<H, y>| * (d + 1)) products.

    U, the union of the right cosets H*r for the representatives r found so
    far, starts as H, represented by one of its members; while some r*s
    with s in gens or y lies outside U, H*(r*s) joins U. At the end r*s lies
    in U for every r and s, so u*s = h*(r*s) lies in H*U = U for u = h*r.
    U holds e and is closed under right multiplication by generators of
    <H, y>, so it holds every product of them, which in a finite group is all
    of <H, y>; U lies inside <H, y>, so it is <H, y>.
    """
    members, reps = set(subgroup), [next(iter(subgroup))]
    for r in reps:  # list iterators see representatives appended while they run
        row = mul[r]
        for s in (*gens, y):
            if row[s] not in members:
                reps.append(row[s])
                members.update(mul[h][row[s]] for h in subgroup)
    return members


def _greedy_walk(mul, identity: int, candidates: Iterable[int]) -> Iterator[tuple[int, set[int]]]:
    """Yield (b, closure) for each candidate b outside the closure of the
    ones kept before it; closure is that of the kept ones up to and
    including b, grown from {identity} by _coset_closure.

    Each element a closure lists is the identity or a product of listed ones
    (r*s or h*(r*s) there), so in any table, group or not, every candidate
    lies in the product closure of the kept ones. In a group the last
    closure is <candidates>, {identity} when none is kept. A caller that
    stops early pays only for the closures yielded.
    """
    closure, kept = {identity}, []
    for b in candidates:
        if b not in closure:
            closure = _coset_closure(mul, closure, kept, b)
            kept.append(b)
            yield b, closure


def grow_closure(mul, closed: Sequence[int], x: int, steps: list[Step], size: int) -> list[int]:
    """The closure of a product-closed set plus one element outside it, in BFS order.

    `closed` lists a set closed under products; the result lists it
    unchanged, then x and every new product in the order it is found: for
    each new a in turn and each b listed so far, a*b then b*a. Each new
    element p = u*v is recorded in steps as (p, u, v).

    A full walk costs O(m^2) products for a closure of m elements. The walk
    stops once it has listed size = m elements, which changes neither the
    list nor the steps: a step is recorded only when an element is listed,
    and a complete closure has none left to list.
    """
    members = set(closed)
    grown = list(closed)

    def add(p: int, u: int, v: int) -> bool:
        members.add(p)
        grown.append(p)
        steps.append((p, u, v))
        return len(grown) == size

    members.add(x)
    grown.append(x)
    # list iterators see elements appended while they run
    for a in islice(grown, len(closed), None):
        ra = mul[a]
        for b in grown:
            if ra[b] not in members and add(ra[b], a, b):
                return grown
            if mul[b][a] not in members and add(mul[b][a], b, a):
                return grown
    return grown


def _compose_rows(order: int, identity: int,
                  gen_rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of a group, composed from the rows of its generators.

    gen_rows[i] is the row of a generator s, s*0, ..., s*(order-1), each
    entry in range(order). Row `identity` is 0, 1, ..., order-1, and for a
    row p already built and q = s*p, q*c = s*(p*c) by associativity, so row
    q is row p read through row s: one C-level itemgetter call per row. The
    walk from the identity along the generators reaches every product of
    them, which in a finite group is all of the group they generate, as each
    inverse is a positive power; so a row is left unset only when they do
    not generate the whole group, and that raises RuntimeError.
    """
    rows: list[tuple[int, ...] | None] = [None] * order
    rows[identity], walk = tuple(range(order)), [identity]
    for p in walk:  # list iterators see rows appended while they run
        for s in gen_rows:
            if rows[q := s[p]] is None:
                rows[q] = itemgetter(*rows[p])(s)  # a tuple: q is not the identity, so order > 1
                walk.append(q)
    if None in rows:
        raise RuntimeError("internal error: the generator rows miss an element")
    return tuple(rows)


def subgroup_generated(g: GroupTable, gens: Iterable[int]) -> SubgroupRef:
    """<gens>, the last closure of _greedy_walk over gens; ValueError for a
    generator that is not an int or is a bool, IndexError for one out of range.
    That closure is a subgroup, so its SubgroupRef skips the check (_trusted).
    """
    gens = list(gens)
    if bad := _bad_cell((gens,), g.order):
        x = gens[bad[1]]
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"generator {x!r} is not an element index")
        raise IndexError(f"generator index {x} out of range")
    closure = {g.identity}
    for _, closure in _greedy_walk(g.mul, g.identity, gens):
        pass
    return _trusted(SubgroupRef, g, tuple(sorted(closure)))


def is_normal(g: GroupTable, h: SubgroupRef) -> bool:
    """True when x^-1*a*x lies in H for each a in H and each generator x of
    G, O(d*|H|) products.

    That suffices: the x with x^-1*H*x inside H are closed under products,
    as (xy)^-1*H*(xy) = y^-1*(x^-1*H*x)*y, so they form a subgroup of the
    finite group G, which is G once it holds every generator.
    """
    if h.parent != g:
        raise ValueError("subgroup belongs to a different parent group")
    mem = set(h.members)
    mul, inv = g.mul, g.inv
    for x in g.generators:
        xi = inv[x]
        if not mem.issuperset([mul[mul[xi][a]][x] for a in h.members]):
            return False
    return True


def subgroup_table(h: SubgroupRef) -> tuple[GroupTable, tuple[int, ...]]:
    """Extract a subgroup as its own GroupTable.

    Returns (table, embed) where embed maps new indices to parent indices;
    the identity lands at new index 0. h is closed (SubgroupRef(...) checked
    it, or _trusted built it), so `back` renames every product of members.
    """
    g = h.parent
    embed = [g.identity] + [x for x in h.members if x != g.identity]
    back = {x: i for i, x in enumerate(embed)}
    mul = tuple(tuple(back[g.mul[a][b]] for b in embed) for a in embed)
    names = tuple(g.elem_names[x] for x in embed)
    return GroupTable(len(embed), mul, 0, names), tuple(embed)


def kernel(m: Morphism) -> SubgroupRef:
    e = m.target.identity
    return SubgroupRef(m.source, tuple(x for x in range(m.source.order) if m.image[x] == e))


def to_json_dict(g: GroupTable) -> dict:
    """Cayley-table JSON shape: order / identity / mul / names."""
    return {
        "order": g.order,
        "identity": g.identity,
        "mul": [list(row) for row in g.mul],
        "names": list(g.elem_names),
    }
