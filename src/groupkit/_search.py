"""Backtracking search for structure-preserving maps between Cayley tables.

Shared engine behind hom_set, automorphism enumeration and isomorphism
search. It picks the source's cached generating sequence, tries each
order-compatible image for one generator per level (or the image the caller
fixes for a prefix of them), and lets that level's extension plan force the
images of the elements the generator adds. The plans assign every
non-identity element exactly once, so a level writes its images straight
into one array and nothing is ever undone: a deeper level only overwrites
its own entries. Complete candidates are checked on the generator rows by
respects_products.
"""

from __future__ import annotations

from .core import GroupTable, SizeCapError, respects_products


def generating_sequence(g: GroupTable) -> list[int]:
    """Greedy minimal generating sequence; see GroupTable.gens_and_plans."""
    return list(g.gens_and_plans[0])


def search_morphisms(
    src: GroupTable,
    tgt: GroupTable,
    *,
    bijective: bool,
    first_only: bool = False,
    cap: int | None = None,
    fixed: tuple[int, ...] = (),
) -> list[tuple[int, ...]]:
    """Image arrays of all maps src -> tgt respecting mul on every pair.

    Every image must have an order dividing its source element's order; when
    bijective, the orders must be equal and no two elements may share an
    image, so each level prunes on a collision with the images of the levels
    above it (`used`) or of its own (`new`). That pruning loses no answer and
    proves none: a homomorphism that keeps every element's order has a
    trivial kernel, so it is injective anyway, and respects_products at the
    leaf still decides which candidates are returned. Both tables must be
    groups (see GroupTable); that check relies on it. `fixed` gives the
    images of the first generators, each of an order its generator allows.
    Sorted lexicographically by image array unless first_only.
    """
    n, m = src.order, tgt.order
    if bijective and n != m:
        return []
    gens, plans = src.gens_and_plans
    src_orders, tgt_orders, tmul = src.orders, tgt.orders, tgt.mul
    free = gens[len(fixed):]
    if bijective:
        candidates = [[w for w in range(m) if tgt_orders[w] == src_orders[x]] for x in free]
    else:
        candidates = [[w for w in range(m) if src_orders[x] % tgt_orders[w] == 0] for x in free]
    candidates[:0] = [[w] for w in fixed]
    img = [-1] * n
    img[src.identity] = tgt.identity
    results: list[tuple[int, ...]] = []

    def dfs(level: int, used: set[int]) -> bool:
        if level == len(gens):
            if respects_products(src, tgt, img):
                results.append(tuple(img))
                if cap is not None and len(results) > cap:
                    raise SizeCapError(
                        f"enumeration exceeded cap of {cap} maps; "
                        "pass a larger cap to continue")
                return first_only
            return False
        gen, plan = gens[level], plans[level]
        for w in candidates[level]:
            if bijective and w in used:
                continue
            img[gen] = w
            new = {w}
            for p, x, y in plan:
                v = img[p] = tmul[img[x]][img[y]]
                if bijective:
                    if src_orders[p] != tgt_orders[v] or v in used or v in new:
                        break
                    new.add(v)
                elif src_orders[p] % tgt_orders[v]:
                    break
            else:
                if dfs(level + 1, used | new if bijective else used):
                    return True
        return False

    try:
        dfs(0, {tgt.identity})
    finally:
        del dfs  # dfs holds itself through its closure cell; free it without the cyclic GC
    if first_only:
        return results[:1]
    results.sort()
    return results
