"""Backtracking search for structure-preserving maps between Cayley tables.

Shared engine behind hom_set, automorphism enumeration and isomorphism
search: pick a minimal generating sequence of the source, try order-
compatible images for each generator, force the rest of the map by closing
under products, and verify surviving candidates on the generator rows.
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
    injective: bool,
    exact_order: bool,
    first_only: bool = False,
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """Image arrays of all maps src -> tgt respecting mul on every pair.

    Generator images are filtered by element order (equal when exact_order,
    divisor otherwise); forced assignments are pruned by the same order rule
    and, when injective, by image collisions. Complete candidates are checked
    by respects_products, so the returned maps are genuine homomorphisms
    (bijective ones when injective). Both tables must be groups; that check
    relies on it, and verify_group_axioms checks it for tables from
    make_table. Sorted lexicographically by image array unless first_only.
    """
    n, m = src.order, tgt.order
    if injective and n != m:
        return []
    gens, plans = src.gens_and_plans
    src_orders, tgt_orders = src.orders, tgt.orders
    if exact_order:
        candidates = [[w for w in range(m) if tgt_orders[w] == src_orders[x]] for x in gens]
    else:
        candidates = [[w for w in range(m) if src_orders[x] % tgt_orders[w] == 0] for x in gens]

    tmul = tgt.mul
    img = [-1] * n
    used = [False] * m
    trail: list[int] = []

    def place(z: int, w: int) -> bool:
        if exact_order:
            if src_orders[z] != tgt_orders[w]:
                return False
        elif src_orders[z] % tgt_orders[w]:
            return False
        if injective and used[w]:
            return False
        img[z] = w
        used[w] = True
        trail.append(z)
        return True

    def rollback(mark: int) -> None:
        while len(trail) > mark:
            z = trail.pop()
            used[img[z]] = False
            img[z] = -1

    results: list[tuple[int, ...]] = []

    def dfs(level: int) -> bool:
        if level == len(gens):
            if respects_products(src, tgt, img):
                results.append(tuple(img))
                if cap is not None and len(results) > cap:
                    raise SizeCapError(
                        f"enumeration exceeded cap of {cap} maps; "
                        "pass a larger cap to continue")
                return first_only
            return False
        for w in candidates[level]:
            mark = len(trail)
            ok = place(gens[level], w)
            if ok:
                for p, x, y in plans[level]:
                    if not place(p, tmul[img[x]][img[y]]):
                        ok = False
                        break
                if ok and dfs(level + 1):
                    return True
            rollback(mark)
        return False

    img[src.identity] = tgt.identity
    used[tgt.identity] = True
    trail.append(src.identity)
    dfs(0)
    if first_only:
        return results[:1]
    results.sort()
    return results
