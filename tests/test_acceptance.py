"""End-to-end acceptance checks, one per shipped criterion.

Each test prints a single ACCEPTANCE <nn> PASS/FAIL line (visible with
pytest -s; captured output is shown automatically on failure).
"""

import itertools
from contextlib import contextmanager

from groupkit.aut import aut_group, automorphisms, is_characteristic
from groupkit.cli import main
from groupkit.construct import (
    action_classes,
    cyclic,
    dihedral,
    direct_product,
    hom_set,
    holomorph,
    kh_copies,
    recognize_split,
    semidirect,
)
from groupkit.core import kernel, subgroup_generated, subgroup_table, verify_group_axioms
from groupkit.expr import parse_and_eval
from groupkit.iso import are_isomorphic, identify
from groupkit.numth import euler_phi


@contextmanager
def _criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {description}", flush=True)


def _zn_x_z2(n: int):
    return direct_product(cyclic(n), cyclic(2, "s"))


def _elementary_abelian(p: int, m: int):
    g = cyclic(p)
    for _ in range(m - 1):
        g = direct_product(g, cyclic(p))
    return g


def test_criterion_01_aut_counts_of_zn_x_z2():
    with _criterion(1, "|Aut(Zn x Z2)| matches the mod-4 formula for n in [2, 20]"):
        for n in range(2, 21):
            phi = euler_phi(n)
            if n % 4 == 0:
                expected = 4 * phi
            elif n % 2 == 0:
                expected = 6 * phi
            else:
                expected = phi
            assert len(automorphisms(_zn_x_z2(n))) == expected, f"n={n}"


def test_criterion_02_named_aut_isomorphisms():
    targets = [
        (2, dihedral(3)),
        (4, dihedral(4)),
        (6, dihedral(6)),
        (8, direct_product(cyclic(2), dihedral(4))),
    ]
    with _criterion(2, "Aut(Zn x Z2) matches the named group for n in {2, 4, 6, 8}"):
        for n, target in targets:
            witness = are_isomorphic(aut_group(_zn_x_z2(n)).table, target)
            assert witness is not None, f"n={n}"
            assert witness.is_isomorphism(), f"n={n}"


def test_criterion_03_prime_power_aut_counts():
    pairs = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
             (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]
    with _criterion(3, "|Aut(Z_{p^k})| = p^k - p^(k-1) over the (p, k) battery"):
        for p, k in pairs:
            assert len(automorphisms(cyclic(p**k))) == p**k - p ** (k - 1), f"(p,k)=({p},{k})"


def test_criterion_04_elementary_abelian_product_formula():
    with _criterion(4, "|Aut(Z_p^m)| equals the product formula for (2,2), (2,3), (3,2)"):
        for p, m, value in [(2, 2, 6), (2, 3, 168), (3, 2, 48)]:
            formula = 1
            for x in range(m):
                formula *= p**m - p**x
            assert formula == value
            assert len(automorphisms(_elementary_abelian(p, m))) == value, f"(p,m)=({p},{m})"


def test_criterion_05_dihedral_aut_is_holomorph():
    with _criterion(5, "Aut(Dn) = Hol(Zn) with |Aut| = n*phi(n); self-match only at 3, 4, 6"):
        self_isomorphic = set()
        for n in range(3, 13):
            ag = aut_group(dihedral(n)).table
            assert ag.order == n * euler_phi(n), f"n={n}"
            witness = are_isomorphic(ag, holomorph(n))
            assert witness is not None and witness.is_isomorphism(), f"n={n}"
            if are_isomorphic(dihedral(n), ag) is not None:
                self_isomorphic.add(n)
        assert self_isomorphic == {3, 4, 6}


def test_criterion_06_z8_z2_case_study():
    with _criterion(6, "the four Z8-by-Z2 groups: relations, Aut orders, Aut structure"):
        rho = direct_product(cyclic(8), cyclic(2, "s"))
        sigma = parse_and_eval("Z8 : Z2 [r^3]")
        tau = parse_and_eval("Z8 : Z2 [r^5]")
        upsilon = parse_and_eval("Z8 : Z2 [r^7]")
        four = [rho, sigma, tau, upsilon]

        for g1, g2 in itertools.combinations(four, 2):
            assert are_isomorphic(g1, g2) is None

        # pair encoding (k, h) -> 2k + h: s is index 1, r is index 2,
        # so s * r lands on r^i * s at index 2i + 1
        assert sigma.mul[1][2] == 2 * 3 + 1
        assert tau.mul[1][2] == 2 * 5 + 1
        assert upsilon.mul[1][2] == 2 * 7 + 1
        assert are_isomorphic(upsilon, dihedral(8)) is not None

        auts = [aut_group(g).table for g in four]
        assert [a.order for a in auts] == [16, 16, 16, 32]

        z2_x_d4 = direct_product(cyclic(2), dihedral(4))
        for a in auts[:3]:
            witness = are_isomorphic(a, z2_x_d4)
            assert witness is not None and witness.is_isomorphism()

        # Aut(D8) has a normal index-2 subgroup of that same shape,
        # and the extension splits
        aut_d8 = auts[3]
        split = None
        for quot_map in hom_set(aut_d8, cyclic(2)):
            if set(quot_map.image) != {0, 1}:
                continue
            k_ref = kernel(quot_map)
            sub, _ = subgroup_table(k_ref)
            if are_isomorphic(sub, z2_x_d4) is None:
                continue
            split = recognize_split(aut_d8, k_ref)
            if split is not None:
                break
        assert split is not None
        assert split.iso.is_isomorphism()


def test_criterion_07_equivalent_actions_give_isomorphic_products():
    with _criterion(7, "equivalence classes of actions yield isomorphic products (m<=12, n<=6)"):
        for m in range(1, 13):
            for n in range(1, 7):
                k = cyclic(m)
                h = cyclic(n, "s")
                for cls in action_classes(h, k):
                    first = semidirect(k, h, cls[0])
                    for other in cls[1:]:
                        assert are_isomorphic(first, semidirect(k, h, other)) is not None, \
                            f"(m,n)=({m},{n})"


def test_criterion_08_characteristic_subgroup_suite():
    from groupkit.verify import check_characteristic_theorems

    with _criterion(8, "characteristic-subgroup and factorization claims over mn <= 60"):
        reports = check_characteristic_theorems(max_order=60)
        failures = [r.claim_id for r in reports if r.status != "pass"]
        assert not failures, failures
        assert any(r.claim_id == "cor5.2.Z4xZ2" for r in reports)

        # the failing-direction witness, spelled out: counts differ and the
        # factor copies are not both characteristic
        g = direct_product(cyclic(4), cyclic(2, "s"))
        product_count = len(automorphisms(g))
        factor_count = len(automorphisms(cyclic(4))) * len(automorphisms(cyclic(2)))
        kc, hc = kh_copies(4, 2, g)
        both_char = is_characteristic(g, kc) and is_characteristic(g, hc)
        assert product_count != factor_count
        assert not both_char


def _unpruned_automorphism_images(g):
    """Generator-image search with no pruning: try every assignment."""
    n = g.order
    if n == 1:
        return {(0,)}
    gens = []
    members = {g.identity}
    for x in range(n):
        if x not in members:
            gens.append(x)
            members = set(subgroup_generated(g, gens).members)
            if len(members) == n:
                break
    # breadth-first decomposition: every element is parent * generator
    parent = {g.identity: None}
    discovery = [g.identity]
    frontier = [g.identity]
    while frontier:
        step = []
        for a in frontier:
            for idx, s in enumerate(gens):
                b = g.mul[a][s]
                if b not in parent:
                    parent[b] = (a, idx)
                    discovery.append(b)
                    step.append(b)
        frontier = step
    found = set()
    for assignment in itertools.product(range(n), repeat=len(gens)):
        img = [0] * n
        for b in discovery[1:]:
            a, idx = parent[b]
            img[b] = g.mul[img[a]][assignment[idx]]
        if len(set(img)) != n:
            continue
        if all(img[g.mul[a][b]] == g.mul[img[a]][img[b]]
               for a in range(n) for b in range(n)):
            found.add(tuple(img))
    return found


def test_criterion_09_pruned_search_matches_unpruned_oracle():
    battery = [cyclic(n) for n in range(1, 17)]
    battery += [
        direct_product(cyclic(4), cyclic(2, "s")),
        _elementary_abelian(2, 3),
        direct_product(cyclic(8), cyclic(2, "s")),
        direct_product(cyclic(4), cyclic(4, "s")),
        direct_product(cyclic(2), cyclic(6, "s")),
        direct_product(cyclic(3), cyclic(3, "s")),
        direct_product(direct_product(cyclic(4), cyclic(2, "s")), cyclic(2, "t")),
        dihedral(3), dihedral(4), dihedral(5), dihedral(6), dihedral(7), dihedral(8),
        parse_and_eval("Z8 : Z2 [r^3]"),
        parse_and_eval("Z8 : Z2 [r^5]"),
        holomorph(5),
    ]
    with _criterion(9, "pruned Aut enumeration equals the unpruned oracle on order <= 16"):
        checked = 0
        for g in battery:
            if g.order > 16:
                continue
            pruned = {a.image for a in automorphisms(g)}
            assert pruned == _unpruned_automorphism_images(g), identify(g).display
            checked += 1
        assert checked >= 30


def test_criterion_10_negative_controls():
    with _criterion(10, "corrupted table fails axioms with a witness; bad check fails the run"):
        broken = [list(row) for row in cyclic(4).mul]
        broken[1][1] = 1
        verdict = verify_group_axioms(broken, identity=0)
        assert not verdict.ok
        assert verdict.axiom == "associativity"
        assert verdict.witness is not None
        a, b, c = verdict.witness
        assert broken[broken[a][b]][c] != broken[a][broken[b][c]]

        exit_code = main(["verify-paper", "--max-n", "2", "--negative-control"])
        assert exit_code == 1
