"""Named structural claims checked by computation, reported as data.

Each check returns VerifyReport records; rendering (text or JSON) is the
CLI's job. Claim ids are stable strings like "table1.n=6" or "thm7.2.n=5"
so scripts can key on them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache

from .core import (
    GroupTable,
    SubgroupRef,
    _greedy_walk,
    _trusted,
    kernel,
    subgroup_table,
    verify_group_axioms,
)
from .construct import (
    actions,
    action_classes,
    cyclic,
    dihedral,
    direct_product,
    hom_set,
    holomorph,
    kh_copies,
    power_action,
    recognize_split,
    semidirect,
)
from .aut import (
    _aut_order,
    aut_group,
    automorphisms,
    is_characteristic,
    lambda_lift,
    zeta_lift,
)
from .iso import are_isomorphic, identify
from .numth import euler_phi

# (p, k) pairs of prop4.2 and (p, m) pairs of sec4.2; no sweep bound applies
PRIME_POWERS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2))
ELEMENTARY_ABELIAN = ((2, 2), (2, 3), (3, 2))


@dataclass(frozen=True)
class VerifyReport:
    claim_id: str
    status: str  # "pass" | "fail"
    expected: str
    actual: str
    elapsed_ms: float


@dataclass
class RunSummary:
    passed: int = 0
    failed: int = 0
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed == 0


def report_to_json(r: VerifyReport) -> dict:
    return {"claim": r.claim_id, "status": r.status,
            "expected": r.expected, "actual": r.actual, "ms": round(r.elapsed_ms, 3)}


class _Recorder:
    def __init__(self):
        self.reports: list[VerifyReport] = []
        self._t0 = time.perf_counter()

    def add(self, claim: str, expected, actual):
        ms = (time.perf_counter() - self._t0) * 1000.0
        status = "pass" if str(expected) == str(actual) else "fail"
        self.reports.append(VerifyReport(claim, status, str(expected), str(actual), ms))
        self._t0 = time.perf_counter()

    def holds(self, claim: str, statement: str, ok: bool, otherwise: str):
        """Record statement as expected, and as actual when ok, else otherwise."""
        self.add(claim, statement, statement if ok else otherwise)


def _table1_formula(n: int) -> int:
    if n % 4 == 0:
        return 4 * euler_phi(n)
    if n % 2 == 1:
        return euler_phi(n)
    return 6 * euler_phi(n)


def _zn_x_z2(n: int) -> GroupTable:
    return direct_product(cyclic(n), cyclic(2, "s"))


def check_table1(max_n: int) -> list[VerifyReport]:
    """|Aut(Z_n x Z_2)| against the phi(n) / 4*phi(n) / 6*phi(n) formula."""
    rec = _Recorder()
    for n in range(2, max_n + 1):
        got = _aut_order(_zn_x_z2(n))
        rec.add(f"table1.n={n}", _table1_formula(n), got)
    return rec.reports


def _index2_split_subgroup(g: GroupTable, target: GroupTable):
    """A normal index-2 subgroup of g isomorphic to target that splits."""
    for m in hom_set(g, cyclic(2)):
        if set(m.image) != {0, 1}:
            continue
        ker = kernel(m)
        ker_table, _ = subgroup_table(ker)
        if are_isomorphic(ker_table, target) is None:
            continue
        witness = recognize_split(g, ker)
        if witness is not None:
            return witness
    return None


def check_aut_zn_mod4_structure(max_n: int) -> list[VerifyReport]:
    """Aut(Z_n x Z_2) for n = 4, 8, ..., max_n splits over a copy of Aut(Z_n) x Z_2.

    Also verifies the four named small cases by explicit isomorphism:
    n=2 -> D3, n=4 -> D4, n=6 -> D6, n=8 -> Z2 x D4.
    """
    rec = _Recorder()
    zn_x_z2 = cache(_zn_x_z2)  # n = 4 and 8 come up twice; their Aut is then built once
    for n in range(4, max_n + 1, 4):
        a = aut_group(zn_x_z2(n)).table
        w_target = direct_product(aut_group(cyclic(n)).table, cyclic(2, "s"))
        witness = _index2_split_subgroup(a, w_target)
        rec.holds(f"thm4.1.n={n}", "split over Aut(Zn) x Z2 found", witness is not None,
                  "no splitting subgroup")
    named = ((2, "D3", dihedral(3)), (4, "D4", dihedral(4)), (6, "D6", dihedral(6)),
             (8, "Z2 x D4", direct_product(cyclic(2), dihedral(4))))
    for n, label, target in named:
        a = aut_group(zn_x_z2(n)).table
        rec.holds(f"sec4.1.n={n}", f"Aut(Z{n} x Z2) ~ {label}",
                  are_isomorphic(a, target) is not None, "not isomorphic")
    return rec.reports


def check_prime_power_aut(pairs: tuple[tuple[int, int], ...]) -> list[VerifyReport]:
    """|Aut(Z_{p^k})| = p^k - p^{k-1} by enumeration."""
    rec = _Recorder()
    for p, k in pairs:
        expected = p**k - p ** (k - 1)
        got = _aut_order(cyclic(p**k))
        rec.add(f"prop4.2.p={p}.k={k}", expected, got)
    return rec.reports


def check_elementary_abelian_aut(pairs: tuple[tuple[int, int], ...]) -> list[VerifyReport]:
    """|Aut(Z_p^m)| = prod over x < m of (p^m - p^x), by full enumeration."""
    rec = _Recorder()
    for p, m in pairs:
        expected = 1
        for x in range(m):
            expected *= p**m - p**x
        g = cyclic(p)
        for _ in range(m - 1):
            g = direct_product(g, cyclic(p))
        got = _aut_order(g)
        rec.add(f"sec4.2.p={p}.m={m}", expected, got)
    return rec.reports


def check_dihedral_aut(max_n: int) -> list[VerifyReport]:
    """Aut(D_n) ~ Hol(Z_n) with |Aut(D_n)| = n*phi(n); self-iso iff phi(n)=2."""
    rec = _Recorder()
    for n in range(3, max_n + 1):
        d = dihedral(n)
        a = aut_group(d).table
        hol_match = are_isomorphic(a, holomorph(n)) is not None
        rec.holds(f"thm7.2.n={n}", f"|Aut| = {n * euler_phi(n)}, isomorphic to holomorph",
                  a.order == n * euler_phi(n) and hol_match,
                  f"|Aut| = {a.order}, holomorph match: {hol_match}")
        self_iso = are_isomorphic(d, a) is not None
        rec.add(f"cor7.3.n={n}", euler_phi(n) == 2, self_iso)
    return rec.reports


def check_z8_case_study() -> list[VerifyReport]:
    """The four Z_8 x| Z_2 groups: distinctness, relations, Aut structure."""
    rec = _Recorder()
    z8, z2 = cyclic(8), cyclic(2, "s")
    groups = [semidirect(z8, z2, power_action(z2, z8, i)) for i in (1, 3, 5, 7)]
    rho, sigma, tau, upsilon = groups

    distinct = all(are_isomorphic(groups[i], groups[j]) is None
                   for i in range(4) for j in range(i + 1, 4))
    rec.holds("sec8.pairwise-noniso", "4 pairwise non-isomorphic groups", distinct,
              "collision found")

    # generator indices in the pair encoding: s = (0,1) -> 1, r = (1,0) -> 2
    rec.holds("remark8.1.rho", "table identical to Z8 x Z2",
              rho == direct_product(z8, z2), "tables differ")
    rec.holds("remark8.1.sigma", "s*r = r^3*s", sigma.mul[1][2] == 3 * 2 + 1,
              f"s*r = index {sigma.mul[1][2]}")
    rec.holds("remark8.1.tau", "s*r = r^5*s", tau.mul[1][2] == 5 * 2 + 1,
              f"s*r = index {tau.mul[1][2]}")
    rec.holds("remark8.1.upsilon", "isomorphic to D8",
              are_isomorphic(upsilon, dihedral(8)) is not None, "not isomorphic to D8")

    auts = [automorphisms(g) for g in groups]
    rec.add("sec8.2.aut-orders", [16, 16, 16, 32], [len(a) for a in auts])

    # printed general forms, as sets of (image of r, image of s) index pairs
    def gen_images(autos):
        return {(a.image[2], a.image[1]) for a in autos}

    rho_form = {(2 * i + j, 8 * k + 1) for i in (1, 3, 5, 7) for j in (0, 1) for k in (0, 1)}
    rec.holds("sec8.2.forms.rho", "all 16 of form [r^i s^j, r^4k s]",
              gen_images(auts[0]) == rho_form, "form mismatch")
    sigma_form = {(2 * i, 2 * k + 1) for i in (1, 3, 5, 7) for k in (0, 2, 4, 6)}
    rec.holds("sec8.2.forms.sigma", "all 16 of form [r^i, r^even s]",
              gen_images(auts[1]) == sigma_form, "form mismatch")
    rec.add("sec8.2.forms.tau", 16, len(auts[2]))
    upsilon_form = {(2 * i, 2 * k + 1) for i in (1, 3, 5, 7) for k in range(8)}
    rec.holds("sec8.2.forms.upsilon", "all 32 of form [r^i, r^k s]",
              gen_images(auts[3]) == upsilon_form, "form mismatch")

    z2d4 = direct_product(cyclic(2), dihedral(4))
    for label, g, thm in (("rho", rho, "thm8.2"), ("sigma", sigma, "thm8.3"),
                          ("tau", tau, "thm8.4")):
        at = aut_group(g).table
        ok = are_isomorphic(at, z2d4) is not None and identify(at).display == "Z2 x D4"
        rec.holds(f"{thm}.{label}", "Aut ~ Z2 x D4", ok, "mismatch")

    witness = _index2_split_subgroup(aut_group(upsilon).table, z2d4)
    rec.holds("thm8.5", "Aut(D8) splits over index-2 copy of Z2 x D4", witness is not None,
              "no split found")
    return rec.reports


def check_action_equivalence(max_m: int, max_n: int) -> list[VerifyReport]:
    """Actions equivalent under precomposition give isomorphic products.

    Products are built only for classes with a second member: a class with
    one member holds with nothing to compare. The first member's product is
    built once and each other member's as it is compared, so all() stops
    building at the first non-isomorphic one.
    """
    rec = _Recorder()
    hs = [cyclic(n, "s") for n in range(1, max_n + 1)]  # each Aut(Z_n) is then computed once
    for m in range(1, max_m + 1):
        k = cyclic(m)
        for n, h in enumerate(hs, 1):
            ok = True
            for first, *rest in action_classes(h, k):
                if rest:
                    base = semidirect(k, h, first)
                    ok &= all(are_isomorphic(base, semidirect(k, h, a)) is not None
                              for a in rest)
            rec.holds(f"thm6.6.m={m}.n={n}", "all classes uniform", ok,
                      "class with non-isomorphic members")
    return rec.reports


def _coprime_pairs(max_order: int):
    for m in range(2, max_order // 2 + 1):
        for n in range(2, max_order // m + 1):
            if math.gcd(m, n) == 1:
                yield m, n


def check_characteristic_theorems(max_order: int) -> list[VerifyReport]:
    """Coprime-order structure and lift criteria.

    Over all coprime cyclic pairs with m*n <= max_order and every action:
    the K-copy is characteristic, |Aut(Z_m x Z_n)| factors as
    phi(m)*phi(n), central-image zeta lifts verify, and psi-fixing lambda
    lifts verify. A small battery extends the characteristic/factorization
    claims to non-cyclic coprime products and checks the biconditional
    (factorization iff both copies characteristic) including its failing
    direction on Z4 x Z2.

    The lifts are checked on generators. The zeta lift of omega after omega'
    is the zeta lift of omega after that of omega', and each is a bijection,
    so the omega in Aut(K) whose lift is an automorphism are closed under
    composition: a subgroup of the finite group Aut(K). So every omega lifts
    when the generators of Aut(K) that core._greedy_walk keeps do, and one
    that fails is a counterexample. Likewise for lambda lifts on the subgroup
    F = {delta : psi after delta = psi} of Aut(H), one walk per action: the
    delta in F that lift form a subgroup of F, which is F when it holds F's
    kept generators. The K-copy of each product skips SubgroupRef's check
    (core._trusted): it is a subgroup, as (k1, e)(k2, e) = (k1*k2, e).
    """
    rec = _Recorder()
    cyc = cache(cyclic)  # each factor, and so its Aut, is built once
    for m, n in _coprime_pairs(max_order):
        k, h = cyc(m), cyc(n, "s")
        acts = actions(h, k)
        aut_k, aut_h = aut_group(k), aut_group(h)
        ak, ah = aut_k.table, aut_h.table
        zeta_gens = [aut_k.elements[i]
                     for i, _ in _greedy_walk(ak.mul, ak.identity, range(ak.order))]
        char_ok = zeta_ok = lambda_ok = True
        products = [semidirect(k, h, a) for a in acts]
        for a, g in zip(acts, products):
            # the K-copy in the pair encoding, index k*n + h for (k, h)
            char_ok &= is_characteristic(g, _trusted(SubgroupRef, g, tuple(range(0, m * n, n))))
            # Aut of a cyclic group is abelian, so the image of any action
            # is central and every zeta lift must verify
            zeta_ok &= all(zeta_lift(omega, g)[1] for omega in zeta_gens)
            psi = [mm.image for mm in a.maps]
            fixing = (i for i, delta in enumerate(aut_h.elements)
                      if all(psi[delta.image[x]] == psi[x] for x in range(n)))
            lambda_ok &= all(lambda_lift(aut_h.elements[i], g)[1]
                             for i, _ in _greedy_walk(ah.mul, ah.identity, fixing))
        rec.holds(f"thm6.4.m={m}.n={n}", f"Z{m}-copy characteristic in all {len(acts)} products",
                  char_ok, "not characteristic somewhere")
        # hom_set sorts by image array and the trivial map into Aut(K)'s table
        # is all zeros (the identity map is index 0), so acts[0] is the trivial
        # action and products[0] has direct_product(k, h)'s table
        got = _aut_order(products[0])
        rec.add(f"prop5.3.m={m}.n={n}", euler_phi(m) * euler_phi(n), got)
        rec.holds(f"thm6.2.m={m}.n={n}", "central image lifts all omega", zeta_ok,
                  "zeta verdict false")
        rec.holds(f"thm6.3.m={m}.n={n}", "psi-fixing delta always lifts", lambda_ok,
                  "lambda verdict false")

    # general (non-cyclic) coprime factors: characteristic K-copy and
    # |Aut(K x H)| = |Aut K| * |Aut H|
    d3, d4, pair = dihedral(3), dihedral(4), cache(direct_product)  # D4 x Z3 comes up twice
    for kn, k, hn, h in (("D3", d3, "Z5", cyc(5, "t")), ("D4", d4, "Z3", cyc(3, "t"))):
        g = pair(k, h)
        rec.holds(f"thm6.5.{kn}x{hn}", f"{kn}-copy characteristic",
                  is_characteristic(g, kh_copies(k.order, h.order, g)[0]), "not characteristic")
        rec.add(f"prop5.4.{kn}x{hn}", _aut_order(k) * _aut_order(h), _aut_order(g))

    battery = (
        ("Z2", cyc(2), "Z2b", cyc(2, "s")),
        ("Z4", cyc(4), "Z2", cyc(2, "s")),
        ("Z2", cyc(2), "Z4", cyc(4, "s")),
        ("Z3", cyc(3), "Z3b", cyc(3, "s")),
        ("Z3", cyc(3), "Z4", cyc(4, "s")),
        ("Z2", cyc(2), "Z3", cyc(3, "s")),
        ("D3", d3, "Z2", cyc(2, "t")),
        ("D4", d4, "Z3", cyc(3, "t")),
        ("Z5", cyc(5), "Z4", cyc(4, "s")),
    )
    for kn, k, hn, h in battery:
        g = pair(k, h)
        kc, hc = kh_copies(k.order, h.order, g)
        product_count = _aut_order(g)
        factor_count = _aut_order(k) * _aut_order(h)
        both_char = is_characteristic(g, kc) and is_characteristic(g, hc)
        rec.holds(f"cor5.2.{kn}x{hn}", "order factorization iff both copies characteristic",
                  (product_count == factor_count) == both_char,
                  f"|Aut(KxH)|={product_count}, |AutK||AutH|={factor_count}, "
                  f"both characteristic={both_char}")
    return rec.reports


def _negative_control_reports() -> list[VerifyReport]:
    """Deliberately broken claims; these must FAIL, proving detection works."""
    rec = _Recorder()
    broken = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    broken[1][1] = 1  # corrupt one cell of the Z4 table
    verdict = verify_group_axioms(broken)
    rec.holds("negative-control.corrupt-table", "table passes group axioms", verdict.ok,
              f"axiom {verdict.axiom} violated at witness {verdict.witness}")
    wrong = euler_phi(6) + 1  # deliberately wrong expected count
    got = _aut_order(cyclic(6))
    rec.add("negative-control.wrong-formula", wrong, got)
    return rec.reports


def run_all(max_n: int | None = None,
            negative_control: bool = False) -> tuple[list[VerifyReport], RunSummary]:
    """Run every section in order and tally the reports.

    Without max_n the sweeps run at their defaults: table1 over n = 2..20,
    thm4.1 for the multiples of 4 up to 12, dihedral n = 3..12, action
    equivalence over m <= 12 and n <= 6, and the characteristic theorems over
    m*n <= 60. With max_n = N, table1 runs n = 2..N, even past 20; every other
    sweep bound becomes the smaller of its default and N. The prime-power,
    elementary-abelian and Z8 sections ignore max_n. negative_control appends
    two claims built to fail.
    """
    def bound(default: int) -> int:
        return default if max_n is None else min(default, max_n)

    t0 = time.perf_counter()
    reports: list[VerifyReport] = []
    # sections are looked up as module globals, so a caller can wrap them
    reports += check_table1(20 if max_n is None else max_n)
    reports += check_aut_zn_mod4_structure(bound(12))
    reports += check_prime_power_aut(PRIME_POWERS)
    reports += check_elementary_abelian_aut(ELEMENTARY_ABELIAN)
    reports += check_dihedral_aut(bound(12))
    reports += check_z8_case_study()
    reports += check_action_equivalence(bound(12), bound(6))
    reports += check_characteristic_theorems(bound(60))
    if negative_control:
        reports += _negative_control_reports()
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    passed = sum(r.status == "pass" for r in reports)
    return reports, RunSummary(passed, len(reports) - passed, elapsed_ms)
