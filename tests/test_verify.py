"""The claim-by-claim verification suite and its reporting format."""

import json
from pathlib import Path

import pytest

import groupkit.aut
import groupkit.construct
import groupkit.verify
from groupkit.aut import aut_group, lambda_lift, zeta_lift
from groupkit.construct import actions, cyclic, dihedral, direct_product, semidirect
from groupkit.core import SizeCapError, _greedy_walk, subgroup_generated
from groupkit.expr import parse_and_eval
from groupkit.verify import (
    check_action_equivalence,
    check_aut_zn_mod4_structure,
    check_characteristic_theorems,
    check_dihedral_aut,
    check_elementary_abelian_aut,
    check_prime_power_aut,
    check_table1,
    check_z8_case_study,
    report_to_json,
    run_all,
)

SMALL = 6  # the max_n of the CI smoke run


class TestIndividualChecks:
    def test_table1_passes(self):
        reports = check_table1(max_n=8)
        assert len(reports) == 7  # n from 2 through 8
        assert all(r.status == "pass" for r in reports)
        assert {r.claim_id for r in reports} == {f"table1.n={n}" for n in range(2, 9)}

    def test_mod4_structure_passes(self):
        reports = check_aut_zn_mod4_structure(8)
        assert all(r.status == "pass" for r in reports)
        assert any(r.claim_id.startswith("thm4.1") for r in reports)
        assert any(r.claim_id.startswith("sec4.1") for r in reports)

    def test_prime_power_counts_pass(self):
        reports = check_prime_power_aut(pairs=((2, 3), (3, 2)))
        assert [r.claim_id for r in reports] == ["prop4.2.p=2.k=3", "prop4.2.p=3.k=2"]
        assert all(r.status == "pass" for r in reports)

    def test_elementary_abelian_pass_and_skip(self):
        reports = check_elementary_abelian_aut(pairs=((2, 2),))
        assert [(r.claim_id, r.status) for r in reports] == [("sec4.2.p=2.m=2", "pass")]
        # |Aut(Z2^4)| = 20160 is over the Aut cap, which automorphisms refuses
        with pytest.raises(SizeCapError, match="20160"):
            check_elementary_abelian_aut(pairs=((2, 4),))

    def test_dihedral_aut_passes(self):
        reports = check_dihedral_aut(max_n=8)
        assert all(r.status == "pass" for r in reports)
        ids = {r.claim_id for r in reports}
        assert "thm7.2.n=5" in ids
        assert "cor7.3.n=6" in ids

    def test_z8_case_study_passes(self):
        reports = check_z8_case_study()
        assert all(r.status == "pass" for r in reports)
        ids = {r.claim_id for r in reports}
        for needed in ("sec8.pairwise-noniso", "remark8.1.sigma", "remark8.1.tau",
                       "sec8.2.aut-orders", "thm8.2.rho", "thm8.3.sigma",
                       "thm8.4.tau", "thm8.5"):
            assert needed in ids

    def test_action_equivalence_passes(self):
        reports = check_action_equivalence(max_m=6, max_n=4)
        assert all(r.status == "pass" for r in reports)
        assert any(r.claim_id == "thm6.6.m=5.n=4" for r in reports)

    def test_action_equivalence_builds_only_classes_with_a_second_member(self, monkeypatch):
        real, builds = groupkit.verify.semidirect, []

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(groupkit.verify, "semidirect", counting)
        reports = check_action_equivalence(max_m=12, max_n=6)
        assert len(reports) == 72
        assert len(builds) == 20

    def test_action_equivalence_computes_each_factors_aut_once(self, monkeypatch):
        # Aut(Z_m) for 12 m and Aut(Z_n) for 6 n: one chain per factor, one table per Z_m
        chain, compose, counts = groupkit.aut._aut_chain, groupkit.aut._compose_rows, [0, 0]

        def counting_chain(g, cap):
            counts[0] += "_aut_chain" not in vars(g)  # no chain cached on g yet
            return chain(g, cap)

        def counting_compose(*args):
            counts[1] += 1
            return compose(*args)

        monkeypatch.setattr(groupkit.aut, "_aut_chain", counting_chain)
        monkeypatch.setattr(groupkit.aut, "_compose_rows", counting_compose)
        assert len(check_action_equivalence(max_m=12, max_n=6)) == 72
        assert counts == [18, 12]

    def test_action_equivalence_compares_every_class_with_a_second_member(self, monkeypatch):
        monkeypatch.setattr(groupkit.verify, "are_isomorphic", lambda a, b: None)
        reports = check_action_equivalence(max_m=12, max_n=6)
        failed = {r.claim_id for r in reports if r.status == "fail"}
        assert failed == {f"thm6.6.m={m}.n={n}" for m, n in
                          ((5, 4), (7, 3), (7, 6), (9, 3), (9, 6), (10, 4), (11, 5))}
        assert sum(r.status == "pass" for r in reports) == 65

    def test_characteristic_theorems_pass(self):
        reports = check_characteristic_theorems(max_order=20)
        assert all(r.status == "pass" for r in reports)
        ids = {r.claim_id for r in reports}
        assert any(i.startswith("thm6.4") for i in ids)
        assert any(i.startswith("thm6.2") for i in ids)
        assert any(i.startswith("thm6.3") for i in ids)
        assert any(i.startswith("prop5.3") for i in ids)
        assert "cor5.2.Z4xZ2" in ids

    def test_index2_split_subgroup_is_none_without_a_matching_kernel(self):
        # D4's three index-2 subgroups have order 4, so none is Z3
        assert groupkit.verify._index2_split_subgroup(dihedral(4), cyclic(3)) is None


def _full_and_generator_lift_verdicts(k, h, a):
    """(every omega lifts, every psi-fixing delta lifts) for K x| H under a,
    each by the full check and by check_characteristic_theorems' generators."""
    g, aut_k, aut_h = semidirect(k, h, a), aut_group(k), aut_group(h)
    psi = [mm.image for mm in a.maps]
    fixing = [i for i, d in enumerate(aut_h.elements)
              if all(psi[d.image[x]] == psi[x] for x in range(h.order))]
    zeta_full = all(zeta_lift(omega, g)[1] for omega in aut_k.elements)
    lambda_full = all(lambda_lift(aut_h.elements[i], g)[1] for i in fixing)
    ak, ah = aut_k.table, aut_h.table
    zeta_gens = [i for i, _ in _greedy_walk(ak.mul, ak.identity, range(ak.order))]
    lambda_gens = [i for i, _ in _greedy_walk(ah.mul, ah.identity, fixing)]
    zeta = all(zeta_lift(aut_k.elements[i], g)[1] for i in zeta_gens)
    lamb = all(lambda_lift(aut_h.elements[i], g)[1] for i in lambda_gens)
    return (zeta_full, lambda_full), (zeta, lamb)


class TestCharacteristicSection:
    def test_generator_lift_checks_match_the_full_checks(self):
        pairs = list(groupkit.verify._coprime_pairs(60))
        assert len(pairs) == 80
        tried = 0
        for m, n in pairs:
            k, h = cyclic(m), cyclic(n, "s")
            for a in actions(h, k):
                full, by_generators = _full_and_generator_lift_verdicts(k, h, a)
                assert by_generators == full == (True, True), (m, n)
                tried += 1
        assert tried == 145

    def test_generator_lift_check_finds_a_failing_zeta_lift(self):
        # Aut(Z2 x Z2) ~ S3, and a faithful Z3 acts by 3-cycles, which no
        # transposition commutes with: some zeta lifts are not automorphisms
        k, h = direct_product(cyclic(2), cyclic(2)), cyclic(3, "s")
        faithful = [a for a in actions(h, k) if len({m.image for m in a.maps}) == 3]
        assert faithful
        for a in faithful:
            full, by_generators = _full_and_generator_lift_verdicts(k, h, a)
            assert full == by_generators == (False, True)

    @pytest.mark.parametrize("expr", ["Z12", "D6", "Z2 x Z2 x Z2", "Hol 7", "Z8 : Z2 [r^5]"])
    def test_greedy_generators_generate_every_candidate(self, expr):
        table = aut_group(parse_and_eval(expr)).table
        for candidates in (range(table.order), range(table.order - 1, -1, -1),
                           subgroup_generated(table, [table.order - 1]).members):
            kept = []
            for b, closure in _greedy_walk(table.mul, table.identity, candidates):
                kept.append(b)
                assert closure == set(subgroup_generated(table, kept).members)
                assert {table.mul[x][y] for x in closure for y in closure} == closure
            assert set(kept) <= set(candidates)
            assert len(kept) == len(set(kept))
            assert set(candidates) <= set(subgroup_generated(table, kept).members)

    def test_trivial_action_comes_first(self):
        # prop5.3 reads |Aut(Z_m x Z_n)| from the product of acts[0]
        for m, n in groupkit.verify._coprime_pairs(60):
            k, h = cyclic(m), cyclic(n, "s")
            assert semidirect(k, h, actions(h, k)[0]) == direct_product(k, h), (m, n)

    def test_work_per_run(self, monkeypatch):
        # 286 new chains, 998 zeta and 564 lambda lifts, and a second copy of
        # each Z_m x Z_n before the K-copies were certified by element orders,
        # the lifts checked on generators and prop5.3 read from acts[0]
        chain, semi, counts = groupkit.aut._aut_chain, groupkit.construct.semidirect, [0, 0]

        def counting_chain(g, cap):
            counts[0] += "_aut_chain" not in vars(g)  # no chain cached on g yet
            return chain(g, cap)

        def counting_semidirect(*args, **kwargs):
            counts[1] += 1
            return semi(*args, **kwargs)

        monkeypatch.setattr(groupkit.aut, "_aut_chain", counting_chain)
        # direct_product calls construct's binding, the section its own
        monkeypatch.setattr(groupkit.construct, "semidirect", counting_semidirect)
        monkeypatch.setattr(groupkit.verify, "semidirect", counting_semidirect)
        reports = check_characteristic_theorems(60)
        assert all(r.status == "pass" for r in reports)
        assert counts[0] <= 141
        # one product per action of the 80 coprime pairs (145 actions), then
        # D3, D4 and the 10 distinct direct products of the battery
        assert counts[1] == 145 + 2 + 10


class TestRunAll:
    def test_small_config_all_pass(self):
        reports, summary = run_all(max_n=SMALL)
        assert summary.failed == 0
        assert summary.ok
        assert summary.passed == len([r for r in reports if r.status == "pass"])
        assert summary.passed + summary.failed == len(reports)

    def test_claim_ids_unique(self):
        reports, _ = run_all(max_n=SMALL)
        ids = [r.claim_id for r in reports]
        assert len(ids) == len(set(ids))

    def test_negative_control_adds_exactly_two_failures(self):
        base, _ = run_all(max_n=SMALL)
        reports, summary = run_all(max_n=SMALL, negative_control=True)
        assert len(reports) == len(base) + 2
        failing = [r for r in reports if r.status == "fail"]
        assert {r.claim_id for r in failing} == {
            "negative-control.corrupt-table", "negative-control.wrong-formula"}
        assert not summary.ok

    def test_failure_reports_carry_expected_and_actual(self):
        reports, _ = run_all(max_n=2, negative_control=True)
        for r in reports:
            if r.status == "fail":
                assert r.expected
                assert r.actual
                assert r.expected != r.actual

    def test_max_n_past_the_defaults_extends_only_table1(self):
        reports, _ = run_all(max_n=21)
        ids = {r.claim_id for r in reports}
        assert {"table1.n=21", "thm4.1.n=12", "thm7.2.n=12", "thm6.6.m=12.n=6"} <= ids
        assert not {"thm7.2.n=13", "thm6.6.m=13.n=1", "thm6.6.m=12.n=7"} & ids

    def test_sections_are_called_through_module_globals(self, monkeypatch):
        # bench/worker.py times the paper workload by wrapping sections this way
        sections = ["check_table1", "check_aut_zn_mod4_structure", "check_prime_power_aut",
                    "check_elementary_abelian_aut", "check_dihedral_aut", "check_z8_case_study",
                    "check_action_equivalence", "check_characteristic_theorems"]
        called = []
        for name in sections:
            def wrapped(*args, _fn=getattr(groupkit.verify, name), _name=name):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(groupkit.verify, name, wrapped)
        run_all(max_n=1)
        assert called == sections


class TestReportJson:
    def test_exact_key_set(self):
        reports, _ = run_all(max_n=SMALL)
        for r in reports[:5]:
            d = report_to_json(r)
            assert set(d) == {"claim", "status", "expected", "actual", "ms"}
            assert isinstance(d["ms"], float)
            assert d["status"] in ("pass", "fail")

    def test_defaults_cover_documented_ranges(self):
        reports, _ = run_all()
        ids = {r.claim_id for r in reports}
        assert {"table1.n=20", "thm4.1.n=12", "thm7.2.n=12", "thm6.6.m=12.n=6",
                "thm6.4.m=3.n=20", "prop4.2.p=2.k=5", "prop4.2.p=7.k=2",
                "sec4.2.p=3.m=2"} <= ids
        assert "table1.n=21" not in ids and "thm7.2.n=13" not in ids
        assert "thm6.6.m=12.n=7" not in ids
        assert sum(i.startswith("prop4.2.") for i in ids) == 12
        assert sorted(i for i in ids if i.startswith("sec4.2.")) == [
            "sec4.2.p=2.m=2", "sec4.2.p=2.m=3", "sec4.2.p=3.m=2"]
        assert not any(i.startswith("negative-control") for i in ids)


class TestFullRun:
    def test_default_run_fully_passes(self):
        reports, summary = run_all()
        assert summary.failed == 0
        assert summary.passed == len(reports)
        ids = {r.claim_id for r in reports}
        assert "table1.n=20" in ids
        assert "thm7.2.n=12" in ids
        assert "thm6.6.m=12.n=6" in ids
        assert "thm8.5" in ids

    def test_default_run_matches_pinned_claims(self):
        # every (claim, status, expected, actual) of the default run, texts included
        pinned = json.loads((Path(__file__).parent / "verify_paper_claims.json").read_text())
        reports, _ = run_all()
        assert [[r.claim_id, r.status, r.expected, r.actual] for r in reports] == pinned

    def test_negative_control_texts(self):
        reports, _ = run_all(max_n=1, negative_control=True)
        assert [(r.claim_id, r.status, r.expected, r.actual) for r in reports[-2:]] == [
            ("negative-control.corrupt-table", "fail", "table passes group axioms",
             "axiom associativity violated at witness (1, 1, 2)"),
            ("negative-control.wrong-formula", "fail", "3", "2")]
