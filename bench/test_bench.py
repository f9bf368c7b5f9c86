"""Self-tests of the benchmark's oracles and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import contextlib
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import groupkit  # noqa: E402
from groupkit import automorphisms, is_abelian, parse_and_eval, verify_group_axioms  # noqa: E402
from groupkit.cli import main as cli_main  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def test_order_oracle_agrees_with_parse_and_eval():
    for seed in (0, 1, 2):
        for op in wl.tables_ops(seed):
            if op.kind != "cli":
                continue
            g = parse_and_eval(op.argv[1])
            assert str(g.order) == op.lines["order: "], op.argv
            assert ("yes" if is_abelian(g) else "no") == op.lines["abelian: "], op.argv
            assert wl.name_order(op.argv[1]) == g.order


def test_large_expressions_have_the_orders_the_generator_expects():
    for seed in (0, 1, 2):
        for op in wl.large_ops(seed):
            for text in op.argv[1:]:
                assert parse_and_eval(text).order == wl.name_order(text)


def test_bench_tables_are_groups_and_corruption_breaks_them():
    rng = random.Random(7)
    for _ in range(20):
        g = wl.random_group(rng, 8, 48)
        table = wl.build_table(g)
        if table is None:
            continue
        assert len(table) == g.order
        assert verify_group_axioms(wl.relabel(table, rng, corrupt=False))
        assert not verify_group_axioms(wl.relabel(table, rng, corrupt=True))
    for n in wl.AXIOM_VALID_ORDERS:
        assert wl.exact_group(rng, n).order == n


def test_aut_closed_forms_match_small_cases():
    for cyclics in ([4, 2], [2, 2, 2], [9, 3], [8, 2], [6, 4], [5, 7]):
        g = parse_and_eval(" x ".join(f"Z{c}" for c in cyclics))
        assert len(automorphisms(g)) == wl.abelian_aut_order(cyclics), cyclics
    for n in (8, 9, 12, 16, 20):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(["aut", f"Z{n}"])
        assert f"Aut identifies as: {wl.abelian_name(wl.unit_group_cyclics(n))}" in out.getvalue()


def test_check_rejects_wrong_answers():
    op = wl.aut_op(wl.D(4), 8)
    assert wl.check(op, (0, "|Aut| = 8\nAut identifies as: D4\n"))
    assert not wl.check(op, (0, "|Aut| = 9\nAut identifies as: D4\n"))
    assert not wl.check(op, (0, "|Aut| = 8\nAut identifies as: Z7\n"))
    assert not wl.check(op, (0, "|Aut| = 8\nAut identifies as: D4\n"), golden={})
    assert not wl.check(wl.iso_op(wl.D(3), wl.Z(6), False), (0, "isomorphic"))


def _bindings():
    """Every function bound in a groupkit module, plus the traced methods."""
    seen = {}
    for name, module in sys.modules.items():
        if name == "groupkit" or name.startswith("groupkit."):
            for attr, value in vars(module).items():
                if callable(value):
                    seen[(name, attr)] = value
    seen["Action.__post_init__"] = groupkit.construct.Action.__post_init__
    seen["Morphism.is_homomorphism"] = groupkit.core.Morphism.is_homomorphism
    return seen


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    during = _bindings()
    assert not tracer.missing
    assert during["Morphism.is_homomorphism"] is not before["Morphism.is_homomorphism"]
    assert during[("groupkit.construct", "make_table")] is not before[("groupkit.construct", "make_table")]
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["aut", "D4"])
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = tracer.summary()
    assert summary["cli.aut.calls"] == 1
    assert summary["iso.identify.calls"] == 1
    assert summary["iso.identify.candidates"] > 0
    for name, start, end, parent, op, self_s in tracer.spans:
        assert end >= start and -1e-9 <= self_s <= end - start + 1e-9
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.metric_units())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def test_runs_collect_ten_samples_beyond_the_tail():
    for name in ("paper", "large", "tables"):
        w = wl.WORKLOADS[name]
        assert w.min_samples * (1 - w.tail_pct / 100) >= 10 - 1e-9
    # paper gives one sample per section, so its minimum is whole passes
    assert wl.WORKLOADS["paper"].min_samples % len(wl.PAPER_SECTIONS) == 0


def test_paper_sections_are_timed_from_outside():
    import worker
    verify = groupkit.verify
    originals = {name: getattr(verify, name) for name in wl.PAPER_SECTIONS}
    spans = []
    try:
        worker.time_sections(verify, spans)
        config = verify.VerifyConfig(table1_max_n=6, dihedral_max_n=4, action_equiv_max_m=4,
                                     action_equiv_max_n=2, characteristic_max_order=8)
        reports, _ = verify.run_all(config)
    finally:
        for name, fn in originals.items():
            setattr(verify, name, fn)
    assert reports and len(spans) == len(wl.PAPER_SECTIONS)
    assert all(end >= start for start, end in spans)
