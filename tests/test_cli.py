"""Command-line interface: subcommands, exit codes, output formats."""

import gc
import json
import math
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import groupkit
import groupkit.cli
import groupkit.construct
from groupkit.cli import main
from groupkit.core import GroupTable, to_json_dict
from groupkit.expr import parse_and_eval


class TestInfo:
    def test_semidirect_summary(self, capsys):
        assert main(["info", "Z8 : Z2 [r^3]"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "order: 16",
            "abelian: no",
            "center size: 2",
            "order spectrum: 1^1 2^5 4^6 8^4",
        ]

    @pytest.mark.parametrize("expr", [
        "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "D5 x Z7", "Z6 : Z18 [r^5]"])
    def test_runs_no_greedy_generator_search(self, monkeypatch, capsys, expr):
        # the constructors record their generators, which is all that info's checks read
        calls, search = [], GroupTable.gens_and_plans.func

        def counted(g):
            calls.append(g)
            return search(g)

        spy = cached_property(counted)
        spy.__set_name__(GroupTable, "gens_and_plans")
        monkeypatch.setattr(GroupTable, "gens_and_plans", spy)
        # all three have closed forms; deferring keeps info on the table path this test checks
        monkeypatch.setattr(groupkit.cli, "_expr_info", lambda tree: None)
        assert main(["info", expr]) == 0
        assert capsys.readouterr().out.startswith("order: ")
        assert calls == []

    def test_abelian_summary(self, capsys):
        assert main(["info", "Z6"]) == 0
        out = capsys.readouterr().out
        assert "abelian: yes" in out
        assert "order spectrum: 1^1 2^1 3^2 6^2" in out

    def test_closed_form_matches_the_table_path(self, capsys, monkeypatch):
        """info with iso._expr_info against info with it patched to defer:
        every Z n and D n for n <= 64, every Z m : Z n [r^i] with m*n <= 128
        and -m <= i < 2m (a negative i is a syntax error, most of the rest
        are refused actions), seeded products of two or three of the leaves
        that build, up to order 256, and edge cases."""
        answers, expr_info = [], groupkit.cli._expr_info

        def spy(tree):
            answers.append(expr_info(tree))
            return answers[-1]

        def outputs(texts, reader):
            with monkeypatch.context() as patch:
                patch.setattr(groupkit.cli, "_expr_info", reader)
                return [(main(["info", text]), *capsys.readouterr()) for text in texts]

        def check(texts):
            """The table path's (exit code, stdout, stderr) for each text, after
            checking that the closed-form reader changes none of them."""
            table = outputs(texts, lambda tree: None)
            for text, closed, want in zip(texts, outputs(texts, spy), table):
                assert closed == want, text
            return table

        leaves = [f"{kind}{n}" for kind in "ZD" for n in range(1, 65)] + [
            f"Z{m} : Z{n} [r^{i}]" for m in range(1, 129) for n in range(1, 128 // m + 1)
            for i in range(-m, 2 * m)]
        built = [(text, int(out.split()[1]))
                 for text, (code, out, _) in zip(leaves, check(leaves)) if code == 0]
        assert len(built) == 128 + 2246
        rng, products = random.Random(0), []
        while len(products) < 300:
            parts = rng.sample(built, rng.choice((2, 3)))
            if math.prod(order for _, order in parts) <= 256:
                products.append(" x ".join(text for text, _ in parts))
        check(products + ["Z1", "D1", "D2", "Z1 : Z1 [r^0]", "Z9999", "Z8 : Z2 [r^2]",
                          "Z2 x", "Hol 8", "Z8 : Z2 [#1]", "Z2 x Hol 5"])
        assert sum(info is not None for info in answers) == 128 + 2246 + 300 + 4

    def test_closed_form_builds_no_table_at_the_size_cap(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("info built a table")

        monkeypatch.setattr(groupkit.construct, "cyclic", refuse)
        monkeypatch.setattr(groupkit.construct, "semidirect", refuse)
        assert main(["info", "D2048"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "order: 4096", "abelian: no", "center size: 2",
            "order spectrum: 1^1 2^2049 4^2 8^4 16^8 32^16 64^32 128^64 256^128 512^256 "
            "1024^512 2048^1024"]
        assert main(["info", "Z64 x Z64"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "order: 4096", "abelian: yes", "center size: 4096",
            "order spectrum: 1^1 2^3 4^12 8^48 16^192 32^768 64^3072"]


class TestAut:
    def test_text_output(self, capsys):
        assert main(["aut", "Z5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "|Aut| = 4"
        assert out[1] == "Aut identifies as: Z4"

    def test_dihedral_aut_order(self, capsys):
        assert main(["aut", "D8"]) == 0
        assert "|Aut| = 32" in capsys.readouterr().out

    def test_order_384_aut_is_named(self, capsys):
        # identify of this Aut table once ran for over a minute
        assert main(["aut", "Z8 x Z2 x Z2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "|Aut| = 384", "Aut identifies as: unidentified (order 384)"]

    def test_json_emits_cayley_table(self, capsys):
        assert main(["aut", "Z5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"order", "identity", "mul", "names"}
        assert payload["order"] == 4
        assert payload["names"][0] == "id"


class TestIso:
    def test_isomorphic_pair_exits_zero_with_witness(self, capsys):
        assert main(["iso", "Z6", "Z2 x Z3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("isomorphic")
        assert "->" in out

    def test_non_isomorphic_pair_exits_one(self, capsys):
        assert main(["iso", "Z4", "Z2 x Z2"]) == 1
        assert capsys.readouterr().out.strip() == "not isomorphic"

    def test_trivial_pair_has_no_generators_to_map(self, capsys):
        assert main(["iso", "Z1", "Z1"]) == 0
        assert capsys.readouterr().out == "isomorphic; both groups are trivial\n"

    def test_closed_form_counts_change_no_answer(self, capsys, monkeypatch):
        # closed-form pairs with and without an isomorphism, among them Z8 : Z2 [r^5] and
        # Z8 x Z2 with equal counts N_k and centres 4 and 16, forms the closed form defers
        # on (Hol, [#j], [r^i] that does not build), and texts that raise
        battery = ["Z1", "Z2", "D1", "Z4", "Z2 x Z2", "D2", "Z6", "Z2 x Z3", "D3",
                   "Z3 : Z2 [r^2]", "D4", "Z8", "Z2 x Z4", "Z4 : Z2 [r^3]", "Z8 : Z2 [r^3]",
                   "Z8 : Z2 [r^5]", "Z8 x Z2", "Z8 : Z2 [r^7]", "D8", "Z2 x D4",
                   "Z13 : Z12 [r^2]", "Hol 13", "Z8 : Z2 [#1]", "Z8 : Z3 [r^3]",
                   "D4 : Z2 [r^3]", "Z8 : Z2 [#9]", "Z5000", "Hol 5000", "Z2 x"]
        calls = []

        def run(pair):
            code = main(["iso", *pair])
            return (code, *capsys.readouterr())

        def spy(name, read):
            def reader(tree):
                calls.append(name)
                return read(tree)
            return reader

        refuted = 0
        monkeypatch.setattr(groupkit.cli, "_expr_info", spy("info", groupkit.cli._expr_info))
        monkeypatch.setattr(groupkit.cli, "eval_expr", spy("table", groupkit.cli.eval_expr))
        for pair in [(a, b) for a in battery for b in battery]:
            calls.clear()
            got = run(pair)
            refuted += calls == ["info", "info"]  # both read, and answered with no table
            with monkeypatch.context() as patch:
                patch.setattr(groupkit.cli, "_expr_info", lambda tree: None)
                assert got == run(pair), pair
        assert refuted == 21 * 21 - 33  # 21 closed-form texts; 33 ordered pairs share them

    def test_text_one_evaluation_error_comes_before_text_two_syntax_error(self, capsys):
        assert main(["iso", "Z8 : Z2 [r^2]", "Z2 x"]) == 2
        assert capsys.readouterr() == (
            "", "error: r^2 is not an automorphism of Z8: gcd(2, 8) != 1\n")

    def test_closed_form_counts_refute_without_a_table(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("iso built a table")

        monkeypatch.setattr(groupkit.construct, "semidirect", refuse)
        assert main(["iso", "D96", "D48 x Z2"]) == 1
        assert capsys.readouterr().out == "not isomorphic\n"
        # equal counts N_k; the centres, 32 and 8, differ
        assert main(["iso", "Z16 x Z2", "Z16 : Z2 [r^9]"]) == 1
        assert capsys.readouterr().out == "not isomorphic\n"


class TestIdentify:
    @pytest.mark.parametrize(
        "expr, display",
        [
            ("Z8 : Z2 [r^5]", "Z8 : Z2 [r^5]"),
            ("Z8 : Z2 [r^7]", "D8"),
            ("Z2 x Z3", "Z6"),
            ("Hol 5", "Z5 : Z4 [r^2]"),
        ],
    )
    def test_displays(self, capsys, expr, display):
        assert main(["identify", expr]) == 0
        assert capsys.readouterr().out.strip() == display


class TestTable:
    def test_json_matches_library_serialization(self, capsys):
        assert main(["table", "Z4 x Z2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == to_json_dict(parse_and_eval("Z4 x Z2"))

    def test_text_renders_names_grid(self, capsys):
        assert main(["table", "Z2 x Z2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 + 4  # header, rule, four rows
        assert "r·s" in out[0]


class TestHoms:
    def test_counts(self, capsys):
        assert main(["homs", "Z4", "Z5"]) == 0
        assert capsys.readouterr().out.strip() == "|hom(H, K)| = 1"

    def test_action_partition(self, capsys):
        assert main(["homs", "Z4", "Z5", "--actions"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "|hom(H, K)| = 1"
        assert out[1] == "actions of H on K: 4 in 3 equivalence class(es)"
        assert [line.strip() for line in out[2:]] == [
            "class 0: 1 action(s)",
            "class 1: 2 action(s)",
            "class 2: 1 action(s)",
        ]

    def test_actions_honour_the_aut_cap(self, capsys):
        assert main(["homs", "Z2 x Z2 x Z2 x Z2 x Z2", "Z2", "--actions"]) == 3
        captured = capsys.readouterr()
        assert captured.out.strip() == "|hom(H, K)| = 32"
        assert "9999360 automorphisms" in captured.err


class TestVerifyPaper:
    def test_small_run_passes(self, capsys):
        assert main(["verify-paper", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out
        assert " 0 failed" in out

    def test_json_is_a_report_array(self, capsys):
        assert main(["verify-paper", "--max-n", "3", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert isinstance(reports, list)
        assert all(set(r) == {"claim", "status", "expected", "actual", "ms"}
                   for r in reports)
        assert all(r["status"] in ("pass", "fail") for r in reports)

    def test_max_n_bounds_the_characteristic_sweep(self, capsys):
        assert main(["verify-paper", "--max-n", "6", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        products = [int(m) * int(n) for m, n in
                    (r["claim"][len("thm6.4.m="):].split(".n=") for r in reports
                     if r["claim"].startswith("thm6.4."))]
        assert products and max(products) <= 6

    @pytest.mark.parametrize("value", ["0", "-1", "six"])
    def test_max_n_below_one_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--max-n", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-n" in captured.err

    def test_max_n_of_one_runs(self, capsys):
        assert main(["verify-paper", "--max-n", "1"]) == 0
        assert " 0 failed" in capsys.readouterr().out

    def test_negative_control_exits_nonzero(self, capsys):
        assert main(["verify-paper", "--max-n", "3", "--negative-control"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_json_statuses_determine_exit_code(self, capsys):
        code = main(["verify-paper", "--max-n", "3", "--negative-control", "--json"])
        reports = json.loads(capsys.readouterr().out)
        has_fail = any(r["status"] == "fail" for r in reports)
        assert (code == 0) == (not has_fail)


class TestErrorHandling:
    def test_syntax_error_exits_two_with_stderr(self, capsys):
        assert main(["info", "Z8 : : Z2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "offset" in captured.err

    def test_semantic_error_exits_two(self, capsys):
        assert main(["info", "Z8 : Z2 [r^2]"]) == 2
        assert "gcd" in capsys.readouterr().err

    def test_cap_error_exits_three(self, capsys):
        assert main(["info", "Z9999"]) == 3
        assert "cap" in capsys.readouterr().err

    def test_long_chains_exit_without_a_traceback(self, capsys):
        assert main(["info", " x ".join(["Z1"] * 1200)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "order: 1"
        assert main(["info", "Z1" + " : Z1 [r^1]" * 1200]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the r^i action form needs cyclic groups")

    def test_aut_cap_error_exits_three(self, capsys):
        assert main(["aut", "Z2 x Z2 x Z2 x Z2"]) == 3
        assert "automorphisms" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "Z2"])
        assert exc.value.code == 2


class TestCachedParser:
    """main builds its parser once per process and looks its handler up per call."""

    CALLS = [["info", "Z8 : Z2 [r^3]"], ["iso", "Z6", "D3"], ["iso", "Z2 x Z3", "Z6"],
             ["identify", "Z2 x D4"], ["table", "Z3", "--json"], ["homs", "Z2", "Z4"]]

    def _run(self, capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_repeated_calls_give_the_same_output(self, capsys):
        first = [self._run(capsys, argv) for argv in self.CALLS]
        assert [code for code, _ in first] == [0, 1, 0, 0, 0, 0]
        assert [self._run(capsys, argv) for argv in self.CALLS] == first

    def test_a_usage_error_leaves_the_parser_working(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["iso", "Z2"])
        assert exc.value.code == 2
        assert "expr2" in capsys.readouterr().err
        assert self._run(capsys, ["identify", "Z6"]) == (0, "Z6\n")

    def test_a_handler_rebound_after_the_first_call_runs(self, capsys, monkeypatch):
        assert self._run(capsys, ["aut", "Z5"])[0] == 0
        seen = []

        def fake(args):
            seen.append(args.expr)
            return 7

        monkeypatch.setattr(groupkit.cli, "_cmd_aut", fake)
        assert main(["aut", "Z5"]) == 7
        assert seen == ["Z5"]
        assert groupkit.cli._build_parser() is groupkit.cli._build_parser()


@pytest.fixture
def collector_state():
    """Yield a setter for the collector's state; restore the state the test began with."""
    was_enabled = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was_enabled)


@pytest.fixture
def collector_passes():
    """A list that gains one entry per collector pass until the test ends,
    counted from an empty young generation."""
    gc.collect()
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    yield passes
    gc.callbacks.remove(count)


class TestCollector:
    """main runs each handler with the cyclic collector paused, and no command
    leaves cyclic garbage for it to find."""

    BATTERY = [["info", "Z8 : Z2 [r^3]"], ["aut", "D16"], ["aut", "D4", "--json"],
               ["iso", "D4", "Z2 x Z4"], ["iso", "Z2 x Z3", "Z6"], ["identify", "Hol 11"],
               ["table", "D3"], ["table", "D3", "--json"], ["homs", "--actions", "Z4", "D4"],
               ["verify-paper", "--max-n", "4"], ["info", "Z8 x"], ["aut", "Z64 x Z32"]]
    EXITS = [(["info", "Z6"], 0), (["iso", "Z6", "D3"], 1), (["info", "Z8 x"], 2),
             (["info", "Hol 4096"], 3)]

    def test_no_command_leaves_cyclic_garbage(self, capsys, collector_state):
        groupkit.cli._build_parser()  # its first build leaves argparse's own cycles
        gc.collect()
        collector_state(False)
        codes = []
        for argv in self.BATTERY:
            codes.append(main(argv))
            assert gc.collect() == 0, argv
        assert codes == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 3]

    def test_the_handler_runs_with_the_collector_paused(self, capsys, monkeypatch,
                                                        collector_state):
        seen = []
        monkeypatch.setattr(groupkit.cli, "_cmd_info", lambda args: seen.append(gc.isenabled()))
        collector_state(True)
        main(["info", "Z2"])
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, code", EXITS)
    def test_main_restores_the_callers_setting(self, capsys, collector_state,
                                               enabled, argv, code):
        collector_state(enabled)
        assert main(argv) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_raising_handler_restores_the_setting(self, monkeypatch, collector_state,
                                                    enabled):
        def fail(args):
            raise RuntimeError("handler failed")

        monkeypatch.setattr(groupkit.cli, "_cmd_info", fail)
        collector_state(enabled)
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["info", "Z2"])
        assert gc.isenabled() is enabled

    def test_aut_runs_no_collector_pass(self, capsys, collector_state, collector_passes):
        collector_state(True)
        # read the count before any new object can start a pass: once enabled again,
        # the collector runs on the next allocation
        code, passes = main(["aut", "Hol 16"]), len(collector_passes)
        assert (code, passes) == (0, 0)


class TestConsoleScript:
    @pytest.mark.parametrize("argv, expected", [
        (["identify", "Z6"], "Z6\n"),
        (["info", "Z2"], "order: 2\nabelian: yes\ncenter size: 2\norder spectrum: 1^1 2^1\n")],
        ids=["identify", "info"])
    def test_installed_entry_point(self, argv, expected):
        # run the package these tests import, installed or not
        package_root = str(Path(groupkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "groupkit.cli", *argv],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0
        assert result.stdout == expected
