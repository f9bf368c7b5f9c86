"""The group-expression language: grammar, errors, evaluation."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupkit.aut
import groupkit.construct
import groupkit.expr
from groupkit.construct import dihedral
from groupkit.core import SizeCapError
from groupkit.expr import (
    Cyclic,
    CyclicPower,
    Dihedral,
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    Holomorph,
    Index,
    MAX_NESTING_DEPTH,
    Product,
    Semidirect,
    eval_expr,
    parse_and_eval,
    parse_expr,
)
from groupkit.iso import are_isomorphic, identify


class TestParse:
    def test_direct_product(self):
        assert parse_expr("Z8 x Z2") == Product(Cyclic(8), Cyclic(2))

    def test_semidirect_with_power_action(self):
        assert parse_expr("Z8 : Z2 [r^3]") == Semidirect(
            Cyclic(8), Cyclic(2), CyclicPower(3))

    def test_semidirect_with_indexed_action(self):
        assert parse_expr("(Z2 x D4) : Z2 [#1]") == Semidirect(
            Product(Cyclic(2), Dihedral(4)), Cyclic(2), Index(1))

    def test_leaves(self):
        assert parse_expr("D6") == Dihedral(6)
        assert parse_expr("Hol 8") == Holomorph(8)
        assert parse_expr("Hol8") == Holomorph(8)
        # decimal digits of any script, as int() reads them: an Arabic-Indic three
        assert parse_expr("Z\u0663") == Cyclic(3)

    def test_product_associates_left(self):
        assert parse_expr("Z2 x Z3 x Z4") == Product(
            Product(Cyclic(2), Cyclic(3)), Cyclic(4))

    def test_semidirect_chains_left(self):
        e = parse_expr("Z7 : Z3 [#0] : Z2 [#0]")
        assert isinstance(e, Semidirect)
        assert isinstance(e.k_expr, Semidirect)

    def test_colon_binds_tighter_than_product(self):
        e = parse_expr("Z3 x Z8 : Z2 [r^3]")
        assert e == Product(Cyclic(3), Semidirect(Cyclic(8), Cyclic(2), CyclicPower(3)))

    def test_whitespace_insensitive(self):
        assert parse_expr("Z8:Z2[r^3]") == parse_expr("  Z 8 :\tZ2\n[ r^ 3 ]")

    def test_parentheses_regroup(self):
        grouped = parse_expr("(Z2 x Z3) x Z4")
        plain = parse_expr("Z2 x (Z3 x Z4)")
        assert grouped == Product(Product(Cyclic(2), Cyclic(3)), Cyclic(4))
        assert plain == Product(Cyclic(2), Product(Cyclic(3), Cyclic(4)))

    def test_long_chains_have_repr_eq_and_hash(self):
        # the dataclass-generated versions recursed once per operator and overflowed
        products = " x ".join(["Z1"] * 1200)
        e, twin = parse_expr(products), parse_expr(products)
        assert e == twin and hash(e) == hash(twin)
        assert e != parse_expr(" x ".join(["Z1"] * 1199))
        assert repr(e) == "Product(left=" * 1199 + "Cyclic(n=1)" + ", right=Cyclic(n=1))" * 1199
        semidirects = "Z2" + " : Z1 [#0]" * 1200
        e, twin = parse_expr(semidirects), parse_expr(semidirects)
        assert e == twin and hash(e) == hash(twin)
        assert e != parse_expr("Z2" + " : Z1 [#0]" * 1199 + " : Z1 [#1]")
        assert repr(e) == ("Semidirect(k_expr=" * 1200 + "Cyclic(n=2)"
                           + ", h_expr=Cyclic(n=1), action=Index(j=0))" * 1200)

    def test_operators_compare_by_kind_and_children(self):
        pair = Product(Cyclic(2), Cyclic(3))
        assert pair != Semidirect(Cyclic(2), Cyclic(3), Index(0))
        assert pair != Product(Dihedral(2), Cyclic(3)) and pair != Cyclic(2)
        assert {pair, Product(Cyclic(2), Cyclic(3))} == {pair}
        assert repr(Semidirect(pair, Cyclic(2), CyclicPower(3))) == (
            "Semidirect(k_expr=Product(left=Cyclic(n=2), right=Cyclic(n=3)), "
            "h_expr=Cyclic(n=2), action=CyclicPower(i=3))")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text, position, expected_member",
        [
            ("Z8 : Z2 [q^3]", 9, "'r^'"),
            ("Z", 1, "integer"),
            ("Z0", 1, "positive integer"),
            ("Z2 &", 3, "'Z'"),
            ("Z2 x", 4, "'('"),
            ("(Z2 x Z3", 8, "')'"),
            ("Z2 Z3", 3, "end of input"),
            ("", 0, "'Hol'"),
            ("Z8 : Z2 r^3]", 8, "'['"),
            ("Z8 : Z2 []", 9, "'#'"),
            ("Z8 : Z2 [#1", 11, "']'"),
            # a digit that int() rejects, and more digits than int() reads
            pytest.param("Z\u00b2", 1, "integer", id="superscript-two"),
            pytest.param("Z" + "1" * 5000, 1,
                         f"integer of at most {sys.get_int_max_str_digits()} digits",
                         id="5000-digits"),
        ],
    )
    def test_position_and_expected_set(self, text, position, expected_member):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.position == position
        assert expected_member in exc.value.expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Z2 &", "at offset 3: expected 'Z' or 'D' or 'Hol' or 'r^' or integer or 'x' "
                     "or ':' or '[' or ']' or '(' or ')' or '#', found '&'"),
            ("Z2 Z3", "at offset 3: expected 'x' or ':' or end of input, found 'Z'"),
            ("Z8 : Z2 []", "at offset 9: expected 'r^' or '#', found ']'"),
        ],
    )
    def test_exact_messages(self, text, message):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        assert str(exc.value) == message

    def test_message_mentions_offset_and_expectation(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("Z2 x x Z3")
        message = str(exc.value)
        assert "offset 5" in message
        assert "expected" in message

    def test_nesting_cap(self):
        ok = "(" * MAX_NESTING_DEPTH + "Z2" + ")" * MAX_NESTING_DEPTH
        assert parse_expr(ok) == Cyclic(2)
        too_deep = "(" * (MAX_NESTING_DEPTH + 1) + "Z2" + ")" * (MAX_NESTING_DEPTH + 1)
        with pytest.raises(ExprSyntaxError):
            parse_expr(too_deep)

    def test_syntax_error_is_expr_error(self):
        with pytest.raises(ExprError):
            parse_expr("{}")


class TestEval:
    def test_power_action_builds_dihedral(self):
        g = parse_and_eval("Z8 : Z2 [r^7]")
        assert are_isomorphic(g, dihedral(8)) is not None

    def test_indexed_actions_enumerate_deterministically(self):
        displays = [identify(parse_and_eval(f"Z8 : Z2 [#{j}]")).display
                    for j in range(4)]
        assert displays == ["Z2 x Z8", "Z8 : Z2 [r^3]", "Z8 : Z2 [r^5]", "D8"]

    def test_exponent_not_coprime(self):
        with pytest.raises(ExprEvalError) as exc:
            parse_and_eval("Z8 : Z2 [r^2]")
        assert "gcd" in str(exc.value)

    def test_exponent_order_must_divide_acting_order(self):
        # 2 has multiplicative order 6 modulo 9, and 6 does not divide 2
        with pytest.raises(ExprEvalError) as exc:
            parse_and_eval("Z9 : Z2 [r^2]")
        assert "order 6" in str(exc.value)

    def test_index_out_of_range(self):
        with pytest.raises(ExprEvalError) as exc:
            parse_and_eval("Z8 : Z2 [#4]")
        assert "4 actions" in str(exc.value)

    def test_power_action_requires_cyclic_operands(self):
        with pytest.raises(ExprEvalError):
            parse_and_eval("D3 : Z2 [r^2]")
        with pytest.raises(ExprEvalError):
            parse_and_eval("(Z2 x Z2) : Z2 [r^1]")

    def test_size_cap_propagates(self):
        with pytest.raises(SizeCapError):
            parse_and_eval("Z9999")

    def test_size_cap_is_a_parameter(self):
        with pytest.raises(SizeCapError, match=r"^order 16 exceeds size cap 8$"):
            parse_and_eval("Z4 x Z4", size_cap=8)
        with pytest.raises(SizeCapError, match=r"^order at least 9 exceeds size cap 8$"):
            parse_and_eval("Hol 9", size_cap=8)
        assert parse_and_eval("Z4 x Z4", size_cap=16).order == 16

    def test_size_cap_reaches_every_constructor(self, monkeypatch):
        caps = []
        for name in ("cyclic", "dihedral", "holomorph", "direct_product", "semidirect"):
            def spy(*args, real=getattr(groupkit.expr, name), **kwargs):
                caps.append(kwargs["size_cap"])
                return real(*args, **kwargs)
            monkeypatch.setattr(groupkit.expr, name, spy)
        g = parse_and_eval("Z2 x D3 x Hol 5 x Z3 : Z2 [r^2]", size_cap=5000)
        assert g.order == 2 * 6 * 20 * 6
        assert caps == [5000] * 9

    def test_rejects_what_is_not_an_expression(self):
        with pytest.raises(TypeError, match="^not a group expression: <object object at "):
            eval_expr(object())

    @pytest.mark.parametrize("text, order", [
        ("Hol 4096", 4096 * 2048), ("Z65 : Z64 [#0]", 65 * 64), ("(Z8 x Z8) : Z65 [#0]", 64 * 65)])
    def test_oversize_products_refuse_before_aut(self, monkeypatch, text, order):
        # |Hol n| = n * phi(n) and |K x| H| = |K| * |H| are known before Aut is built
        def refuse(*args, **kwargs):
            raise AssertionError("Aut built for a product past the size cap")
        monkeypatch.setattr(groupkit.aut, "aut_group", refuse)
        with pytest.raises(SizeCapError, match=rf"^order {order} exceeds size cap 4096$"):
            parse_and_eval(text)

    @pytest.mark.parametrize("text, order", [
        ("Z4096 x Z2", 8192), ("Z4096 : Z2 [#0]", 8192), ("(Z64 x Z64) : Z2 [#0]", 8192),
        ("Z2 x (Z3 : Z2 [r^2]) x Z1024", 12288), ("D2049", 4098), ("Z3 x Hol 64", 3 * 64 * 32)])
    def test_oversize_trees_refuse_before_any_table(self, monkeypatch, text, order):
        # the order of a tree follows from its leaves, so no factor is built first
        def refuse(*args, **kwargs):
            raise AssertionError("a table was built for a tree past the size cap")
        for name in ("cyclic", "dihedral", "holomorph"):
            monkeypatch.setattr(groupkit.expr, name, refuse)
        with pytest.raises(SizeCapError, match=rf"^order {order} exceeds size cap 4096$"):
            parse_and_eval(text)

    @pytest.mark.parametrize("text", [
        "Hol 1000000000000000003", "Z5000 x Hol 1000000000000000003",
        "Z2 x Hol 4097", "(Hol 1000000000000000003 x Z2) : Z3 [#0]"])
    def test_hol_past_the_cap_refuses_before_phi(self, monkeypatch, text):
        # |Hol n| >= n, so n > 4096 is oversize; euler_phi would factor n by trial division
        # expr reads n*phi(n) from construct._check_hol_size, so construct's euler_phi is guarded
        real = groupkit.construct.euler_phi

        def small_only(n):
            if n > 4096:
                raise AssertionError(f"phi({n}) computed for a Hol past the size cap")
            return real(n)
        monkeypatch.setattr(groupkit.construct, "euler_phi", small_only)
        n = text.split("Hol ")[1].split()[0]
        with pytest.raises(SizeCapError, match=rf"^order at least {n} exceeds size cap 4096$"):
            parse_and_eval(text)

    def test_trivial_power_action_matches_direct_product(self):
        g1 = parse_and_eval("Z5 : Z4 [r^1]")
        g2 = parse_and_eval("Z5 x Z4")
        assert g1.mul == g2.mul

    def test_exponent_reduces_modulo_order(self):
        g1 = parse_and_eval("Z8 : Z2 [r^3]")
        g2 = parse_and_eval("Z8 : Z2 [r^11]")
        assert g1.mul == g2.mul

    def test_generator_letters_assigned_in_parse_order(self):
        g = parse_and_eval("Z4 x Z3")
        assert g.elem_names[:4] == ("e", "s", "s^2", "r")
        assert g.name_of(3 * 3 + 1) == "r^3·s"
        # in a chain r, s, t and u go to Z2, Z3, Z1 and Z5
        g = parse_and_eval("Z2 x Z3 : Z1 [r^1] x Z5")
        assert [g.elem_names[x] for x in g.gens_and_plans[0]] == ["r·s·u"]
        assert parse_and_eval("Z2 : Z1 [#0] x Z3").elem_names[:3] == ("e", "t", "t^2")

    def test_holomorph_leaf(self):
        assert parse_and_eval("Hol 5").order == 20
        assert parse_and_eval("Hol 1").order == 1

    def test_long_chains_evaluate_without_deep_recursion(self):
        # one Python frame per operator overflowed the stack at about 1,000 operators
        assert parse_and_eval(" x ".join(["Z1"] * 1200)).order == 1
        assert parse_and_eval("Z2" + " x Z1" * 1200).order == 2
        assert parse_and_eval("Z3" + " : Z1 [#0]" * 1200).order == 3
        with pytest.raises(ExprEvalError, match="cyclic groups on both sides"):
            parse_and_eval("Z1" + " : Z1 [r^1]" * 1200)


def _expr_strategy(max_leaves: int = 6):
    leaves = st.one_of(
        st.integers(1, 9).map(Cyclic),
        st.integers(1, 6).map(Dihedral),
        st.integers(1, 6).map(Holomorph),
    )

    def extend(children):
        products = st.tuples(children, children).map(lambda kv: Product(*kv))
        semis = st.tuples(
            children, children,
            st.one_of(st.integers(0, 9).map(CyclicPower), st.integers(0, 5).map(Index)),
        ).map(lambda kha: Semidirect(kha[0], kha[1], kha[2]))
        return st.one_of(products, semis)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _small_expr_strategy():
    leaves = st.one_of(
        st.integers(1, 6).map(Cyclic),
        st.integers(1, 3).map(Dihedral),
        st.integers(1, 5).map(Holomorph),
    )

    def extend(children):
        products = st.tuples(children, children).map(lambda kv: Product(*kv))
        semis = st.tuples(
            children, children,
            st.one_of(st.integers(0, 7).map(CyclicPower), st.integers(0, 3).map(Index)),
        ).map(lambda kha: Semidirect(kha[0], kha[1], kha[2]))
        return st.one_of(products, semis)

    return st.recursive(leaves, extend, max_leaves=3)


def _render(e) -> str:
    """Fully parenthesized canonical text for an AST node."""
    if isinstance(e, Cyclic):
        return f"Z{e.n}"
    if isinstance(e, Dihedral):
        return f"D{e.n}"
    if isinstance(e, Holomorph):
        return f"Hol {e.n}"
    if isinstance(e, Product):
        return f"({_render(e.left)} x {_render(e.right)})"
    action = (f"r^{e.action.i}" if isinstance(e.action, CyclicPower)
              else f"#{e.action.j}")
    return f"({_render(e.k_expr)} : {_render(e.h_expr)} [{action}])"


class TestParserProperties:
    @settings(max_examples=200)
    @given(_expr_strategy())
    def test_render_parse_round_trip(self, e):
        assert parse_expr(_render(e)) == e

    @settings(max_examples=400)
    @given(st.text(alphabet="ZDHolrx:[]()#^ 0123456789q&\u00b2\u0663", max_size=24))
    def test_fuzz_never_crashes(self, text):
        try:
            parse_expr(text)
        except ExprSyntaxError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(_small_expr_strategy())
    def test_eval_raises_only_documented_errors(self, e):
        try:
            g = eval_expr(e)
        except (ExprEvalError, SizeCapError):
            return
        assert g.order >= 1
