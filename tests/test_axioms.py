"""verify_group_axioms against the cubic check, and its entry check.

The O(n^3) oracle below checks every triple; verify_group_axioms checks
associativity only on a generating set (Light's test). They must agree on
ok, and every associativity witness must fail in its table.
"""

import random

import pytest

from groupkit.core import GroupTable, make_table, verify_group_axioms
from groupkit.expr import parse_and_eval

FAMILIES = [
    "Z1", "Z12", "Z60", "D5", "D15", "Hol 7", "Hol 9", "Z8 : Z2 [r^3]",
    "Z9 : Z3 [r^4]", "Z2 x Z2 x Z2", "D4 x Z3", "Z3 x Z3 x Z3", "Z2 x D6",
]

# the order-5 loop with every element its own inverse; not a group
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# an order-7 loop: identity 0 and two-sided inverses, but 1*5 = 3 and 5*1 = 2
# while its first two generators, 1 and 4, commute; not associative
L7 = [
    [0, 1, 2, 3, 4, 5, 6],
    [1, 6, 5, 4, 0, 3, 2],
    [2, 5, 3, 1, 6, 0, 4],
    [3, 4, 1, 2, 5, 6, 0],
    [4, 0, 6, 5, 3, 2, 1],
    [5, 2, 0, 6, 1, 4, 3],
    [6, 3, 4, 0, 2, 1, 5],
]


def cubic_is_group(mul) -> bool:
    """The oracle: entries, a two-sided identity, inverses, then all n^3 triples."""
    n = len(mul)
    if any(len(r) != n or any(type(v) is not int or not 0 <= v < n for v in r) for r in mul):
        return False
    ids = [e for e in range(n) if all(mul[e][x] == x == mul[x][e] for x in range(n))]
    if not ids:
        return False
    e = ids[0]
    if not all(any(mul[x][y] == e == mul[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def relabel(mul, rng: random.Random) -> list[list[int]]:
    n = len(mul)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[mul[a][b]]
    return out


def random_loop(n: int, rng: random.Random) -> list[list[int]]:
    """A random Latin square with identity 0 in which x*y = e iff y*x = e."""
    while True:  # some inverse pairings admit no Latin square: draw again
        rest = list(range(1, n))
        rng.shuffle(rest)
        inv = {0: 0}
        while rest:  # pair elements off, leaving some self-inverse
            x = rest.pop()
            y = rest.pop() if rest and rng.random() < 0.7 else x
            inv[x], inv[y] = y, x
        mul = [[None] * n for _ in range(n)]
        for x in range(n):
            mul[0][x] = mul[x][0] = x
            mul[x][inv[x]] = 0
        if _fill(mul, [(a, b) for a in range(1, n) for b in range(1, n)
                       if mul[a][b] is None], rng, [2000]):
            return mul


def _fill(mul, cells, rng, budget) -> bool:
    """Fill the cells by backtracking; False once the budget of calls is spent."""
    budget[0] -= 1
    if not cells or budget[0] < 0:
        return not cells
    a, b = cells[0]
    used = set(mul[a]) | {row[b] for row in mul}
    symbols = [v for v in range(1, len(mul)) if v not in used]
    rng.shuffle(symbols)
    for v in symbols:
        mul[a][b] = v
        if _fill(mul, cells[1:], rng, budget):
            return True
    mul[a][b] = None
    return False


def z2_times(loop) -> list[list[int]]:
    """Z2 x loop, with (i, x) at index 2*x + i, so (1, e) is index 1."""
    m = len(loop)
    return [[2 * loop[x][y] + (i ^ j) for y in range(m) for j in range(2)]
            for x in range(m) for i in range(2)]


def z6_plus_point() -> list[list[int]]:
    """Z3 x Z2 at indices a + 3b, plus a point 6 with 6*6 = e and else 6*x = x*6 = 6.

    It has an identity and inverses but is no Latin square and not
    associative: (1*6)*6 = e but 1*(6*6) = 1. Z3 x Z2 lies in its middle
    nucleus. Index 1 generates Z3, 3 of the 7 elements, and the next
    generator, 3, still leaves 6 outside.
    """
    def times(i, j):
        if 0 in (i, j):
            return i + j
        if 6 in (i, j):
            return 0 if i == j else 6
        return (i + j) % 3 + 3 * ((i // 3 + j // 3) % 2)
    return [[times(i, j) for j in range(7)] for i in range(7)]


def corruptions(mul, rng: random.Random, count: int):
    n = len(mul)
    for _ in range(count):
        bad = [list(r) for r in mul]
        a, b = rng.randrange(n), rng.randrange(n)
        bad[a][b] = (bad[a][b] + rng.randrange(1, n)) % n
        yield bad


def assert_agrees(mul) -> None:
    """verify_group_axioms agrees with the cubic oracle, and make_table
    raises the verdict's detail exactly when the verdict fails."""
    verdict = verify_group_axioms(mul)
    assert verdict.ok == cubic_is_group(mul), verdict
    if verdict.axiom == "associativity":
        a, b, c = verdict.witness
        assert mul[mul[a][b]][c] != mul[a][mul[b][c]]
    if verdict.ok:
        g = make_table(mul)
        assert g.mul == tuple(map(tuple, mul))
        assert all(mul[g.identity][x] == x == mul[x][g.identity] for x in range(len(mul)))
    else:
        with pytest.raises(ValueError) as raised:
            make_table(mul)
        assert str(raised.value) == verdict.detail


class TestAgainstCubicOracle:
    @pytest.mark.parametrize("expr", FAMILIES)
    def test_relabelled_family_tables_pass(self, expr):
        rng = random.Random(expr)
        mul = relabel(parse_and_eval(expr).mul, rng)
        assert verify_group_axioms(mul).ok
        assert cubic_is_group(mul)
        assert_agrees(mul)

    @pytest.mark.parametrize("expr", FAMILIES[1:])
    def test_single_cell_corruptions(self, expr):
        rng = random.Random(expr)
        mul = relabel(parse_and_eval(expr).mul, rng)
        for bad in corruptions(mul, rng, 6):
            assert_agrees(bad)

    def test_fixed_order_5_loop(self):
        verdict = verify_group_axioms(LOOP5)
        assert verdict.axiom == "associativity"
        assert_agrees(LOOP5)

    def test_make_table_refuses_a_loop_whose_generators_commute(self):
        assert verify_group_axioms(L7).axiom == "associativity"
        assert_agrees(L7)  # so make_table raises the verdict's detail

    def test_nonassociativity_beyond_the_first_generator(self):
        # Z2 x LOOP5: (1, e) is the first generator and lies in the nucleus,
        # so only a later generator shows the failure
        mul = z2_times(LOOP5)
        verdict = verify_group_axioms(mul)
        assert verdict.axiom == "associativity"
        assert verdict.witness[1] != 1
        assert_agrees(mul)

    def test_generators_beyond_a_quarter_of_the_table(self):
        mul = z6_plus_point()
        verdict = verify_group_axioms(mul)
        assert verdict.axiom == "associativity"
        assert verdict.witness[1] == 6
        assert_agrees(mul)

    def test_uses_no_derived_group_data(self, monkeypatch):
        # orders, inv and gens_and_plans assume a group; here 1*1 = 1, so the
        # powers of 1 never reach the identity
        def refuse(g):
            raise AssertionError("derived group data used on a non-group")
        for name in ("orders", "inv", "gens_and_plans"):
            monkeypatch.setattr(GroupTable, name, property(refuse))
        broken = [list(r) for r in parse_and_eval("Z4").mul]
        broken[1][1] = 1
        table = GroupTable(4, tuple(map(tuple, broken)), 0, ("e", "a", "b", "c"))
        assert verify_group_axioms(table).axiom == "associativity"

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_random_loops(self, n):
        rng = random.Random(f"loop{n}")
        for _ in range(25):
            loop = random_loop(n, rng)
            assert_agrees(loop)
            assert_agrees(relabel(loop, rng))

    def test_random_loops_times_z2(self):
        rng = random.Random("z2-loops")
        for n in (5, 6, 7):
            for _ in range(4):
                assert_agrees(z2_times(random_loop(n, rng)))


class IntLike(int):
    pass


class TestEntryCheck:
    def test_bool_entry_is_rejected(self):
        verdict = verify_group_axioms([[0, 1], [1, False]])
        assert (verdict.axiom, verdict.witness) == ("closure", (1, 1))

    def test_float_entry_is_rejected(self):
        verdict = verify_group_axioms([[0, 1.0], [1, 0]])
        assert (verdict.axiom, verdict.witness) == ("closure", (0, 1))
        assert verdict.detail == "mul[0][1] = 1.0 lies outside the element indices 0..1"

    def test_negative_entry_is_rejected(self):
        verdict = verify_group_axioms([[0, 1, 2], [1, 2, 0], [2, 0, -1]])
        assert (verdict.axiom, verdict.witness) == ("closure", (2, 2))

    def test_first_bad_cell_in_row_major_order(self):
        verdict = verify_group_axioms([[0, 1, 2], [1, 7, "x"], [-3, 0, 1]])
        assert (verdict.axiom, verdict.witness) == ("closure", (1, 1))
        assert verdict.detail == "mul[1][1] = 7 lies outside the element indices 0..2"

    def test_int_subclass_is_accepted(self):
        z3 = [[IntLike((a + b) % 3) for b in range(3)] for a in range(3)]
        assert verify_group_axioms(z3).ok


class TestClaimedIdentity:
    def test_wrong_identity_field_reports_identity(self):
        g = GroupTable(2, ((0, 1), (1, 0)), 1, ("a", "b"))
        verdict = verify_group_axioms(g)
        assert (verdict.axiom, verdict.witness) == ("identity", (1,))

    @pytest.mark.parametrize("claimed", [1, 2, -1])
    def test_wrong_identity_argument_reports_identity(self, claimed):
        verdict = verify_group_axioms([[0, 1], [1, 0]], identity=claimed)
        assert (verdict.axiom, verdict.witness) == ("identity", (claimed,))

    def test_right_identity_argument_passes(self):
        assert verify_group_axioms([[1, 0], [0, 1]], identity=1).ok
