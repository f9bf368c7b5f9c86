"""|Aut(Z_m : Z_n [r^i])| counted from the group's presentation, with no search.

G = Z_m : Z_n [r^i] is <r, s | r^m = s^n = e, s*r*s^-1 = r^i>. By von Dyck's
theorem, r -> a, s -> b extends to an endomorphism of G exactly when
a^m = e, b^n = e and b*a*b^-1 = a^i, and that endomorphism is an
automorphism exactly when <a, b> = G. So |Aut G| is the number of such
pairs (a, b). The count reads only g.mul, with its own powers, inverses and
closure, and is compared with aut._aut_order(g).

Tier-1 runs it up to order 64; for a wider range, run

    PYTHONPATH=src:tests python -c 'import test_presentation_oracle as t; print(t.aut_order_mismatches(128))'
"""

from math import gcd

from groupkit.aut import _aut_order
from groupkit.expr import parse_and_eval


def _presentation_count(mul, m: int, n: int, i: int) -> int:
    """The pairs (a, b) with a^m = e, b^n = e, b*a*b^-1 = a^i and <a, b> = G."""
    order = len(mul)
    e = next(x for x in range(order) if mul[x][x] == x)  # the only idempotent of a group
    cycles = []  # cycles[x] = [x, x^2, ..., e]
    for x in range(order):
        cycle = [x]
        while cycle[-1] != e:
            cycle.append(mul[cycle[-1]][x])
        cycles.append(cycle)

    def power(x: int, k: int) -> int:  # k >= 0
        return cycles[x][k % len(cycles[x]) - 1]

    def generates(a: int, b: int) -> bool:
        # b*a*b^-1 = a^i, so b normalises <a>, and <a, b> = <a><b>
        return len({mul[x][y] for x in cycles[a] for y in cycles[b]}) == order

    a_to_ai = {a: power(a, i) for a in range(order) if power(a, m) == e}
    b_to_inverse = {b: power(b, n - 1) for b in range(order) if power(b, n) == e}

    def counted(a: int, b: int) -> bool:
        return mul[mul[b][a]][b_to_inverse[b]] == a_to_ai[a] and generates(a, b)

    # in the pair encoding index k*n + h, r = (1, 0) and s = (0, 1); with m or n = 1 they are e
    assert counted(n % order, 1 % n)
    return sum(counted(a, b) for b in b_to_inverse for a in a_to_ai)


def aut_order_mismatches(max_order: int) -> tuple[int, list[tuple[str, int, int]]]:
    """(groups checked, [(expression, count, _aut_order)] for each mismatch)
    over every Z{m} : Z{n} [r^i] with m*n <= max_order, i in 1..m coprime
    to m and i^n = 1 mod m, that is ord_m(i) dividing n; i = 1 is the direct
    product. A group with two generators has at most |G|^2 automorphisms,
    so _aut_order runs with that cap and never refuses."""
    checked, mismatches = 0, []
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            for i in range(1, m + 1):
                if gcd(i, m) == 1 and pow(i, n, m) == 1 % m:
                    text = f"Z{m} : Z{n} [r^{i}]"
                    g = parse_and_eval(text)
                    count, got = _presentation_count(g.mul, m, n, i), _aut_order(g, g.order ** 2)
                    if count != got:
                        mismatches.append((text, count, got))
                    checked += 1
    return checked, mismatches


def test_aut_order_matches_the_presentation_count_up_to_order_64():
    assert aut_order_mismatches(64) == (433, [])
