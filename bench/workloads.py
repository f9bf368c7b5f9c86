"""Seeded op lists and answer oracles for the groupkit benchmark.

Nothing here imports groupkit: every expected answer is worked out from the
construction of the input (closed forms for |Aut|, invariant factors for
abelian groups, the orders of expression trees), so the oracles stay
independent of the code under test.

A workload is a fixed list of ops for one seed. Op kinds:

* ``cli``: ``groupkit.cli.main(argv)`` with stdout captured.
* ``axioms``: ``groupkit.core.verify_group_axioms`` on a bare mul table that
  this module built, relabelled and possibly corrupted.
* ``paper``: ``cli.main(["verify-paper", "--json"])``; each of the eight
  sections that ``verify.run_all`` calls counts as one latency sample, timed
  from outside the package.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from math import gcd

DEFAULT_SEED = 0
PAPER_CLAIMS = 480
# The sections that verify.run_all calls, in order. In paper, each call of
# one is a latency sample: eight per pass.
PAPER_SECTIONS = (
    "check_table1", "check_aut_zn_mod4_structure", "check_prime_power_aut",
    "check_elementary_abelian_aut", "check_dihedral_aut", "check_z8_case_study",
    "check_action_equivalence", "check_characteristic_theorems",
)
# The seed commit refuses this one with exit 3 (|Aut| = 21504 > the 10_000 cap).
REFUSAL_EXPR = "Z2 x Z2 x Z2 x Z4"
# Documented hang: prints |Aut| = 1536, then never returns from identify.
# It is kept out of the gated workloads; run it with --workload capped.
HANG_EXPR = "Z4 x Z4 x Z2"


# ---------------------------------------------------------------- number theory

def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi(n: int) -> int:
    total = n
    for p, _ in factorize(n):
        total = total // p * (p - 1)
    return total


def mult_order(i: int, m: int) -> int:
    if m == 1:
        return 1
    k, value = 1, i % m
    while value != 1:
        value = value * i % m
        k += 1
    return k


def _prime_powers(cyclics) -> dict[int, list[int]]:
    """Exponents of each prime across the cyclic factors Z_c."""
    by_p: dict[int, list[int]] = {}
    for c in cyclics:
        for p, e in factorize(c):
            by_p.setdefault(p, []).append(e)
    return by_p


def invariant_factors(cyclics) -> list[int]:
    """d_1 | d_2 | ... of the product of Z_c over c in cyclics, ascending."""
    by_p = _prime_powers(cyclics)
    k = max((len(es) for es in by_p.values()), default=0)
    inv = [1] * k
    for p, es in by_p.items():
        for idx, e in enumerate(sorted(es, reverse=True)):
            inv[k - 1 - idx] *= p ** e
    return inv


def abelian_aut_order(cyclics) -> int:
    """|Aut| of a finite abelian group (Hillar & Rhea, Amer. Math. Monthly 2007)."""
    total = 1
    for p, es in _prime_powers(cyclics).items():
        es = sorted(es)
        k = len(es)
        d = [max(l for l in range(1, k + 1) if es[l - 1] == e) for e in es]
        c = [min(l for l in range(1, k + 1) if es[l - 1] == e) for e in es]
        for j in range(k):
            total *= p ** d[j] - p ** j
            total *= (p ** es[j]) ** (k - d[j])
            total *= (p ** (es[j] - 1)) ** (k - c[j] + 1)
    return total


def unit_group_cyclics(n: int) -> list[int]:
    """Cyclic factors of (Z/n)^x, which is Aut(Z_n)."""
    out = []
    for p, e in factorize(n):
        if p == 2:
            if e == 2:
                out.append(2)
            elif e >= 3:
                out += [2, 2 ** (e - 2)]
        else:
            out.append(p ** (e - 1) * (p - 1))
    return out


def abelian_name(cyclics) -> str:
    """The name identify prints for an abelian group."""
    inv = invariant_factors(cyclics)
    return " x ".join(f"Z{d}" for d in inv) if inv else "Z1"


# ---------------------------------------------------------------- expressions

@dataclass(frozen=True)
class G:
    """An expression tree: kind is Z, D, Hol, x (direct), sd (r^i) or idx (#j)."""

    kind: str
    a: object = None
    b: object = None
    i: int = 0

    @property
    def order(self) -> int:
        if self.kind == "Z":
            return self.a
        if self.kind == "D":
            return 2 * self.a
        if self.kind == "Hol":
            return self.a * phi(self.a)
        return self.a.order * self.b.order

    @property
    def abelian(self) -> bool:
        if self.kind == "Z":
            return True
        if self.kind in ("D", "Hol"):
            return self.a <= 2
        if self.kind == "sd":
            return self.i % self.a.a == 1 % self.a.a
        if self.kind == "idx" and self.i != 0:
            return False
        return self.a.abelian and self.b.abelian

    def text(self) -> str:
        if self.kind in ("Z", "D"):
            return f"{self.kind}{self.a}"
        if self.kind == "Hol":
            return f"Hol {self.a}"
        if self.kind == "x":
            right = self.b.text()
            if self.b.kind == "x":
                right = f"({right})"
            return f"{self.a.text()} x {right}"
        action = f"r^{self.i}" if self.kind == "sd" else f"#{self.i}"
        return f"{_primary(self.a)} : {_primary(self.b)} [{action}]"


def _primary(g: G) -> str:
    t = g.text()
    return t if g.kind in ("Z", "D", "Hol") else f"({t})"


def Z(n):
    return G("Z", n)


def D(n):
    return G("D", n)


def Hol(n):
    return G("Hol", n)


def X(*factors):
    g = factors[0]
    for f in factors[1:]:
        g = G("x", g, f)
    return g


def SD(m, n, i):
    return G("sd", Z(m), Z(n), i)


_TOKEN = re.compile(r"\s*(Hol|Z|D|r\^|\d+|[x:\[\]()#])")


def name_order(text: str) -> int:
    """Order of the group a printed name or expression denotes.

    Raises ValueError when the text is not in the expression grammar. An
    ``unidentified (order N)`` answer gives N.
    """
    m = re.fullmatch(r"unidentified \(order (\d+)\)", text)
    if m:
        return int(m.group(1))
    tokens, pos = [], 0
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt:
            raise ValueError(f"bad name {text!r} at {pos}")
        tokens.append(mt.group(1))
        pos = mt.end()
    tokens.append("$")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(want=None):
        tok = tokens[at[0]]
        if want is not None and tok != want:
            raise ValueError(f"bad name {text!r}: expected {want}, got {tok}")
        at[0] += 1
        return tok

    def number():
        tok = take()
        if not tok.isdigit() or int(tok) < 1:
            raise ValueError(f"bad name {text!r}: expected a positive integer")
        return int(tok)

    def primary():
        tok = take()
        if tok == "Z":
            return number()
        if tok == "D":
            return 2 * number()
        if tok == "Hol":
            n = number()
            return n * phi(n)
        if tok == "(":
            v = expr()
            take(")")
            return v
        raise ValueError(f"bad name {text!r}: unexpected {tok}")

    def atom():
        v = primary()
        while peek() == ":":
            take()
            v *= primary()
            take("[")
            if take() not in ("r^", "#"):
                raise ValueError(f"bad name {text!r}: bad action")
            if not take().isdigit():
                raise ValueError(f"bad name {text!r}: bad action")
            take("]")
        return v

    def expr():
        v = atom()
        while peek() == "x":
            take()
            v *= atom()
        return v

    v = expr()
    take("$")
    return v


# ---------------------------------------------------------------- bench-built tables

def build_table(g: G) -> list[list[int]] | None:
    """The Cayley table of g built from its definition, or None for [#j], j > 0.

    Pairs (k, h) are encoded as k * |H| + h, as groupkit does; for D n, h is
    the reflection bit, and for Hol n, h indexes the units mod n.
    """
    if g.kind == "Z":
        n = g.a
        return [[(x + y) % n for y in range(n)] for x in range(n)]
    if g.kind in ("D", "Hol", "sd"):
        if g.kind == "D":
            m, units = g.a, [1, -1]
        elif g.kind == "Hol":
            m = g.a
            units = [u for u in range(1, m + 1) if gcd(u, m) == 1]
        else:
            m = g.a.a
            units = [pow(g.i, t, m) for t in range(g.b.a)]
        n = len(units)
        # h1 * h2 in the acting group, by index; units[h] is how h acts on Z m
        if g.kind != "Hol":
            hmul = [[(h1 + h2) % n for h2 in range(n)] for h1 in range(n)]
        else:
            where = {u % m: h for h, u in enumerate(units)}
            hmul = [[where[units[h1] * units[h2] % m] for h2 in range(n)] for h1 in range(n)]
        return [[(k1 + units[h1] * k2) % m * n + hrow[h2] for k2 in range(m) for h2 in range(n)]
                for k1 in range(m) for h1, hrow in enumerate(hmul)]
    if g.kind == "idx" and g.i != 0:
        return None
    left, right = build_table(g.a), build_table(g.b)
    if left is None or right is None:
        return None
    nb = len(right)
    return [[la[a2] * nb + rb[b2] for a2 in range(len(left)) for b2 in range(nb)]
            for la in left for rb in right]


def relabel(table, rng: random.Random, corrupt: bool) -> tuple[tuple[int, ...], ...]:
    """A seeded relabelling of table; corrupt changes one cell to another value."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    back = [0] * n
    for x, y in enumerate(perm):
        back[y] = x
    rows = [[perm[table[back[a]][back[b]]] for b in range(n)] for a in range(n)]
    if corrupt:
        a, b = rng.randrange(n), rng.randrange(n)
        rows[a][b] = (rows[a][b] + rng.randrange(1, n)) % n
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------- ops

@dataclass
class Op:
    """One closed-loop call and what its answer must be."""

    kind: str                    # cli | axioms | paper
    argv: tuple[str, ...] = ()
    table: tuple = ()
    rc: int = 0                  # expected exit code for cli ops
    lines: dict = field(default_factory=dict)   # line prefix -> exact rest
    name_has_order: dict = field(default_factory=dict)  # line prefix -> order the name must have
    ok: bool = True              # expected axiom verdict

    @property
    def key(self) -> str:
        if self.kind == "axioms":
            return f"axioms n={len(self.table)} ok={self.ok}"
        return " | ".join(self.argv)


def aut_op(g: G, aut_order: int, aut_name: str | None = None) -> Op:
    op = Op("cli", ("aut", g.text()), lines={"|Aut| = ": str(aut_order)})
    if aut_name is not None:
        op.lines["Aut identifies as: "] = aut_name
    else:
        op.name_has_order["Aut identifies as: "] = aut_order
    return op


def iso_op(g1: G, g2: G, iso: bool) -> Op:
    return Op("cli", ("iso", g1.text(), g2.text()), rc=0 if iso else 1)


def identify_op(g: G, name: str | None = None) -> Op:
    op = Op("cli", ("identify", g.text()))
    if name is not None:
        op.lines[""] = name
    else:
        op.name_has_order[""] = g.order
    return op


def info_op(g: G) -> Op:
    return Op("cli", ("info", g.text()),
              lines={"order: ": str(g.order), "abelian: ": "yes" if g.abelian else "no"})


def check(op: Op, result, golden: dict | None = None) -> bool:
    """True when result (what the worker recorded for op) is the right answer."""
    if op.kind == "axioms":
        return result == op.ok
    if op.kind == "paper":
        rc, claims = result
        return rc == 0 and len(claims) == PAPER_CLAIMS and all(s == "pass" for _, s in claims)
    rc, out = result
    if rc != op.rc:
        return False
    if rc not in (0, 1) or op.argv[0] == "iso":
        return True
    got = out.splitlines()
    for prefix, want in op.lines.items():
        if not any(line == prefix + want for line in got):
            return False
    for prefix, order in op.name_has_order.items():
        names = [line[len(prefix):] for line in got if line.startswith(prefix)]
        if len(names) != 1:
            return False
        try:
            if name_order(names[0]) != order:
                return False
        except ValueError:
            return False
        if golden is not None and golden.get(op.key) != names[0]:
            return False
    return True


# ---------------------------------------------------------------- workloads

def _pick(rng, *choices):
    return rng.choice(choices)


def _commuted(rng, a: G, b: G) -> G:
    return X(a, b) if rng.random() < 0.5 else X(b, a)


def large_ops(seed: int) -> list[Op]:
    """A session of aut, iso and identify calls on groups of order 32-384.

    The ops come in cost bands, so that the medians depend on the seed less
    than on the machine. There are 20 cheap ops (a few ms), then 12 of about
    20 ms: the median falls in the middle of those. Then come 12 of 0.05-0.3 s,
    and last 8 of about 0.5 s, where the Aut composition table and identify's
    candidate pool dominate. p95 falls among those. The seed picks the
    parameters inside a band, the factor order of the products and the order
    of the session.
    """
    rng = random.Random(f"large:{seed}")
    ops: list[Op] = []
    # a few ms each
    for _ in range(3):
        n = rng.choice((8, 12, 16, 20, 24))
        ops.append(iso_op(X(D(n), Z(2)), D(2 * n), False))
    for _ in range(3):
        n = rng.choice((9, 15, 21))
        ops.append(iso_op(X(D(n), Z(2)), D(2 * n), True))
    for _ in range(2):
        i = rng.choice((3, 5))
        ops.append(iso_op(SD(8, 4, i), SD(8, 4, 8 - i), False))
    for _ in range(2):
        ops.append(iso_op(SD(32, 2, rng.choice((15, 17))), D(32), False))
    for _ in range(3):
        a, b = _pick(rng, (8, 12), (4, 24), (16, 6))
        ops.append(iso_op(_commuted(rng, Z(a), Z(b)), Z(a * b), False))
    for _ in range(3):
        m, n = _pick(rng, (16, 3), (9, 4), (5, 9), (7, 8))
        ops.append(aut_op(_commuted(rng, Z(m), Z(n)), phi(m) * phi(n),
                          abelian_name(unit_group_cyclics(m * n))))
    for _ in range(2):
        m, n = _pick(rng, (3, 32), (7, 8), (5, 16))
        ops.append(identify_op(_commuted(rng, Z(m), Z(n)), f"Z{m * n}"))
    for _ in range(2):
        n = rng.choice((32, 40, 48))
        ops.append(aut_op(Z(n), phi(n), abelian_name(unit_group_cyclics(n))))
    # about 20 ms each: D n x Z2 and D 2n differ in their order spectra
    for _ in range(12):
        n = rng.choice((46, 48, 50))
        pair = [X(D(n), Z(2)), D(2 * n)]
        rng.shuffle(pair)
        ops.append(iso_op(*pair, False))
    # 0.05-0.3 s each
    ops.append(aut_op(Z(81), phi(81), abelian_name(unit_group_cyclics(81))))
    # Hol n is complete for odd n, so |Aut(Hol n)| = |Hol n| = n * phi(n)
    ops.append(aut_op(Hol(7), 7 * phi(7)))
    p, q, i = _pick(rng, (11, 5, 3), (13, 4, 5))
    ops.append(identify_op(SD(p, q, i)))
    ops.append(_pick(rng, aut_op(_commuted(rng, D(8), Z(3)), 8 * phi(8) * phi(3)),
                     aut_op(_commuted(rng, Z(16), Z(7)), phi(16) * phi(7),
                            abelian_name(unit_group_cyclics(16 * 7)))))
    ops.append(_pick(rng, iso_op(_commuted(rng, Z(64), Z(3)), Z(192), True),
                     iso_op(X(Hol(7), Z(2)), X(SD(7, 6, 3), Z(2)), True),
                     identify_op(SD(16, 4, 3))))
    ops.append(_pick(rng, identify_op(Hol(11)),
                     identify_op(_commuted(rng, Z(8), Z(12)), abelian_name([8, 12]))))
    n = rng.choice((150, 160, 170))
    ops.append(_pick(rng, identify_op(D(n), f"D{n}"),
                     iso_op(_commuted(rng, Z(8), Z(12)), X(Z(24), Z(4)), True),
                     aut_op(Z(125), phi(125), abelian_name(unit_group_cyclics(125)))))
    # the largest table of the session: it sets peak RSS, so it is always drawn
    ops.append(identify_op(D(192), "D192"))
    ops.append(identify_op(X(SD(9, 6, 2), Z(3))))
    ops.append(aut_op(_commuted(rng, D(5), Z(7)), 5 * phi(5) * phi(7)))
    f = [2, 2, 4, 8]
    rng.shuffle(f)
    ops.append(identify_op(X(*map(Z, f)), abelian_name(f)))
    ops.append(identify_op(_commuted(rng, Z(5), D(8))))
    # about 0.5 s each
    ops.append(aut_op(D(16), 16 * phi(16)))
    ops.append(aut_op(Hol(11), 11 * phi(11)))
    ops.append(aut_op(_commuted(rng, Z(9), Z(3)), abelian_aut_order([9, 3])))
    ops.append(aut_op(_commuted(rng, Z(32), Z(2)), abelian_aut_order([32, 2])))
    ops.append(aut_op(_commuted(rng, D(8), Z(5)), 8 * phi(8) * phi(5)))
    ops.append(aut_op(Z(256), phi(256), abelian_name(unit_group_cyclics(256))))
    ops.append(iso_op(Hol(13), SD(13, 12, 2), True))
    ops.append(Op("cli", ("aut", REFUSAL_EXPR), rc=3))
    rng.shuffle(ops)
    return ops


_HOL = [n for n in range(3, 17) if n * phi(n) <= 128]


def _valid_powers(m: int, n: int) -> list[int]:
    """Exponents i for which Z n can act on Z m by r -> r^i."""
    return [i for i in range(1, m) if gcd(i, m) == 1 and n % mult_order(i, m) == 0]


FORMS = ("Z", "D", "Hol", "x", "sd", "idx0", "idx1")


def _random_group(rng: random.Random, hi: int, depth: int, form: str | None = None) -> G:
    """A group of order at most hi (hi >= 4) of the given form, or of any form."""
    if form is None:
        forms = [f for f in FORMS if f != "Hol"] if depth < 2 else ["Z", "D"]
        if depth < 2 and any(n * phi(n) <= hi for n in _HOL):
            forms.append("Hol")
        form = rng.choice(forms)
    if form == "Z":
        return Z(rng.randint(2, min(hi, 128)))
    if form == "D":
        return D(rng.randint(2, min(hi // 2, 64)))
    if form == "Hol":
        return Hol(rng.choice([n for n in _HOL if n * phi(n) <= hi]))
    if form == "x" and hi >= 8:
        left = _random_group(rng, hi // 2, depth + 1)
        if hi // left.order >= 4:
            return X(left, _random_group(rng, hi // left.order, depth + 1))
        return X(left, Z(2))
    if form == "sd" and hi >= 6:
        n = rng.randint(2, min(8, hi // 3))
        m = rng.randint(3, min(16, hi // n))
        return SD(m, n, rng.choice(_valid_powers(m, n)))
    if form == "idx0" and hi >= 8:
        # [#j] enumerates the actions through Aut(K); a small K keeps that cheap
        left = _random_group(rng, min(10, hi // 2), 2)
        right = _random_group(rng, min(8, hi // left.order), 2) if hi // left.order >= 4 else Z(2)
        return G("idx", left, right, 0)
    if form == "idx1" and hi >= 6:
        n = rng.choice([k for k in (2, 4, 6) if 3 * k <= hi])
        return G("idx", Z(rng.randint(3, min(20, hi // n))), Z(n), 1)
    return Z(rng.randint(2, min(hi, 128)))


def random_group(rng: random.Random, lo: int, hi: int, form: str | None = None) -> G:
    """A seeded expression with lo <= order <= hi, of the given top-level form
    when that form reaches the range."""
    attempts = 0
    while True:
        g = _random_group(rng, hi, 0, form if attempts < 200 else None)
        if lo <= g.order <= hi:
            return g
        attempts += 1


def exact_group(rng: random.Random, n: int, depth: int = 0) -> G:
    """A seeded expression of order exactly n whose table build_table can make."""
    forms = [Z(n)]
    if n % 2 == 0 and n >= 6:
        forms.append(D(n // 2))
    forms += [Hol(k) for k in _HOL if k * phi(k) == n]
    for m in range(3, n // 2 + 1):
        if n % m == 0 and n // m >= 2:
            powers = [i for i in _valid_powers(m, n // m) if i != 1]
            if powers:
                forms.append(SD(m, n // m, rng.choice(powers)))
    divisors = [d for d in range(2, n // 2 + 1) if n % d == 0]
    if depth < 2 and divisors:
        for _ in range(3):
            d = rng.choice(divisors)
            forms.append(X(exact_group(rng, d, depth + 1), exact_group(rng, n // d, depth + 1)))
    return rng.choice(forms)


# Orders of the relabelled tables the axiom check gets, one op each per pass.
# A valid table costs O(n^3) and these are the slowest ops of the workload,
# so they share one order: op_tail_ms (p99) then falls among equal-cost ops.
AXIOM_VALID_ORDERS = (108,) * 8
AXIOM_CORRUPT_ORDERS = (128, 120, 96, 96, 64, 64, 48, 32)
# Expressions per order band in the info stream.
INFO_BANDS = ((8, 16, 70), (17, 32, 70), (33, 64, 70), (65, 128, 70))


def tables_ops(seed: int) -> list[Op]:
    """A stream of info calls over the whole grammar with axiom checks in between.

    Every axiom check takes a relabelling of a group the stream has just
    built through info; the corrupted ones must fail, the others pass.
    """
    rng = random.Random(f"tables:{seed}")
    # every band cycles through the top-level forms, so seeds differ only
    # inside a form and the cost of a pass hardly depends on the seed
    stream = [random_group(rng, lo, hi, FORMS[k % len(FORMS)])
              for lo, hi, count in INFO_BANDS for k in range(count)]
    rng.shuffle(stream)
    checks = [(n, True) for n in AXIOM_VALID_ORDERS] + [(n, False) for n in AXIOM_CORRUPT_ORDERS]
    rng.shuffle(checks)
    ops: list[Op] = []
    every = len(stream) // len(checks)
    for k, (n, valid) in enumerate(checks):
        ops += [info_op(g) for g in stream[k * every:(k + 1) * every]]
        g = exact_group(rng, n)
        ops.append(info_op(g))
        ops.append(Op("axioms", table=relabel(build_table(g), rng, not valid), ok=valid))
    ops += [info_op(g) for g in stream[len(checks) * every:]]
    return ops


def paper_ops(seed: int) -> list[Op]:
    """The default verify-paper run; deterministic, so the seed is unused."""
    return [Op("paper", ("verify-paper", "--json"))]


def capped_ops(seed: int) -> list[Op]:
    """The two documented refusals; not a gated workload (see README.md)."""
    return [Op("cli", ("aut", REFUSAL_EXPR), rc=3), Op("cli", ("aut", HANG_EXPR), rc=3)]


@dataclass(frozen=True)
class Workload:
    make: object          # seed -> list[Op]
    tail_pct: float       # the percentile op_tail_ms reports
    min_samples: int      # a run collects at least 10 samples beyond tail_pct
    deadline_s: float     # per-op deadline


# paper has eight samples per pass, one per section. Its tail is p81.25, the
# middle of the samples of the 7th section by cost (check_dihedral_aut), so
# that it does not sit on the edge between two sections; seven passes put ten
# samples beyond it.
WORKLOADS = {
    "paper": Workload(paper_ops, 81.25, 56, 120.0),
    "large": Workload(large_ops, 95.0, 200, 20.0),
    "tables": Workload(tables_ops, 99.0, 1000, 20.0),
    "capped": Workload(capped_ops, 50.0, 1, 20.0),
}
