"""Monoidal structure on a finite lattice and its residuation.

A Tensor is a full binary-operation table.  As a tensor it is checked for
the GL-monoid axioms and residuated by res(a, b) = join{x | a (*) x <= b};
as a cotensor it is the same on the reversed order (`Lattice.geq`), where
join and meet, top and bot trade places (the duality principle; Hoehle and
Sostak 1999).  So each law and the residuation are written once, over a
given order.  Every axiom is decided exhaustively, and names the first
witness of the full sweep, though it looks only where the law can fail; a
law over arbitrary joins is its empty case plus the binary law on a finite
lattice.
The residuation is re-verified against its adjunction, which only a
commutative table passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import AdjunctionFailure, require_index
from .lattice import Lattice
from .report import Report


@dataclass(frozen=True)
class Tensor:
    """A binary operation on `base` as its full table, row a holding a (*) b
    at column b.  Only an n x n table of elements of the lattice is taken
    (nested lists too): the shape and entries are checked once, here, row
    by row with `require_index`, so no battery, residuation or `Universe`
    reads an unvalidated table.  PreconditionViolated names the shape or
    the first bad entry.  The table is kept as a tuple of tuples, converted
    here when it is not one, so tables compare by value whatever container
    held them."""

    base: Lattice
    table: tuple          # n x n element indices

    def __post_init__(self):
        n, table = self.base.n, self.table
        require_index(table, None, ("table", "rows", "elements"), n)
        for r, row in enumerate(table):
            require_index(row, n, (f"table row {r}", "entries", "elements"), n)
        if isinstance(table, tuple):
            for row in table:
                if not isinstance(row, tuple):
                    break
            else:
                return  # a tuple of tuples already: keep it as given
        object.__setattr__(self, "table", tuple(map(tuple, table)))

    def app(self, a, b):
        return self.table[a][b]


def _covers(lat):
    """The pairs (c, a), c a lower cover of a, in index order of a."""
    return [(c, a) for a, below in enumerate(lat.lower_covers) for c in below]


def check_cqm(t):
    """Isotonicity in both arguments and idempotence of top.

    A finite order is the reflexive-transitive closure of its covers, so
    the table is isotone in both arguments iff c (*) b <= a (*) b and
    b (*) c <= b (*) a for every cover c < a and every b: then a1 <= a2 and
    b1 <= b2 give a1 (*) b1 <= a2 (*) b1 <= a2 (*) b2.  The covers are
    checked first, and the sweep of every quadruple, which names the first
    failure, runs only when one fails."""
    lat = t.base
    report = Report("cqm_lattice")
    els, le, tab = lat.elements(), lat.leq, t.table
    covers = _covers(lat)

    def decreasing():
        if all(le[x][y] for c, a in covers for x, y in zip(tab[c], tab[a])) \
                and all(le[row[c]][row[a]] for row in tab for c, a in covers):
            return
        yield from ((a1, a2, b1, b2) for a1 in els for a2 in els
                    if le[a1][a2] for b1 in els for b2 in els
                    if le[b1][b2] and not le[tab[a1][b1]][tab[a2][b2]])

    report.sweep("isotone", decreasing())
    report.record("top_idempotent", t.app(lat.top, lat.top) == lat.top,
                  (lat.top, t.app(lat.top, lat.top)))
    return report


def _check_monoid(tab, le, covers, pairs, join, top, bot, name, names):
    """Report `name`: the seven GL-monoid axioms of `tab` over the order
    `le`, with its covers as (lower, upper) `covers`, its incomparable
    pairs `pairs` and its join table `join`, the last four axioms under
    `names`.  On the reversed order, covers transposed, this is the co-GL
    battery.

    Each law is swept only where it can fail, and still names the full
    sweep's first witness.  "isotone" is decided on the covers, whose
    closure is the order; the sweep of every triple runs only when a cover
    fails.  "commutative" fails in pairs, so only a < b is checked.
    Distributivity over the empty family is checked as is; over a pair
    {b, c} its two sides are symmetric in b and c and agree at b = c, and
    for b <= c they are both a (*) c when the row of a is isotone (checked
    on the covers), so such a row is checked on the incomparable pairs
    b < c only, and any other row on every pair.  "divisible" looks a up
    in one set of values per row."""
    report, els = Report(name), range(len(le))
    integral, zero, distributive, divisible = names

    def decreasing():
        if all(le[x][y] for c, a in covers for x, y in zip(tab[c], tab[a])):
            return
        yield from ((a, b, c) for a in els for b in els if le[a][b]
                    for c in els if not le[tab[a][c]][tab[b][c]])

    report.sweep("isotone", decreasing())
    report.sweep("commutative", ((a, b) for a in els for b in els[a + 1:]
                                 if tab[a][b] != tab[b][a]))
    report.sweep("associative", ((a, b, c) for a in els for b in els
                                 for c in els
                                 if tab[a][tab[b][c]] != tab[tab[a][b]][c]))
    report.sweep(integral, ((a, tab[a][top]) for a in els if tab[a][top] != a))
    report.sweep(zero, ((a, tab[a][bot]) for a in els if tab[a][bot] != bot))

    def undistributed():
        # a (*) join B == join {a (*) b}: the empty family B, then pairs;
        # `a` stays on the left, so a non-commutative table is judged as is
        for a in els:
            row = tab[a]
            if row[bot] != bot:
                yield {"a": a, "subset": (), "lhs": row[bot], "rhs": bot}
            isotone = all(le[row[c]][row[b]] for c, b in covers)
            for b, c in pairs if isotone else product(els, els):
                lhs = row[join[b][c]]
                rhs = join[row[b]][row[c]]
                if lhs != rhs:
                    yield {"a": a, "subset": (b, c), "lhs": lhs, "rhs": rhs}

    report.sweep(distributive, undistributed())
    # a <= b admits gamma with b (*) gamma == a
    values = [set(row) for row in tab]
    report.sweep(divisible, ((a, b) for a in els for b in els
                             if le[a][b] and a not in values[b]))
    return report


def check_gl_monoid(t):
    """The seven GL-monoid axioms, each exhaustively evaluated."""
    lat = t.base
    return _check_monoid(t.table, lat.leq, _covers(lat), lat.incomparable,
                         lat.join, lat.top, lat.bot, "gl_monoid",
                         ("integral", "zero", "join_distributive",
                          "divisible"))


def check_co_gl_monoid(t):
    """The seven co-GL axioms of a cotensor: the GL axioms on the reversed
    order, where the unit is bot, the zero top, the join the meet, and a
    lower cover an upper one."""
    lat = t.base
    return _check_monoid(t.table, lat.geq, [(a, c) for c, a in _covers(lat)],
                         lat.incomparable, lat.meet, lat.bot, lat.top,
                         "co_gl_monoid", ("co_integral", "co_zero",
                                          "meet_distributive", "co_divisible"))


def _residuate(tab, le, join, bot, adjunction):
    """The table res(a, b) = join{x | a (*) x <= b} over the order `le`;
    raises AdjunctionFailure at the first triple that breaks
    a (*) b <= c iff a <= res(b, c), with that triple and `adjunction`,
    which names the operation and states the law in its own terms."""
    els = range(len(le))
    res = []
    for row in tab:
        out = []
        for b in els:
            r = bot
            for x in els:
                if le[row[x]][b]:
                    r = join[r][x]
            out.append(r)
        res.append(tuple(out))
    for a in els:
        for b in els:
            for c in els:
                if le[tab[a][b]][c] != le[a][res[b][c]]:
                    raise AdjunctionFailure(f"{adjunction} fails at triple "
                                            f"({a},{b},{c})")
    return tuple(res)


def residuum(t):
    """The implication table res(a, b) = join{x | a (*) x <= b}.

    Raises AdjunctionFailure unless a (*) b <= c iff a <= res(b, c) on all
    triples (a non-GL tensor slipped through).  With c = b (*) a the
    adjunction gives a (*) b <= b (*) a, so only a commutative tensor passes.
    """
    lat = t.base
    return Tensor(base=lat, table=_residuate(
        t.table, lat.leq, lat.join, lat.bot,
        "tensor residuum: adjunction a (*) b <= c iff a <= res(b, c)"))


def co_implication(t):
    """The co-implication table coi(a, b) = meet{x | a <= b (+) x}: the
    residuum on the reversed order, transposed, with its adjunction check
    (coi(c, b) <= a iff c <= a (+) b), so a non-commutative cotensor fails.
    """
    lat = t.base
    res = _residuate(
        t.table, lat.geq, lat.meet, lat.top,
        "cotensor co-implication: adjunction coi(c, b) <= a iff c <= a (+) b")
    return Tensor(base=lat, table=tuple(zip(*res)))


def classify(t, r):
    """Tag a validated GL-monoid: Heyting (tensor is meet) and/or MV
    (double implication into bot is the identity)."""
    lat = t.base
    tags = set()
    if t.table == lat.meet:
        tags.add("heyting")
    if all(r.app(r.app(a, lat.bot), lat.bot) == a for a in lat.elements()):
        tags.add("mv")
    return frozenset(tags)
