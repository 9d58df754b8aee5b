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
commutative table passes; both are computed in O(n^2 + n |covers|), not
O(n^3), by two lemmas on a finite lattice.  Write a (*) x for row a of the
table and res(a, c) = join{x | a (*) x <= c}.

Lemma R.  res(a, c) is the join of the preimage {x | a (*) x = c} and of
res(a, d) over the lower covers d of c, for any table.  Proof: a value
strictly below c lies below some lower cover d of c (the order is finite),
so {x | a (*) x <= c} is the preimage of c together with the sets
{x | a (*) x <= d}, and the join of a union is the join of the joins.  So
each row is built up a linear extension of the order, one join per cover
pair (`Lattice.cover_pairs`), after one pass that joins each preimage.

Lemma A (the Galois-connection test; Blyth and Janowitz, "Residuation
Theory", 1972).  a (*) b <= c iff a <= res(b, c) holds for all a, b, c iff
(i) the table commutes, (ii) every row is isotone and (iii)
b (*) res(b, c) <= c for all b, c.  Proof: given the adjunction, x = a
lies in {x | b (*) x <= b (*) a}, so a <= res(b, b (*) a) and
a (*) b <= b (*) a, and the other way round, which is (i); a <= a' <=
res(b, a' (*) b) gives a (*) b <= a' (*) b, so each column, and by (i)
each row, is isotone, which is (ii); and res(b, c) <= res(b, c) gives
res(b, c) (*) b <= c, which is (iii) by (i).  Conversely, a (*) b <= c
gives b (*) a <= c by (i), so a <= res(b, c); and a <= res(b, c) gives
a (*) b = b (*) a <= b (*) res(b, c) <= c by (i), (ii) and (iii).
(i) is checked by comparing the table with its transpose, (ii) on the
covers, whose closure is the order, during the pass of Lemma R, and (iii)
with one read per entry.  The sweep
of every triple runs only when one fails, and names the first failing
triple, which Lemma A says exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .errors import AdjunctionFailure, are_indices, require_index, trusted
from .lattice import Lattice
from .report import Report


@dataclass(frozen=True)
class Tensor:
    """A binary operation on `base` as its full table, row a holding a (*) b
    at column b.  Only an n x n table of elements of the lattice is taken
    (nested lists too): the shape and entries are checked once, here, so
    no battery, residuation or `Universe` reads an unvalidated table.  A
    table of n tuples or lists of n entries is checked by one scan of its
    entries (`are_indices`); any other, or one that fails, is checked row
    by row with `require_index`, and PreconditionViolated names the shape
    or the first bad entry.  The table is kept as a tuple of tuples,
    converted here when it is not one, so tables compare by value whatever
    container held them."""

    base: Lattice
    table: tuple          # n x n element indices

    def __post_init__(self):
        n, table = self.base.n, self.table
        require_index(table, None, ("table", "rows", "elements"), n)
        if not ({tuple, list}.issuperset(map(type, table))
                and set(map(len, table)) == {n}
                and are_indices(list(chain.from_iterable(table)), n)):
            for r, row in enumerate(table):
                require_index(row, n, (f"table row {r}", "entries",
                                       "elements"), n)
        if isinstance(table, tuple):
            for row in table:
                if not isinstance(row, tuple):
                    break
            else:
                return  # a tuple of tuples already: keep it as given
        object.__setattr__(self, "table", tuple(map(tuple, table)))

    def app(self, a, b):
        return self.table[a][b]


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
    covers = lat.cover_pairs

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
    return _check_monoid(t.table, lat.leq, lat.cover_pairs, lat.incomparable,
                         lat.join, lat.top, lat.bot, "gl_monoid",
                         ("integral", "zero", "join_distributive",
                          "divisible"))


def check_co_gl_monoid(t):
    """The seven co-GL axioms of a cotensor: the GL axioms on the reversed
    order, where the unit is bot, the zero top, the join the meet, and a
    lower cover an upper one."""
    lat = t.base
    return _check_monoid(t.table, lat.geq,
                         [(a, c) for c, a in lat.cover_pairs],
                         lat.incomparable, lat.meet, lat.bot, lat.top,
                         "co_gl_monoid", ("co_integral", "co_zero",
                                          "meet_distributive", "co_divisible"))


def _residuate(tab, le, join, bot, covers, adjunction):
    """The table res(a, c) = join{x | a (*) x <= c} over the order `le`,
    with its join table `join`, its least element `bot` and its cover
    pairs `covers`, (lower, upper), each after every pair whose upper
    element lies below its own; raises AdjunctionFailure at the first
    triple that breaks a (*) b <= c iff a <= res(b, c), with that triple
    and `adjunction`, which names the operation and states the law in its
    own terms.

    Each row is one pass that joins each preimage, then one join per cover
    pair up the order (Lemma R of the module docstring), checking on the
    same pairs that the row is isotone.  With commutativity, checked on
    the transpose, and row a at res(a, c) below c, checked per entry, that
    decides the adjunction (Lemma A).  The triple sweep runs only when the
    check fails, to name the first failing triple."""
    n = len(le)
    holds = tab == tuple(zip(*tab))
    res = []
    for row in tab:
        out = [bot] * n
        for x, v in enumerate(row):
            out[v] = join[out[v]][x]
        for d, c in covers:
            out[c] = join[out[c]][out[d]]
            if not le[row[d]][row[c]]:
                holds = False
        if holds:
            for c, r in enumerate(out):
                if not le[row[r]][c]:
                    holds = False
        res.append(tuple(out))
    if not holds:
        a, b, c = _first_failing_triple(tab, le, res)
        raise AdjunctionFailure(f"{adjunction} fails at triple ({a},{b},{c})")
    return tuple(res)


def _first_failing_triple(tab, le, res):
    """The first (a, b, c) in index order where a (*) b <= c and
    a <= res(b, c) disagree; Lemma A says there is one when the pairwise
    check fails."""
    els = range(len(le))
    return next((a, b, c) for a in els for b in els for c in els
                if le[tab[a][b]][c] != le[a][res[b][c]])


def residuum(t):
    """The implication table res(a, b) = join{x | a (*) x <= b}.

    Raises AdjunctionFailure unless a (*) b <= c iff a <= res(b, c) on all
    triples (a non-GL tensor slipped through).  With c = b (*) a the
    adjunction gives a (*) b <= b (*) a, so only a commutative tensor passes.
    Each row is built up a linear extension of the order, one join per
    lower cover (Lemma R), and the adjunction is decided on pairs: the
    table commutes, each row is isotone on the covers, and
    a (*) res(a, c) <= c (Lemma A).  The sweep of every triple runs only
    when that fails, so the cost is O(n^2 + n |covers|), not O(n^3).
    """
    lat = t.base
    return trusted(Tensor, base=lat, table=_residuate(
        t.table, lat.leq, lat.join, lat.bot, lat.cover_pairs,
        "tensor residuum: adjunction a (*) b <= c iff a <= res(b, c)"))


def co_implication(t):
    """The co-implication table coi(a, b) = meet{x | a <= b (+) x}: the
    residuum on the reversed order, transposed, with its adjunction check
    (coi(c, b) <= a iff c <= a (+) b), so a non-commutative cotensor fails.
    On the reversed order the join is the meet, bot is top, and the cover
    pairs, reversed and each swapped, ascend in a linear extension
    (`Lattice.cover_pairs`), so Lemmas R and A hold as for `residuum`, at
    the same O(n^2 + n |covers|) cost.
    """
    lat = t.base
    res = _residuate(
        t.table, lat.geq, lat.meet, lat.top,
        [(a, c) for c, a in reversed(lat.cover_pairs)],
        "cotensor co-implication: adjunction coi(c, b) <= a iff c <= a (+) b")
    return trusted(Tensor, base=lat, table=tuple(zip(*res)))


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
