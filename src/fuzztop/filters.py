"""Graded filters on a finite ground set.

A filter is a total grade table over the graded carrier satisfying FF0-FF3.
Saturation computes the least table above a seed closed under the
monotonicity and tensor-stability rules with `closure.close`, which re-fires
only the rules of cells whose grade changed and fires the tensor rule once
per unordered pair of cells (every `Universe` tensor commutes).
Monotonicity is one rule per cover of the graded order
(`Universe.graded_covers`).  Lemma: a table is monotone iff table[k] >=
table[x] on every cover x < k.  A monotone table holds on the covers, as
each is an order pair; conversely x <= y is a chain of covers, along which
the table rises.  So the cover rule and the whole order close the same
tables: the least fixpoints, listings and verdicts are the same.  Saturated
tables are closed under pointwise meet, and the filters are those whose
empty-set row stays at bot, so enumeration lists that closure system from
its least member, the saturation of the all-bot table (see `closure`).
Saturation is a closure operator, so cl(A v B) = cl(cl(A) v B):
`least_filter_above` starts from a table's kept closure and re-closes only
the cells a seed raises.  The ultrafilter characterization, kept on each
table, and the hat extension follow their explicit formulas; the
characterization reads each value it needs by table lookups.  FF1 is decided
on the covers of the graded order and FF2 on unordered pairs of cells not
at bot (`Universe.decreasing_cells`, `Universe.unstable_cells`).  Each table
keeps its place in the filter order as one int, `FilterTable.code`, and
whether it is a maximal filter, `FilterTable.maximal`: set from the
complete listing by `enumerate_filters`, and otherwise decided by raising
each attribute the table does not hold and closing, which a maximal filter
never survives.  A listed table also records the tables of the maximal
filters at or above it, `FilterTable.maximal_above`, which only a complete
listing can give.  A table is checked for one grade of L per graded cell
where it is wrapped (`FilterTable`), and the tables the kernel computes
from checked ones are wrapped unchecked (`errors.trusted`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .closure import close, enumerate_closed
from .errors import (NotAChain, NotSurjective, PreconditionViolated, SizeLimit,
                     require_index, require_int, trusted)
from .report import Report

#: default cap of `enumerate_filters` on candidate closures, refuted ones
#: included: diamond-3pt and u34-Lukasiewicz (64 and 81 sets) reach it in
#: about 0.65 s; diamond-2pt needs 5,724 and u33-Lukasiewicz 24,691
DEFAULT_FILTER_CAP = 200_000

#: what a grade table over the graded carrier holds, for `require_index`
GRADES_OF_CELLS = ("table", "grades", "graded cells")


@dataclass(frozen=True)
class FilterTable:
    """A grade table over the graded carrier of `universe`.

    It is a filter when it passes `check_filter`, but any table of one
    grade of L per graded cell may be wrapped: the table is checked here
    (`require_index`), so no verdict reads an unchecked one, and kept as a
    tuple, so a list table makes a record equal to the tuple one.  `closure`,
    `characterization`, `code` and `maximal` are computed on first use and
    kept on the object; they are not fields, so equality and hashing see
    only the table.  Nor is `maximal_above`: `enumerate_filters` sets it on
    each table it lists to the tables of the listed maximal filters at or
    above it, in list order, and it is None on any other table.  It holds
    tables, not filters, so that a maximal filter does not refer to itself:
    a listing holds no reference cycle and is freed as soon as it is
    dropped.
    """

    universe: object
    table: tuple  # grade per graded cell
    maximal_above = None

    def __post_init__(self):
        u = self.universe
        require_index(self.table, u.n, GRADES_OF_CELLS, u.graded_size)
        object.__setattr__(self, "table", tuple(self.table))

    @cached_property
    def closure(self):
        """The table of the least filter above this one, by one `saturate`
        call: the table itself when it is a filter, None when no filter
        lies above it."""
        G = saturate(self.universe, self.table)
        if isinstance(G, NoFilterAbove):
            return None
        return self.table if G.table == self.table else G.table

    @cached_property
    def characterization(self):
        """The ultrafilter characterization's (bool, witness): the
        impl-into-bottom identity on every cell and every grade below the
        cell's.  None when the table is not a filter.

        The identity at (f, a) and rho reads the table at
        (f -> 0, rho coimpl a), which is `gimpl` of the cell and (0, rho),
        and takes its residuum into bot: one lookup each in the `pw_res`
        column at the empty set, `coimpl` and the `res` column at bot.
        Its outcome depends only on the cell read, so each grade a keeps,
        per distinct grade rho coimpl a over rho <= a, only the first rho
        in index order: the first failing rho is the same, and when the
        cotensor's unit is bot one cell is read per grade.
        """
        if not check_filter(self).passed:
            return None
        u = self.universe
        n, le, table = u.n, u.lattice.leq, self.table
        bot, zero = u.lattice.bot, u.zero_idx
        into_bot = [row[bot] for row in u.res.table]
        into_zero = [row[zero] for row in u.pw_res]
        coimpl = u.coimpl.table
        reads = []
        for a in range(n):
            first = {}
            for rho in range(n):
                if le[rho][a]:
                    first.setdefault(coimpl[rho][a], rho)
            reads.append(first.items())
        for gi, v in enumerate(table):
            si, a = divmod(gi, n)
            base = into_zero[si] * n
            for grade, rho in reads[a]:
                val = into_bot[table[base + grade]]
                if val != v:
                    return False, {"cell": (si, a), "rho": rho,
                                   "expected": val, "actual": v}
        return True, None

    @cached_property
    def code(self):
        """The table as one int: per cell, the bits of its value's down-set
        (`Lattice.downsets`), so F <= G iff no bit of F is missing in G.
        `enumerate_filters` sets it on each table it lists."""
        return _code(self.universe.lattice.downsets, self.table)

    @cached_property
    def maximal(self):
        """True iff the table is a filter below no other filter of its
        universe.

        A filter F is maximal iff no attribute it does not hold closes
        feasibly: raising a cell c outside the empty row by a
        join-irreducible j not below F(c) and closing it with the filter
        rules from `[c]` always raises the empty row.  A feasible closure
        is a filter strictly above F.  Conversely a filter G > F has a cell
        c with G(c) not below F(c), and as G(c) is the join of the
        irreducibles below it, one of them, j, is not below F(c); raising c
        by j closes below G, so feasibly.  `enumerate_filters` sets it on
        each table it lists, so the listing pays no closures.  False for a
        table that is not a filter.
        """
        if not check_filter(self).passed:
            return False
        u = self.universe
        lat = u.lattice
        join, le = lat.join, lat.leq
        rules, stop = _rules(u), _empty_row(u)
        irreducibles = lat.join_irreducibles()
        for cell, v in enumerate(self.table):
            if cell in stop:
                continue
            for j in irreducibles:
                if not le[j][v]:
                    table = list(self.table)
                    table[cell] = join[v][j]
                    if close(table, lat, rules, [cell], u.graded_covers,
                             stop) is None:
                        return False
        return True

    def app(self, si, a):
        return self.table[self.universe.gidx(si, a)]

    def leq(self, other):
        """F <= G cell by cell, by `code`.  Raises PreconditionViolated when
        the tables are over different universes."""
        if self.universe is not other.universe:
            raise PreconditionViolated("a filter is over another universe")
        return not self.code & ~other.code


def _code(downsets, table):
    return int.from_bytes(b"".join(map(downsets.__getitem__, table)), "little")


def check_filter(F):
    """Per-axiom verdicts for FF0 (top row pinned to top), FF1 (monotone in
    the graded order), FF2 (tensor stability), FF3 (bottom row pinned)."""
    u = F.universe
    lat = u.lattice
    report = Report("filter")

    top_row = [F.app(u.one_idx, a) for a in lat.elements()]
    report.record("FF0", all(v == lat.top for v in top_row), {"row": top_row})

    report.sweep("FF1", ({"cells": (u.gpair(gi), u.gpair(gj))}
                         for gi, gj in u.decreasing_cells(F.table, lat.leq)))
    report.sweep("FF2", ({"cells": cell} for cell in u.unstable_cells(
        F.table, u.tensor.table, lat.leq, lat.bot)))

    bot_row = [F.app(u.zero_idx, a) for a in lat.elements()]
    report.record("FF3", all(v == lat.bot for v in bot_row), {"row": bot_row})
    return report


def enumerate_filters(universe, cap=DEFAULT_FILTER_CAP):
    """All filters on the universe, in canonical (table-lexicographic) order.

    The filters are the saturated tables whose empty-set row stays at bot,
    a down-set of a closure system; they are enumerated from the least one
    (the saturation of the all-bot table) by `closure.enumerate_closed`.
    Raises PreconditionViolated unless `cap` is an int, and SizeLimit when
    more than `cap` candidate closures would be met, the least filter's
    included and a refuted one counted as computed.  The listing is
    complete, so each returned table gets `FilterTable.maximal` from it:
    true for the members below no other, found by comparing their
    `FilterTable.code` encodings, which each table keeps.  Each also gets
    `FilterTable.maximal_above`, the tables of the maximal members whose
    code holds every bit of its own: as the listing holds every filter,
    these are all the maximal filters of the universe at or above it.
    """
    u = universe
    least = saturate(u, (u.lattice.bot,) * u.graded_size)
    tables = enumerate_closed(
        u.lattice, None if isinstance(least, NoFilterAbove) else least.table,
        _rules(u), cap, "filter", u.graded_covers, _empty_row(u))
    downsets = u.lattice.downsets
    codes = [_code(downsets, t) for t in tables]
    tops = []
    for f in codes:
        if all(f & ~t for t in tops):
            tops = [t for t in tops if t & ~f] + [f]
    tops = set(tops)
    maxima = [(f, t) for t, f in zip(tables, codes) if f in tops]
    return [trusted(FilterTable, universe=u, table=t, code=f,
                    maximal=f in tops, maximal_above=tuple(
                        top for m, top in maxima if not f & ~m))
            for t, f in zip(tables, codes)]


def enumerate_filters_bruteforce(universe, cap=DEFAULT_FILTER_CAP):
    """Raw table sweep over every grade assignment; the census oracle.

    Raises PreconditionViolated unless `cap` is an int, and SizeLimit when
    there are more than `cap` candidate tables.
    """
    require_int(cap, "filter enumeration cap")
    u = universe
    total = u.lattice.n ** u.graded_size
    if total > cap:
        raise SizeLimit(f"{total} candidate tables exceeds cap {cap}")
    out = []
    for values in itertools.product(u.lattice.elements(), repeat=u.graded_size):
        F = trusted(FilterTable, universe=u, table=values)
        if check_filter(F).passed:
            out.append(F)
    return out


def sup_of_chain(chain):
    """Pointwise join of a chain of filters; a filter again.  Raises
    PreconditionViolated when the filters are over different universes."""
    if not chain:
        raise NotAChain("empty chain")
    u = chain[0].universe
    lat = u.lattice
    if any(F.universe is not u for F in chain):
        raise PreconditionViolated("a filter is over another universe")
    for F in chain:
        for G in chain:
            if not (F.leq(G) or G.leq(F)):
                raise NotAChain("filters are not pairwise comparable")
    table = tuple(lat.join_set([F.table[gi] for F in chain])
                  for gi in u.graded_cells())
    return trusted(FilterTable, universe=u, table=table)


@dataclass(frozen=True)
class NoFilterAbove:
    """Returned by saturate when no filter dominates the seed; carries the
    offending bottom-row grade and the closed table."""

    alpha: int
    table: tuple


def _rules(u):
    """The filter rule F(f tensor g, a join b) >= F(f, a) tensor F(g, b)."""
    return [(u.box_table, u.tensor.table)]


def _empty_row(u):
    """The graded cells of the empty set, which a filter keeps at bot."""
    return range(u.zero_idx * u.n, (u.zero_idx + 1) * u.n)


def saturate(universe, seed):
    """Least table above the seed closed under the filter rules.

    Forces the top row to top, then raises the table to its least fixpoint
    under monotonicity on the graded covers and the tensor rule
    F(f tensor g, a join b) >= F(f, a) tensor F(g, b), one `closure.close`
    sweep.  The tensor rule fires at most once per unordered pair of cells
    not at bot, visited in value order (see `closure.close`).  Returns the
    FilterTable if the empty-set row stayed at bot, otherwise NoFilterAbove
    with the full fixpoint.  Raises PreconditionViolated unless the seed
    has one grade of L per graded cell.
    """
    u = universe
    lat = u.lattice
    require_index(seed, lat.n, GRADES_OF_CELLS, u.graded_size)
    table = list(seed)
    for a in lat.elements():
        table[u.gidx(u.one_idx, a)] = lat.top
    close(table, lat, _rules(u), above=u.graded_covers)
    for a in lat.elements():
        if table[u.gidx(u.zero_idx, a)] != lat.bot:
            return NoFilterAbove(alpha=a, table=tuple(table))
    return trusted(FilterTable, universe=u, table=tuple(table))


def least_filter_above(F, seed):
    """The least filter above both F and the seed table, or None.

    The same filter as `saturate` of their pointwise join, but closed from
    `F.closure` with only the cells the seed raises marked dirty.
    """
    base = F.closure
    if base is None:
        return None
    u = F.universe
    join = u.lattice.join
    stop = _empty_row(u)
    table = list(base)
    dirty = []
    for k, (v, s) in enumerate(zip(base, seed)):
        w = join[v][s]
        if w != v:
            if k in stop:
                return None
            table[k] = w
            dirty.append(k)
    if close(table, u.lattice, _rules(u), dirty, u.graded_covers,
             stop) is not None:
        return None
    return trusted(FilterTable, universe=u, table=tuple(table))


def hat_extension(U, g_idx, beta, rho=None):
    """The extension table built from a fixed target cell (g, beta).

    With G = impl-into-bottom of U at the cell (g, beta) => (0_X, rho), the
    value at (f, a) is U(f, a) joined with U[(g, beta) => (f, a)] tensor G.
    rho must satisfy rho <= beta; defaults to the lattice bottom.  Raises
    PreconditionViolated, naming the argument, unless g_idx is a set index
    and beta and rho are elements of L with rho <= beta.
    """
    u = U.universe
    lat = u.lattice
    if rho is None:
        rho = lat.bot
    for name, value, size in (("g_idx", g_idx, u.n_sets),
                              ("beta", beta, lat.n), ("rho", rho, lat.n)):
        require_index(value, size, name)
    if not lat.le(rho, beta):
        raise PreconditionViolated("rho must lie below beta")
    gb = u.gidx(g_idx, beta)
    zero_rho = u.gidx(u.zero_idx, rho)
    g_beta = u.res.app(U.table[u.gimpl(gb, zero_rho)], lat.bot)
    table = []
    for gi in u.graded_cells():
        extra = u.tensor.app(U.table[u.gimpl(gb, gi)], g_beta)
        table.append(lat.join2(U.table[gi], extra))
    return trusted(FilterTable, universe=u, table=tuple(table))


def is_ultrafilter(U, mode="characterization", all_filters=None):
    """Decide maximality of a filter.

    mode="maximality": search for a strictly larger filter (all_filters may
    supply a precomputed enumeration, all over U's universe, else
    PreconditionViolated; otherwise one is made with the default closure
    cap).  mode="characterization": the verdict kept on the table as
    `FilterTable.characterization`, so the filter axioms and the identity
    are checked once per table object.  Returns (bool, witness).
    """
    verdict = U.characterization
    if verdict is None:
        raise PreconditionViolated("input does not pass the filter axioms")
    if mode == "characterization":
        return verdict
    if mode == "maximality":
        if all_filters is None:
            all_filters = enumerate_filters(U.universe)
        elif any(G.universe is not U.universe for G in all_filters):
            raise PreconditionViolated("a filter is over another universe")
        for G in all_filters:
            if U.leq(G) and U.table != G.table:
                return False, {"larger": G.table}
        return True, None
    raise ValueError(f"unknown mode {mode!r}")


def image_filter(phi, F, cod_universe):
    """Pushforward along a point map: value at (g, b) is F(g o phi, b).
    Raises PreconditionViolated unless phi is a point map into the codomain
    (`Universe.pullback`)."""
    u = F.universe
    uy = cod_universe
    table = []
    for pulled in uy.pullback(phi, u):
        for b in uy.lattice.elements():
            table.append(F.app(pulled, b))
    return trusted(FilterTable, universe=uy, table=tuple(table))


def preimage_filter(phi, F, dom_universe):
    """Pullback along a surjective point map.

    Value at (f, a) is the join of F(g, b) over all codomain cells whose
    pullback sits below (f, a) in the graded order.  Raises
    PreconditionViolated unless phi is a point map into F's universe
    (`Universe.pullback`).
    """
    uy = F.universe
    ux = dom_universe
    lat = ux.lattice
    pullback = uy.pullback(phi, ux)
    if set(phi) != set(uy.ground.points()):
        raise NotSurjective("point map misses some codomain point")
    table = []
    for si in range(ux.n_sets):
        for a in lat.elements():
            vals = []
            for sj, pulled in enumerate(pullback):
                if not ux.pw_leq[pulled][si]:
                    continue
                for b in lat.elements():
                    if lat.le(a, b):
                        vals.append(F.app(sj, b))
            table.append(lat.join_set(vals))
    return trusted(FilterTable, universe=ux, table=tuple(table))
