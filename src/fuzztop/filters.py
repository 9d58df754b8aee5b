"""Graded filters on a finite ground set.

A filter is a total grade table over the graded carrier satisfying FF0-FF3.
Saturation computes the least table above a seed closed under the
monotonicity and tensor-stability rules, by a worklist that re-fires only
the rules of cells whose grade changed.  Saturated tables are closed under
pointwise meet, and the filters are those whose empty-set row stays at bot,
so enumeration lists that closure system from its least member (see
`closure`).  Saturation is a closure operator, so cl(A v B) = cl(cl(A) v B):
`least_filter_above` starts from a table's kept closure and re-closes only
the cells a seed raises.  The ultrafilter characterization and the hat
extension follow their explicit formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .closure import enumerate_closed, worklist
from .errors import NotAChain, NotSurjective, PreconditionViolated, SizeLimit
from .report import Report

DEFAULT_FILTER_CAP = 200_000


@dataclass(frozen=True)
class FilterTable:
    """A grade table over the graded carrier of `universe`.

    It is a filter when it passes `check_filter`, but any table may be
    wrapped.  `closure` is computed on first use and kept on the object; it
    is not a field, so equality and hashing see only the table.
    """

    universe: object
    table: tuple  # grade per graded cell

    @cached_property
    def closure(self):
        """The table of the least filter above this one, by one `saturate`
        call: the table itself when it is a filter, None when no filter
        lies above it."""
        G = saturate(self.universe, self.table)
        if isinstance(G, NoFilterAbove):
            return None
        return self.table if G.table == self.table else G.table

    def app(self, si, a):
        return self.table[self.universe.gidx(si, a)]

    def leq(self, other):
        lat = self.universe.lattice
        return all(lat.le(a, b) for a, b in zip(self.table, other.table))


def check_filter(F):
    """Per-axiom verdicts for FF0 (top row pinned to top), FF1 (monotone in
    the graded order), FF2 (tensor stability), FF3 (bottom row pinned)."""
    u = F.universe
    lat = u.lattice
    report = Report("filter")

    top_row = [F.app(u.one_idx, a) for a in lat.elements()]
    report.record("FF0", all(v == lat.top for v in top_row), {"row": top_row})

    report.sweep("FF1", ({"cells": (u.gpair(gi), u.gpair(gj))}
                         for gi in u.graded_cells() for gj in u.graded_above[gi]
                         if not lat.le(F.table[gi], F.table[gj])))
    report.sweep("FF2", ({"cells": cell} for cell in
                         u.unstable_cells(F.table, u.tensor.table, lat.leq)))

    bot_row = [F.app(u.zero_idx, a) for a in lat.elements()]
    report.record("FF3", all(v == lat.bot for v in bot_row), {"row": bot_row})
    return report


def _close(u, table, dirty, sweep=False, abort=False):
    """Raise `table`, a list, in place to its least fixpoint under the
    monotonicity rule and the tensor rule on index-ordered pairs of cells.

    `dirty` lists the cells raised since the table was last closed, and
    sweep=True visits every cell first (see `closure.worklist`).  With
    abort=True it returns False as soon as an empty-set cell leaves bot,
    leaving the table half closed; otherwise it returns True.
    """
    join, ten = u.lattice.join, u.tensor.table
    above, box = u.graded_above, u.box_table
    size = u.graded_size
    zero_lo = u.zero_idx * u.n
    zero_hi = zero_lo + u.n

    def lift(k, w):
        table[k] = w
        dirty.append(k)
        return not (abort and zero_lo <= k < zero_hi)

    for x, full in worklist(size, sweep, dirty):
        v = table[x]
        for k in above[x]:
            w = join[table[k]][v]
            if w != table[k] and not lift(k, w):
                return False
        for y in range(x + 1):
            k = box[y][x]
            w = join[table[k]][ten[table[y]][v]]
            if w != table[k] and not lift(k, w):
                return False
        if full:
            row, ten_v = box[x], ten[v]
            for y in range(x + 1, size):
                k = row[y]
                w = join[table[k]][ten_v[table[y]]]
                if w != table[k] and not lift(k, w):
                    return False
    return True


def _pin_top_row(u, table):
    for a in u.lattice.elements():
        table[u.gidx(u.one_idx, a)] = u.lattice.top


def enumerate_filters(universe, cap=DEFAULT_FILTER_CAP):
    """All filters on the universe, in canonical (table-lexicographic) order.

    The filters are the saturated tables whose empty-set row stays at bot,
    a down-set of a closure system; they are enumerated from the least one
    (only the top row at top) by `closure.enumerate_closed`.  Raises
    SizeLimit when more than `cap` closures would be computed.
    """
    u = universe
    lat = u.lattice
    least = [lat.bot] * u.graded_size
    _pin_top_row(u, least)
    feasible = _close(u, least, [], sweep=True, abort=True)
    # raising an empty-set cell above bot is infeasible from the start
    cells = [gi for gi in u.graded_cells() if gi // u.n != u.zero_idx]
    tables = enumerate_closed(
        lat, tuple(least) if feasible else None,
        lambda table, gi: _close(u, table, [gi], abort=True),
        cells, cap, "filter")
    return [FilterTable(universe=u, table=t) for t in tables]


def enumerate_filters_bruteforce(universe, cap=DEFAULT_FILTER_CAP):
    """Raw table sweep over every grade assignment; the census oracle.

    Raises SizeLimit when there are more than `cap` candidate tables.
    """
    u = universe
    total = u.lattice.n ** u.graded_size
    if total > cap:
        raise SizeLimit(f"{total} candidate tables exceeds cap {cap}")
    out = []
    for values in itertools.product(u.lattice.elements(), repeat=u.graded_size):
        F = FilterTable(universe=u, table=values)
        if check_filter(F).passed:
            out.append(F)
    return out


def sup_of_chain(chain):
    """Pointwise join of a chain of filters; a filter again."""
    if not chain:
        raise NotAChain("empty chain")
    u = chain[0].universe
    lat = u.lattice
    for F in chain:
        for G in chain:
            if not (F.leq(G) or G.leq(F)):
                raise NotAChain("filters are not pairwise comparable")
    table = tuple(lat.join_set([F.table[gi] for F in chain])
                  for gi in u.graded_cells())
    return FilterTable(universe=u, table=table)


@dataclass(frozen=True)
class NoFilterAbove:
    """Returned by saturate when no filter dominates the seed; carries the
    offending bottom-row grade and the closed table."""

    alpha: int
    table: tuple


def saturate(universe, seed):
    """Least table above the seed closed under the filter rules.

    Forces the top row to top, transports values up the graded order, and
    applies the tensor rule until a fixpoint; returns the FilterTable if the
    bottom row stayed at bot, otherwise NoFilterAbove.
    """
    u = universe
    lat = u.lattice
    table = list(seed)
    _pin_top_row(u, table)
    _close(u, table, [], sweep=True)
    for a in lat.elements():
        v = table[u.gidx(u.zero_idx, a)]
        if v != lat.bot:
            return NoFilterAbove(alpha=a, table=tuple(table))
    return FilterTable(universe=u, table=tuple(table))


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
    zero_lo = u.zero_idx * u.n
    zero_hi = zero_lo + u.n
    table = list(base)
    dirty = []
    for k, (v, s) in enumerate(zip(base, seed)):
        w = join[v][s]
        if w != v:
            if zero_lo <= k < zero_hi:
                return None
            table[k] = w
            dirty.append(k)
    if not _close(u, table, dirty, abort=True):
        return None
    return FilterTable(universe=u, table=tuple(table))


def hat_extension(U, g_idx, beta, rho=None):
    """The extension table built from a fixed target cell (g, beta).

    With G = impl-into-bottom of U at the cell (g, beta) => (0_X, rho), the
    value at (f, a) is U(f, a) joined with U[(g, beta) => (f, a)] tensor G.
    rho must satisfy rho <= beta; defaults to the lattice bottom.
    """
    u = U.universe
    lat = u.lattice
    if rho is None:
        rho = lat.bot
    if not lat.le(rho, beta):
        raise PreconditionViolated("rho must lie below beta")
    gb = u.gidx(g_idx, beta)
    zero_rho = u.gidx(u.zero_idx, rho)
    g_beta = u.res.app(U.table[u.gimpl(gb, zero_rho)], lat.bot)
    table = []
    for gi in u.graded_cells():
        extra = u.tensor.app(U.table[u.gimpl(gb, gi)], g_beta)
        table.append(lat.join2(U.table[gi], extra))
    return FilterTable(universe=u, table=tuple(table))


def _characterization_holds(U):
    u = U.universe
    lat = u.lattice
    for gi in u.graded_cells():
        _, a = u.gpair(gi)
        for rho in lat.elements():
            if not lat.le(rho, a):
                continue
            val = u.res.app(U.table[u.gimpl(gi, u.gidx(u.zero_idx, rho))],
                            lat.bot)
            if val != U.table[gi]:
                return False, {"cell": u.gpair(gi), "rho": rho,
                               "expected": val, "actual": U.table[gi]}
    return True, None


def is_ultrafilter(U, mode="characterization", all_filters=None):
    """Decide maximality of a filter.

    mode="maximality": search for a strictly larger filter (all_filters may
    supply a precomputed enumeration; otherwise one is made with the default
    closure cap).  mode="characterization": test the
    impl-into-bottom identity on every cell and every grade below the cell's.
    Returns (bool, witness).
    """
    if not check_filter(U).passed:
        raise PreconditionViolated("input does not pass the filter axioms")
    if mode == "characterization":
        ok, witness = _characterization_holds(U)
        return ok, witness
    if mode == "maximality":
        if all_filters is None:
            all_filters = enumerate_filters(U.universe)
        for G in all_filters:
            if U.leq(G) and U.table != G.table:
                return False, {"larger": G.table}
        return True, None
    raise ValueError(f"unknown mode {mode!r}")


def image_filter(phi, F, cod_universe):
    """Pushforward along a point map: value at (g, b) is F(g o phi, b)."""
    u = F.universe
    uy = cod_universe
    table = []
    for sj in range(uy.n_sets):
        pulled = uy.compose(phi, sj, u)
        for b in uy.lattice.elements():
            table.append(F.app(pulled, b))
    return FilterTable(universe=uy, table=tuple(table))


def preimage_filter(phi, F, dom_universe):
    """Pullback along a surjective point map.

    Value at (f, a) is the join of F(g, b) over all codomain cells whose
    pullback sits below (f, a) in the graded order.
    """
    uy = F.universe
    ux = dom_universe
    lat = ux.lattice
    if set(phi) != set(uy.ground.points()):
        raise NotSurjective("point map misses some codomain point")
    table = []
    for si in range(ux.n_sets):
        for a in lat.elements():
            vals = []
            for sj in range(uy.n_sets):
                pulled = uy.compose(phi, sj, ux)
                if not ux.pw_leq[pulled][si]:
                    continue
                for b in lat.elements():
                    if lat.le(a, b):
                        vals.append(F.app(sj, b))
            table.append(lat.join_set(vals))
    return FilterTable(universe=ux, table=tuple(table))
