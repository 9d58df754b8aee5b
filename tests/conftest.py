import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import models
from fuzztop import compactness, filters, topology
from fuzztop.closure import close, enumerate_closed
from fuzztop.compactness import _first_adherence
from fuzztop.filters import (DEFAULT_FILTER_CAP, FilterTable, NoFilterAbove,
                             enumerate_filters_bruteforce, is_ultrafilter)
from fuzztop.report import Report


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance") \
        or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None)
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in lines:
            terminalreporter.write_line("  " + line)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(target) replaces every `fuzztop` module binding of the
    function `target` with a counting wrapper, or wraps `__init__` when
    target is a class, as the bench tracer does; returns the list that
    gets each call's positional arguments."""
    def install(target):
        calls = []
        is_class = isinstance(target, type)
        original = target.__init__ if is_class else target

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        if is_class:
            monkeypatch.setattr(target, "__init__", counting)
            return calls
        for name, module in list(sys.modules.items()):
            if name == "fuzztop" or name.startswith("fuzztop."):
                for attr, value in list(vars(module).items()):
                    if value is target:
                        monkeypatch.setattr(module, attr, counting)
        return calls
    return install


def _close_by_index(table, join, rules, dirty=None, above=None, stop=()):
    """Oracle: `closure.close` with the first sweep it replaced.  With no
    dirty cells every cell is visited once in index order, bot or not,
    paired with itself and the cells before it; a cell raised after its
    first visit is visited again, paired with every cell."""
    size = len(table)
    if dirty is None:
        dirty = []
        visits = [(x, x + 1) for x in range(size - 1, -1, -1)]
    else:
        visits = []
    while visits or dirty:
        if visits:
            x, span = visits.pop()
            last = x  # the cells after x have their first visit to come
        else:
            x = dirty.pop()
            span = last = size
        v = table[x]
        if above is not None:
            for k in above[x]:
                w = join[table[k]][v]
                if w != table[k]:
                    if k in stop:
                        return False
                    table[k] = w
                    if k <= last:
                        dirty.append(k)
        for target, op in rules:
            op_v = op[v]
            for k, g in zip(target[x], table[:span]):
                w = join[table[k]][op_v[g]]
                if w != table[k]:
                    if k in stop:
                        return False
                    table[k] = w
                    if k <= last:
                        dirty.append(k)
    return True


@pytest.fixture(autouse=True)
def fresh_closures_match_the_index_order_sweep(monkeypatch):
    """Every fresh closure a test makes, `close` with no dirty cells as
    `generate_topology` (off the meet tensor), `saturate`,
    `preimage_filter` and `product_nbhd_system` call it, closes to the
    table and the answer of `_close_by_index`."""
    def checked(table, lattice, rules, dirty=None, above=None, stop=()):
        if dirty is None:
            want = list(table)
            closed = _close_by_index(want, lattice.join, rules, None, above,
                                     stop)
            stopped = close(table, lattice, rules, None, above, stop)
            assert (stopped is None) == closed
            assert closed or stopped in stop
            assert not closed or table == want
            return stopped
        return close(table, lattice, rules, dirty, above, stop)

    monkeypatch.setattr(topology, "close", checked)
    monkeypatch.setattr(filters, "close", checked)
    monkeypatch.setattr(compactness, "close", checked)


@pytest.fixture(scope="session")
def close_by_index():
    """The index-order closure oracle, called as `closure.close` is but with
    the lattice's join table in place of the lattice."""
    return _close_by_index


def _boxtimes(u, gi, gj):
    si, a = divmod(gi, u.n)
    sj, b = divmod(gj, u.n)
    return u.gidx(u.pw_tensor[si][sj], u.lattice.join2(a, b))


@pytest.fixture(scope="session")
def boxtimes():
    """Oracle: (f, a) boxtimes (g, b) = (f tensor g, a join b), one cell pair
    at a time, for checking `Universe.box_table`; called as
    boxtimes(u, gi, gj)."""
    return _boxtimes


def _graded_leq(u, gi, gj):
    si, a = divmod(gi, u.n)
    sj, b = divmod(gj, u.n)
    return u.pw_leq[si][sj] and u.lattice.le(b, a)


@pytest.fixture(scope="session")
def graded_leq():
    """Oracle: the graded order by its definition, (f, a) below (g, b) iff
    f <= g pointwise and b <= a, one pair of cells at a time; called as
    graded_leq(u, gi, gj)."""
    return _graded_leq


def _topology_by_sweeps(t):
    """Oracle: `topology.check_topology` as it decided o2 and o3 under
    every tensor before the meet tensor's level test: o1 and o1', then o2
    over the unordered pairs of sets whose grade v has v (*) top above the
    floor, the meet of the grades, and o3 over the unordered pairs of
    distinct sets above the floor, after the empty family."""
    u = t.universe
    lat = u.lattice
    report = Report("topology")
    table, le, ten, meet = t.table, lat.leq, u.tensor.table, lat.meet
    report.record("o1", table[u.one_idx] == lat.top,
                  {"grade": table[u.one_idx]})
    report.record("o1_prime", table[u.zero_idx] == lat.top,
                  {"grade": table[u.zero_idx]})
    floor = lat.bot if lat.bot in table else lat.meet_set(set(table))
    unstable = [not le[row[lat.top]][floor] for row in ten]
    live = [i for i, v in enumerate(table) if unstable[v]]
    report.sweep("o2", ({"f": u.sets[i], "g": u.sets[j]}
                        for k, i in enumerate(live) for j in live[k:]
                        if not le[ten[table[i]][table[j]]][
                            table[u.pw_tensor[i][j]]]))
    above = [i for i, v in enumerate(table) if v != floor]
    empty = [{"subset": ()}] if table[u.zero_idx] != lat.top else []
    report.sweep("o3", itertools.chain(empty, (
        {"subset": (i, j)} for k, i in enumerate(above) for j in above[k + 1:]
        if not le[meet[table[i]][table[j]]][table[u.pw_join[i][j]]])))
    return report


@pytest.fixture(scope="session")
def topology_by_sweeps():
    """The pair-sweep topology check, called as topology_by_sweeps(t) on a
    `Topology`; returns its `Report`."""
    return _topology_by_sweeps


def _above_by_comprehension(u):
    n, le, pw_leq = u.n, u.lattice.leq, u.pw_leq
    return tuple(
        tuple(sj * n + b for sj in range(u.n_sets) if pw_leq[si][sj]
              for b in range(n) if le[b][a] and (sj, b) != (si, a))
        for si in range(u.n_sets) for a in range(n))


@pytest.fixture(scope="session")
def above_by_comprehension():
    """Oracle: the graded order in full, which the kernel keeps only as its
    covers (`Universe.graded_covers`): per cell, every cell strictly above
    it read off `pw_leq` and the lattice order, in index order; called as
    above_by_comprehension(u), and usable as `closure.close`'s `above`."""
    return _above_by_comprehension


def _gimpl_sup(u, gi, gj):
    si, a = divmod(gi, u.n)
    sj, b = divmod(gj, u.n)
    lat, cot = u.lattice, u.cotensor
    set_acc = u.zero_idx
    for hi, row in enumerate(u.pw_tensor):
        if u.pw_leq[row[si]][sj]:
            set_acc = u.pw_join[set_acc][hi]
    grade = lat.meet_set(e for e in lat.elements()
                         if lat.le(b, cot.app(e, a)))
    return u.gidx(set_acc, grade)


@pytest.fixture(scope="session")
def gimpl_sup():
    """Oracle: graded residuation by its sup-form definition, one cell pair
    at a time, for checking `Universe.gimpl` and the sup-form table of
    `check_graded_gl`; called as gimpl_sup(u, gi, gj).

    The join, in the graded order, of all (h, e) with h tensor f <= g and
    b <= e cotensor a; the graded join is (pointwise join, lattice meet).
    The pairs are a product of a set of sets and a set of grades, so the
    join is (join of the sets, meet of the grades) when neither is empty,
    and neither is: the empty set is among the sets, as bot is the
    tensor's zero, and top among the grades, as the co-implication's
    adjunction forces top cotensor a = top."""
    return _gimpl_sup


def _preimage_by_definition(phi, F, ux):
    uy = F.universe
    lat = ux.lattice
    pullback = uy.pullback(phi, ux)
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
    return tuple(table)


@pytest.fixture(scope="session")
def preimage_by_definition():
    """Oracle: the pullback of the table F along the point map phi onto the
    universe ux by its definition, for checking `filters.preimage_filter`:
    at (f, a), the join of F(g, b) over every codomain cell whose pulled-back
    cell (g o phi, b) lies below (f, a) in the graded order, swept over
    every pair of sets and every pair of grades; called as
    preimage_by_definition(phi, F, ux), and returns the table."""
    return _preimage_by_definition


class GradedFilters:
    """Oracle: the filter closures and the filter check on the graded
    carrier, every grade of every set a cell of its own, as the kernel ran
    them before it closed unit-top universes on the sets
    (`Universe.filter_carrier`).  Each method takes and returns what the
    kernel function of its name does; `enumerate` returns the listed
    tables with their `maximal` flags and `maximal_above` tables, and
    `check_filter` names each failure from the full graded sweeps."""

    @staticmethod
    def rules(u):
        """The filter rule F(f tensor g, a join b) >= F(f, a) tensor
        F(g, b) over the graded cells."""
        return [(u.box_table, u.tensor.table)]

    @staticmethod
    def empty_row(u):
        return range(u.zero_idx * u.n, (u.zero_idx + 1) * u.n)

    def saturate(self, u, seed):
        lat = u.lattice
        table = list(seed)
        for a in lat.elements():
            table[u.gidx(u.one_idx, a)] = lat.top
        close(table, lat, self.rules(u), above=u.graded_covers)
        for a in lat.elements():
            if table[u.gidx(u.zero_idx, a)] != lat.bot:
                return NoFilterAbove(alpha=a, table=tuple(table))
        return FilterTable(universe=u, table=tuple(table))

    def least_filter_above(self, F, seed):
        u = F.universe
        base = self.saturate(u, F.table)
        if isinstance(base, NoFilterAbove):
            return None
        join, stop = u.lattice.join, self.empty_row(u)
        table, dirty = list(base.table), []
        for k, (v, s) in enumerate(zip(base.table, seed)):
            if join[v][s] != v:
                if k in stop:
                    return None
                table[k] = join[v][s]
                dirty.append(k)
        if close(table, u.lattice, self.rules(u), dirty, u.graded_covers,
                 stop) is not None:
            return None
        return FilterTable(universe=u, table=tuple(table))

    def maximal(self, F):
        if not self.check_filter(F).passed:
            return False
        u = F.universe
        lat = u.lattice
        stop = self.empty_row(u)
        for cell, v in enumerate(F.table):
            for j in lat.join_irreducibles():
                if cell not in stop and not lat.leq[j][v]:
                    table = list(F.table)
                    table[cell] = lat.join[v][j]
                    if close(table, lat, self.rules(u), [cell],
                             u.graded_covers, stop) is None:
                        return False
        return True

    def enumerate(self, u, cap=DEFAULT_FILTER_CAP):
        least = self.saturate(u, (u.lattice.bot,) * u.graded_size)
        tables = enumerate_closed(
            u.lattice, getattr(least, "leq", None) and least.table,
            self.rules(u), cap, "filter", u.graded_covers, self.empty_row(u))
        downsets = u.lattice.downsets
        codes = [int.from_bytes(b"".join(downsets[v] for v in t), "little")
                 for t in tables]
        tops = [f for f in codes if not any(g != f and not f & ~g
                                            for g in codes)]
        return [(t, f in tops, tuple(s for s, g in zip(tables, codes)
                                     if g in tops and not f & ~g))
                for t, f in zip(tables, codes)]

    @staticmethod
    def check_filter(F):
        u = F.universe
        lat = u.lattice
        report = Report("filter")
        top_row = [F.app(u.one_idx, a) for a in lat.elements()]
        report.record("FF0", all(v == lat.top for v in top_row),
                      {"row": top_row})
        report.sweep("FF1", ({"cells": (u.gpair(gi), u.gpair(gj))}
                             for gi, gj in u.decreasing_cells(F.table,
                                                              lat.leq)))
        report.sweep("FF2", ({"cells": cell} for cell in u.unstable_cells(
            F.table, u.tensor.table, lat.leq, lat.bot)))
        bot_row = [F.app(u.zero_idx, a) for a in lat.elements()]
        report.record("FF3", all(v == lat.bot for v in bot_row),
                      {"row": bot_row})
        return report


@pytest.fixture(scope="session")
def graded_filters():
    """The graded filter closures and check (`GradedFilters`), called as
    graded_filters.saturate(u, seed) and so on."""
    return GradedFilters()


def _fold_tensor(lat, tensor, values):
    out = lat.top
    for v in values:
        out = tensor.app(out, v)
    return out


def _product_nbhd(P, p, f_idx, alpha):
    u = P.universe
    lat = u.lattice
    tensor = u.tensor
    p_tuple = P.point_tuples[p]
    acc = lat.bot
    for h in itertools.product(*[range(f.universe.n_sets) for f in P.factors]):
        pullback = u.one_idx
        for hk, pulled in zip(h, P.pullbacks):
            pullback = u.pw_tensor[pullback][pulled[hk]]
        if not u.pw_leq[pullback][f_idx]:
            continue
        grade = _fold_tensor(lat, tensor,
                             [f.topology.table[h[k]]
                              for k, f in enumerate(P.factors)])
        if not lat.le(alpha, grade):
            continue
        val = _fold_tensor(lat, tensor,
                           [f.nbhd.tables[p_tuple[k]][
                               f.universe.gidx(h[k], alpha)]
                            for k, f in enumerate(P.factors)])
        acc = lat.join2(acc, val)
    return acc


@pytest.fixture(scope="session")
def product_nbhd():
    """Oracle: the explicit product neighborhood value at point p and cell
    (f, a), for checking `compactness.product_nbhd_system`: the join, over
    every factor tuple h whose pulled-back tensor product sits below f and
    whose factor grades tensor above a, of the tensor of the factor
    neighborhood values; called as product_nbhd(P, p, f_idx, alpha)."""
    return _product_nbhd


def _pointwise_leq(F, G):
    le = F.universe.lattice.le
    return all(le(a, b) for a, b in zip(F.table, G.table))


@pytest.fixture(scope="session")
def pointwise_leq():
    """Oracle: the filter order cell by cell through `Lattice.le`, for
    checking `FilterTable.leq`; called as pointwise_leq(F, G)."""
    return _pointwise_leq


def _compact_by_closures(space, mode, filters):
    """Oracle: `compactness.is_compact` on a list of filters over the
    space's universe, as it was before maximal filters were decided by
    convergence.  Every maximal member of the list is tested by
    `is_adherent` closures, point by point up to its first adherent point
    (`compactness._first_adherence`, which looks `is_adherent` up per call,
    so a counting wrapper sees each test); the rest of the walk is the
    same."""
    if mode == "ultrafilter":
        filters = [F for F in filters
                   if is_ultrafilter(F, "characterization")[0]]
    tops = []
    for F in reversed(filters):
        f = F.code
        if all(f & ~T.code for T in tops):
            tops = [T for T in tops if T.code & ~f] + [F]
    if len(tops) == len(filters):
        for F in filters:
            if _first_adherence(F, space) is None:
                return False, F
        return True, None
    found = [(T, _first_adherence(T, space)) for T in reversed(tops)]
    lost = [T for T, a in found if a is None]
    if not lost:
        return True, None
    certificates = [a[1].code for _, a in found if a]
    for F in filters:
        if all(F.code & ~g for g in certificates) and (
                F in lost or _first_adherence(F, space) is None):
            return False, F
    return True, None


@pytest.fixture(scope="session")
def compact_by_closures():
    """The closure-only compactness oracle, called as
    compact_by_closures(space, mode, filters)."""
    return _compact_by_closures


# one session fixture per catalogue name, such as u22 and u32_godel
for _name in models.MODELS:
    globals()[_name] = pytest.fixture(scope="session", name=_name)(
        lambda name=_name: models.build(name))


@pytest.fixture(scope="session")
def bruteforce_filter_tables(u21, u22, u31_godel, u31_luk):
    """Sorted filter tables from enumerate_filters_bruteforce, keyed by the
    id of the universe.  The sweep takes seconds, so it runs once for every
    test that compares against it."""
    return {id(u): sorted(F.table for F in enumerate_filters_bruteforce(u))
            for u in (u21, u22, u31_godel, u31_luk)}
