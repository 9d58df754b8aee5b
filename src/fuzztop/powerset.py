"""The fuzzy powerset over a finite ground set and the graded carrier.

A fuzzy set is a length-m tuple of lattice element indices.  The Universe
lists the powerset in lexicographic order, so set i is the base-n numeral of
its values (n = |L|, point 0 the most significant digit), and the graded
cell gi = i * n + grade appends one more digit.  Every table over sets or
cells is therefore a one-point table with a leading digit prepended per point
by whole-row shifts (`_prepend_digit`).  The product carrier (powerset x
lattice) has the graded order: (f, a) below (g, b) iff f <= g pointwise and
b <= a.  A finite order is the reflexive-transitive closure of its covers,
and a cover of a set lowers or raises one point's value by one cover of L,
so the graded order is kept only as its covers (`Universe.lower_covers`,
`Universe.graded_covers`): order laws are decided on them, and the whole
order is read off `pw_leq` and L's order only to name a failure or to
build `graded_lattice`.  A point map acts on sets by one table,
`Universe.pullback`.

`check_graded_gl` decides the graded residuation on pairs of cells, by
three lemmas.  Write x.y for boxtimes, (f, a).(g, b) = (f tensor g,
a join b), and x -> y for the implication, (f, a) -> (g, b) =
(f -> g, b coimpl a).

Product lemma.  The sup form join{(h, e) | (h, e).(f, a) <= (g, b)} is
(join H, meet E) for H = {h | h tensor f <= g} and E = {e | b <= e (+) a}
(the graded join is the pointwise join with the meet of the grades), and
H is the product over the points p of {x | x (*) f(p) <= g(p)}, so its
join is taken point by point: the sup form is a table over pairs of cells
built, as `box_table` is, from one element table per digit.  Neither set
is empty, as bot is the tensor's zero and top (+) a = top.

Galois-connection lemma (Blyth and Janowitz, "Residuation Theory", 1972).
If boxtimes is isotone in its first argument, each row of -> is isotone,
(b -> c).b <= c and a <= b -> (a.b) for all cells a, b, c, then
a.b <= c iff a <= b -> c.  Proof: a.b <= c gives a <= b -> (a.b) <=
b -> c; a <= b -> c gives a.b <= (b -> c).b <= c.  A row is isotone iff
it is isotone on the graded covers, so each premise is a pass over pairs
or over the covers.

Exchange lemmas.  Given the adjunction, with boxtimes isotone,
commutative (so isotone in both arguments) and associative:
- a.(b -> c) <= b -> (a.c), as by the adjunction that is
  (a.(b -> c)).b <= a.c, and (a.(b -> c)).b = a.((b -> c).b) <= a.c.
- If also x.x = x for every cell, (b -> a).(b -> c) <= b -> (a.c), as by
  the adjunction that is ((b -> a).(b -> c)).b <= a.c, and with b = b.b
  the left side is ((b -> a).b).((b -> c).b) <= a.c.  The law is checked
  only for an idempotent tensor, and then (f, a).(f, a) = (f tensor f,
  a join a) = (f, a) on every cell.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import (PreconditionViolated, SizeLimit, require_index,
                     require_int, trusted)
from .instances import join_cotensor
from .lattice import lattice_from_order
from .report import PASS, Report
from .residuated import Tensor, check_gl_monoid, co_implication, residuum

DEFAULT_POWERSET_CAP = 4096


@dataclass(frozen=True)
class Ground:
    """A finite ground set of m points; PreconditionViolated unless m is a
    positive int (not a bool)."""

    m: int

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:
            raise PreconditionViolated(f"ground set size {self.m!r} is not a "
                                       "positive int")

    def points(self):
        return range(self.m)


def enumerate_powerset(lat, ground, cap=DEFAULT_POWERSET_CAP):
    """All |L|**m fuzzy sets as tuples, in lexicographic order.  Raises
    PreconditionViolated unless `cap` is an int, and SizeLimit when there
    are more than `cap` sets."""
    require_int(cap, "powerset cap")
    if lat.n > 1 and ground.m >= cap.bit_length():
        # 2**m alone exceeds the cap; do not build a huge power to say so
        raise SizeLimit(f"powerset size {lat.n}**{ground.m} exceeds cap {cap}")
    total = lat.n ** ground.m
    if total > cap:
        raise SizeLimit(f"powerset size {total} exceeds cap {cap}")
    return [tuple(v) for v in itertools.product(lat.elements(), repeat=ground.m)]


def _prepend_digit(out, table):
    """Prepend a base-n digit to a table over N = len(out) numerals, its
    rows tuples: (a*N + i, b*N + j) maps to table[a][b]*N + out[i][j].  The
    copies of out shifted by c*N are built whole; each new row joins n rows."""
    N = len(out)
    shifted = [out] + [tuple([tuple([v + s for v in row]) for row in out])
                       for s in range(N, len(table) * N, N)]
    return tuple([sum([shifted[c][i] for c in digits], ())
                  for digits in table for i in range(N)])


class Universe:
    """Ambient data for one ground set: powerset, graded carrier, tables.

    Bundles the lattice, a GL tensor with its residuum, and a cotensor
    (default: the lattice join) with its co-implication, both over the
    lattice (PreconditionViolated otherwise).  The pointwise tensor and
    join tables are built at construction; the order, residuum and
    boxtimes tables and the graded covers on first use.  A table of an
    operation gains a leading digit per point by whole-row shifts.
    """

    def __init__(self, lattice, tensor, ground, cotensor=None,
                 powerset_cap=DEFAULT_POWERSET_CAP):
        self.lattice = lattice
        self.tensor = tensor
        self.cotensor = cotensor if cotensor is not None else join_cotensor(lattice)
        # equal lattices built apart are one, as for `build_product`
        if tensor.base != lattice or self.cotensor.base != lattice:
            raise PreconditionViolated("a tensor or cotensor is over another "
                                       "lattice")
        self.ground = ground
        self.res = residuum(tensor)
        self.coimpl = co_implication(self.cotensor)

        self.sets = enumerate_powerset(lattice, ground, powerset_cap)
        self.set_index = {s: i for i, s in enumerate(self.sets)}
        self.n_sets = len(self.sets)
        self.zero_idx = self.set_index[tuple([lattice.bot] * ground.m)]
        self.one_idx = self.set_index[tuple([lattice.top] * ground.m)]

        self.pw_tensor = self._pointwise(tensor.table)
        self.pw_join = self._pointwise(lattice.join)

        # graded carrier: gi = si * n + a
        self.n = lattice.n
        self.graded_size = self.n_sets * lattice.n

    def _pointwise(self, table):
        """The pointwise table over set indices of a one-point table: the
        table as tuples, and a leading digit per further point; all points
        share it, so this is the `itertools.product` order of the sets."""
        return reduce(_prepend_digit, [table] * (self.ground.m - 1),
                      tuple(map(tuple, table)))

    @cached_property
    def pw_leq(self):
        """The pointwise order: f <= g iff f join g == g; built on first
        use."""
        return tuple(tuple(map(operator.eq, row, range(self.n_sets)))
                     for row in self.pw_join)

    @cached_property
    def pw_res(self):
        """The pointwise residuum table; built on first use."""
        return self._pointwise(self.res.table)

    # ---- graded carrier ----------------------------------------------------

    def gidx(self, si, a):
        return si * self.n + a

    def gpair(self, gi):
        return divmod(gi, self.n)

    def graded_cells(self):
        return range(self.graded_size)

    @cached_property
    def lower_covers(self):
        """Per set, its lower covers in the pointwise order: one point's
        value lowered to a lower cover of it in L, which moves the numeral
        by that digit's place value; built on first use."""
        covers, n, m = self.lattice.lower_covers, self.n, self.ground.m
        places = [n ** (m - 1 - p) for p in range(m)]
        return tuple(tuple(si + (c - v) * w for v, w in zip(f, places)
                           for c in covers[v])
                     for si, f in enumerate(self.sets))

    @cached_property
    def ascending_sets(self):
        """The set indices in a linear extension of the pointwise order, so
        each set comes after every set below it: sorted by the sum over
        points of the size of the value's down-set, which a strict
        inequality raises; built on first use."""
        le = self.lattice.leq
        size = [sum(row[a] for row in le) for a in range(self.n)]
        return tuple(sorted(range(self.n_sets), key=lambda si: sum(
            size[v] for v in self.sets[si])))

    @cached_property
    def graded_covers(self):
        """Per graded cell (f, a), its upper covers in the graded order:
        (g, a) for g an upper cover of f, and (f, b) for b a lower cover of
        a.  The graded order is their reflexive-transitive closure; the order
        laws and the filter closures read it here; built on first use."""
        n = self.n
        upper = [[] for _ in range(self.n_sets)]
        for si, below in enumerate(self.lower_covers):
            for sj in below:
                upper[sj].append(si)
        grade_covers = self.lattice.lower_covers
        return tuple(tuple([sj * n + a for sj in upper[si]]
                           + [si * n + b for b in grade_covers[a]])
                     for si in range(self.n_sets) for a in range(n))

    @cached_property
    def box_table(self):
        """The boxtimes table over graded cells: the lattice join (the grade
        digit) with a leading tensor digit per point; built on first use."""
        return reduce(_prepend_digit, [self.tensor.table] * self.ground.m,
                      self.lattice.join)

    @property
    def graded_top(self):
        return self.gidx(self.one_idx, self.lattice.bot)

    @property
    def graded_bot(self):
        return self.gidx(self.zero_idx, self.lattice.top)

    def gimpl(self, gi, gj):
        """Graded residuation by closed form: (f -> g, b coimpl a)."""
        si, a = divmod(gi, self.n)
        sj, b = divmod(gj, self.n)
        return self.gidx(self.pw_res[si][sj], self.coimpl.app(b, a))

    def decreasing_cells(self, tab, le):
        """Yield (gi, gj), gj strictly above gi in the graded order, in
        index order, wherever the value of `tab` at gi is not `le` its value
        at gj: the monotonicity sweep of FF1, I1 and N1.

        `tab` holds one value per graded cell, and `le` is reflexive.  A
        table is monotone iff it is monotone on `graded_covers`, whose
        closure is the graded order, so the covers are checked first, and
        the sweep of every ordered pair, which names the first failing one,
        runs only when a cover fails: the cells above (f, a) are the sets
        of `pw_leq[f]` crossed with the grades below a.
        """
        covers = self.graded_covers
        if all(le[v][tab[k]] for v, ks in zip(tab, covers) for k in ks):
            return
        n, sets = self.n, range(self.n_sets)
        below = [list(itertools.compress(range(n), row))
                 for row in self.lattice.geq]
        for gi, v in enumerate(tab):
            si, a = divmod(gi, n)
            for sj in itertools.compress(sets, self.pw_leq[si]):
                for gj in [sj * n + b for b in below[a]]:
                    if not le[v][tab[gj]]:
                        yield gi, gj

    def unstable_cells(self, tab, op, le, zero):
        """Yield (si, a, sj, b), in index order, wherever the value of `tab`
        at (f, a) `op` the value at (g, b) is not `le` the value at (f tensor
        g, a join b): the tensor-stability sweep of FF2, I2 and N2.

        `tab` holds one value per graded cell.  Two preconditions make the
        sweep of unordered pairs of cells whose value is not `zero` exact:
        `op` is symmetric, so a failing pair fails both ways round and the
        first in index order has (f, a) at or before (g, b); and `op`
        absorbs `zero`, the least value under `le`, so a pair with a `zero`
        value cannot fail.  Every `Universe` tensor commutes and has bot as
        its zero (see `closure.close`), and so does its pointwise table.
        The target cell is found by index arithmetic, not from `box_table`,
        which has graded_size**2 entries.
        """
        n, join, pw_tensor = self.n, self.lattice.join, self.pw_tensor
        live = [(v, *divmod(c, n)) for c, v in enumerate(tab) if v != zero]
        for k, (v, si, a) in enumerate(live):
            op_v, row_t, join_a = op[v], pw_tensor[si], join[a]
            for w, sj, b in live[k:]:
                if not le[op_v[w]][tab[row_t[sj] * n + join_a[b]]]:
                    yield si, a, sj, b

    def graded_lattice(self):
        """The graded carrier packaged as a plain Lattice over flat indices,
        its order rows read off `pw_leq` and L's order: (f, a) <= (g, b)
        iff pw_leq[f][g] and b <= a."""
        pw_leq, geq = self.pw_leq, self.lattice.geq
        return lattice_from_order([[f_le_g and b_le_a for f_le_g in row
                                    for b_le_a in geq[a]]
                                   for row in pw_leq for a in range(self.n)])

    def pullback(self, phi, dom):
        """Pull every fuzzy set on this universe back along a point map.

        phi maps the points of dom's ground into this ground; entry g is the
        set index of g o phi in dom.  Callers build it once per map.  Raises
        PreconditionViolated, naming the map, unless phi has one point of
        this ground per point of dom's, or when the universes are over
        different lattices.
        """
        if dom.lattice != self.lattice:
            raise PreconditionViolated("a point map joins universes over "
                                       "different lattices")
        points = dom.ground.points()
        require_index(phi, self.ground.m, (f"point map {tuple(phi)}",
                                           "targets", "points"), dom.ground.m)
        return tuple(dom.set_index[tuple(g[phi[p]] for p in points)]
                     for g in self.sets)


def _sup_form(u):
    """The graded implication's sup form as a table over pairs of cells:
    at (f, a), (g, b) the cell (join{h | h tensor f <= g},
    meet{e | b <= e cotensor a}), built by digits from the element tables
    join{x | x (*) a <= c} and meet{e | b <= e (+) a} (the product
    lemma of the module docstring)."""
    lat = u.lattice
    els, le, ten, cot = lat.elements(), lat.leq, u.tensor.table, \
        u.cotensor.table
    sets = tuple(tuple(lat.join_set(x for x in els if le[ten[x][a]][c])
                       for c in els) for a in els)
    grades = tuple(tuple(lat.meet_set(e for e in els if le[b][cot[e][a]])
                         for b in els) for a in els)
    return reduce(_prepend_digit, [sets] * u.ground.m, grades)


def check_graded_gl(universe):
    """Run the full GL axiom battery on the graded carrier.

    Packages (powerset x lattice, graded order, boxtimes) as an abstract
    lattice-with-tensor and reuses the element-level checker, then verifies
    the graded residuation: closed form vs sup form, the adjunction, and the
    two auxiliary inequalities (the second only for idempotent tensors).

    Every verdict is decided on pairs of cells (see the module docstring).
    The componentwise bounds, the closed form and the sup form are tables
    built by digits, compared row by row; the adjunction holds by the
    Galois-connection lemma when its premises hold on pairs and on the
    covers; and the two exchange laws are lemmas of the adjunction and the
    GL battery's verdicts.  The sweep of every triple of cells runs only
    when a premise fails, so every verdict names the same first witness as
    that sweep.
    """
    report = Report("graded_gl")
    glat = universe.graded_lattice()
    cells = universe.graded_cells()
    box = universe.box_table
    gl = check_gl_monoid(trusted(Tensor, base=glat, table=box))
    report.verdicts.update(gl.verdicts)

    report.record("top_is_one_bot", glat.top == universe.graded_top,
                  (glat.top, universe.graded_top))
    report.record("bot_is_zero_top", glat.bot == universe.graded_bot,
                  (glat.bot, universe.graded_bot))

    # the componentwise join and meet (pointwise on the sets, dual on the
    # grade digit) agree with the order-theoretic ones
    lat, m = universe.lattice, universe.ground.m
    joins = reduce(_prepend_digit, [lat.join] * m, lat.meet)
    meets = reduce(_prepend_digit, [lat.meet] * m, lat.join)
    report.sweep("componentwise_bounds", (
        (i, j) for i, join, meet, gjoin, gmeet
        in zip(cells, joins, meets, glat.join, glat.meet)
        if join != gjoin or meet != gmeet
        for j in cells if join[j] != gjoin[j] or meet[j] != gmeet[j]))

    # (f -> g, b coimpl a): a residuum digit per point, then the grade
    impl = reduce(_prepend_digit, [universe.res.table] * m,
                  tuple(zip(*universe.coimpl.table)))
    sup = _sup_form(universe)
    report.sweep("impl_closed_vs_sup", (
        (i, j) for i, row, want in zip(cells, impl, sup) if row != want
        for j in cells if row[j] != want[j]))

    le = glat.leq  # the graded order
    passed = {axiom for axiom, v in gl.verdicts.items() if v.status == PASS}
    galois = ("isotone" in passed
              and all(le[row[c]][row[a]] for row in impl
                      for c, a in glat.cover_pairs)
              and all(le[box[row[c]][b]][c] for b, row in zip(cells, impl)
                      for c in cells)
              and all(le[a][impl[b][box[a][b]]] for a in cells
                      for b in cells))
    report.sweep("adjunction", () if galois else (
        (a, b, c) for a, b, c in itertools.product(cells, repeat=3)
        if le[box[a][b]][c] != le[a][impl[b][c]]))
    exchange = galois and passed >= {"commutative", "associative"}
    report.sweep("tensor_impl_exchange", () if exchange else (
        (a, b, c) for a, b, c in itertools.product(cells, repeat=3)
        if not le[box[a][impl[b][c]]][impl[b][box[a][c]]]))

    # an idempotent tensor makes x.x = x on every cell, the lemma's premise
    if all(universe.tensor.app(x, x) == x for x in lat.elements()):
        report.sweep("impl_product_exchange", () if exchange else (
            (a, b, c) for a, b, c in itertools.product(cells, repeat=3)
            if not le[box[impl[b][a]][impl[b][c]]][impl[b][box[a][c]]]))
    else:
        report.record_skip("impl_product_exchange", "tensor not idempotent")
    return report
