"""Finite complete lattices: carrier, order, join/meet tables, distributivity.

Elements are dense integer indices 0..n-1; the order and the binary join/meet
are precomputed as full tables so every later sweep is a table lookup.  The
reversed order (`Lattice.geq`) is a lattice too, with join and meet, top and
bot swapped, so a law or a search on meets is the one on joins run on the
reversed order (the duality principle): `_from_upsets` looks each meet up
in the down-sets as it looks each join up in the up-sets.
"Arbitrary" joins and meets are finite ones here, so a law over arbitrary
joins or meets holds iff it holds for the empty one and for pairs (induction
on the size of the family); the checkers decide such laws that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress

from .errors import (Degenerate, NotALattice, NotAPartialOrder, are_indices,
                     require_index, require_int, require_sequence, trusted)
from .report import Report


@dataclass(frozen=True)
class Lattice:
    """A finite lattice with precomputed order and join/meet tables, per
    element the int bitmask of its down-set, which `build_lattice`, its one
    constructor, holds already, and its cover pairs, which it picks out of
    the pairs it is given; the masks and the covers are read off the order,
    so they take no part in equality or hashing.

    `cover_pairs` are the pairs (c, a), c a lower cover of a, with a in a
    linear extension of the order and c in index order, so a pair comes
    after every pair whose upper element lies below its own.  c covers a
    iff the interval [c, a], up(c) & down(a) on the bitmasks, has exactly
    two elements; a is sorted by down-set bitmask, as a strict subset is a
    smaller int.  Reversed, each pair swapped, they are the cover pairs of
    the reversed order in a linear extension of it."""

    n: int
    leq: tuple          # n x n booleans
    join: tuple         # n x n element indices
    meet: tuple         # n x n element indices
    top: int
    bot: int
    down_masks: tuple = field(compare=False, repr=False)  # bit b: b <= a
    cover_pairs: tuple = field(compare=False, repr=False)  # (c, a), c < a

    def elements(self):
        return range(self.n)

    @cached_property
    def downsets(self):
        """Per element a, bytes with bit b set for each b <= a; not a field."""
        width = self.n // 8 + 1
        return tuple([down.to_bytes(width, "little")
                      for down in self.down_masks])

    @cached_property
    def lower_covers(self):
        """Per element a, the elements c < a with nothing strictly between,
        in index order; the order is their reflexive-transitive closure, so
        an order law holds iff it holds on the covers.  Read off
        `cover_pairs`; not a field."""
        below = [[] for _ in self.elements()]
        for c, a in self.cover_pairs:
            below[a].append(c)
        return tuple(map(tuple, below))

    @cached_property
    def incomparable(self):
        """The pairs (a, b), a < b in index order, with neither a <= b nor
        b <= a; a law over two elements that holds on every comparable pair
        and is symmetric in them can fail only here (none on a chain); not
        a field."""
        le = self.leq
        return tuple((a, b) for a in self.elements()
                     for b in range(a + 1, self.n)
                     if not (le[a][b] or le[b][a]))

    @cached_property
    def rank(self):
        """Per element a, the number of elements strictly below it, which a
        strict inequality raises; not a field."""
        return tuple([down.bit_count() - 1 for down in self.down_masks])

    @cached_property
    def geq(self):
        """The reversed order, `leq` transposed; not a field."""
        return tuple(zip(*self.leq))

    def le(self, a, b):
        return self.leq[a][b]

    def join2(self, a, b):
        return self.join[a][b]

    def join_set(self, elems):
        """Least upper bound of a finite subset; the empty join is bot."""
        out = self.bot
        for e in elems:
            out = self.join[out][e]
        return out

    def meet_set(self, elems):
        """Greatest lower bound of a finite subset; the empty meet is top."""
        out = self.top
        for e in elems:
            out = self.meet[out][e]
        return out

    def join_irreducibles(self):
        """Elements that are not the join of the elements strictly below
        them (so not bot, the empty join), in index order; every element is
        the join of the join-irreducibles below it.  In a finite lattice
        these are the elements with exactly one lower cover: with none it
        is bot, and with two or more it is their join.  The tuple is built
        once per lattice."""
        return self._join_irreducibles

    @cached_property
    def _join_irreducibles(self):
        return tuple(j for j, covers in enumerate(self.lower_covers)
                     if len(covers) == 1)


def _upsets(rows):
    """Per row, the int bitmask of its true columns."""
    return [sum(1 << c for c in compress(range(len(row)), row)) for row in rows]


def _bounds(ups):
    """The least-upper-bound table of the partial order with these up-sets:
    the element whose up-set is up(a) & up(b), or None."""
    by_up = dict(zip(ups, range(len(ups))))
    return tuple(tuple([by_up.get(up & u) for u in ups]) for up in ups)


def _from_upsets(leq, ups, pairs):
    """The Lattice of `build_lattice`'s closure, a reflexive, transitive
    relation given as boolean rows (tuples) and as per-element up-set
    bitmasks: the one bound lookup of the kernel.  NotAPartialOrder
    names the first element sharing its up-set with a later one
    (antisymmetry).  The upper bounds of a and b are up(a) & up(b), with a
    least member u iff they are up(u), so each join is one lookup by
    up-set, and each meet that lookup on the reversed order; NotALattice
    names the first pair, in index order and join before meet, without its
    bound.

    `pairs` are (lower, upper) pairs whose reflexive-transitive closure is
    the relation.  Every cover c < a of the closure is one of them, as an
    element between c and a would break the chain of pairs from c to a in
    two, so `Lattice.cover_pairs` are picked from the pairs alone: the
    distinct ones whose interval has two elements, in its order."""
    n = len(ups)
    if len(set(ups)) < n:
        a = next(a for a, up in enumerate(ups) if ups.count(up) > 1)
        raise NotAPartialOrder(
            f"antisymmetry fails on {a},{ups.index(ups[a], a + 1)}")
    downs = _upsets(zip(*leq))
    join, meet = _bounds(ups), _bounds(downs)
    if any(None in row for row in join + meet):
        for a in range(n):
            for b in range(n):
                for bound, name in ((join, "least upper"),
                                    (meet, "greatest lower")):
                    if bound[a][b] is None:
                        raise NotALattice(
                            f"elements {a},{b} have no {name} bound")
    top = bot = 0
    for e in range(n):
        top, bot = join[top][e], meet[bot][e]
    covers = tuple(sorted({(c, a) for c, a in pairs
                           if (ups[c] & downs[a]).bit_count() == 2},
                          key=lambda pair: (downs[pair[1]], pair[0])))
    return trusted(Lattice, n=n, leq=leq, join=join, meet=meet, top=top,
                   bot=bot, down_masks=tuple(downs), cover_pairs=covers)


def require_carrier(n):
    """Raise PreconditionViolated unless the carrier size n is an int, not
    a bool, and Degenerate when it is below 2."""
    require_int(n, "carrier size")
    if n < 2:
        raise Degenerate(f"carrier size {n} < 2")


def _require_pairs(pairs, n):
    """Raise PreconditionViolated unless `pairs` is a sequence of pairs of
    ints, not bools, and NotAPartialOrder naming the first pair with one
    outside the carrier 0..n-1.  When the pairs are tuples or lists of two,
    their entries are checked by one scan (`are_indices`); otherwise, or
    when that fails, pair by pair, and `require_index` names the first
    malformed one."""
    if (type(pairs) in (tuple, list) and {tuple, list}.issuperset(
            map(type, pairs)) and set(map(len, pairs)) <= {2}):
        entries = list(chain.from_iterable(pairs))
        if not entries or are_indices(entries, n):
            return
    require_sequence(pairs, "pairs")
    for k, pair in enumerate(pairs):
        what = (f"pair {k}", "entries", "ends")
        require_index(pair, None, what, 2)
        if not {int}.issuperset(map(type, pair)):
            require_index(pair, n, what, 2)
        a, b = pair
        if not (0 <= a < n and 0 <= b < n):
            raise NotAPartialOrder(f"pair ({a},{b}) outside carrier 0..{n - 1}")


def build_lattice(n, leq_pairs):
    """Build a Lattice from a carrier size and a list of (lower, upper) pairs.

    Every Lattice is built here: the named lattices and a spec's `covers =`
    line give their covers, and `Universe.graded_lattice` the graded covers.
    The order is the reflexive-transitive closure of the pairs, closed on
    up-set bitmasks, which are handed to `_from_upsets` with the rows read
    off them: the closure is reflexive and transitive, so only antisymmetry
    is checked, and the lattice's `cover_pairs` are picked from the given
    pairs.  Raises PreconditionViolated for a size or a pair entry that is
    not an int (`require_carrier`, `_require_pairs`), Degenerate for n < 2,
    NotAPartialOrder for a pair outside the carrier or a closure that
    violates antisymmetry, and NotALattice if some pair lacks a lub or glb.
    """
    require_carrier(n)
    _require_pairs(leq_pairs, n)
    bits = [1 << a for a in range(n)]
    ups = bits.copy()
    for a, b in leq_pairs:
        ups[a] |= bits[b]
    for k, bit in enumerate(bits):  # Warshall closure
        up_k = ups[k]
        for a in range(n):
            if ups[a] & bit:
                ups[a] |= up_k
    return _from_upsets(tuple([tuple([up & bit != 0 for bit in bits])
                               for up in ups]), ups, leq_pairs)


def check_infinite_distributivity(lat):
    """Check both infinite-distributivity laws on every pair A = {a, b} and
    element x: (join A) meet x == join {a meet x} and (meet A) join x ==
    meet {a join x}.  Both hold for the empty family in every lattice.

    Both hold for a <= b too: (a join b) meet x = b meet x =
    (a meet x) join (b meet x), and dually.  Both sides are symmetric in
    (a, b) and agree at a = b, so the full sweep's first failing triple has
    a < b incomparable, and only those pairs (`Lattice.incomparable`) are
    swept: on a chain, none."""
    report = Report("infinite_distributivity")
    els, pairs = lat.elements(), lat.incomparable

    def undistributed(outer, inner):
        for a, b in pairs:
            for x in els:
                lhs = inner[outer[a][b]][x]
                rhs = outer[inner[a][x]][inner[b][x]]
                if lhs != rhs:
                    yield {"subset": (a, b), "x": x, "lhs": lhs, "rhs": rhs}

    report.sweep("join_meet_distributive", undistributed(lat.join, lat.meet))
    report.sweep("meet_join_distributive", undistributed(lat.meet, lat.join))
    return report
