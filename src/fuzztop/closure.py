"""One closure engine for the closure systems of grade tables.

Filters and topologies are both closed under pointwise meet, so each family
is the set of fixpoints of a closure operator on L-valued tables: a table is
raised to the least one closed under a unary transport rule and pairwise
rules (`close`).  Such a family is enumerated depth-first from its least
table (`enumerate_closed`), which takes the family as `close` does: its
pairwise rules, its unary rule `above` and the cells `stop` no member
raises.  A table is read as the set of attributes (cell, j), j a
join-irreducible grade below the table's grade at the cell, so each member
is made from a smaller one by adding one attribute and closing.  This is
Close-by-One (Kuznetsov 1993) carried to L-sets as in Belohlavek's
algorithms for fuzzy concept lattices: its canonicity test keeps each
member's one canonical parent, so every member is closed once, and a
closure that is not canonical stops at the first earlier cell it raises.
"""

from __future__ import annotations

from .errors import SizeLimit


def close(table, join, rules, dirty=None, above=None, stop=()):
    """Raise `table`, a list, in place to the least fixpoint of the rules.

    The unary rule, when `above` is given, is table[k] >= table[x] for k in
    above[x].  Each binary rule `(target, op)` is table[target[x][y]] >=
    op[table[x]][table[y]].  Every `op` and `target` must be symmetric, so a
    rule fires once per unordered pair of cells.  That holds for every
    `Universe`: its residuum check rejects a non-commutative tensor (with
    c = b (*) a, a <= res(b, c) gives a (*) b <= b (*) a by the adjunction,
    and the converse by symmetry), and the pointwise tables inherit it.

    `dirty` lists the cells raised since the table was last closed.  None
    means it never was: every cell is then visited once in index order,
    paired with itself and the cells before it, since each later cell pairs
    back with it on its own visit.  A cell raised during the closure is
    visited again, paired with every cell, unless its own first visit is
    still to come: that visit reads the raised value.  Returns False as
    soon as a cell in `stop` is raised, leaving the table half closed;
    otherwise True.
    Whether that happens does not depend on the order the rules fire: the
    least fixpoint is unique and the table only rises toward it.
    """
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


def enumerate_closed(lattice, least, rules, cap, what, above=None, stop=()):
    """Every table closed under the rules, `above` and `stop` of `close`,
    sorted.

    `least` is the least closed table, or None when it is infeasible.  A
    table is infeasible when its closure raises a cell in `stop`.
    Feasibility is a down-set, so the closures above an infeasible table
    are never explored, and only the cells outside `stop` are raised.
    Raises SizeLimit once more than `cap` closures have been computed.

    A table holds the attribute (cell, j), for j join-irreducible, when
    j <= table[cell]; the attributes are ordered by cell, then by j's place
    in `join_irreducibles`.  A member made by attribute y only tries the
    attributes after y, each one it does not hold, and keeps the closure
    only when it holds no new attribute before the one added: no earlier
    cell rises (the closure stops at once, as at a cell in `stop`) and no
    earlier j comes below the cell.  Every member C but the least thus has
    one parent: the closure P of C's attributes before the first attribute
    y at which C's attributes up to y close to C.  P is a member, since it
    lies below C; it was made by an attribute before y; and raising it by y
    gives C, canonically.  So each member is listed once, with no visited
    set.
    """
    if least is None:
        return []
    join, le = lattice.join, lattice.leq
    irreducibles = lattice.join_irreducibles()
    attributes = [(cell, j, irreducibles[:i], _Before(cell, stop))
                  for cell in range(len(least)) if cell not in stop
                  for i, j in enumerate(irreducibles)]
    found = [least]
    stack = [(least, 0)]
    closures = 1
    while stack:
        parent, start = stack.pop()
        for a in range(start, len(attributes)):
            cell, j, earlier, guard = attributes[a]
            v = parent[cell]
            if le[j][v]:
                continue
            closures += 1
            if closures > cap:
                raise SizeLimit(f"{what} enumeration exceeded cap {cap} "
                                f"closures")
            table = list(parent)
            table[cell] = join[v][j]
            if not close(table, join, rules, [cell], above, guard):
                continue
            w = table[cell]
            if any(le[e][w] and not le[e][v] for e in earlier):
                continue
            child = tuple(table)
            found.append(child)
            stack.append((child, a + 1))
    return sorted(found)


class _Before:
    """The cells before `cell` and those in `stop`, as a `stop` of `close`."""

    __slots__ = ("cell", "stop")

    def __init__(self, cell, stop):
        self.cell, self.stop = cell, stop

    def __contains__(self, k):
        return k < self.cell or k in self.stop
