"""Enumeration of a closure system of grade tables.

Filters and topologies are both closed under pointwise meet, so each family
is the set of fixpoints of a closure operator on L-valued tables (the
saturation and the generated topology).  Such a family is enumerated
depth-first from its least table.  For members P strictly below C there
is a cell where some join-irreducible grade j lies below C but not below
P; closing P raised by j at that cell gives a member strictly above P and
still below C, so every member is reached.  This is Close-by-One (Ganter,
Kuznetsov) carried to L-sets as in Belohlavek's algorithms for fuzzy
concept lattices; duplicates are dropped with a visited set.
"""

from __future__ import annotations

from .errors import SizeLimit


def enumerate_closed(lattice, least, close, cells, cap, what):
    """Every closed table of a closure system, sorted.

    `least` is the least closed table, or None when it is infeasible.
    `close(table, cell)` closes a list, in place, that was a closed table
    before `table[cell]` was raised; it returns False when the result is
    infeasible.  Feasibility must be a down-set: the closures above an
    infeasible table are never explored.  Only the `cells` are ever raised.
    Raises SizeLimit once more than `cap` closures have been computed.
    """
    if least is None:
        return []
    join, le = lattice.join, lattice.leq
    irreducibles = lattice.join_irreducibles()
    seen = {least}
    stack = [least]
    closures = 1
    while stack:
        parent = stack.pop()
        for cell in cells:
            v = parent[cell]
            for j in irreducibles:
                if le[j][v]:
                    continue
                closures += 1
                if closures > cap:
                    raise SizeLimit(f"{what} enumeration exceeded cap {cap} "
                                    f"closures")
                table = list(parent)
                table[cell] = join[v][j]
                if close(table, cell):
                    child = tuple(table)
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
    return sorted(seen)


def worklist(size, sweep, dirty):
    """The cells a worklist closure processes, as (cell, full) pairs.

    With `sweep` every cell is first visited once in index order with
    full=False: its rules need only be paired with the cells before it and
    itself, because each later cell is paired back with it on its own visit.
    Then the `dirty` list is drained with full=True; a closure appends to it
    every cell it raises, so a cell changed after its visit is paired with
    every cell again.
    """
    if sweep:
        for cell in range(size):
            yield cell, False
    while dirty:
        yield dirty.pop(), True
