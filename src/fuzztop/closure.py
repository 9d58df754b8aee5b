"""One closure engine for the closure systems of grade tables.

Filters and topologies are both closed under pointwise meet, so each family
is the set of fixpoints of a closure operator on L-valued tables: a table is
raised to the least one closed under a unary transport rule and pairwise
rules (`close`).  Every rule's operation has bot as its zero, so a fresh
table is swept from its live cells, those not at bot, in value order: on a
chain with an integral tensor each pair of live cells fires at most once
per rule, and the sweep stops once the rules bring every cell to top.
Such a family is enumerated depth-first from its least table
(`enumerate_closed`), which takes the family as `close` does: its pairwise
rules, its unary rule `above` and the cells `stop` no member raises.  A
table is read as the set of attributes (cell, j), j a join-irreducible
grade below the table's grade at the cell, so each member is made from a
smaller one by adding one attribute and closing.  This is
Close-by-One (Kuznetsov 1993) carried to L-sets as in Belohlavek's
algorithms for fuzzy concept lattices: its canonicity test keeps each
member's one canonical parent, so every member is closed once, and a
closure that is not canonical stops at the first earlier cell it raises:
its `stop` is the set of the cells before the added one and the family's.

A rejected closure also leaves a witness, which the member's descendants
inherit, as in FCbO (Outrata and Vychodil 2012).  Lemma: if cl(P v y) was
rejected with the witness (k, w) and Q >= P is a member with w not below
Q[k], then cl(Q v y) is rejected too.  Proof: w is the raised value of the
stop cell k that `close` named, or an earlier join-irreducible that came
below the added cell k; either way w <= cl(P v y)[k].  Closure is
monotone, so P <= Q gives cl(P v y) <= cl(Q v y), and cl(Q v y)[k] >=
Q[k] v w > Q[k]: it raises the same stop cell, or adds the same earlier
attribute, and either rejects it.
"""

from __future__ import annotations

from .errors import SizeLimit, require_int


def close(table, lattice, rules, dirty=None, above=None, stop=()):
    """Raise `table`, a list, in place to the least fixpoint of the rules.

    The unary rule, when `above` is given, is table[k] >= table[x] for k in
    above[x].  Each binary rule `(target, op)` is table[target[x][y]] >=
    op[table[x]][table[y]]; `rules` may be empty.  With no rules and the
    upper covers of an order as `above`, the closure is the least monotone
    table above the input: at each cell, the join of the input at and below
    it (`filters.preimage_filter`, `compactness.product_nbhd_system`).
    Every `op` and `target` must be symmetric, so a rule fires at most once
    per unordered pair of cells, and every `op` must have bot as its zero,
    so a cell at bot raises nothing.  Both hold for every `Universe`: its
    residuum check rejects a non-commutative tensor (with c = b (*) a,
    a <= res(b, c) gives a (*) b <= b (*) a by the adjunction, and the
    converse by symmetry), bot <= res(a, c) gives bot (*) a <= c for every
    c, the meet has both, and the pointwise tables inherit them.

    `dirty` lists the cells raised since the table was last closed; each is
    visited again, paired with every cell as the table stands, as is each
    cell a visit raises (values only rise, and a cell raised during a visit
    is visited again, so the fixpoint is the same).  None means the table
    never was closed.  The first sweep then visits the live cells, those
    not at bot, highest `Lattice.rank` first from one bucket per rank, each
    paired with itself and the live cells visited before it.  A cell raised
    before its visit moves to the bucket of its new rank; one raised after
    it is dirty.  This is Knuth's generalization of Dijkstra's algorithm to
    superior functions, read upside down: an integral tensor and the meet
    never exceed their smaller argument, so on a chain no visit raises a
    cell visited before it, and each rule fires at most once per unordered
    pair of live cells.

    The first sweep returns as soon as every cell is at top, after the
    `stop` checks of the visit that got it there: the all-top table is the
    greatest, so it is a fixpoint of every rule.  It counts the cells at
    top at the start and those a rule, unary or pairwise, raises to top.
    A cell is counted once, as it then stays at top, so the count is the
    number of cells at top and the stop is sound.
    Returns None once the table is closed.  As soon as a cell in `stop` is
    raised, returns that cell, the stop witness, leaving the table half
    closed with the cell at its raised value, above its input and below its
    closed value; both sweeps write the cell before they stop.  Whether a
    stop happens does not depend on the order the rules fire: the least
    fixpoint is unique and the table only rises toward it.
    """
    join = lattice.join
    if dirty is None:
        dirty, done, rank = [], [], lattice.rank
        buckets = [[] for _ in range(lattice.n)]
        for x, v in enumerate(table):
            buckets[rank[v]].append(x)
        seen = [False] * len(table)
        top = lattice.top
        tops = table.count(top)
        r = lattice.n - 1
        while r:  # rank 0 holds bot alone
            if not buckets[r]:
                r -= 1
                continue
            x = buckets[r].pop()
            v = table[x]
            if rank[v] != r:
                continue  # moved to a higher bucket
            seen[x] = True
            done.append(x)
            raised = []
            if above is not None:
                for k in above[x]:
                    w = join[table[k]][v]
                    if w != table[k]:
                        table[k] = w
                        raised.append(k)
                        tops += w == top
            for target, op in rules:
                op_v, row = op[v], target[x]
                for y in done:
                    k = row[y]
                    t = table[k]
                    w = join[t][op_v[table[y]]]
                    if w != t:
                        table[k] = w
                        raised.append(k)
                        tops += w == top
            for k in raised:
                if k in stop:
                    return k
                if seen[k]:
                    dirty.append(k)
                else:
                    s = rank[table[k]]
                    buckets[s].append(k)
                    r = max(r, s)
            if tops == len(table):
                return None  # the greatest table is a fixpoint of every rule
    while dirty:
        x = dirty.pop()
        v = table[x]
        if above is not None:
            for k in above[x]:
                w = join[table[k]][v]
                if w != table[k]:
                    table[k] = w
                    if k in stop:
                        return k
                    dirty.append(k)
        for target, op in rules:
            op_v = op[v]
            for k, g in zip(target[x], table):
                w = join[table[k]][op_v[g]]
                if w != table[k]:
                    table[k] = w
                    if k in stop:
                        return k
                    dirty.append(k)
    return None


def enumerate_closed(lattice, least, rules, cap, what, above=None, stop=()):
    """Every table closed under the rules, `above` and `stop` of `close`,
    sorted.

    `least` is the least closed table, or None when it is infeasible.  A
    table is infeasible when its closure raises a cell in `stop`.
    Feasibility is a down-set, so the closures above an infeasible table
    are never explored, and only the cells outside `stop` are raised.
    Raises PreconditionViolated unless `cap` is an int, and SizeLimit once
    more than `cap` candidate closures have been met, counting the least
    table's as the first and a refuted candidate (below) as one computed,
    so a cap below 1 always refuses.

    A table holds the attribute (cell, j), for j join-irreducible, when
    j <= table[cell]; the attributes are ordered by cell, then by j's place
    in `join_irreducibles`.  A member made by attribute y only tries the
    attributes after y, each one it does not hold, and keeps the closure
    only when it holds no new attribute before the one added: no earlier
    cell rises (the closure stops at once: its `stop`, one frozenset per
    cell, holds the earlier cells and those in `stop`) and no earlier j
    comes below the cell (the earlier j are one bitmask per attribute, as
    in `Lattice.down_masks`).  Every member C but the least thus has one
    parent: the closure P of C's attributes before the first attribute
    y at which C's attributes up to y close to C.  P is a member, since it
    lies below C; it was made by an attribute before y; and raising it by y
    gives C, canonically.  So each member is listed once, with no visited
    set.

    A rejected closure by attribute a leaves a witness (k, w): the stop
    cell `close` named with its raised value, or the cell with the earlier
    j that came below it.  Each member hands its children the witnesses it
    inherited and its own, and a descendant Q refutes a without closing it
    while w is not below Q[k] (the lemma of the module docstring).
    """
    require_int(cap, f"{what} enumeration cap")
    if cap < 1:  # the least table's closure is the first
        raise SizeLimit(f"{what} enumeration exceeded cap {cap} closures")
    if least is None:
        return []
    join, le, down = lattice.join, lattice.leq, lattice.down_masks
    irreducibles = lattice.join_irreducibles()
    attributes = []
    for cell in range(len(least)):
        if cell not in stop:
            guard = frozenset(range(cell)).union(stop)
            attributes += [(cell, j, sum(1 << e for e in irreducibles[:i]),
                            guard) for i, j in enumerate(irreducibles)]
    found = [least]
    stack = [(least, 0, [None] * len(attributes))]
    closures = 1
    while stack:
        parent, start, inherited = stack.pop()
        witnesses, children = inherited, []
        for a in range(start, len(attributes)):
            cell, j, earlier, guard = attributes[a]
            v = parent[cell]
            if le[j][v]:
                continue
            closures += 1
            if closures > cap:
                raise SizeLimit(f"{what} enumeration exceeded cap {cap} "
                                f"closures")
            witness = witnesses[a]
            if witness is not None and not le[witness[1]][parent[witness[0]]]:
                continue  # refuted by an ancestor's closure
            table = list(parent)
            table[cell] = join[v][j]
            k = close(table, lattice, rules, [cell], above, guard)
            if k is not None:
                witness = k, table[k]
            else:
                new = down[table[cell]] & ~down[v] & earlier
                if not new:
                    child = tuple(table)
                    found.append(child)
                    children.append((child, a + 1))
                    continue
                witness = cell, (new & -new).bit_length() - 1
            if witnesses is inherited:
                witnesses = list(inherited)
            witnesses[a] = witness
        stack += [(child, after, witnesses) for child, after in children]
    return sorted(found)
