"""Finite-model kernel for graded (lattice-valued) topology.

Represents finite complete lattices with monoidal structure, validates the
full axiom systems (GL-monoids, topologies, interiors, neighborhoods,
filters) by exhaustive sweeps, and decides compactness and the finite
product theorem with brute-force oracles.
"""

from .errors import (AdjunctionFailure, Degenerate, FuzztopError, NotAChain,
                     NotALattice, NotAPartialOrder, NotSurjective,
                     PreconditionViolated, SizeLimit)
from .lattice import Lattice, build_lattice, check_infinite_distributivity
from .residuated import (Tensor, check_co_gl_monoid, check_cqm,
                         check_gl_monoid, classify, co_implication, residuum)
from .instances import (boolean, chain, diamond, join_cotensor,
                        lukasiewicz_tensor, m3, meet_tensor, pentagon)
from .report import Report, Verdict
from .powerset import (Ground, Universe, check_graded_gl, enumerate_powerset)
from .topology import (InteriorOp, NbhdSystem, Topology, check_interior,
                       check_nbhd, check_topology, check_continuity_nbhd,
                       enumerate_topologies, generate_topology,
                       interior_from_topology, is_continuous,
                       nbhd_from_interior, order_topologies)
from .filters import (FilterTable, NoFilterAbove, check_filter,
                      enumerate_filters, enumerate_filters_bruteforce,
                      hat_extension, image_filter, is_ultrafilter,
                      preimage_filter, saturate, sup_of_chain)
from .compactness import (ProductSpace, Space, adherent_points, build_product,
                          converges, image_compactness_check, is_adherent,
                          is_compact, product_convergence_check,
                          product_nbhd_system, tychonoff_check)
from .specfile import (SpecDocument, build_universe, parse_spec, render_spec)

__version__ = "0.1.0"
