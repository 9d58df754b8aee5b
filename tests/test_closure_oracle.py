"""`closure.enumerate_closed`, canonical Close-by-One, against the engine it
replaced: close every (member, cell, join-irreducible) triple and drop the
tables already seen.  The canonical engine keeps no visited set, so a
broken canonicity test shows up as a table listed twice or as one missed."""

import hashlib

import pytest

from fuzztop import filters, topology
from fuzztop.closure import close
from fuzztop.errors import SizeLimit
from fuzztop.filters import enumerate_filters
from fuzztop.instances import chain, diamond, lukasiewicz_tensor, meet_tensor
from fuzztop.powerset import Ground, Universe
from fuzztop.topology import enumerate_topologies


def enumerate_closed_visited(lattice, least, rules, cap, what, above=None,
                             stop=()):
    """Oracle: `enumerate_closed` by a visited set.  Every member is closed
    once per (cell, join-irreducible) it does not hold, and the children
    not seen before are explored."""
    if least is None:
        return []
    join, le = lattice.join, lattice.leq
    irreducibles = lattice.join_irreducibles()
    cells = [cell for cell in range(len(least)) if cell not in stop]
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
                if close(table, join, rules, [cell], above, stop):
                    child = tuple(table)
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
    return sorted(seen)


def make(lat, tensor, m):
    return Universe(lat, tensor(lat), Ground(m))


# on the 2-chain the Lukasiewicz tensor is the meet, so u22 and u23 stand
# for both tensors
INSTANCES = {
    "u22": lambda: make(chain(2), meet_tensor, 2),
    "u23": lambda: make(chain(2), meet_tensor, 3),
    "u24": lambda: make(chain(2), meet_tensor, 4),
    "u31-goedel": lambda: make(chain(3), meet_tensor, 1),
    "u31-lukasiewicz": lambda: make(chain(3), lukasiewicz_tensor, 1),
    "u32-goedel": lambda: make(chain(3), meet_tensor, 2),
    "u32-lukasiewicz": lambda: make(chain(3), lukasiewicz_tensor, 2),
    "diamond-1pt": lambda: make(diamond(), meet_tensor, 1),
    "chain4-1pt-goedel": lambda: make(chain(4), meet_tensor, 1),
    "chain4-1pt-lukasiewicz": lambda: make(chain(4), lukasiewicz_tensor, 1),
}

FAMILIES = {"filters": (filters, enumerate_filters),
            "topologies": (topology, enumerate_topologies)}

CASES = [(name, family) for name in INSTANCES for family in FAMILIES]


def tables(members):
    return [m.table for m in members]


@pytest.mark.parametrize("name, family", CASES)
def test_enumeration_matches_visited_set_oracle(name, family, monkeypatch):
    u = INSTANCES[name]()
    module, enumerate_family = FAMILIES[family]
    got = tables(enumerate_family(u))
    assert len(got) == len(set(got)), "a member is listed twice"
    monkeypatch.setattr(module, "enumerate_closed", enumerate_closed_visited)
    assert got == tables(enumerate_family(u))


def digest(members):
    """sha256 of the repr of the sorted list of member tables."""
    return hashlib.sha256(repr(tables(members)).encode()).hexdigest()


# the sorted filter tables as the visited-set engine listed them, which
# takes 1.5 s (diamond-2pt) and 4 s (chain4-2pt-lukasiewicz)
@pytest.mark.parametrize("lat, tensor, count, sha256", [
    (diamond, meet_tensor, 225,
     "ad3eed58543d8f9505e8e826d4d70a3687362dcf3290f5ff64e75cc8a3a1aeb0"),
    (lambda: chain(4), lukasiewicz_tensor, 532,
     "f8858e35d3ec737e17eda1e3ed290d28fa9ac343046bcb81483efbf5a10fc8d2"),
], ids=["diamond-2pt", "chain4-2pt-lukasiewicz"])
def test_next_tier_filters(lat, tensor, count, sha256):
    found = enumerate_filters(make(lat(), tensor, 2))
    assert len(found) == count
    assert len(set(tables(found))) == count
    assert digest(found) == sha256
