"""The test models: one catalogue of finite universes, by name, and the
lattices they are built on.  Imports only the standard library and
`fuzztop`.

`conftest.py` makes one session fixture per name; `build(name)` makes a
fresh universe, for a test that needs caches unbuilt or a twin built apart;
`names(tag)` lists the models of a size tag, for `parametrize`.  The tags
come from measured cost (CPython 3.11, 2-core x86-64 VM):

- "tiny": every topology and every filter lists in under 5 ms;
- "small": the topologies exceed the default cap; a table oracle over every
  pair of graded cells takes under 0.2 s;
- "next-tier": 243 or 256 sets, where a table oracle over every pair of
  sets takes 0.3-0.5 s;
- "cqm": a quasi-monoidal tensor that is no GL tensor, which no sweep of
  the tags above picks up;
- "structure": 32 sets, the L = 2 census on 5 points, whose 6,942
  topologies list under the default cap in about 0.15 s; only
  `test_structure.py` reads it;
- "non-distributive": a lattice that is not distributive, which no GL
  tensor allows; only the graded GL battery's oracle reads it.
"""

from functools import partial
from typing import NamedTuple

from fuzztop.instances import (chain, diamond, lukasiewicz_tensor, m3,
                               meet_tensor, pentagon)
from fuzztop.lattice import build_lattice
from fuzztop.powerset import Ground, Universe
from fuzztop.residuated import Tensor

LATTICES = {f"chain{k}": partial(chain, k) for k in range(2, 13)}
LATTICES.update({
    "diamond": diamond,
    "pentagon": pentagon,
    "m3": m3,
    # the cube of subsets of three atoms: i < i | bit
    "boolean8": partial(build_lattice, 8, [(i, i | b) for i in range(8)
                                           for b in (1, 2, 4) if not i & b]),
    # indices that are no linear extension of the order: bot is 2, top 0
    "chain3-top-first": partial(build_lattice, 3, [(2, 1), (1, 0)]),
})


def listed(tensor):
    """`tensor` with its table given as nested lists, which no table built
    from it may share."""
    return lambda lat: Tensor(base=lat,
                              table=[list(row) for row in tensor(lat).table])


def non_integral_tensor(lat):
    """On the 3-chain, a (*) b = bot when either is bot, else
    min(top, a + b - 1): 1 is the unit, so top (*) 1 = top and
    1 (*) top = top > 1."""
    return Tensor(base=lat, table=tuple(
        tuple(0 if 0 in (a, b) else min(2, a + b - 1) for b in range(3))
        for a in range(3)))


def cqm_tensor(lat):
    """On the 4-chain, a commutative tensor with bot its zero, isotone and
    with top (*) top = top, so quasi-monoidal (`check_cqm`), but neither
    integral (top (*) 1 = 2), nor associative ((1 (*) 3) (*) 3 = 3 but
    1 (*) (3 (*) 3) = 2), nor divisible.  On its products a term's
    neighbourhood value varies with the grade below the term's bound,
    which tells `product_nbhd_system`'s seeding at every such grade from
    a seeding at the bound alone."""
    return Tensor(base=lat, table=((0, 0, 0, 0),
                                   (0, 1, 2, 2),
                                   (0, 2, 2, 3),
                                   (0, 2, 3, 3)))


def middle_unit_cotensor(lat):
    """On the 3-chain, a (+) b = top if top is a or b, else min(a, b).  Its
    unit is the middle element, not bot, so unlike every co-GL cotensor it
    has rho coimpl a above bot for some rho <= a (here rho = a = 1), and the
    ultrafilter characterization reads a cell other than (f -> 0, bot)
    there."""
    top = lat.top
    return Tensor(base=lat, table=tuple(
        tuple(top if top in (a, b) else min(a, b) for b in lat.elements())
        for a in lat.elements()))


def bounded_sum_cotensor(lat):
    """On a chain, a (+) b = min(top, a + b): the order dual of the
    Lukasiewicz tensor."""
    return Tensor(base=lat, table=tuple(
        tuple(min(lat.top, a + b) for b in lat.elements())
        for a in lat.elements()))


def bot_tensor(lat):
    """a (*) b = bot: residuated on any lattice, with res(a, c) = top, but
    not integral."""
    return Tensor(base=lat, table=((lat.bot,) * lat.n,) * lat.n)


def top_cotensor(lat):
    """a (+) b = top, the order dual of `bot_tensor`."""
    return Tensor(base=lat, table=((lat.top,) * lat.n,) * lat.n)


class Model(NamedTuple):
    """A lattice of `LATTICES`, the functions that make the tensor and the
    cotensor on it (None for the join), the points and the size tag."""

    lattice: str
    tensor: object
    points: int
    tag: str
    cotensor: object = None


# on the 2-chain the Lukasiewicz tensor is the meet, so u21 to u25 and u28
# stand for both tensors
MODELS = {
    "u21": Model("chain2", meet_tensor, 1, "tiny"),
    "u22": Model("chain2", meet_tensor, 2, "tiny"),
    "u23": Model("chain2", meet_tensor, 3, "tiny"),
    "u24": Model("chain2", meet_tensor, 4, "tiny"),
    "u31_godel": Model("chain3", meet_tensor, 1, "tiny"),
    "u31_luk": Model("chain3", lukasiewicz_tensor, 1, "tiny"),
    "u32_godel": Model("chain3", meet_tensor, 2, "tiny"),
    "u32_luk": Model("chain3", lukasiewicz_tensor, 2, "tiny"),
    "u32_godel_reindexed": Model("chain3-top-first", meet_tensor, 2, "tiny"),
    "u31_godel_middle_unit": Model("chain3", meet_tensor, 1, "tiny",
                                   middle_unit_cotensor),
    "u31_luk_middle_unit": Model("chain3", lukasiewicz_tensor, 1, "tiny",
                                 middle_unit_cotensor),
    "u32_godel_middle_unit": Model("chain3", meet_tensor, 2, "tiny",
                                   middle_unit_cotensor),
    "u32_luk_middle_unit": Model("chain3", lukasiewicz_tensor, 2, "tiny",
                                 middle_unit_cotensor),
    "u31_godel_bounded_sum": Model("chain3", meet_tensor, 1, "tiny",
                                   bounded_sum_cotensor),
    "u31_luk_listed": Model("chain3", listed(lukasiewicz_tensor), 1, "tiny"),
    "u32_luk_listed": Model("chain3", listed(lukasiewicz_tensor), 2, "tiny"),
    "u32_non_integral": Model("chain3", non_integral_tensor, 2, "tiny"),
    "diamond_1pt": Model("diamond", meet_tensor, 1, "tiny"),
    "chain4_godel_1pt": Model("chain4", meet_tensor, 1, "tiny"),
    "chain4_luk_1pt": Model("chain4", lukasiewicz_tensor, 1, "tiny"),
    "chain5_godel_1pt": Model("chain5", meet_tensor, 1, "tiny"),
    "boolean8_1pt": Model("boolean8", meet_tensor, 1, "small"),
    "diamond_2pt": Model("diamond", meet_tensor, 2, "small"),
    "diamond_3pt": Model("diamond", meet_tensor, 3, "small"),
    "chain4_luk_2pt": Model("chain4", lukasiewicz_tensor, 2, "small"),
    "u35_godel": Model("chain3", meet_tensor, 5, "next-tier"),
    "u28": Model("chain2", meet_tensor, 8, "next-tier"),
    "chain4_cqm_1pt": Model("chain4", cqm_tensor, 1, "cqm"),
    "u25": Model("chain2", meet_tensor, 5, "structure"),
    # the graded carrier's grade factor, the join on the reversed order, is
    # not distributive
    "pentagon_constant_1pt": Model("pentagon", bot_tensor, 1,
                                   "non-distributive", top_cotensor),
}


def build(name):
    """A fresh `Universe` of the catalogue entry `name`, its lattice built
    apart from every other."""
    model = MODELS[name]
    lat = LATTICES[model.lattice]()
    return Universe(lat, model.tensor(lat), Ground(model.points),
                    cotensor=model.cotensor and model.cotensor(lat))


def names(tag):
    """The catalogue names with size tag `tag`, in catalogue order."""
    return [name for name, model in MODELS.items() if model.tag == tag]


# selections that several files sweep, where a whole size tag would cost
# too much or hold a model on which a test cannot give both verdicts
#: the benchmark's census instances, with u22 and u24
CENSUS = ["u22", "u23", "u24", "u31_godel", "u31_luk", "u32_godel", "u32_luk",
          "diamond_1pt", "chain4_godel_1pt", "chain4_luk_1pt"]
#: CENSUS less its 1-point 3-chains and u24, with u32_godel_reindexed
SWEPT = ["u22", "u23", "u32_godel", "u32_luk", "diamond_1pt",
         "chain4_godel_1pt", "chain4_luk_1pt", "u32_godel_reindexed"]
#: every tiny model but u21, which has one filter and one topology
TWO_OR_MORE = [name for name in names("tiny") if name != "u21"]
