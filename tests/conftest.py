import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fuzztop.filters import enumerate_filters_bruteforce
from fuzztop.instances import (boolean, chain, diamond, lukasiewicz_tensor,
                               meet_tensor)
from fuzztop.lattice import build_lattice
from fuzztop.powerset import Ground, Universe


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


def _pointwise_leq(F, G):
    le = F.universe.lattice.le
    return all(le(a, b) for a, b in zip(F.table, G.table))


@pytest.fixture(scope="session")
def pointwise_leq():
    """Oracle: the filter order cell by cell through `Lattice.le`, for
    checking `FilterTable.leq`; called as pointwise_leq(F, G)."""
    return _pointwise_leq


@pytest.fixture(scope="session")
def bool2():
    return boolean()


@pytest.fixture(scope="session")
def chain3():
    return chain(3)


@pytest.fixture(scope="session")
def diamond4():
    return diamond()


@pytest.fixture(scope="session")
def u21(bool2):
    return Universe(bool2, meet_tensor(bool2), Ground(1))


@pytest.fixture(scope="session")
def u22(bool2):
    return Universe(bool2, meet_tensor(bool2), Ground(2))


@pytest.fixture(scope="session")
def u23(bool2):
    return Universe(bool2, meet_tensor(bool2), Ground(3))


@pytest.fixture(scope="session")
def u31_godel(chain3):
    return Universe(chain3, meet_tensor(chain3), Ground(1))


@pytest.fixture(scope="session")
def u31_luk(chain3):
    return Universe(chain3, lukasiewicz_tensor(chain3), Ground(1))


@pytest.fixture(scope="session")
def u32_godel(chain3):
    return Universe(chain3, meet_tensor(chain3), Ground(2))


@pytest.fixture(scope="session")
def u32_luk(chain3):
    return Universe(chain3, lukasiewicz_tensor(chain3), Ground(2))


@pytest.fixture(scope="session")
def u32_godel_reindexed():
    """u32-Goedel on the 3-chain indexed top first (2 < 1 < 0), so the
    element indices are no linear extension of the order."""
    lat = build_lattice(3, [(2, 1), (1, 0)])
    return Universe(lat, meet_tensor(lat), Ground(2))


@pytest.fixture(scope="session")
def diamond_1pt(diamond4):
    return Universe(diamond4, meet_tensor(diamond4), Ground(1))


@pytest.fixture(scope="session")
def chain4_godel_1pt():
    lat = chain(4)
    return Universe(lat, meet_tensor(lat), Ground(1))


@pytest.fixture(scope="session")
def chain4_luk_1pt():
    lat = chain(4)
    return Universe(lat, lukasiewicz_tensor(lat), Ground(1))


@pytest.fixture(scope="session")
def bruteforce_filter_tables(u21, u22, u31_godel, u31_luk):
    """Sorted filter tables from enumerate_filters_bruteforce, keyed by the
    id of the universe.  The sweep takes seconds, so it runs once for every
    test that compares against it."""
    return {id(u): sorted(F.table for F in enumerate_filters_bruteforce(u))
            for u in (u21, u22, u31_godel, u31_luk)}
