"""Line-oriented spec files describing lattices, tensors, spaces, maps, filters.

The format is diffable and golden-test friendly:

    [lattice]
    elements = bot mid top
    covers = bot<mid mid<top

    [tensor]
    bot bot -> bot
    ...

    [cotensor]            # optional; defaults to the lattice join
    ...

    [space A]
    points = 2
    grade f = bot top -> mid
    ...

    [map q]
    from = A
    to = B
    point 0 -> 0

    [filter F]
    on = A
    grade f = bot top @ mid -> bot
    ...

Comments run from '#' to end of line.  Every table must be total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FuzztopError
from .lattice import build_lattice
from .instances import join_cotensor
from .powerset import (DEFAULT_POWERSET_CAP, Ground, Universe,
                       enumerate_powerset)
from .residuated import Tensor


class SpecSyntaxError(FuzztopError):
    def __init__(self, line, msg):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class UnknownName(FuzztopError):
    def __init__(self, line, name):
        super().__init__(f"line {line}: unknown name {name!r}")
        self.line = line


class NonTotalTable(FuzztopError):
    pass


@dataclass
class SpaceDecl:
    points: int
    topology: tuple  # grade per powerset index (lexicographic order)


@dataclass
class MapDecl:
    src: str
    dst: str
    mapping: tuple  # domain point -> codomain point


@dataclass
class FilterDecl:
    space: str
    table: tuple  # grade per graded cell (set index * n + grade index)


@dataclass
class SpecDocument:
    element_names: tuple
    covers: tuple
    tensor: tuple
    cotensor: tuple = None  # None means the lattice join
    spaces: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    filters: dict = field(default_factory=dict)

    def build_lattice(self):
        return build_lattice(len(self.element_names), list(self.covers))

    def build_tensor(self, lattice):
        return Tensor(base=lattice, table=self.tensor, kind="tensor")

    def build_cotensor(self, lattice):
        if self.cotensor is None:
            return join_cotensor(lattice)
        return Tensor(base=lattice, table=self.cotensor, kind="cotensor")


def _strip(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_spec(text, powerset_cap=DEFAULT_POWERSET_CAP):
    """Parse spec text into a SpecDocument; diagnostics carry line numbers.
    A space's powerset may hold at most `powerset_cap` sets."""
    lines = text.splitlines()
    element_names = None
    name_index = {}
    covers = []
    tensor_rows = {}
    cotensor_rows = {}
    spaces = {}
    maps = {}
    filters = {}

    section = None       # ("lattice",) / ("tensor",) / ("space", name) / ...
    cur = None           # mutable scratch for the open section

    def elem(tok, lno):
        if tok not in name_index:
            raise UnknownName(lno, tok)
        return name_index[tok]

    def close_section():
        nonlocal cur
        if section is None:
            return
        kind = section[0]
        if kind == "space":
            if cur["points"] is None:
                raise SpecSyntaxError(cur["line"], "space lacks a points line")
            spaces[section[1]] = cur
        elif kind == "map":
            if cur["src"] is None or cur["dst"] is None:
                raise SpecSyntaxError(cur["line"], "map lacks from/to lines")
            maps[section[1]] = cur
        elif kind == "filter":
            if cur["space"] is None:
                raise SpecSyntaxError(cur["line"], "filter lacks an on line")
            filters[section[1]] = cur
        cur = None

    for lno, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecSyntaxError(lno, "unterminated section header")
            close_section()
            header = line[1:-1].split()
            if header == ["lattice"]:
                section = ("lattice",)
            elif header == ["tensor"]:
                section = ("tensor",)
            elif header == ["cotensor"]:
                section = ("cotensor",)
            elif len(header) == 2 and header[0] in ("space", "map", "filter"):
                section = (header[0], header[1])
                if header[0] == "space":
                    cur = {"points": None, "rows": {}, "line": lno}
                elif header[0] == "map":
                    cur = {"src": None, "dst": None, "rows": {}, "line": lno}
                else:
                    cur = {"space": None, "rows": {}, "line": lno}
            else:
                raise SpecSyntaxError(lno, f"unknown section {line!r}")
            continue
        if section is None:
            raise SpecSyntaxError(lno, "content before any section header")

        kind = section[0]
        toks = line.split()
        if kind == "lattice":
            if toks[0] == "elements" and toks[1:2] == ["="]:
                element_names = tuple(toks[2:])
                if len(set(element_names)) != len(element_names):
                    raise SpecSyntaxError(lno, "duplicate element names")
                name_index = {nm: i for i, nm in enumerate(element_names)}
            elif toks[0] == "covers" and toks[1:2] == ["="]:
                for pair in toks[2:]:
                    if "<" not in pair:
                        raise SpecSyntaxError(lno, f"bad cover {pair!r}")
                    a, b = pair.split("<", 1)
                    covers.append((elem(a, lno), elem(b, lno)))
            else:
                raise SpecSyntaxError(lno, f"unexpected lattice line {line!r}")
        elif kind in ("tensor", "cotensor"):
            if len(toks) != 4 or toks[2] != "->":
                raise SpecSyntaxError(lno, "expected: <a> <b> -> <c>")
            a, b, c = elem(toks[0], lno), elem(toks[1], lno), elem(toks[3], lno)
            (tensor_rows if kind == "tensor" else cotensor_rows)[(a, b)] = c
        elif kind == "space":
            if toks[0] == "points" and toks[1:2] == ["="]:
                if len(toks) != 3 or not toks[2].isdecimal() \
                        or int(toks[2]) < 1:
                    raise SpecSyntaxError(
                        lno, "expected: points = <positive integer>")
                cur["points"] = int(toks[2])
            elif toks[0] == "grade" and toks[1:3] == ["f", "="]:
                if cur["points"] is None:
                    raise SpecSyntaxError(lno, "points must precede grade rows")
                m = cur["points"]
                rest = toks[3:]
                if len(rest) != m + 2 or rest[m] != "->":
                    raise SpecSyntaxError(
                        lno, f"expected: grade f = <{m} values> -> <grade>")
                key = tuple(elem(t, lno) for t in rest[:m])
                cur["rows"][key] = elem(rest[m + 1], lno)
            else:
                raise SpecSyntaxError(lno, f"unexpected space line {line!r}")
        elif kind == "map":
            if toks[0] in ("from", "to") and toks[1:2] == ["="] \
                    and len(toks) == 3:
                cur["src" if toks[0] == "from" else "dst"] = toks[2]
            elif toks[0] == "point" and len(toks) == 4 and toks[2] == "->" \
                    and toks[1].isdecimal() and toks[3].isdecimal():
                cur["rows"][int(toks[1])] = int(toks[3])
            else:
                raise SpecSyntaxError(lno, f"unexpected map line {line!r}")
        elif kind == "filter":
            if toks[0] == "on" and toks[1:2] == ["="] and len(toks) == 3:
                cur["space"] = toks[2]
            elif toks[0] == "grade" and toks[1:3] == ["f", "="]:
                rest = toks[3:]
                at = rest.index("@") if "@" in rest else -1
                if at < 0 or len(rest) != at + 4 or rest[-2] != "->":
                    raise SpecSyntaxError(
                        lno, "expected: grade f = <values> @ <grade> -> <value>")
                key = (tuple(elem(t, lno) for t in rest[:at]),
                       elem(rest[at + 1], lno))
                cur["rows"][key] = elem(rest[-1], lno)
            else:
                raise SpecSyntaxError(lno, f"unexpected filter line {line!r}")
    close_section()

    if element_names is None:
        raise SpecSyntaxError(len(lines), "missing [lattice] section")
    n = len(element_names)
    tensor = _totalize(tensor_rows, n, "tensor")
    cotensor = _totalize(cotensor_rows, n, "cotensor") if cotensor_rows else None

    doc = SpecDocument(element_names=element_names, covers=tuple(covers),
                       tensor=tensor, cotensor=cotensor)
    lattice = doc.build_lattice()

    for name, data in spaces.items():
        m = data["points"]
        powerset = enumerate_powerset(lattice, Ground(m), powerset_cap)
        table = []
        for s in powerset:
            if s not in data["rows"]:
                raise NonTotalTable(
                    f"space {name!r}: no grade for value tuple "
                    f"{tuple(element_names[v] for v in s)}")
            table.append(data["rows"][s])
        doc.spaces[name] = SpaceDecl(points=m, topology=tuple(table))

    for name, data in maps.items():
        for end in ("src", "dst"):
            if data[end] not in doc.spaces:
                raise UnknownName(data["line"], data[end])
        m_src = doc.spaces[data["src"]].points
        m_dst = doc.spaces[data["dst"]].points
        mapping = []
        for p in range(m_src):
            if p not in data["rows"]:
                raise NonTotalTable(f"map {name!r}: point {p} unmapped")
            q = data["rows"][p]
            if not 0 <= q < m_dst:
                raise SpecSyntaxError(data["line"],
                                      f"map {name!r}: target point {q} out of range")
            mapping.append(q)
        doc.maps[name] = MapDecl(src=data["src"], dst=data["dst"],
                                 mapping=tuple(mapping))

    for name, data in filters.items():
        if data["space"] not in doc.spaces:
            raise UnknownName(data["line"], data["space"])
        m = doc.spaces[data["space"]].points
        powerset = enumerate_powerset(lattice, Ground(m), powerset_cap)
        table = []
        for s in powerset:
            for a in range(n):
                key = (s, a)
                if key not in data["rows"]:
                    raise NonTotalTable(
                        f"filter {name!r}: no value for "
                        f"({tuple(element_names[v] for v in s)}, "
                        f"{element_names[a]})")
                table.append(data["rows"][key])
        doc.filters[name] = FilterDecl(space=data["space"], table=tuple(table))
    return doc


def _totalize(rows, n, what):
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            if (a, b) not in rows:
                raise NonTotalTable(f"{what} table misses cell ({a},{b})")
            row.append(rows[(a, b)])
        table.append(tuple(row))
    return tuple(table)


def render_spec(doc):
    """Deterministic textual rendering; parse(render(doc)) == doc."""
    names = doc.element_names
    out = ["[lattice]",
           "elements = " + " ".join(names),
           "covers = " + " ".join(f"{names[a]}<{names[b]}"
                                  for a, b in doc.covers),
           "",
           "[tensor]"]
    n = len(names)
    for a in range(n):
        for b in range(n):
            out.append(f"{names[a]} {names[b]} -> {names[doc.tensor[a][b]]}")
    if doc.cotensor is not None:
        out += ["", "[cotensor]"]
        for a in range(n):
            for b in range(n):
                out.append(f"{names[a]} {names[b]} -> "
                           f"{names[doc.cotensor[a][b]]}")
    lattice = doc.build_lattice()
    for sname in sorted(doc.spaces):
        decl = doc.spaces[sname]
        out += ["", f"[space {sname}]", f"points = {decl.points}"]
        # the table has one grade per set, so it caps what parse_spec accepted
        powerset = enumerate_powerset(lattice, Ground(decl.points),
                                      len(decl.topology))
        for i, s in enumerate(powerset):
            vals = " ".join(names[v] for v in s)
            out.append(f"grade f = {vals} -> {names[decl.topology[i]]}")
    for mname in sorted(doc.maps):
        decl = doc.maps[mname]
        out += ["", f"[map {mname}]", f"from = {decl.src}", f"to = {decl.dst}"]
        for p, q in enumerate(decl.mapping):
            out.append(f"point {p} -> {q}")
    for fname in sorted(doc.filters):
        decl = doc.filters[fname]
        out += ["", f"[filter {fname}]", f"on = {decl.space}"]
        m = doc.spaces[decl.space].points
        powerset = enumerate_powerset(lattice, Ground(m), len(decl.table) // n)
        k = 0
        for s in powerset:
            for a in range(n):
                vals = " ".join(names[v] for v in s)
                out.append(f"grade f = {vals} @ {names[a]} -> "
                           f"{names[decl.table[k]]}")
                k += 1
    return "\n".join(out) + "\n"


def build_universe(doc, space_name, powerset_cap=DEFAULT_POWERSET_CAP):
    """The Universe for one declared space."""
    lattice = doc.build_lattice()
    tensor = doc.build_tensor(lattice)
    cotensor = doc.build_cotensor(lattice)
    decl = doc.spaces[space_name]
    return Universe(lattice, tensor, Ground(decl.points),
                    cotensor=cotensor, powerset_cap=powerset_cap)
