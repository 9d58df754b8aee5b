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

Comments run from '#' to end of line.  One rule builds every table: it must
be total (a header with no rows is an empty table), and a header, setting or
row key given twice, or a row outside its table (such as a map row for no
point of its domain), is an error naming its line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FuzztopError
from .lattice import Lattice, build_lattice
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
    """The declarations of one spec file.  The lattice and the tensor and
    cotensor objects are built once, from the declared fields, when the
    document is made; they take no part in equality."""

    element_names: tuple
    covers: tuple
    tensor: tuple
    cotensor: tuple = None  # None means the lattice join
    spaces: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    filters: dict = field(default_factory=dict)
    lattice: Lattice = field(init=False, repr=False, compare=False)
    tensor_op: Tensor = field(init=False, repr=False, compare=False)
    cotensor_op: Tensor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.lattice = build_lattice(len(self.element_names), list(self.covers))
        self.tensor_op = Tensor(base=self.lattice, table=self.tensor)
        self.cotensor_op = (join_cotensor(self.lattice) if self.cotensor is None
                            else Tensor(base=self.lattice, table=self.cotensor))


def _strip(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


#: settings each named section must give, and the message when it does not
_REQUIRED = {"space": (("points",), "space lacks a points line"),
             "map": (("src", "dst"), "map lacks from/to lines"),
             "filter": (("space",), "filter lacks an on line")}


def parse_spec(text, powerset_cap=DEFAULT_POWERSET_CAP):
    """Parse spec text into a SpecDocument; diagnostics carry line numbers.
    A space's powerset may hold at most `powerset_cap` sets."""
    lines = text.splitlines()
    element_names = None
    name_index = {}
    covers = []
    sections = {}        # (kind, name or None) -> record, in header order
    cur = None           # the record of the open section

    def elem(tok, lno):
        if tok not in name_index:
            raise UnknownName(lno, tok)
        return name_index[tok]

    def put(key, value, lno):
        if key in cur["rows"]:
            raise SpecSyntaxError(
                lno, f"repeats the row of line {cur['rows'][key][1]}")
        cur["rows"][key] = (value, lno)

    def setting(key, value, lno):
        if key in cur["lines"]:
            raise SpecSyntaxError(
                lno, f"repeats the setting of line {cur['lines'][key]}")
        cur["lines"][key] = lno
        cur[key] = value

    for lno, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecSyntaxError(lno, "unterminated section header")
            header = line[1:-1].split()
            if header in (["lattice"], ["tensor"], ["cotensor"]):
                key = (header[0], None)
            elif len(header) == 2 and header[0] in _REQUIRED:
                key = tuple(header)
            else:
                raise SpecSyntaxError(lno, f"unknown section {line!r}")
            if key in sections:
                raise SpecSyntaxError(lno, f"repeated section {line!r}")
            settings = _REQUIRED[key[0]][0] if key[1] else ()
            cur = sections[key] = {"kind": key[0], "line": lno, "rows": {},
                                   "lines": {}, **dict.fromkeys(settings)}
            continue
        if cur is None:
            raise SpecSyntaxError(lno, "content before any section header")

        kind = cur["kind"]
        toks = line.split()
        if kind == "lattice":
            if toks[0] == "elements" and toks[1:2] == ["="]:
                setting("elements", tuple(toks[2:]), lno)
                element_names = cur["elements"]
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
            put((elem(toks[0], lno), elem(toks[1], lno)), elem(toks[3], lno),
                lno)
        elif kind == "space":
            if toks[0] == "points" and toks[1:2] == ["="]:
                if len(toks) != 3 or not toks[2].isdecimal() \
                        or int(toks[2]) < 1:
                    raise SpecSyntaxError(
                        lno, "expected: points = <positive integer>")
                setting("points", int(toks[2]), lno)
            elif toks[0] == "grade" and toks[1:3] == ["f", "="]:
                if cur["points"] is None:
                    raise SpecSyntaxError(lno, "points must precede grade rows")
                m = cur["points"]
                rest = toks[3:]
                if len(rest) != m + 2 or rest[m] != "->":
                    raise SpecSyntaxError(
                        lno, f"expected: grade f = <{m} values> -> <grade>")
                put(tuple(elem(t, lno) for t in rest[:m]),
                    elem(rest[m + 1], lno), lno)
            else:
                raise SpecSyntaxError(lno, f"unexpected space line {line!r}")
        elif kind == "map":
            if toks[0] in ("from", "to") and toks[1:2] == ["="] \
                    and len(toks) == 3:
                setting("src" if toks[0] == "from" else "dst", toks[2], lno)
            elif toks[0] == "point" and len(toks) == 4 and toks[2] == "->" \
                    and toks[1].isdecimal() and toks[3].isdecimal():
                put(int(toks[1]), int(toks[3]), lno)
            else:
                raise SpecSyntaxError(lno, f"unexpected map line {line!r}")
        elif kind == "filter":
            if toks[0] == "on" and toks[1:2] == ["="] and len(toks) == 3:
                setting("space", toks[2], lno)
            elif toks[0] == "grade" and toks[1:3] == ["f", "="]:
                rest = toks[3:]
                at = rest.index("@") if "@" in rest else -1
                if at < 0 or len(rest) != at + 4 or rest[-2] != "->":
                    raise SpecSyntaxError(
                        lno, "expected: grade f = <values> @ <grade> -> <value>")
                put((tuple(elem(t, lno) for t in rest[:at]),
                     elem(rest[at + 1], lno)), elem(rest[-1], lno), lno)
            else:
                raise SpecSyntaxError(lno, f"unexpected filter line {line!r}")

    for (kind, name), rec in sections.items():
        if name and any(rec[s] is None for s in _REQUIRED[kind][0]):
            raise SpecSyntaxError(rec["line"], _REQUIRED[kind][1])
    if element_names is None:
        raise SpecSyntaxError(len(lines), "missing [lattice] section")
    n = len(element_names)
    pairs = [(a, b) for a in range(n) for b in range(n)]

    def op_table(kind):
        if kind == "cotensor" and (kind, None) not in sections:
            return None
        rows = sections.get((kind, None), {"rows": {}})["rows"]
        flat = _table(rows, pairs,
                      lambda k: f"{kind} table misses cell ({k[0]},{k[1]})",
                      lambda k: f"{kind} table has no cell ({k[0]},{k[1]})")
        return tuple(flat[a * n:(a + 1) * n] for a in range(n))

    doc = SpecDocument(element_names=element_names, covers=tuple(covers),
                       tensor=op_table("tensor"), cotensor=op_table("cotensor"))

    def show(values):
        return tuple(element_names[v] for v in values)

    def named(kind):
        return [(key[1], rec) for key, rec in sections.items() if key[0] == kind]

    for name, rec in named("space"):
        m = rec["points"]
        table = _table(
            rec["rows"], enumerate_powerset(doc.lattice, Ground(m), powerset_cap),
            lambda s: f"space {name!r}: no grade for value tuple {show(s)}",
            lambda s: f"space {name!r}: no such fuzzy set")
        doc.spaces[name] = SpaceDecl(points=m, topology=table)

    for name, rec in named("map"):
        for end in ("src", "dst"):
            if rec[end] not in doc.spaces:
                raise UnknownName(rec["line"], rec[end])
        mapping = _table(
            rec["rows"], range(doc.spaces[rec["src"]].points),
            lambda p: f"map {name!r}: point {p} unmapped",
            lambda p: f"map {name!r}: source point {p} out of range")
        for p, q in enumerate(mapping):
            if not 0 <= q < doc.spaces[rec["dst"]].points:
                raise SpecSyntaxError(rec["rows"][p][1],
                                      f"map {name!r}: target point {q} out of range")
        doc.maps[name] = MapDecl(src=rec["src"], dst=rec["dst"], mapping=mapping)

    for name, rec in named("filter"):
        if rec["space"] not in doc.spaces:
            raise UnknownName(rec["line"], rec["space"])
        powerset = enumerate_powerset(
            doc.lattice, Ground(doc.spaces[rec["space"]].points), powerset_cap)
        table = _table(
            rec["rows"], [(s, a) for s in powerset for a in range(n)],
            lambda k: f"filter {name!r}: no value for "
                      f"({show(k[0])}, {element_names[k[1]]})",
            lambda k: f"filter {name!r}: no such graded cell")
        doc.filters[name] = FilterDecl(space=rec["space"], table=table)
    return doc


def _table(rows, keys, missing, stray):
    """The one table rule: the values of `rows` in the order of `keys`.
    `rows` maps each key given in the spec to its (value, line).  A key
    without a row raises NonTotalTable(missing(key)); then a row whose key
    is not in `keys` raises SpecSyntaxError(line, stray(key))."""
    table = []
    for key in keys:
        if key not in rows:
            raise NonTotalTable(missing(key))
        table.append(rows[key][0])
    if len(rows) > len(table):
        known = set(keys)
        key, (_, lno) = next(row for row in rows.items() if row[0] not in known)
        raise SpecSyntaxError(lno, stray(key))
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
    for sname in sorted(doc.spaces):
        decl = doc.spaces[sname]
        out += ["", f"[space {sname}]", f"points = {decl.points}"]
        # the table has one grade per set, so it caps what parse_spec accepted
        powerset = enumerate_powerset(doc.lattice, Ground(decl.points),
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
        powerset = enumerate_powerset(doc.lattice, Ground(m),
                                      len(decl.table) // n)
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
    return Universe(doc.lattice, doc.tensor_op,
                    Ground(doc.spaces[space_name].points),
                    cotensor=doc.cotensor_op, powerset_cap=powerset_cap)
