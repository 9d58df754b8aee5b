import itertools
from pathlib import Path

import pytest

from fuzztop.instances import chain, lukasiewicz_tensor
from fuzztop.specfile import (NonTotalTable, SpecSyntaxError, UnknownName,
                              build_universe, parse_spec, render_spec)

SPECS = Path(__file__).resolve().parents[1] / "specs"

MINIMAL = """\
[lattice]
elements = bot top
covers = bot<top

[tensor]
bot bot -> bot
bot top -> bot
top bot -> bot
top top -> top
"""


def test_parse_minimal():
    doc = parse_spec(MINIMAL)
    assert doc.element_names == ("bot", "top")
    assert doc.covers == ((0, 1),)
    assert doc.tensor == ((0, 0), (0, 1))
    assert doc.cotensor is None


def test_golden_lukasiewicz_file():
    doc = parse_spec((SPECS / "lukasiewicz3.spec").read_text())
    expected = lukasiewicz_tensor(chain(3))
    assert doc.lattice.leq == chain(3).leq
    assert doc.tensor_op.table == expected.table
    assert doc.tensor_op.base is doc.lattice
    assert doc.cotensor_op.table == doc.lattice.join
    assert "A" in doc.spaces
    assert doc.spaces["A"].points == 1


def test_two_spaces_file():
    doc = parse_spec((SPECS / "two_spaces.spec").read_text())
    assert set(doc.spaces) == {"X", "Y"}
    assert doc.maps["collapse"].mapping == (0, 0)
    F = doc.filters["principal0"]
    assert F.space == "X"
    assert len(F.table) == 8


def test_render_parse_roundtrip():
    for name in ("lukasiewicz3.spec", "n5.spec", "two_spaces.spec"):
        doc = parse_spec((SPECS / name).read_text())
        text = render_spec(doc)
        assert parse_spec(text) == doc
        assert render_spec(parse_spec(text)) == text


def test_render_roundtrip_above_the_default_powerset_cap():
    # an 8-point space over the 3-chain has 3**8 = 6561 fuzzy sets
    names = ("lo", "mid", "hi")
    sets = [" ".join(names[v] for v in values)
            for values in itertools.product(range(3), repeat=8)]
    lines = ["[lattice]", "elements = lo mid hi", "covers = lo<mid mid<hi",
             "", "[tensor]"]
    lines += [f"{names[a]} {names[b]} -> {names[min(a, b)]}"
              for a in range(3) for b in range(3)]
    lines += ["", "[space A]", "points = 8"]
    lines += [f"grade f = {s} -> hi" for s in sets]
    lines += ["", "[filter F]", "on = A"]
    lines += [f"grade f = {s} @ {a} -> lo" for s in sets for a in names]
    doc = parse_spec("\n".join(lines) + "\n", powerset_cap=10000)
    assert parse_spec(render_spec(doc), powerset_cap=10000) == doc


def test_comments_and_blank_lines_ignored():
    noisy = "# leading comment\n\n" + MINIMAL.replace(
        "top top -> top", "top top -> top   # diagonal")
    assert parse_spec(noisy) == parse_spec(MINIMAL)


def test_unknown_element_has_line_number():
    bad = MINIMAL.replace("top top -> top", "top top -> middle")
    with pytest.raises(UnknownName) as err:
        parse_spec(bad)
    assert err.value.line == 9


def test_unterminated_header():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("[lattice\n")
    assert err.value.line == 1


def test_content_before_section():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("elements = a b\n")
    assert err.value.line == 1


def test_missing_lattice_section():
    with pytest.raises(SpecSyntaxError):
        parse_spec("[tensor]\n")


def test_non_total_tensor():
    with pytest.raises(NonTotalTable):
        parse_spec(MINIMAL.replace("top top -> top\n", ""))


def test_non_total_space():
    text = MINIMAL + "\n[space A]\npoints = 1\ngrade f = bot -> top\n"
    with pytest.raises(NonTotalTable):
        parse_spec(text)


def test_space_needs_points_before_rows():
    text = MINIMAL + "\n[space A]\ngrade f = bot -> top\n"
    with pytest.raises(SpecSyntaxError):
        parse_spec(text)


def test_map_target_out_of_range():
    doc_text = (SPECS / "two_spaces.spec").read_text()
    with pytest.raises(SpecSyntaxError):
        parse_spec(doc_text.replace("point 1 -> 0", "point 1 -> 5"))


def test_map_unknown_space():
    doc_text = (SPECS / "two_spaces.spec").read_text()
    with pytest.raises(UnknownName):
        parse_spec(doc_text.replace("to = Y", "to = Z"))


COTENSOR_ROWS = """bot bot -> bot
bot top -> top
top bot -> top
top top -> top
"""

# two_spaces.spec with a cotensor and a map out of the one-point space Y
RULES_BASE = (SPECS / "two_spaces.spec").read_text() + """
[cotensor]
""" + COTENSOR_ROWS + """
[map back]
from = Y
to = X
point 0 -> 1
"""


def test_rules_base_parses():
    doc = parse_spec(RULES_BASE)
    assert doc.cotensor == ((0, 1), (1, 1))
    assert doc.maps["back"].mapping == (1,)


def repeat(line, extra):
    """Replace the first `line` by itself followed by `extra`."""
    return pytest.param(line, f"{line}\n{extra}", id=extra.split("\n")[0])


@pytest.mark.parametrize("old, new", [
    ("from = X", "from ="), ("on = X", "on ="),
    ("point 1 -> 0", "point x -> 0"), ("point 1 -> 0", "point -1 -> 0"),
    ("grade f = bot bot @ bot -> bot", "grade f = @"),
    ("grade f = bot bot @ bot -> bot", "grade f = bot -> @"),
    ("grade f = bot bot @ bot -> bot", "grade f = bot bot @ bot top -> bot"),
    # a row key, a section header and a map source point appear at most once
    repeat("top top -> top", "top top -> bot"),
    repeat("[cotensor]\nbot bot -> bot", "bot bot -> top"),
    repeat("grade f = bot top -> top", "grade f = bot top -> bot"),
    repeat("grade f = top bot @ top -> top", "grade f = top bot @ top -> bot"),
    repeat("point 1 -> 0", "point 1 -> 0"),
    repeat("top top -> top", "[tensor]"),
    repeat("grade f = top -> top",
           "[space Y]\npoints = 1\ngrade f = bot -> top\ngrade f = top -> top"),
    # Y has one point, so there is no point 7 to map
    repeat("point 0 -> 1", "point 7 -> 0"),
    # nor a one-value fuzzy set on the two-point space X
    repeat("grade f = top top @ top -> top", "grade f = top @ top -> top"),
    # a setting appears at most once
    repeat("elements = bot top", "elements = bot top"),
    repeat("points = 1", "points = 1"),
    repeat("from = X", "from = Y"),
    repeat("to = Y", "to = X"),
    repeat("on = X", "on = X"),
    # a target out of range is reported at the row that names it
    ("point 1 -> 0", "point 1 -> 5"),
    # an empty [cotensor] section is a table missing every cell, not the join
    pytest.param("[cotensor]\n" + COTENSOR_ROWS, "[cotensor]\n",
                 id="empty [cotensor]"),
])
def test_malformed_map_and_filter_lines(old, new):
    text = RULES_BASE.replace(old, new, 1)
    if new == "[cotensor]\n":
        with pytest.raises(NonTotalTable, match=r"misses cell \(0,0\)"):
            parse_spec(text)
        return
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text)
    changed = next(lno for lno, (a, b) in enumerate(itertools.zip_longest(
        text.splitlines(), RULES_BASE.splitlines()), start=1) if a != b)
    assert err.value.line == changed


def test_repeated_setting_names_the_first_line():
    first = RULES_BASE.splitlines().index("on = X") + 1
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(RULES_BASE.replace("on = X", "on = X\non = Y", 1))
    assert str(err.value) == \
        f"line {first + 1}: repeats the setting of line {first}"


def test_duplicate_element_names():
    with pytest.raises(SpecSyntaxError):
        parse_spec(MINIMAL.replace("elements = bot top",
                                   "elements = bot bot"))


def test_build_universe_from_file():
    doc = parse_spec((SPECS / "lukasiewicz3.spec").read_text())
    u = build_universe(doc, "A")
    assert u.lattice.n == 3
    assert u.ground.m == 1
    assert u.n_sets == 3
