import argparse
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzztop.cli import (DOC_BATTERIES, SPACE_BATTERIES, _write_json,
                         main)
from fuzztop.specfile import parse_spec

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"
LUK = str(SPECS / "lukasiewicz3.spec")
N5 = str(SPECS / "n5.spec")
TWO = str(SPECS / "two_spaces.spec")
#: two_spaces.spec with an explicit [cotensor]; a base text of the fuzz test
COTENSOR_BASE = Path(__file__).resolve().parent / "two_spaces_cotensor.spec"
#: per cli-workload command on specs/*.spec: exit code and the sha256 of its
#: full --format machine stdout, witnesses included
DIGESTS = Path(__file__).resolve().parent / "cli_machine_digests.json"


def assert_dumps_bytes(out):
    """The machine output is what `json.dumps(sort_keys=True, indent=2)`
    writes for its own tree, plus a newline."""
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if "machine" in argv and captured.out:
        assert_dumps_bytes(captured.out)
    return code, captured.out, captured.err


def test_validate_lattice_pass(capsys):
    code, out, _ = run(capsys, LUK, "validate", "lattice")
    assert code == 0
    assert "[PASS]" in out and "elapsed:" in out


def test_validate_lattice_fail(capsys):
    code, out, _ = run(capsys, N5, "validate", "lattice")
    assert code == 1
    assert "[FAIL]" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "no-such-file.spec", "validate", "lattice")
    assert code == 2
    assert "error" in err


def test_unknown_space_exits_2(capsys):
    code, _, err = run(capsys, LUK, "compact", "--space", "Z")
    assert code == 2
    assert "unknown space" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main([LUK, "validate", "bogus"])
    assert err.value.code == 2


def test_machine_output_is_json_and_deterministic(capsys):
    code1, out1, _ = run(capsys, LUK, "--format", "machine",
                         "filters", "enumerate")
    code2, out2, _ = run(capsys, LUK, "--format", "machine",
                         "filters", "enumerate")
    assert code1 == code2 == 0
    assert out1 == out2
    tree = json.loads(out1)
    assert tree["passed"] is True
    assert "elapsed" not in out1
    assert tree["results"]["counts"]["A"] == 2


def test_glmonoid_and_classify(capsys):
    code, out, _ = run(capsys, LUK, "validate", "glmonoid")
    assert code == 0
    code, out, _ = run(capsys, LUK, "--format", "machine", "classify")
    tree = json.loads(out)
    assert tree["results"]["tags"] == ["mv"]


def test_residuum_table(capsys):
    code, out, _ = run(capsys, LUK, "--format", "machine", "residuum")
    assert code == 0
    tree = json.loads(out)
    assert tree["results"]["table"]["mid bot"] == "mid"


def test_coimpl_runs(capsys):
    code, _, _ = run(capsys, LUK, "coimpl")
    assert code == 0


def test_validate_topology_all_spaces(capsys):
    code, out, _ = run(capsys, TWO, "validate", "topology")
    assert code == 0
    assert "topology[X]" in out and "topology[Y]" in out


def test_validate_interior_and_nbhd(capsys):
    assert run(capsys, TWO, "validate", "interior")[0] == 0
    assert run(capsys, TWO, "validate", "nbhd")[0] == 0


def test_filters_check_and_ultrafilters(capsys):
    code, out, _ = run(capsys, TWO, "--format", "machine",
                       "filters", "check", "--filter", "principal0")
    assert code == 0
    code, out, _ = run(capsys, TWO, "--format", "machine",
                       "filters", "ultrafilters", "--space", "X")
    tree = json.loads(out)
    assert code == 0
    assert tree["results"]["counts"]["X"] == 2


def test_ultrafilters_read_the_recorded_maximality(capsys, count_calls):
    # each listed filter keeps the maximality enumerate_filters recorded
    # from the complete listing; before, a maximality search of the listing
    # ran once per filter
    import fuzztop.filters as filters
    calls = count_calls(filters.is_ultrafilter)
    code, out, _ = run(capsys, TWO, "--format", "machine",
                       "filters", "ultrafilters", "--space", "X")
    verdicts = json.loads(out)["reports"][0]["verdicts"]
    assert code == 0 and verdicts["modes_agree"]["status"] == "pass"
    assert calls and {args[1] for args in calls} == {"characterization"}


def test_filters_check_requires_name(capsys):
    code, _, err = run(capsys, TWO, "filters", "check")
    assert code == 2 and "requires --filter" in err


def test_saturate_named_filter(capsys):
    code, out, _ = run(capsys, TWO, "--format", "machine",
                       "saturate", "--filter", "principal0")
    assert code == 0
    tree = json.loads(out)
    assert "filter" in tree["results"]


def test_compact_command(capsys):
    code, out, _ = run(capsys, TWO, "--format", "machine",
                       "compact", "--space", "X")
    assert code == 0
    tree = json.loads(out)
    verdicts = tree["reports"][0]["verdicts"]
    assert verdicts["compact"]["status"] == "pass"
    assert verdicts["fast_path_agrees"]["status"] == "pass"


def test_product_command(capsys):
    code, out, _ = run(capsys, TWO, "--format", "machine",
                       "product", "--spaces", "X", "Y")
    assert code == 0
    tree = json.loads(out)
    assert tree["results"]["product_points"] == [[0, 0], [1, 0]]


def test_tychonoff_command(capsys):
    code, out, _ = run(capsys, TWO, "--format", "machine",
                       "tychonoff", "--spaces", "X", "Y")
    assert code == 0
    tree = json.loads(out)
    verdicts = tree["reports"][0]["verdicts"]
    assert verdicts["biconditional"]["status"] == "pass"


def test_continuity_command(capsys):
    code, out, _ = run(capsys, TWO, "continuity", "--map", "collapse")
    assert code == 0
    assert "continuity[collapse]" in out
    assert "nbhd_pushforward" in out


def test_continuity_derives_each_interior_once(capsys, count_calls):
    import fuzztop.topology as topology
    # the derivation, whether a Space (through `Topology.interior`) or the
    # pushforward asks for it
    calls = count_calls(topology.interior_from_topology)
    code, _, _ = run(capsys, TWO, "--format", "machine", "continuity",
                     "--map", "collapse")
    assert code == 0
    assert len(calls) == 2  # one per space: X and Y


def test_continuity_decides_continuity_once(capsys, count_calls):
    # the pushforward sweep runs without re-deciding its precondition
    import fuzztop.topology as topology
    calls = count_calls(topology.is_continuous)
    code, out, _ = run(capsys, TWO, "--format", "machine", "continuity",
                       "--map", "collapse")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["reports"]] == [
        "continuity[collapse]", "continuity_nbhd"]
    assert len(calls) == 1


@pytest.mark.parametrize("argv, counts", [
    (("product", "--spaces", "X", "Y"), (3, 2, 3)),
    (("product", "--spaces", "X", "X"), (2, 2, 2)),
    (("tychonoff", "--spaces", "X", "Y"), (3, 0, 3)),
    (("tychonoff", "--spaces", "X", "X"), (2, 0, 2)),
])
def test_each_space_is_built_and_checked_once(capsys, count_calls, argv,
                                              counts):
    # (check_topology, is_continuous, Space) calls: one Space per distinct
    # name plus the product's, and a projection is checked only where its
    # verdict is reported
    import fuzztop.compactness as compactness
    import fuzztop.topology as topology
    calls = [count_calls(f) for f in (topology.check_topology,
                                      topology.is_continuous,
                                      compactness.Space)]
    code, _, _ = run(capsys, TWO, "--format", "machine", *argv)
    assert code == 0
    assert tuple(map(len, calls)) == counts


@pytest.mark.parametrize("command", ["product", "tychonoff"])
def test_max_powerset_bounds_the_product(capsys, command):
    # X has 2**2 fuzzy sets, X*X has 2**4
    code, out, err = run(capsys, TWO, "--max-powerset", "8", command,
                         "--spaces", "X", "X")
    assert code == 2 and out == ""
    assert err == "fuzztop: error: powerset size 2**4 exceeds cap 8\n"


@pytest.mark.parametrize("argv", [("compact", "--space", "X"),
                                  ("tychonoff", "--spaces", "X", "X")])
def test_max_filters_bounds_every_enumeration(capsys, argv):
    code, out, err = run(capsys, TWO, "--max-filters", "1", *argv)
    assert code == 2 and out == ""
    assert err == "fuzztop: error: filter enumeration exceeded cap 1 closures\n"


@pytest.mark.parametrize("cap, argv", [("0", ("compact", "--space", "A")),
                                       ("-5", ("filters", "enumerate"))])
def test_a_filter_cap_below_1_refuses(tmp_path, capsys, cap, argv):
    # the least filter's closure is the first counted
    spec = tmp_path / "one_point.spec"
    spec.write_text(BOOL_HEADER + "[space A]\npoints = 1\n"
                    "grade f = bot -> top\ngrade f = top -> top\n")
    code, out, err = run(capsys, str(spec), "--max-filters", cap, *argv)
    assert code == 2 and out == ""
    assert err == (f"fuzztop: error: filter enumeration exceeded cap {cap} "
                   "closures\n")
    assert run(capsys, str(spec), "--max-filters", "1", *argv)[0] == 0


@pytest.mark.parametrize("argv, count", [
    (("compact", "--space", "X"), 1),
    (("tychonoff", "--spaces", "X", "X"), 2),  # X once, then X*X
    (("tychonoff", "--spaces", "X", "Y"), 3),
])
def test_tychonoff_decides_each_factor_once(capsys, count_calls, argv, count):
    import fuzztop.filters as filters
    calls = count_calls(filters.enumerate_filters)
    code, _, _ = run(capsys, TWO, "--format", "machine", *argv)
    assert code == 0
    assert len(calls) == count


def test_machine_output_matches_recorded_digests(capsys):
    drift = {}
    for key, want in json.loads(DIGESTS.read_text()).items():
        spec, *cmd = key.split()
        code, out, _ = run(capsys, str(SPECS / spec), "--format", "machine",
                           *cmd)
        got = [code, hashlib.sha256(out.encode()).hexdigest()]
        if got != want:
            drift[key] = got
    assert not drift


def test_recorded_digests_cover_the_cli_workload_specs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import clitasks

    workload = {f"{spec} {' '.join(cmd)}"
                for spec, cmds in clitasks.FIXED.items() for cmd in cmds}
    assert set(json.loads(DIGESTS.read_text())) == workload


# ---- the machine writer ------------------------------------------------------

def every_command(path, filters=True, products=True):
    """Each command on each name the spec declares; the filter and
    compactness commands, and the products, only when asked for."""
    doc = parse_spec(Path(path).read_text(encoding="utf-8"))
    spaces = sorted(doc.spaces)
    cmds = [("validate", t) for t in (*DOC_BATTERIES, *SPACE_BATTERIES)]
    cmds += [("residuum",), ("coimpl",), ("classify",)]
    cmds += [("continuity", "--map", m) for m in sorted(doc.maps)]
    if filters:
        cmds += [("filters", "enumerate"), ("filters", "ultrafilters")]
        cmds += [c for f in sorted(doc.filters)
                 for c in (("filters", "check", "--filter", f),
                           ("saturate", "--filter", f))]
        cmds += [("compact", "--space", x) for x in spaces]
    if products:
        cmds += [(c, "--spaces", x, y) for c in ("product", "tychonoff")
                 for x in spaces for y in spaces]
    return cmds


@pytest.mark.parametrize("spec", sorted(SPECS.glob("*.spec"))
                         + [COTENSOR_BASE], ids=lambda p: p.name)
def test_machine_output_is_the_stdlib_encoding_on_every_command(capsys,
                                                                 spec):
    written = 0
    for cmd in every_command(spec):
        code, out, _ = run(capsys, str(spec), "--format", "machine", *cmd)
        assert code == 2 or out  # `run` compares each output with json
        written += bool(out)
    assert written


#: (lattice, points): the generated specs of the writer test
GENERATED = [(lat, m) for lat in ("chain2", "chain3", "chain4", "diamond",
                                  "pentagon") for m in (1, 2)]


@pytest.mark.parametrize("lattice, points", GENERATED,
                         ids=[f"{lat}-{m}pt" for lat, m in GENERATED])
def test_machine_output_is_the_stdlib_encoding_on_generated_specs(
        tmp_path, capsys, monkeypatch, lattice, points):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import clitasks

    n = len(clitasks.LATTICES[lattice][0])
    cells = n ** points * n
    tensors = ("godel", "lukasiewicz") if lattice.startswith("chain") \
        and lattice != "chain2" else ("godel",)
    written = 0
    for tensor in tensors:
        for variant in ("discrete", "indiscrete", "random0"):
            spec = tmp_path / f"{tensor}-{variant}.spec"
            spec.write_text(clitasks.spec_text(lattice, tensor, points,
                                               variant))
            # filters on at most 25 cells, products on at most 4 sets
            for cmd in every_command(spec, filters=cells <= 25,
                                     products=n ** points <= 4):
                code, out, _ = run(capsys, str(spec), "--format", "machine",
                                   *cmd)
                written += bool(out)
    assert written


@pytest.mark.parametrize("tree", [
    {}, [], {"a": {}}, [[]], {"a": [[], {}], "b": [{}]}, ({}, []),
    (1, 2), [(), (3, (4, 5))], {"t": (1, "x", (True,))},
    "plain", "caf\u00e9 \u2192 \U0001f600", "\x00\x1f\t\n\"\\/\x7f",
    {"\u00e9\n": ["\u00fc", "\r"]},
    True, False, None, [True, False, None], {"f": False, "n": None},
    [1, True, 0], -3, [-1, 0, 7], 2.5, [-0.5, 1e300, 0.1, -0.0],
    {"z": 1, "a": [1, [2, {"y": None, "b": 1.0}]], "m": "s"},
], ids=repr)
def test_the_writer_matches_json_dumps(tree):
    out = []
    _write_json(tree, out)
    assert "".join(out) == json.dumps(tree, sort_keys=True, indent=2)


def test_the_writer_refuses_what_json_refuses():
    for value in ({1, 2}, object(), b"bytes"):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            _write_json(value, [])


BOOL_HEADER = ("[lattice]\nelements = bot top\ncovers = bot<top\n\n"
               "[tensor]\nbot bot -> bot\nbot top -> bot\n"
               "top bot -> bot\ntop top -> top\n\n")


def run_cli(spec_path, *argv):
    """`python -m fuzztop.cli` in a subprocess: (exit code, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "fuzztop.cli",
                           str(spec_path), *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stderr


@pytest.mark.parametrize("points", ["x", "0", "-1", "2.5", ""])
def test_bad_points_value_exits_2(tmp_path, points):
    spec = tmp_path / "bad.spec"
    spec.write_text(BOOL_HEADER + f"[space A]\npoints = {points}\n")
    code, err = run_cli(spec, "validate", "topology")
    assert code == 2
    assert "Traceback" not in err
    assert "line 12" in err


def test_non_utf8_spec_exits_2(tmp_path):
    spec = tmp_path / "latin1.spec"
    spec.write_bytes(BOOL_HEADER.replace("bot", "b\xf6t").encode("latin-1"))
    code, err = run_cli(spec, "validate", "lattice")
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [("compact", "--space", "A"),
                                     ("product", "--spaces", "A", "A"),
                                     ("tychonoff", "--spaces", "A", "A")])
def test_invalid_topology_exits_2(tmp_path, command):
    # grade(empty set) = bot fails o1'; validate topology reports it too
    spec = tmp_path / "invalid.spec"
    spec.write_text(BOOL_HEADER + "[space A]\npoints = 1\n"
                    "grade f = bot -> bot\ngrade f = top -> top\n")
    code, err = run_cli(spec, *command)
    assert code == 2
    assert "Traceback" not in err
    assert "o1_prime" in err
    assert run_cli(spec, "validate", "topology")[0] == 1


def test_continuity_on_invalid_topology_exits_2(tmp_path):
    # X grades its empty set bot, failing o1'; the map is looked up first,
    # then both of its spaces are validated
    spec = tmp_path / "invalid_x.spec"
    text = (ROOT / "specs" / "two_spaces.spec").read_text()
    spec.write_text(text.replace("grade f = bot bot -> top",
                                 "grade f = bot bot -> bot"))
    code, err = run_cli(spec, "continuity", "--map", "collapse")
    assert code == 2
    assert "Traceback" not in err
    assert "space 'X'" in err and "o1_prime" in err
    assert run_cli(spec, "continuity", "--map", "nowhere")[1].endswith(
        "unknown map 'nowhere'\n")


def test_repeated_tensor_row_exits_2(tmp_path):
    # a second `top top` row used to replace the first, so cqm FAILed
    spec = tmp_path / "repeat.spec"
    spec.write_text(BOOL_HEADER.replace("top top -> top\n",
                                        "top top -> top\ntop top -> bot\n"))
    code, err = run_cli(spec, "validate", "cqm")
    assert code == 2
    assert "Traceback" not in err
    assert "line 10" in err


def test_parser_is_built_once(capsys, monkeypatch):
    argv = [LUK, "--format", "machine", "filters", "enumerate"]
    code1, out1, _ = run(capsys, *argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    with pytest.raises(SystemExit) as err:
        main([LUK, "validate", "bogus"])
    assert err.value.code == 2
    code2, out2, _ = run(capsys, *argv)
    assert built == []
    assert code1 == code2 == 0
    assert out1 == out2


def test_one_lattice_per_document(capsys, count_calls):
    import fuzztop.lattice as lattice
    calls = count_calls(lattice.build_lattice)
    code, _, _ = run(capsys, TWO, "tychonoff", "--spaces", "X", "Y")
    assert code == 0
    assert len(calls) == 1


def test_max_subsets_option_is_gone(tmp_path):
    # no axiom sweeps subsets any more, so there is no cap to set
    spec = tmp_path / "bool.spec"
    spec.write_text(BOOL_HEADER)
    code, err = run_cli(spec, "--max-subsets", "5", "validate", "lattice")
    assert code == 2
    assert "Traceback" not in err


def test_max_powerset_reaches_the_spec_parser(tmp_path, capsys):
    # an 8-point space over the 3-chain has 3**8 = 6561 fuzzy sets
    names = ("lo", "mid", "hi")
    lines = ["[lattice]", "elements = lo mid hi", "covers = lo<mid mid<hi",
             "", "[tensor]"]
    lines += [f"{names[a]} {names[b]} -> {names[min(a, b)]}"
              for a in range(3) for b in range(3)]
    lines += ["", "[space A]", "points = 8"]
    lines += ["grade f = " + " ".join(names[v] for v in values) + " -> hi"
              for values in itertools.product(range(3), repeat=8)]
    spec = tmp_path / "big.spec"
    spec.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, str(spec), "validate", "lattice")
    assert code == 2 and "6561 exceeds cap 4096" in err
    code, out, _ = run(capsys, str(spec), "--max-powerset", "10000",
                       "validate", "lattice")
    assert code == 0 and "[PASS]" in out


def test_cotensor_base_reaches_the_cotensor_path(tmp_path, capsys):
    base = str(COTENSOR_BASE)
    for command in (("coimpl",), ("validate", "co-glmonoid")):
        code, out, _ = run(capsys, base, "--format", "machine", *command)
        assert code == 0 and json.loads(out)["passed"]
    # a (+) b = b: not commutative, so no co-implication
    spec = tmp_path / "projection.spec"
    spec.write_text(COTENSOR_BASE.read_text().replace("top bot -> top",
                                                      "top bot -> bot", 1))
    code, _, err = run(capsys, str(spec), "coimpl")
    assert code == 2 and "triple" in err
    code, out, _ = run(capsys, str(spec), "--format", "machine", "validate",
                       "co-glmonoid")
    verdicts = json.loads(out)["reports"][0]["verdicts"]
    assert code == 1 and verdicts["commutative"]["status"] == "fail"


@pytest.mark.parametrize("command", [("coimpl",), ("compact", "--space", "X"),
                                     ("filters", "enumerate"),
                                     ("validate", "topology")])
def test_adjunction_failure_names_the_cotensor(tmp_path, capsys, command):
    # a (+) b = b: every command that builds the universe co-implies it
    spec = tmp_path / "projection.spec"
    spec.write_text(COTENSOR_BASE.read_text().replace("top bot -> top",
                                                      "top bot -> bot", 1))
    code, out, err = run(capsys, str(spec), "--format", "machine", *command)
    assert code == 2 and out == ""
    assert err == ("fuzztop: error: cotensor co-implication: adjunction "
                   "coi(c, b) <= a iff c <= a (+) b fails at triple (0,1,1)\n")


FUZZ_TOKENS = ["x", "0", "1", "2", "-1", "99999999999999", "=", "->", "@",
               "<", "bot", "top", "mid", "bot<top", "points", "grade", "f",
               "from", "to", "on", "point", "[space", "B]", "[map", "[filter",
               "[tensor]", "[cotensor]", "[lattice]", "#", "elements",
               "covers"]
FUZZ_COMMANDS = [("validate", "topology"), ("validate", "lattice"),
                 ("validate", "nbhd"), ("classify",), ("residuum",),
                 ("filters", "enumerate"), ("filters", "ultrafilters"),
                 ("filters", "check", "--filter", "principal0"),
                 ("saturate", "--filter", "principal0"),
                 ("compact", "--space", "X"), ("compact", "--space", "Y"),
                 ("product", "--spaces", "X", "Y"),
                 ("tychonoff", "--spaces", "X", "Y"),
                 ("continuity", "--map", "collapse"),
                 ("compact", "--space", "A"), ("saturate", "--filter", "F"),
                 ("continuity", "--map", "m"), ("coimpl",),
                 ("validate", "co-glmonoid")]


@st.composite
def mutated_specs(draw):
    """A repository spec or COTENSOR_BASE, without its comment lines, with
    lines dropped, tokens replaced, lines of random tokens inserted and
    lines repeated."""
    spec = draw(st.sampled_from(sorted(SPECS.glob("*.spec"))
                                + [COTENSOR_BASE]))
    lines = [line for line in spec.read_text().splitlines()
             if not line.startswith("#")]
    tokens = st.sampled_from(FUZZ_TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "replace", "insert", "repeat")))
        if kind == "drop":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "replace" and lines[k].split():
            toks = lines[k].split()
            toks[draw(st.integers(0, len(toks) - 1))] = draw(tokens)
            lines[k] = " ".join(toks)
        else:
            lines.insert(k, " ".join(draw(st.lists(tokens, max_size=5))))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def fuzz_spec(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.spec"


@settings(max_examples=100, deadline=None)
@given(text=mutated_specs(), command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_specs_keep_the_exit_contract(fuzz_spec, text, command):
    fuzz_spec.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(fuzz_spec), "--format", "machine", *command])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        assert_dumps_bytes(out.getvalue())
