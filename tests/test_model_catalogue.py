"""Only `tests/models.py` builds test models: no other test module calls
`Ground(...)` or `Universe(...)`, save the functions of `ALLOWED`, each with
its reason.  An entry that no longer makes such a call fails too."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
BUILDERS = {"Ground", "Universe"}

POWERSET = "enumerate_powerset takes a lattice and a Ground, not a universe"
#: (module, function) that may call a builder, each with its reason
ALLOWED = {
    ("test_powerset.py", "test_powerset_enumeration_count"): POWERSET,
    ("test_powerset.py", "test_powerset_is_lexicographic"): POWERSET,
    ("test_powerset.py", "test_powerset_cap_enforced"):
        "Ground sizes far beyond any model, refused by the powerset cap",
    ("test_powerset.py",
     "test_powerset_cap_refuses_by_bit_length_at_the_boundary"):
        "a Ground at the cap's bit-length boundary",
    ("test_powerset.py", "test_universe_rejects_a_non_commutative_tensor"):
        "Universe validation: the tensor is refused, so no model can hold it",
    ("test_powerset.py",
     "test_universe_rejects_an_operation_over_another_lattice"):
        "Universe validation: a tensor or cotensor over another lattice",
    ("test_powerset.py",
     "test_ground_rejects_a_size_that_is_not_a_positive_int"):
        "Ground validation: sizes that are not positive ints",
    ("test_contracts.py", "ground_sizes"):
        "Ground validation: the contract sweep's malformed sizes",
    ("test_contracts.py", "universe_operations"):
        "Universe validation: the contract sweep's operations over another "
        "lattice",
    ("test_compactness.py",
     "test_product_takes_equal_tensors_held_in_other_containers"):
        "a tensor table of lists on the very lattice of another factor",
}


def builder_calls():
    """(module, outermost function) of each builder call outside the
    catalogue."""
    found = set()
    for path in sorted(TESTS.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "models.py" or not any(b in text for b in BUILDERS):
            continue
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in BUILDERS:
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_only_the_catalogue_builds_models():
    found = builder_calls()
    assert sorted(found - set(ALLOWED)) == []
    # an entry whose function no longer builds, or is gone
    assert sorted(set(ALLOWED) - found) == []

