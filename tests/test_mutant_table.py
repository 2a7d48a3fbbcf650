"""The hand-run mutant table in tests/mutants.py stays in step with src/."""

from mutants import MUTANTS, ROOT, fragment_counts


def test_every_fragment_occurs_exactly_once_in_src():
    assert fragment_counts() == {mutant.name: 1 for mutant in MUTANTS}


def test_every_mutant_is_named_once_and_names_existing_test_files():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert mutant.fragment != mutant.replacement
        assert (ROOT / "src" / "knotsurgery" / mutant.path).is_file()
        assert mutant.kill
        assert all((ROOT / node.split("::")[0]).is_file() for node in mutant.kill)
