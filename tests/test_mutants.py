"""The mutation gate's list (tests/mutants.py) stays in step with the source:
every fragment a mutant replaces occurs exactly once. CI runs the mutants."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_each_mutant_fragment_occurs_once_in_the_source(mutant):
    assert mutants.matches(mutant) == 1
