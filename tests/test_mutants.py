"""The mutant list of `tests/mutants.py` stays applicable to the source it mutates."""
from __future__ import annotations

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("number", range(1, len(MUTANTS) + 1))
def test_each_old_text_occurs_once_in_its_module(number):
    mutant = MUTANTS[number - 1]
    text = (ROOT / "src" / "revcirc" / mutant.module).read_text()
    assert text.count(mutant.old) == 1, mutant
    assert mutant.new != mutant.old and mutant.why
    assert all((ROOT / test).is_file() for test in mutant.tests), mutant
