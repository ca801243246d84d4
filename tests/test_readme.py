"""The README's library tour is a doctest session: a public-API change
that leaves it stale fails here."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
