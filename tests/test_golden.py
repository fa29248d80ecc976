"""Golden outputs: the CLI's stdout and the bits of the sweep and grid solves,
compared exactly with the files in ``tests/golden/``.

These files pin regressions, not accuracy. The oracles stay the judge, and the
published ``TABLE1``/``TABLE2`` constraint in ``test_acceptance.py`` is
unchanged by them. A change that moves bits on purpose reruns
``tests/golden/regenerate.py`` and names each changed file, and why, in
CHANGES.md; the diff of the files then shows the change.

The solves call libm's exp, log, log1p and pow, so the files are compared on
Linux, where they are generated, and skipped elsewhere.

CI also replays ``regenerate.py`` itself on the bare interpreter, before the
test dependencies are installed, and on Linux fails if ``git diff`` then shows
a changed file: the same comparison, with no pytest, numpy or hypothesis.
"""

import json
import sys

import pytest

from golden import regenerate

pytestmark = pytest.mark.skipif(
    sys.platform != "linux",
    reason="the golden bits come from glibc's libm; another libm may round exp, log, "
           "log1p or pow differently in the last bit")


@pytest.mark.parametrize("name", list(regenerate.COMMANDS))
def test_cli_stdout_matches_its_golden_file(name):
    expected = (regenerate.HERE / name).read_text()
    assert regenerate.stdout_of(regenerate.COMMANDS[name]) == expected


def test_solve_bits_match_the_golden_file():
    assert regenerate.solves() == json.loads(regenerate.SOLVES.read_text())
