"""The README's examples run as written, and its plug-in list names every field."""

import contextlib
import dataclasses
import io
import re
import shlex
from pathlib import Path

import pytest

from itmfree import ReducedFreeBvp, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_the_quoted_values():
    code = _quick_start()
    quoted = re.findall(r"^print\(.*#.*≈ (\S+)$", code, re.M)
    assert len(quoted) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert len(printed) == len(quoted)
    for value, figure in zip(printed, quoted):
        # the quoted figure is the printed value rounded to its last digit
        half_unit = 0.5 * 10.0 ** -len(figure.split(".")[1])
        assert abs(value - float(figure)) <= half_unit, (value, figure)


def _cli_lines() -> list[str]:
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("itmfree ")]


def test_cli_block_is_found():
    assert _cli_lines()  # an empty parametrization would pass unseen


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `--out` writes here
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_plug_in_list_names_every_field():
    section = README.read_text().split("New problems plug in through", 1)[1]
    section = section.split("`ExtendedScaling` holds", 1)[0]
    for f in dataclasses.fields(ReducedFreeBvp):
        assert re.search(rf"`{f.name}[`(]", section), f.name
