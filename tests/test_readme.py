"""The README's library quick start runs and prints the values its comments quote."""

import contextlib
import io
import re
from pathlib import Path

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
