"""Rewrite the golden outputs that ``tests/test_golden.py`` compares exactly.

Run from the repository root, on Linux:

    PYTHONPATH=src python tests/golden/regenerate.py

Each name in ``COMMANDS`` is a file holding the stdout of that ``itmfree``
command, run in-process, with ``wall_time_s`` masked. ``solves.json`` holds
``float.hex`` of s and h*, the iteration count and the status of the
benchmark's 61-case Stefan sweep and 30-case spreading grid, each solved
through the CLI's default path (``cli._solve``).

The script needs only the standard library and ``itmfree``, so CI also runs it
as the dependency-free check: on the bare interpreter, before anything is
installed, and with warnings as errors. That replay runs every command below
and every sweep and grid solve; on Linux, ``git diff --exit-code -- tests/golden``
then fails the job if any file changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from itmfree import cli
from itmfree.itm import ItmConfig

HERE = Path(__file__).resolve().parent
SOLVES = HERE / "solves.json"

COMMANDS: dict[str, list[str]] = {
    **{f"table_{which}.{ext}": ["table", which, "--format", fmt]
       for which in ("stefan", "spread")
       for fmt, ext in (("table", "txt"), ("csv", "csv"), ("json", "json"))},
    "stefan_trace.json": ["stefan", "--S", "1", "--format", "json", "--trace"],
    "spread_trace.json": ["spread", "--format", "json", "--trace"],
    "stefan_S1e-300_trace.json": ["stefan", "--S", "1e-300", "--format", "json", "--trace"],
    "spread_H0.1.json": ["spread", "--H", "0.1", "--format", "json"],  # singular, exit 4
    # the last iterate's values and a nested trace table, exit 2
    "stefan_max_iter_2_trace.txt": ["stefan", "--max-iter", "2", "--trace"],
    "stefan_explicit_step_h0.json": ["stefan", "--S", "0.2", "--steps", "50", "--h0", "3",
                                     "--format", "json"],
    "stefan_s_star_4.json": ["stefan", "--S", "1", "--s-star", "4", "--format", "json"],
    "spread_s_star_2.json": ["spread", "--s-star", "2", "--format", "json"],
    "profile_5.csv": ["profile", "--points", "5"],
    "profile_spread_1000.csv": ["profile", "--problem", "spread", "--points", "1000"],
    "reconstruct_t4.csv": ["reconstruct", "--t", "4"],
    "check_invariance.csv": ["check-invariance", "--n", "0", "--alpha", "0", "--format", "csv"],
}


def mask_wall_time(text: str) -> str:
    """``text`` with the value of ``wall_time_s``, a JSON or a human key, replaced by X."""
    return re.sub(r'(wall_time_s"?: )\S+', r"\1X", text)


def stdout_of(argv: list[str]) -> str:
    """The stdout of ``itmfree argv``, with ``wall_time_s`` masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return mask_wall_time(out.getvalue())


def solves() -> dict[str, list[dict]]:
    """The bits of every sweep and grid solve, as ``solves.json`` holds them."""
    opts = ItmConfig._field_defaults

    def bits(command: str, params: dict[str, float]) -> dict:
        result = cli._solve(cli.PROBLEMS[command], {**opts, **params})[3]
        return {**params, "status": result.status.value, "s": result.s.hex(),
                "h_star": result.h_star.hex(), "iterations": result.iterations}

    return {
        "stefan_sweep": [bits("stefan", {"S": 10.0 ** (k / 10)}) for k in range(-30, 31)],
        "spread_grid": [bits("spread", {"H": H, "L": L})
                        for H in (0.1, 0.25, 0.5, 1.0, 2.0)
                        for L in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)],
    }


def main() -> None:
    for name, argv in COMMANDS.items():
        (HERE / name).write_text(stdout_of(argv))
    # one case per line, so a diff of the file names the cases that moved
    SOLVES.write_text("{\n" + ",\n".join(
        f'"{group}": [\n' + ",\n".join(map(json.dumps, cases)) + "\n]"
        for group, cases in solves().items()) + "\n}\n")


if __name__ == "__main__":
    main()
