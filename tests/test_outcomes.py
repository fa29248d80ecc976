"""The outcome map: how each solve across both problems' parameter ranges ends, with a
ratchet on ``tests/golden/outcomes.json``.

The cases are Stefan at S = 10^k for k = -320..308 in steps of 4, spreading on the q line
(H = 1, L = -q, q = 10^(j/4) for j = -52..12) and the 16 spreading pairs with L >= 0,
which have no solution. Each is solved with the problem's run settings,
``run_config(problem, scaling)`` at tol 1e-6. A converged s is ``right`` within 1e-6
relative of its oracle (the Neumann root, or -L/H) and ``wrong`` beyond it; a converged
no-solution case is ``no_solution_converged``. A failure is its status by name, an
InvalidParams is ``rejected`` and any other exception ``crash``.

No case may move into ``wrong``, ``no_solution_converged`` or ``crash``, and no case may
leave ``right``. Any other move is written into the file by the change that causes it:

    PYTHONPATH=src python tests/test_outcomes.py

rewrites the file, and refuses to while a move is one of the forbidden ones.
"""

import json
import sys
from collections import Counter
from pathlib import Path

from itmfree import (
    InvalidParams,
    SpreadingParams,
    StefanParams,
    make_spreading,
    make_stefan,
    neumann_eta_w,
    run_config,
    secant_solve,
)

OUTCOMES = Path(__file__).resolve().parent / "golden" / "outcomes.json"
JUDGE = 1e-6  # relative error of a right answer; never widened
BAD = ("wrong", "no_solution_converged", "crash")

CASES = [
    *[(f"stefan S=1e{k}", make_stefan, StefanParams, (float(f"1e{k}"),))
      for k in range(-320, 309, 4)],
    *[(f"spread H=1 L=-10^({j}/4)", make_spreading, SpreadingParams, (1.0, -10.0 ** (j / 4)))
      for j in range(-52, 13)],
    *[(f"spread H={H!r} L={L!r}", make_spreading, SpreadingParams, (H, L))
      for H in (0.1, 1.0, 10.0, 1e3) for L in (0.0, 0.5, 1.0, 10.0)],
]


def outcome(make, params, args):
    """(class, relative error of a converged s or None) of one case."""
    try:
        problem, scaling = make(params(*args))
        result = secant_solve(problem, scaling, run_config(problem, scaling, tol=JUDGE))
    except InvalidParams:
        return "rejected", None
    except Exception:
        return "crash", None
    if not result.converged:
        return result.status.value, None
    if params is SpreadingParams and args[1] >= 0.0:
        return "no_solution_converged", None
    exact = neumann_eta_w(*args) if params is StefanParams else -args[1] / args[0]
    error = abs(result.s - exact) / exact
    return ("right" if error <= JUDGE else "wrong"), error


def outcome_map():
    return {name: outcome(*case) for name, *case in CASES}


def moves(recorded, now):
    """(case, recorded class, new class, whether the move is forbidden) of each change."""
    return [(name, recorded.get(name), cls, cls in BAD or recorded.get(name) == "right")
            for name, (cls, _) in now.items() if recorded.get(name) != cls]


def recorded_classes():
    return {case["case"]: case["class"] for case in json.loads(OUTCOMES.read_text())["cases"]}


def test_outcome_map_only_ratchets():
    recorded, now = recorded_classes(), outcome_map()
    assert list(recorded) == list(now), "the case list differs from the recorded one"
    assert moves(recorded, now) == [], (
        "a move flagged True is forbidden; write any other into the file")


def write():
    now = outcome_map()
    forbidden = [m for m in moves(recorded_classes(), now) if m[3]] if OUTCOMES.exists() else []
    if forbidden:
        sys.exit("forbidden moves:\n" + "\n".join(map(str, forbidden)))
    counts = Counter(cls for cls, _ in now.values())
    rows = [json.dumps({"case": name, "class": cls,
                        **({"rel_err": float(f"{err:.3g}")} if cls == "wrong" else {})})
            for name, (cls, err) in now.items()]
    OUTCOMES.write_text(f'{{"judge": {JUDGE}, "counts": {json.dumps(dict(sorted(counts.items())))},'
                        f'\n "cases": [\n  ' + ",\n  ".join(rows) + "\n]}\n")


if __name__ == "__main__":
    write()
