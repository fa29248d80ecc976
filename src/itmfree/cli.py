"""Command-line front-end.

Subcommands: ``stefan`` and ``spread`` run a single solve and report one
result block, with the same keys for both, against the available references;
``table`` reruns the tabulated parameter sets; ``profile`` and ``reconstruct``
emit plain CSV of the solve's own similarity profile and its physical-variable
image at a given time; ``check-invariance`` prints scaling-group residuals.

Every problem subcommand takes its parameters and references from one
``ProblemSpec`` in ``PROBLEMS`` and its run settings from ``run_config``.
Commands return their exit code and output text; ``main`` alone writes it,
so a failed run leaves ``--out`` untouched. Every output is a dict or a list
of row dicts written by ``_emit``, whose JSON has null for a nan or inf.

Exit codes: 0 success, 2 non-convergence, 3 invalid parameters, a usage
error or an ``--out`` that cannot be opened, 4 singular integration; a solve
that does not converge also says why on stderr.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from collections import namedtuple
from collections.abc import Callable, Sequence

from .errors import InvalidParams
from .itm import ItmConfig, ItmResult, ItmStatus, run_config, secant_solve, solution_profile
from .ivp import SolutionProfile
from .problems import (STEFAN_GUESSES, SpreadingParams, StefanParams, make_spreading,
                       make_stefan, spreading_exponents, stefan_exponents)
from .reference import ASYMPTOTIC_ETA_W, exact_spreading, neumann_eta_w
from .similarity import (OriginKind, SimilarityExponents, check_invariance,
                         gamma_from_alpha, reconstruct_physical)

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_PARAMS = 3
EXIT_SINGULAR = 4

Output = tuple[int, str | None]  # exit code, text to emit (None on failure)
_MAX_POINTS = 10 ** 5  # profile rows: 10^5 take about 0.7 s and 90 MB, 10^6 10 s and 760 MB


class ProblemSpec(namedtuple("ProblemSpec", "help params build references exponents rows row")):
    """One bundled problem as the CLI sees it: ``params`` maps each flag name to
    its (default, help), and ``rows`` holds the tabulated runs as flag overrides.
    The callables resolve library functions as module globals at call time, so
    rebinding them on this module (to trace or profile) reaches every call."""

    __slots__ = ()


def _stefan_references(p: dict[str, float], result: ItmResult) -> dict[str, float]:
    root = neumann_eta_w(p["S"])
    refs = {"neumann_eta_w": root, "delta_neumann": result.s - root}
    if p["S"] in ASYMPTOTIC_ETA_W:
        asym = ASYMPTOTIC_ETA_W[p["S"]]
        refs.update(asymptotic_eta_w=asym, delta_asymptotic=result.s - asym)
    return refs


def _stefan_row(p: dict[str, float], config: ItmConfig, r: ItmResult) -> dict[str, object]:
    asym = ASYMPTOTIC_ETA_W[p["S"]]
    return {"S": p["S"], "h_star": r.h_star, "dU0": r.dw0, "eta_w": r.s,
            "eta_w_asymptotic": asym, "delta": r.s - asym}


def _spread_references(p: dict[str, float], result: ItmResult) -> dict[str, float]:
    H, L = p["H"], p["L"]
    if not (H > 0.0 and L < 0.0):  # L >= 0 has no solution, H < 0 no closed form
        return {}
    exact_u0, exact_eta_w = exact_spreading(0.0, H, L).w, -L / H
    return {"exact_U0": exact_u0, "exact_eta_w": exact_eta_w,
            "delta_U0": result.w0 - exact_u0, "delta_eta_w": result.s - exact_eta_w}


PROBLEMS: dict[str, ProblemSpec] = {
    "stefan": ProblemSpec(
        help="solve the one-phase Stefan problem",
        params={"S": (1.0, "inverse Stefan number")},
        build=lambda p: make_stefan(StefanParams(**p)),
        references=_stefan_references,
        exponents=stefan_exponents,
        rows=tuple({"S": S, "h0": h0, "h1": h1} for S, (h0, h1) in STEFAN_GUESSES.items()),
        row=_stefan_row,
    ),
    "spread": ProblemSpec(
        help="solve the viscous spreading problem",
        params={"H": (0.5, "fluid height at the front"), "L": (-0.5, "slope constant")},
        build=lambda p: make_spreading(SpreadingParams(**p)),
        references=_spread_references,
        exponents=spreading_exponents,
        rows=({"s_star": 0.5}, {"s_star": 1.0, "steps": 2000, "h0": 0.5, "h1": 0.1}),
        row=lambda p, config, r: {
            "s_star": config.s_star, "gamma0": r.trace[0].gamma_val,
            "gamma1": r.trace[1].gamma_val, "h_star": r.h_star, "U0": r.w0,
            "eta_w": r.s, "delta": r.s - 1.0},
    ),
}


def _cell(v: object) -> str:
    """The one float format of CSV and human output: 9 significant digits; a
    missing value (None, JSON's null) is empty."""
    if v is None:
        return ""
    return format(v, ".9g") if isinstance(v, float) else str(v)


def _flatten(d: dict[str, object], prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for k, v in d.items():
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{prefix}{k}."))
        elif not isinstance(v, list):  # traces are not flattened into single-row CSV
            flat[f"{prefix}{k}"] = v
    return flat


def _grid(rows: list[dict[str, object]]) -> list[list[str]]:
    """The header and the formatted cells of a list of row dicts."""
    return [list(rows[0])] + [[_cell(v) for v in row.values()] for row in rows]


def _human(doc: object, indent: str = "") -> str:
    """A list of row dicts as right-aligned columns (an empty list prints
    nothing); a dict as ``key: value`` lines, each nested dict or list under a
    ``key:`` heading."""
    if isinstance(doc, list):
        grid = _grid(doc) if doc else []
        widths = [max(map(len, column)) for column in zip(*grid)]
        return "".join(indent + "  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n"
                       for line in grid)
    text = ""
    for key, value in doc.items():
        if isinstance(value, (dict, list)):
            text += f"{indent}{key}:\n" + _human(value, indent + "  ")
        else:
            text += f"{indent}{key}: {_cell(value)}\n"
    return text


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _quoted(cell: str) -> str:
    """A CSV cell as RFC 4180 writes it: quoted, inner quotes doubled, only
    when it holds a comma, a quote or a line break."""
    if _NEEDS_QUOTES(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv(grid: list[list[str]]) -> str:
    """The CSV text of a header and its rows of formatted cells."""
    return "".join(",".join(map(_quoted, line)) + "\n" for line in grid)


def _emit(doc: object, fmt: str) -> str:
    """The one writer: a report dict or a list of row dicts in ``fmt``."""
    if fmt == "json":  # RFC 8259 JSON has no NaN or Infinity: the reparse makes each one null
        import json  # here, not at the top: loading it costs every CSV or table run

        strict = json.loads(json.dumps(doc), parse_constant=lambda _: None)
        return json.dumps(strict, indent=2) + "\n"
    if fmt == "table":
        return _human(doc)
    return _csv(_grid(doc if isinstance(doc, list) else [_flatten(doc)]))


def _solve(spec: ProblemSpec, opts: dict[str, object]):
    """Build the problem from ``opts`` (parsed flags plus overrides) and solve it; an
    absent or None flag takes the spec's parameter default or the problem's run setting.
    Returns the built (problem, scaling) pair, the params, the config and the result."""
    params = {k: default if opts.get(k) is None else opts[k]
              for k, (default, _) in spec.params.items()}
    problem, scaling = built = spec.build(params)
    settings = {k: opts.get(k) for k in ("s_star", "steps", "h0", "h1")}
    if opts.get("points"):  # n: the smallest multiple of --points not below the problem's steps
        settings["steps"] = -(-problem.steps // opts["points"]) * opts["points"]
    config = run_config(problem, scaling, tol=opts["tol"], max_iter=opts["max_iter"], **settings)
    return built, params, config, secant_solve(problem, scaling, config)


def _failed(result: ItmResult, what: str) -> int:
    """Print the stderr line of a solve that did not converge; returns its exit code."""
    detail = f": {result.message}" if result.message else ""
    print(f"error: {what} did not converge: {result.status.value}{detail}", file=sys.stderr)
    return EXIT_SINGULAR if result.status is ItmStatus.SINGULAR_INTEGRATION else EXIT_NO_CONVERGENCE


def cmd_solve(args: argparse.Namespace) -> Output:
    spec = PROBLEMS[args.command]
    t0 = time.perf_counter()
    _, params, config, result = _solve(spec, vars(args))
    elapsed = time.perf_counter() - t0
    fields = {"status": result.status.value, "omega": result.omega, "h_star": result.h_star,
              "eta_w": result.s, "U0": result.w0, "dU0": result.dw0,
              **{k: getattr(result, k) for k in ("iterations", "message", "abscissa")}}
    if args.trace:
        fields["trace"] = [{"j": j, "h_star": it.h_star, "gamma": it.gamma_val, "omega": it.omega,
                            "s_j": it.s_j} for j, it in enumerate(result.trace)]
    report = {"problem": args.command, "params": params, "config": config._asdict(),
              "result": fields, "references": spec.references(params, result),
              "wall_time_s": elapsed}
    code = _failed(result, "solve") if not result.converged else EXIT_OK
    return code, _emit(report, args.format)


def cmd_table(args: argparse.Namespace) -> Output:
    spec = PROBLEMS[args.which]
    rows = []
    for override in spec.rows:
        _, params, config, result = _solve(spec, {**vars(args), **override})
        if not result.converged:
            return _failed(result, "row " + ",".join(f"{k}={v}" for k, v in override.items())), None
        rows.append(spec.row(params, config, result))
    return EXIT_OK, _emit(rows, args.format)


def cmd_profile(args: argparse.Namespace) -> Output:
    """``profile`` and ``reconstruct``: every (n/points)-th node of the converged
    solve's last iterate, in similarity or physical variables."""
    if not 1 <= args.points <= _MAX_POINTS:  # the solve takes n >= points RK4 steps
        raise InvalidParams(f"points must lie in [1, {_MAX_POINTS}], got {args.points}")
    if args.command == "reconstruct" and not 0.0 < args.t < math.inf:
        raise InvalidParams(f"t must be positive and finite, got {args.t}")
    spec = PROBLEMS[args.problem]
    for other in PROBLEMS.values():
        for flag in other.params:
            if flag not in spec.params and getattr(args, flag) is not None:
                raise InvalidParams(f"--{flag} is not a parameter of {args.problem}")
    (problem, scaling), _, config, result = _solve(spec, vars(args))
    if not result.converged:
        return _failed(result, "solve"), None
    full = solution_profile(problem, scaling, config, result)
    k = (len(full) - 1) // args.points  # the solve took n = k * points steps
    prof = SolutionProfile(full.eta[::k], full.u[::k], full.du[::k])
    header, columns = ("eta", "U", "dU"), (prof.eta, prof.u, prof.du)
    if args.command == "reconstruct":
        phys = reconstruct_physical(prof, spec.exponents(), result.s, args.t)
        header, columns = ("x", "u", "du_dx"), (phys.x, phys.u, phys.du_dx)
    return EXIT_OK, _emit([dict(zip(header, row)) for row in zip(*columns)], "csv")


def cmd_check_invariance(args: argparse.Namespace) -> Output:
    gamma = args.gamma if args.gamma is not None else gamma_from_alpha(args.n, args.alpha)
    residuals = check_invariance(SimilarityExponents(
        n=args.n, alpha=args.alpha, gamma=gamma, coefficient=args.coefficient,
        origin_kind=OriginKind(args.origin), beta=args.beta))
    report = {"n": args.n, "alpha": args.alpha, "beta": args.beta, "gamma": gamma,
              "pde_residual": residuals[0], "origin_residual": residuals[1],
              "invariant": all(abs(r) < 1e-12 for r in residuals)}
    return EXIT_OK, _emit(report, args.format)


_FLAGS: dict[str, dict[str, object]] = {
    "--format": dict(choices=["table", "csv", "json"], default="table"),
    "--tol": dict(type=float, default=ItmConfig._field_defaults["tol"]),
    "--max-iter": dict(type=int, default=ItmConfig._field_defaults["max_iter"]),
    "--trace": dict(action="store_true"),
    "--out": dict(type=str, default=None),
    # solver flags; None resolves to the problem's default
    "--s-star": dict(type=float, default=None),
    "--steps": dict(type=int, default=None),
    "--h0": dict(type=float, default=None),
    "--h1": dict(type=float, default=None),
    "--problem": dict(choices=list(PROBLEMS), default="stefan"),
    "--points": dict(type=int, default=100),
}
_SOLVE_FLAGS = ("--out", "--tol", "--max-iter", "--s-star", "--h0", "--h1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itmfree",
        description="Free boundary ODE problems via the iterative transformation method.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, func: Callable, *flags: str, specs=()):
        p = sub.add_parser(name, help=help_, allow_abbrev=False)  # --step is not --steps
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        for spec in specs:
            for flag, (_, flag_help) in spec.params.items():
                p.add_argument(f"--{flag}", type=float, help=flag_help)
        return p

    for name, spec in PROBLEMS.items():
        add(name, spec.help, cmd_solve, "--format", "--trace", "--steps", *_SOLVE_FLAGS,
            specs=[spec])
    p = add("table", "rerun the tabulated parameter sets", cmd_table,
            "--format", "--out", "--tol", "--max-iter")
    p.add_argument("which", choices=list(PROBLEMS))
    add("profile", "emit the similarity profile as CSV", cmd_profile,
        "--problem", "--points", *_SOLVE_FLAGS, specs=PROBLEMS.values())
    p = add("reconstruct", "emit the physical profile at time t as CSV", cmd_profile,
            "--problem", "--points", *_SOLVE_FLAGS, specs=PROBLEMS.values())
    p.add_argument("--t", type=float, required=True)
    p = add("check-invariance", "scaling-group residuals", cmd_check_invariance,
            "--format", "--out")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--coefficient", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--origin", choices=[k.value for k in OriginKind], default="dirichlet")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error, exit 2, would read as non-convergence
        return EXIT_INVALID_PARAMS if exc.code else EXIT_OK
    try:
        code, text = args.func(args)
    except InvalidParams as exc:  # every other failure is a solve's status
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    if text is not None:
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                out = open(args.out, "w")
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
                return EXIT_INVALID_PARAMS
            with out:
                out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
