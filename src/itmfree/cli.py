"""Command-line front-end.

Subcommands: ``stefan`` and ``spread`` run a single solve and report the
recovered values against the available references; ``table`` reruns the
tabulated parameter sets; ``profile`` and ``reconstruct`` emit CSV data for
the similarity profile and for its physical-variable image at a given time;
``check-invariance`` prints scaling-group residuals.

Every problem subcommand reads its flags, defaults and references from one
``ProblemSpec`` in ``PROBLEMS``. Commands return their exit code and output
text; ``main`` alone writes it, so a failed run leaves ``--out`` untouched.

Exit codes: 0 success, 2 non-convergence, 3 invalid parameters,
4 singular integration; a solve that does not converge also says why on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from typing import Any, Callable, Optional, Sequence

from .errors import InvalidParams, SingularRhs
from .itm import ItmConfig, ItmResult, ItmStatus, original_profile, secant_solve
from .problems import (STEFAN_GUESSES, SpreadingParams, StefanParams, make_spreading,
                       make_stefan, spreading_exponents, stefan_default_guesses,
                       stefan_exponents)
from .reference import ASYMPTOTIC_ETA_W, asymptotic_eta_w, exact_spreading, neumann_eta_w
from .similarity import (OriginKind, SimilarityExponents, check_invariance,
                         gamma_from_alpha, reconstruct_physical)

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_PARAMS = 3
EXIT_SINGULAR = 4

_STATUS_EXIT = {
    ItmStatus.CONVERGED: EXIT_OK,
    ItmStatus.MAX_ITER_EXCEEDED: EXIT_NO_CONVERGENCE,
    ItmStatus.OMEGA_NON_POSITIVE: EXIT_NO_CONVERGENCE,
    ItmStatus.SINGULAR_INTEGRATION: EXIT_SINGULAR,
    ItmStatus.SECANT_BREAKDOWN: EXIT_NO_CONVERGENCE,
}

Output = tuple[int, Optional[str]]  # exit code, text to emit (None on failure)


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """One bundled problem as the CLI sees it. The callables resolve library
    functions as module globals at call time, so rebinding them on this
    module (to trace or profile) reaches every call."""

    help: str
    params: dict[str, tuple[float, str]]     # flag name -> (default, help)
    build: Callable[[dict[str, float]], tuple]
    step: float
    guesses: Callable[[dict[str, float]], tuple[float, float]]
    outputs: tuple[tuple[str, str], ...]     # report key -> ItmResult attribute
    references: Callable[[dict[str, float], ItmResult], dict[str, float]]
    exponents: Callable[[], SimilarityExponents]
    rows: tuple[dict[str, float], ...]       # tabulated runs as flag overrides
    row: Callable[[dict[str, float], ItmConfig, ItmResult], dict[str, Any]]


def _stefan_references(p: dict[str, float], result: ItmResult) -> dict[str, float]:
    root = neumann_eta_w(p["S"])
    refs = {"neumann_eta_w": root, "delta_neumann": result.s - root}
    if p["S"] in ASYMPTOTIC_ETA_W:
        asym = asymptotic_eta_w(p["S"])
        refs.update(asymptotic_eta_w=asym, delta_asymptotic=result.s - asym)
    return refs


def _stefan_row(p: dict[str, float], config: ItmConfig, r: ItmResult) -> dict[str, Any]:
    asym = asymptotic_eta_w(p["S"])
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
        step=1e-3,
        guesses=lambda p: stefan_default_guesses(p["S"]),
        outputs=(("eta_w", "s"), ("dU0", "dw0")),
        references=_stefan_references,
        exponents=stefan_exponents,
        rows=tuple({"S": S} for S in STEFAN_GUESSES),
        row=_stefan_row,
    ),
    "spread": ProblemSpec(
        help="solve the viscous spreading problem",
        params={"H": (0.5, "fluid height at the front"), "L": (-0.5, "slope constant")},
        build=lambda p: make_spreading(SpreadingParams(**p)),
        step=5e-4,
        guesses=lambda p: (0.5, 0.1),
        outputs=(("eta_w", "s"), ("U0", "w0")),
        references=_spread_references,
        exponents=spreading_exponents,
        rows=({"s_star": 0.5}, {"s_star": 1.0}),
        row=lambda p, config, r: {
            "s_star": config.s_star, "gamma0": r.trace[0].gamma_val,
            "gamma1": r.trace[1].gamma_val, "h_star": r.h_star, "U0": r.w0,
            "eta_w": r.s, "delta": r.s - 1.0},
    ),
}


def _g9(x: float) -> str:
    """Machine-readable float: 9 significant digits."""
    return format(x, ".9g")


def _human(v: Any) -> str:
    return format(v, ".6f") if isinstance(v, float) else str(v)


def _csv_cell(v: Any) -> str:
    return _g9(v) if isinstance(v, float) else str(v)


def _flatten(d: dict[str, Any], prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for k, v in d.items():
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{prefix}{k}."))
        elif not isinstance(v, list):  # traces are not flattened into single-row CSV
            flat[f"{prefix}{k}"] = v
    return flat


def _emit_report(report: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        flat = _flatten(report)
        return ",".join(flat) + "\n" + ",".join(_csv_cell(v) for v in flat.values()) + "\n"
    lines = []
    for key, value in report.items():
        if key == "result" and isinstance(value, dict):
            lines += [f"  {k:<12} {_human(v)}" for k, v in value.items() if k != "trace"]
            if value.get("trace"):
                lines += ["  trace:", f"    {'j':>3} {'h_star':>15} {'gamma':>15} {'s_j':>12}"]
                lines += [f"    {it['j']:>3} {it['h_star']:>15.6f} "
                          f"{it['gamma']:>15.6e} {it['s_j']:>12.6f}" for it in value["trace"]]
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            lines += [f"  {k:<12} {_human(v)}" for k, v in value.items()]
        else:
            lines.append(f"{key}: {_human(value)}")
    return "".join(line + "\n" for line in lines)


def _emit_rows(rows: list[dict[str, Any]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    keys = list(rows[0])
    if fmt == "csv":
        lines = [",".join(keys)] + [",".join(_csv_cell(row[k]) for k in keys) for row in rows]
    else:
        widths = {k: max(len(k), 12) for k in keys}
        lines = [" ".join(f"{k:>{widths[k]}}" for k in keys)] + [
            " ".join(f"{_human(row[k]):>{widths[k]}}" for k in keys) for row in rows]
    return "".join(line + "\n" for line in lines)


def _emit_columns(header: str, columns: Sequence[Sequence[float]]) -> str:
    return header + "".join(",".join(_g9(v) for v in row) + "\n" for row in zip(*columns))


def _solve(spec: ProblemSpec, opts: dict[str, Any]):
    """Build the problem from ``opts`` (parsed flags plus overrides) and solve it;
    flags that are absent or None take the spec's defaults."""
    def opt(key: str, default: Any) -> Any:
        value = opts.get(key)
        return default if value is None else value

    params = {k: opt(k, default) for k, (default, _) in spec.params.items()}
    problem, scaling = spec.build(params)
    h0, h1 = opts.get("h0"), opts.get("h1")
    if h0 is None or h1 is None:
        d0, d1 = spec.guesses(params)
        h0, h1 = opt("h0", d0), opt("h1", d1)
    config = ItmConfig(s_star=opt("s_star", 0.5), step=opt("step", spec.step),
                       h0=h0, h1=h1, tol=opts["tol"], max_iter=opts["max_iter"])
    return problem, params, config, secant_solve(problem, scaling, config)


def _failed(result: ItmResult, what: str) -> int:
    """Print the stderr line of a solve that did not converge; returns its exit code."""
    detail = f": {result.message}" if result.message else ""
    print(f"error: {what} did not converge: {result.status.value}{detail}", file=sys.stderr)
    return _STATUS_EXIT[result.status]


def cmd_solve(args: argparse.Namespace) -> Output:
    spec = PROBLEMS[args.command]
    t0 = time.perf_counter()
    _, params, config, result = _solve(spec, vars(args))
    elapsed = time.perf_counter() - t0
    fields = {"status": result.status.value, **{k: getattr(result, k) for k in (
        "omega", "h_star", "s", "w0", "dw0", "iterations", "message", "abscissa")}}
    if args.trace:
        fields["trace"] = [{"j": it.j, "h_star": it.h_star, "gamma": it.gamma_val,
                            "omega": it.omega, "s_j": it.s_j} for it in result.trace]
    fields.update((key, getattr(result, attr)) for key, attr in spec.outputs)
    report = {"problem": args.command, "params": params, "config": dataclasses.asdict(config),
              "result": fields, "references": spec.references(params, result),
              "wall_time_s": elapsed}
    code = _failed(result, "solve") if not result.converged else EXIT_OK
    return code, _emit_report(report, args.format)


def cmd_table(args: argparse.Namespace) -> Output:
    spec = PROBLEMS[args.which]
    rows = []
    for override in spec.rows:
        _, params, config, result = _solve(spec, {**vars(args), **override})
        if not result.converged:
            return _failed(result, "row " + ",".join(f"{k}={v}" for k, v in override.items())), None
        rows.append(spec.row(params, config, result))
    return EXIT_OK, _emit_rows(rows, args.format)


def cmd_profile(args: argparse.Namespace) -> Output:
    """``profile`` and ``reconstruct``: the converged profile, in similarity or
    physical variables."""
    if args.points < 1:
        raise InvalidParams(f"points must be at least 1, got {args.points}")
    if args.command == "reconstruct" and not 0.0 < args.t < math.inf:
        raise InvalidParams(f"t must be positive and finite, got {args.t}")
    spec = PROBLEMS[args.problem]
    problem, _, _, result = _solve(spec, vars(args))
    if not result.converged:
        return _failed(result, "solve"), None
    prof = original_profile(problem, result.s, args.points)
    if args.command == "profile":
        return EXIT_OK, _emit_columns("eta,U,dU\n", (prof.eta, prof.u, prof.du))
    phys = reconstruct_physical(prof, spec.exponents(), result.s, args.t)
    return EXIT_OK, _emit_columns(f"# t={_g9(args.t)} x_w={_g9(phys.x_w)}\nx,u,du_dx\n",
                                  (phys.x, phys.u, phys.du_dx))


def cmd_check_invariance(args: argparse.Namespace) -> Output:
    gamma = args.gamma if args.gamma is not None else gamma_from_alpha(args.n, args.alpha)
    residuals = check_invariance(SimilarityExponents(
        n=args.n, alpha=args.alpha, gamma=gamma, coefficient=args.coefficient,
        origin_kind=OriginKind(args.origin), beta=args.beta))
    report = {"n": args.n, "alpha": args.alpha, "beta": args.beta, "gamma": gamma,
              "pde_residual": residuals[0], "origin_residual": residuals[1],
              "invariant": all(abs(r) < 1e-12 for r in residuals)}
    if args.format == "table":
        return EXIT_OK, "".join(f"{k}: {v}\n" for k, v in report.items())
    return EXIT_OK, _emit_report(report, args.format)


_FLAGS: dict[str, dict[str, Any]] = {
    "--format": dict(choices=["table", "csv", "json"], default="table"),
    "--tol": dict(type=float, default=1e-6),
    "--max-iter": dict(type=int, default=50),
    "--trace": dict(action="store_true"),
    "--out": dict(type=str, default=None),
    # solver flags; None resolves to the problem's default
    "--s-star": dict(type=float, default=None),
    "--step": dict(type=float, default=None),
    "--h0": dict(type=float, default=None),
    "--h1": dict(type=float, default=None),
    "--problem": dict(choices=list(PROBLEMS), default="stefan"),
    "--points": dict(type=int, default=100),
}
_SOLVE_FLAGS = ("--out", "--tol", "--max-iter", "--s-star", "--step", "--h0", "--h1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itmfree",
        description="Free boundary ODE problems via the iterative transformation method.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, func: Callable, *flags: str, specs=()):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        for spec in specs:
            for flag, (default, flag_help) in spec.params.items():
                p.add_argument(f"--{flag}", type=float, default=default, help=flag_help)
        return p

    for name, spec in PROBLEMS.items():
        add(name, spec.help, cmd_solve, "--format", "--trace", *_SOLVE_FLAGS, specs=[spec])
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
    except (InvalidParams, SingularRhs) as exc:  # a rejected input, or a singular profile
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS if isinstance(exc, InvalidParams) else EXIT_SINGULAR
    if text is not None:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as out:
                out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
