"""Command-line interface.

Subcommands:

  validate    <scenario>                    check well-posedness, exit 1 on violations
  derive      <scenario> [--output DIR]     emit beta/xi/gamma tables and the coupling matrix
  solve       <scenario> [--output FILE]    solve for the equilibrium, emit the result JSON
  certify     <scenario> <result>           independently verify a solved result
  welfare     <scenario> <result>           social cost, optimal efforts, price of anarchy
  sweep-alpha <scenario> --alphas A,B,...   rescaled-coupling sweep (CSV)
  simulate    <scenario> <result> --rounds N --seed S   realized rounds (CSV)
  generate    --n N --m M [...]             seeded random scenario document

Exit codes: 0 success, 1 validation/input failure, 2 solver or certification
failure, 3 usage error.  Primary outputs are byte-identical across runs with
identical inputs and seeds; human-readable summaries go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import results as reports
from .equilibrium import (
    STATUS_NONE,
    alpha_sweep,
    certify_equilibrium,
    solve_bounded,
    solve_unbounded,
)
from .errors import (
    DataMarketError,
    DomainError,
    GenerationError,
    InfeasibleSpecError,
    ParseError,
    SolverError,
)
from .market import derive_parameters, validate_scenario
from .results import result_from_json, result_to_json, welfare_to_json
from .scenario import (
    _GENERATED_FAMILIES,
    GenerationSpec,
    generate_scenario_with_attempts,
    parse_scenario,
    serialize_scenario,
)
from .simulate import iter_rounds
from .welfare import price_of_anarchy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_USAGE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="datamarket",
                                     description="Equilibrium solver and simulator for "
                                                 "competitive data-acquisition markets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check scenario well-posedness")
    p.add_argument("scenario", type=Path)

    p = sub.add_parser("derive", help="emit derived contract parameters")
    p.add_argument("scenario", type=Path)
    p.add_argument("--output", type=Path, default=None,
                   help="directory for beta/gamma/xi/xi_matrix CSV tables")

    p = sub.add_parser("solve", help="solve for the equilibrium")
    p.add_argument("scenario", type=Path)
    p.add_argument("--output", type=Path, default=None,
                   help="result JSON path (default: stdout)")

    p = sub.add_parser("certify", help="verify a solved result; its grid follows its weights")
    p.add_argument("scenario", type=Path)
    p.add_argument("result", type=Path)

    p = sub.add_parser("welfare", help="social cost and price of anarchy")
    p.add_argument("scenario", type=Path)
    p.add_argument("result", type=Path)
    p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("sweep-alpha", help="rescaled-coupling sweep")
    p.add_argument("scenario", type=Path)
    p.add_argument("--alphas", required=True,
                   help="comma-separated nonnegative scale factors")
    p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("simulate", help="simulate realized market rounds")
    p.add_argument("scenario", type=Path)
    p.add_argument("result", type=Path)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="decimal unsigned integer master seed")
    p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("generate", help="generate a random scenario")
    p.add_argument("--n", type=int, required=True, help="number of sources")
    p.add_argument("--m", type=int, required=True, help="number of aggregators")
    p.add_argument("--d", type=int, default=GenerationSpec.dimension, help="feature dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["estimator_derived", "direct"],
                   default=GenerationSpec.mode)
    p.add_argument("--family", choices=_GENERATED_FAMILIES,
                   default=GenerationSpec.family)
    p.add_argument("--bounded", action="store_true")
    p.add_argument("--coupling-scale", type=float, default=GenerationSpec.coupling_scale)
    p.add_argument("--sharing-density", type=float, default=GenerationSpec.sharing_density)
    p.add_argument("--zeta-max", type=float, default=GenerationSpec.zeta_max)
    p.add_argument("--output", type=Path, default=None)
    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: Path, text: str | None) -> None:
    """Write text to path, or make path a directory (parents too) when text
    is None; a failure is the ParseError that _read raises, naming the path."""
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
        else:
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write(output, text)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _load_scenario(path: Path):
    return parse_scenario(_read(path))


def _load_result(path: Path):
    return result_from_json(_read(path))


def _result_summary(result, params) -> str:
    lines = [f"status: {result.status}",
             f"spectral radius: {result.diagnostics.spectral_radius!r}"
             + (" (marginal)" if result.diagnostics.marginal else ""),
             f"iterations: {result.diagnostics.iterations}"]
    if result.solved:
        lines.append(f"max residual: {result.diagnostics.max_residual!r}")
        lines.append("source  a_total  effort  polytope_dim")
        sids = params.scenario.source_ids
        _, a_total, _, efforts, _, rows = result.arrays(params.pairs, sids)
        lines += [f"  {sid}  {total!r}  {effort!r}  {int(row[2])}" for sid, total, effort, row
                  in zip(sids, a_total.tolist(), efforts.tolist(), rows.tolist())]
    return "\n".join(lines)


def _cmd_validate(args) -> int:
    report = validate_scenario(_load_scenario(args.scenario))
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_derive(args) -> int:
    scenario = _load_scenario(args.scenario)
    params = derive_parameters(scenario, require_valid=False)
    tables = {
        "beta.csv": reports.beta_csv(params),
        "gamma.csv": reports.gamma_csv(params),
        "xi.csv": reports.xi_csv(params),
        "xi_matrix.csv": reports.xi_matrix_csv(params),
    }
    if args.output is None:
        for name, text in tables.items():
            print(f"# {name}")
            sys.stdout.write(text)
    else:
        _write(args.output, None)
        for name, text in tables.items():
            _write(args.output / name, text)
        _info(f"wrote {', '.join(tables)} to {args.output}")
    _info(params.validation.summary())
    return EXIT_OK if params.validation.ok else EXIT_VALIDATION


def _cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    params = derive_parameters(scenario)
    result = (solve_bounded if params.effort_kind == "bounded" else solve_unbounded)(params)
    _emit(result_to_json(result), args.output)
    _info(_result_summary(result, params))
    if result.status == STATUS_NONE:
        _info("no equilibrium exists at this coupling level")
    return EXIT_OK


def _cmd_certify(args) -> int:
    scenario = _load_scenario(args.scenario)
    params = derive_parameters(scenario)
    result = _load_result(args.result)
    if not result.solved:
        _info("result has no solved equilibrium to certify")
        return EXIT_SOLVER
    report = certify_equilibrium(result, params)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_SOLVER


def _cmd_welfare(args) -> int:
    scenario = _load_scenario(args.scenario)
    params = derive_parameters(scenario)
    result = _load_result(args.result)
    report = price_of_anarchy(result, params)
    _emit(welfare_to_json(report), args.output)
    _info(f"social cost at equilibrium: {report.cost_at_equilibrium!r}")
    _info(f"social cost at optimum:     {report.cost_at_optimum!r}")
    _info(f"price of anarchy:           {report.poa!r}")
    _info(f"efficiency possible:        {report.efficient_possible}")
    return EXIT_OK


def _cmd_sweep_alpha(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError as exc:
        raise DomainError(f"--alphas must be comma-separated numbers: {exc}") from exc
    if not alphas:
        raise DomainError("--alphas must name at least one factor")
    scenario = _load_scenario(args.scenario)
    params = derive_parameters(scenario)
    points = alpha_sweep(params, alphas)
    _emit(reports.sweep_csv(points), args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    validate_scenario(scenario).require_ok()  # refuses an invalid market, as certify and welfare do
    result = _load_result(args.result)
    rounds = iter_rounds(scenario, result, args.rounds, args.seed)
    _emit(reports.rounds_csv(scenario, rounds), args.output)
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = GenerationSpec(n_sources=args.n, n_aggregators=args.m,
                          dimension=args.d, family=args.family,
                          bounded=args.bounded,
                          coupling_scale=args.coupling_scale,
                          sharing_density=args.sharing_density,
                          zeta_max=args.zeta_max, mode=args.mode)
    scenario, attempts = generate_scenario_with_attempts(spec, args.seed)
    _emit(serialize_scenario(scenario), args.output)
    _info(f"generated after {attempts} attempt(s)")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "welfare": _cmd_welfare,
    "sweep-alpha": _cmd_sweep_alpha,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 on a usage error, mapped to 3
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleSpecError as exc:
        print(f"datamarket: infeasible request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, GenerationError) as exc:
        print(f"datamarket: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DataMarketError as exc:  # parse, validation and domain errors
        print(f"datamarket: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
