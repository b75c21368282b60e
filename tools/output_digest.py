"""Print the SHA-256 of every deterministic output on a fixed set of markets.

A refactor that must not move any output is checked by running this on the
parent commit and on the change, from each checkout's root, and diffing:

    python3 tools/output_digest.py > before.txt    # parent commit
    python3 tools/output_digest.py > after.txt     # the change
    diff before.txt after.txt                      # empty: byte-identical

The markets are the benchmark's markets at seeds 0 and 11 (all four
workloads, read from bench/workloads.py, so the listing follows the
benchmark's shapes, specs and seeds), the three north-star shapes (n=300,
m=10, family "mixed", zeta_max 0.1: full sharing, half sharing with d=2,
bounded) and one direct-mode market.  For each it hashes the scenario text,
its parse -> serialize round trip, the bytes of the effort map's incentive
bounds a_lower and a_upper (no written output shows their last bits), the
validation summary, the number of distinct xi blocks that derive_parameters
holds (printed, not hashed: one of m under full sharing), the beta, gamma
and xi CSVs (xi_matrix.csv too where P <= 400), the solved result's JSON,
its diagnostics.iterations (printed, not hashed: the bounded sweep count or
the Krylov basis size, so a moved result.json shows whether the count
moved), its certificate text and welfare JSON, a five-point alpha sweep CSV
(unbounded markets) and, in estimator mode, a 30-round rounds CSV and
payment_statistics.  On the seed-0 unbounded-certify n32-m3 market and the
direct-mode market it also runs seven subcommands in-process through cli()
(validate, derive without --output, solve, certify, welfare, sweep-alpha
and, in estimator mode, simulate) and hashes each one's stdout and stderr
bytes, printing its exit code.  It imports datamarket from ./src and the
workloads from ./bench, and takes no flags.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import datamarket as dm  # noqa: E402
from datamarket import results  # noqa: E402
from datamarket.cli import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: alpha_sweep factors: below, at and past the existence bound of most markets.
SWEEP = (0.25, 0.5, 1.0, 1.5, 2.0)
ROUNDS = 30
XI_MATRIX_MAX_PAIRS = 400
CLI_MARKETS = ("unbounded-certify/0/n32-m3", "direct/n6-m3")


def markets():
    """(name, spec, generation seed): bench/workloads.py's plans at seeds 0
    and 11, in WORKLOADS order, the north-star shapes and a direct-mode market."""
    for seed in (0, 11):
        for name, workload in WORKLOADS.items():
            for key, spec, gen_seed in workload.plan(seed, False):
                yield f"{name}/{seed}/{key}", spec, gen_seed
    north_star = dm.GenerationSpec(300, 10, family="mixed", zeta_max=0.1)
    yield "north-star/full", north_star, 0
    yield ("north-star/half-d2",
           dm.GenerationSpec(300, 10, dimension=2, family="mixed", zeta_max=0.1,
                             sharing_density=0.5), 0)
    yield ("north-star/bounded",
           dm.GenerationSpec(300, 10, family="mixed", zeta_max=0.1, bounded=True), 0)
    yield "direct/n6-m3", dm.GenerationSpec(6, 3, mode="direct", sharing_density=0.7), 0


def outputs(spec: dm.GenerationSpec, seed: int):
    """(output name, text or bytes to hash, or a count to print) for one market."""
    text = dm.serialize_scenario(dm.generate_scenario(spec, seed))
    scenario = dm.parse_scenario(text)
    params = dm.derive_parameters(scenario, require_valid=False)
    yield "scenario", text
    yield "scenario round trip", dm.serialize_scenario(scenario)
    effort_map = scenario.effort_map
    yield "effort bounds", effort_map.a_lower.tobytes() + effort_map.a_upper.tobytes()
    yield "validation", dm.validate_scenario(scenario).summary()
    yield "distinct xi blocks", len({id(block) for block in params.xi})
    yield "beta.csv", results.beta_csv(params)
    yield "gamma.csv", results.gamma_csv(params)
    yield "xi.csv", results.xi_csv(params)
    if len(params.pairs) <= XI_MATRIX_MAX_PAIRS:
        yield "xi_matrix.csv", results.xi_matrix_csv(params)
    solve = dm.solve_bounded if params.effort_kind == "bounded" else dm.solve_unbounded
    solved = solve(params)
    result_text = dm.result_to_json(solved)
    result = dm.result_from_json(result_text)
    yield "result.json", result_text
    yield "iterations", solved.diagnostics.iterations
    yield "certificate", dm.certify_equilibrium(result, params).summary()
    yield "welfare.json", dm.welfare_to_json(dm.price_of_anarchy(result, params))
    if params.effort_kind != "bounded":
        yield "sweep.csv", results.sweep_csv(dm.alpha_sweep(params, SWEEP))
    if scenario.mode == "estimator_derived":
        yield "rounds.csv", results.rounds_csv(
            scenario, dm.iter_rounds(scenario, result, ROUNDS, 1))
        yield "payment_statistics", repr(dm.payment_statistics(scenario, result, ROUNDS, 2))


def cli_outputs(spec: dm.GenerationSpec, seed: int):
    """(output name, stdout or stderr text, or an exit code) of each subcommand
    run in-process on one market; solve's stdout is the result the others read."""
    scenario = dm.generate_scenario(spec, seed)
    with tempfile.TemporaryDirectory() as tmp:
        market, result = Path(tmp) / "market.json", Path(tmp) / "result.json"
        market.write_text(dm.serialize_scenario(scenario), encoding="utf-8")
        commands = [("validate",), ("derive",), ("solve",), ("certify", result),
                    ("welfare", result),
                    ("sweep-alpha", "--alphas", ",".join(map(str, SWEEP)))]
        if scenario.mode == "estimator_derived":
            commands.append(("simulate", result, "--rounds", str(ROUNDS), "--seed", "1"))
        for command, *rest in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli([command, str(market), *map(str, rest)])
            if command == "solve":
                result.write_text(out.getvalue(), encoding="utf-8")
            yield f"cli {command} exit", code
            yield f"cli {command} stdout", out.getvalue()
            yield f"cli {command} stderr", err.getvalue()


def main() -> None:
    for name, spec, seed in markets():
        listing = outputs(spec, seed)
        if name in CLI_MARKETS:
            listing = itertools.chain(listing, cli_outputs(spec, seed))
        for output, value in listing:
            if not isinstance(value, int):  # a count is printed as it is
                data = value if isinstance(value, bytes) else value.encode("utf-8")
                value = hashlib.sha256(data).hexdigest()
            print(f"{name:36} {output:20} {value}", flush=True)


if __name__ == "__main__":
    main()
