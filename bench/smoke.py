"""Smoke test of the benchmark itself, on tiny markets (about half a minute).

    python3 bench/smoke.py

For every workload it checks that
  * every end-to-end and per-layer metric is printed by name with its unit,
    and the JSON line carries exactly the metrics BENCHMARK.json declares;
  * a reference fingerprint perturbed beyond the tolerance counts as a
    failed operation in error_rate, and one perturbed within it does not
    drift;
  * the traced phase runs as many operations as the untraced phase.
It also checks that BENCHMARK.json is what `run.py --write-manifest` writes.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys

import run

# The metrics the benchmark promises, with their units.
END_TO_END = {"setup_s": "s", "throughput_ops_per_s": "1/s", "latency_p50_s": "s",
              "cpu_s_per_op": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
PER_LAYER = {
    "scenario.parse_s": "s/op", "scenario.generate_s": "s/market",
    "scenario.generate_attempts": "count",
    "market.validate_s": "s/op", "market.derive_beta_s": "s/op",
    "market.derive_xi_s": "s/op", "market.assemble_xi_matrix_s": "s/op",
    "market.derive_parameters_s": "s/op", "market.pairs": "count",
    "market.xi_entries": "count",
    "equilibrium.certify_s": "s/op", "equilibrium.solve_bounded_s": "s/op",
    "equilibrium.solve_sweeps": "count", "equilibrium.sweep_s": "s/sweep",
    "equilibrium.spectral_radius_s": "s/op", "equilibrium.solve_unbounded_s": "s/op",
    "equilibrium.alpha_sweep_s": "s/op", "equilibrium.certify_grid_attempted": "count",
    "equilibrium.certify_grid_evaluated_ratio": "ratio",
    "welfare.price_of_anarchy_s": "s/op", "effort.effort_response_s": "s/call",
    "estimators.trial_stream_s": "s/call", "simulate.round_s": "s/round",
    "simulate.rounds": "count", "results.result_json_s": "s/op",
    "results.rounds_csv_s": "s/op", "cli.solve_s": "s/call", "cli.certify_s": "s/call",
    "cli.simulate_s": "s/call",
    "lead_layer_s": "s/op", "lead_layer_share": "ratio", "unaccounted_share": "ratio",
    "trace_overhead": "ratio", "traced_throughput_ops_per_s": "1/s",
}


def printed(text: str, name: str, unit: str) -> bool:
    return re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)",
                     text, re.M) is not None


def check_workload(workload, env) -> list[str]:
    problems = []
    for trace in (False, True):
        data = run.run_workload(workload, 0, 0.2, trace, tiny=True)
        lines, result = run.report(data, env, trace)
        text = "\n".join(lines)
        wanted = {**END_TO_END, **(PER_LAYER if trace else {})}
        problems += [f"trace {int(trace)}: {name} [{unit}] not printed"
                     for name, unit in wanted.items() if not printed(text, name, unit)]
        declared = [m[0] for m in (run.PER_LAYER if trace else run.END_TO_END)]
        if sorted(result["metrics"]) != sorted(declared):
            problems.append(f"trace {int(trace)}: JSON metrics {sorted(result['metrics'])}")
        if result["failed"] or not result["correct"]:
            problems.append(f"trace {int(trace)}: failures {data['runner'].failures}")
        if trace and len(data["t_walls"]) != len(data["walls"]):
            problems.append(f"traced {len(data['t_walls'])} operations, "
                            f"untraced {len(data['walls'])}")

    # the tolerance is relative: a reference moved by a tenth of it passes,
    # one moved by a hundred times it counts as a failure
    from workloads import REL_TOL, drift
    base = run.run_workload(workload, 0, 0.0, False, tiny=True)
    references = {key: dict(fp) for key, fp in base["runner"].first.items()}
    for key, fp in references.items():
        near = {f: v * (1.0 + REL_TOL / 10) if isinstance(v, float) else v
                for f, v in fp.items()}
        if drift(fp, near):
            problems.append(f"{key}: a change of REL_TOL/10 drifts: {drift(fp, near)}")
    key = next(iter(references))
    field = next(f for f, v in references[key].items() if isinstance(v, float))
    references[key][field] *= 1.0 + 100 * REL_TOL
    data = run.run_workload(workload, 0, 0.0, False, tiny=True, references=references)
    lines, result = run.report(data, env, False)
    error_rate = re.search(r"^error_rate\s+(\S+)", "\n".join(lines), re.M)
    if result["correct"] or not result["failed"] or float(error_rate.group(1)) <= 0:
        problems.append(f"perturbed reference {key}.{field} not counted as an error")
    return [f"{workload.name}: {p}" for p in problems]


def main() -> int:
    run.cap_blas_threads()
    run.import_package()
    from workloads import WORKLOADS
    problems = []
    if json.loads(run.MANIFEST.read_text()) != run.manifest():
        problems.append("BENCHMARK.json differs from run.py --write-manifest")
    env = run.environment()
    for workload in WORKLOADS.values():
        found = check_workload(workload, env)
        print(f"{workload.name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print(p)
    print("smoke test " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
