"""The datamarket benchmark.

One process, one caller, closed loop: each workload builds seeded markets in
set-up, then drives the public API one operation at a time, checks every
answer, and prints every metric by name with its unit.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics under --trace 0 and the per-layer
metrics under --trace 1.

    python3 bench/run.py --workload unbounded-certify --seed 0 --seconds 14 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 14 --trace 1
    python3 bench/run.py --write-manifest             # regenerate BENCHMARK.json
    python3 bench/run.py --record-references 0 1 ...  # answer fingerprints of this commit

Run it from the root of a checkout; it imports the package from ./src.
See bench/README.md for the workloads, the metrics and the known limits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import OPERATION, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"
MANIFEST = ROOT / "BENCHMARK.json"

RUN_SECONDS = 14
SETUP_REPEATS = 7
SETUP_WINDOW = 0.2     # seconds of speed calibration after each set-up
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_per_s", "1/s", "higher", 0.24),
    ("latency_p50_s", "s", "lower", 0.24),
    ("cpu_s_per_op", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer metrics in BENCHMARK.json: the ones every workload measures.
# (name, unit, better)
PER_LAYER = (
    ("lead_layer_s", "s/op", "lower"),
    ("lead_layer_share", "ratio", "lower"),
    ("unaccounted_share", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("traced_throughput_ops_per_s", "1/s", "higher"),
    ("scenario.generate_s", "s/market", "lower"),
    ("scenario.generate_attempts", "count", "lower"),
)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def cap_blas_threads() -> None:
    """Cap BLAS threads before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import datamarket from ./src of this checkout, or raise SystemExit(2)."""
    src = ROOT / "src"
    if not (src / "datamarket" / "__init__.py").is_file():
        print(f"bench: no datamarket package in {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import datamarket
    if src.resolve() not in Path(datamarket.__file__).resolve().parents:
        print(f"bench: imported datamarket from {datamarket.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return datamarket


def environment() -> dict:
    import numpy
    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg['name']} {cfg.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "nproc": nproc}


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations one at a time and checks each answer."""

    def __init__(self, workload, references: dict | None):
        from workloads import drift
        self._drift = drift
        self.workload = workload
        self.references = references or {}
        self.first: dict[str, dict] = {}     # key -> first fingerprint in this run
        self.counts: dict[str, dict] = {}    # key -> exact counts
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, key: str, payload, tracer=None) -> tuple[float, float, bool]:
        """(wall s, CPU s, passed) of one operation; checking is untimed."""
        gc.collect()
        outcome = error = None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                outcome = self.workload.operation(payload)
            else:
                with tracer.span(OPERATION):
                    outcome = self.workload.operation(payload)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return wall, cpu, self.check(key, outcome, error)

    def check(self, key: str, outcome, error: str | None) -> bool:
        self.attempted += 1
        problems = [error.strip().splitlines()[-1]] if error else \
            self.workload.problems(outcome)
        if error:
            print(error, file=sys.stderr)
        if not problems:
            fp = self.workload.fingerprint(outcome)
            if key in self.references:
                problems += [f"reference: {p}" for p in
                             self._drift(fp, self.references[key])]
            if key in self.first:
                problems += [f"rerun: {p}" for p in self._drift(fp, self.first[key])]
            else:
                self.first[key] = fp
                self.counts[key] = self.workload.counts(outcome)
        if problems:
            self.failed += 1
            self.failures.append(f"{key}: {'; '.join(problems)}")
        return not problems


def timed_phase(runner: Runner, items, n_ops: int, tracer=None):
    """Run n_ops operations, cycling over items, with a speed calibration
    after each block.  Returns (walls, cpus, factors, passed, keys)."""
    from speed import Speedometer
    meter = Speedometer()
    walls, cpus, keys, passed = [], [], [], 0
    for k in range(n_ops):
        key, payload = items[k % len(items)]
        if tracer is not None:
            tracer.op_id = k
        wall, cpu, ok = runner.execute(key, payload, tracer)
        meter.record(wall)
        walls.append(wall)
        cpus.append(cpu)
        keys.append(key)
        passed += ok
    return walls, cpus, meter.factors(), passed, keys


def cycles_for(workload, seconds: float) -> int:
    """Whole cycles that fill `seconds` at the workload's nominal cycle time.
    A fixed count, rather than a deadline, keeps the mix of markets and the
    sample count the same on every run.  At least two, so every market runs
    twice and its rerun is checked against its first answer."""
    return max(2, round(seconds / workload.cycle_seconds))


def cycle_counts(runner: Runner, items) -> dict[str, int]:
    """Exact counts summed over the distinct items of one cycle."""
    total: dict[str, int] = {}
    for key, _ in items:
        for name, value in runner.counts.get(key, {}).items():
            total[name] = total.get(name, 0) + value
    return total


def timed_setup(workload, plan, tiny: bool, tracer=None):
    """Set the workload up SETUP_REPEATS times (once when traced).  Returns
    (prepared inputs, set-up seconds, speed factors)."""
    from speed import Speedometer   # imports numpy: after the BLAS cap
    # a set-up is short and calibrated on its own: a longer window than an
    # operation block's steadies its speed factor
    setup_times, meter = [], Speedometer(min_window=SETUP_WINDOW)
    for _ in range(1 if tracer else SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            prepared = workload.setup(plan, tiny)
        else:
            with tracer:
                prepared = workload.setup(plan, tiny)
        # the draws generate_scenario rejects depend on the seed's luck, not
        # on the program's speed: setup_s is the set-up at one draw per market
        setup_times.append(time.perf_counter() - start - prepared.rejected_s)
        meter.record(setup_times[-1])
        meter.close()
    return prepared, setup_times, meter.factors()


def run_workload(workload, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, references: dict | None = None) -> dict:
    """Set up, warm up, measure and check one workload.  Returns the raw
    phase data the metrics are computed from."""
    plan = workload.plan(seed, tiny)
    tracer = Tracer() if trace else None
    prepared, setup_times, setup_factors = timed_setup(workload, plan, tiny, tracer)

    runner = Runner(workload, references)
    for key, payload in workload.warmup(prepared, plan, tiny):
        runner.execute(key, payload)

    n_ops = len(prepared.items) * cycles_for(workload, seconds)
    walls, cpus, factors, passed, keys = timed_phase(runner, prepared.items, n_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run = {"workload": workload, "seed": seed, "setup_times": setup_times,
           "setup_factors": setup_factors, "walls": walls, "cpus": cpus,
           "factors": factors, "passed": passed, "keys": keys,
           "peak_rss_mb": peak_rss_mb, "runner": runner}

    if tracer is not None:
        tracer.phase = "op"
        with tracer:
            t_walls, _, t_factors, t_passed, t_keys = timed_phase(
                runner, prepared.items, n_ops, tracer)
            tracer.phase = "cli"
            tracer.op_id = None
            cli_codes = run_cli_calls(workload, prepared)
        for argv, code in cli_codes:
            runner.attempted += 1
            if code != 0:
                runner.failed += 1
                runner.failures.append(f"cli {argv[0]} exited {code}")
        run.update(tracer=tracer, t_walls=t_walls, t_factors=t_factors,
                   t_passed=t_passed, t_keys=t_keys)

    run["counts"] = cycle_counts(runner, prepared.items)
    run["counts"]["scenario.generate_attempts"] = prepared.attempts
    run["setup_markets"] = len(prepared.texts)
    run["rejected_s"] = prepared.rejected_s
    return run


def run_cli_calls(workload, prepared) -> list[tuple[list[str], int]]:
    """In-process CLI calls on the workload's probe market, output captured."""
    import datamarket.cli
    from workloads import cli_calls
    OUT.mkdir(exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        sink = io.StringIO()
        for argv in cli_calls(workload, prepared, tmp):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append((argv, datamarket.cli.cli(argv)))
    return codes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _scaled(values, factors) -> list[float]:
    return [v * f for v, f in zip(values, factors)]


def end_to_end_metrics(run, raw: bool = False) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, in reference seconds (see bench/speed.py), or
    as measured with raw=True."""
    factors = [1.0] * len(run["walls"]) if raw else run["factors"]
    setup_factors = [1.0] * len(run["setup_times"]) if raw else run["setup_factors"]
    walls = _scaled(run["walls"], factors)
    return {
        "setup_s": (statistics.median(_scaled(run["setup_times"], setup_factors)), "s"),
        "throughput_ops_per_s": (run["passed"] / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "cpu_s_per_op": (sum(_scaled(run["cpus"], factors)) / len(walls), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def layer_metrics(run) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: the named ones of each module, the exact
    counts, and the lead-layer and overhead figures.  Times are scaled to
    reference seconds by the median speed factor of their phase."""
    metrics = _layer_metrics(run)
    op_scale = statistics.median(run["t_factors"])
    setup_scale = statistics.median(run["setup_factors"])
    for name, (value, unit) in metrics.items():
        scale = setup_scale if name == "scenario.generate_s" else op_scale
        if unit.startswith("s/"):
            metrics[name] = (value * scale, unit)
        elif unit == "1/s":
            metrics[name] = (value / scale, unit)
    return metrics


def _layer_metrics(run) -> dict[str, tuple[float, str]]:
    tracer, counts = run["tracer"], run["counts"]
    n_ops = len(run["t_walls"])

    def per_op(*names):
        return sum(tracer.total("op", n)[1] for n in names) / n_ops

    def per_call(phase, name):
        calls, inclusive, _ = tracer.total(phase, name)
        return inclusive / calls if calls else 0.0

    sweeps_done = sum(run["runner"].counts[k].get("equilibrium.solve_sweeps", 0)
                      for k in run["t_keys"])
    rounds = tracer.durations.get(("op", "simulate.round"), [])
    attempted = counts.get("equilibrium.certify_grid_attempted", 0)
    cli_calls = sum(tracer.total("cli", n)[0] for n in ("cli.solve", "cli.certify",
                                                        "cli.simulate"))
    cli_self = sum(own for (p, name), (_, _, own) in tracer.totals.items()
                   if p == "cli" and name.startswith("cli."))
    op_time = tracer.total("op", "operation")[1]
    lead = sum(tracer.total("op", n)[1] for n in run["workload"].lead)
    m = {
        "scenario.parse_s": (per_op("scenario.parse_scenario"), "s/op"),
        "scenario.generate_s": (per_call("setup", "scenario.generate_scenario_with_attempts"),
                                "s/market"),
        "scenario.generate_attempts": (counts["scenario.generate_attempts"], "count"),
        "market.validate_s": (per_op("market.validate_scenario"), "s/op"),
        "market.derive_beta_s": (per_op("market.derive_beta"), "s/op"),
        "market.derive_xi_s": (per_op("market.derive_xi"), "s/op"),
        "market.assemble_xi_matrix_s": (per_op("market.assemble_xi_matrix"), "s/op"),
        "market.derive_parameters_s": (per_op("market.derive_parameters"), "s/op"),
        "market.pairs": (counts.get("market.pairs", 0), "count"),
        "market.xi_entries": (counts.get("market.xi_entries", 0), "count"),
        "equilibrium.certify_s": (per_op("equilibrium.certify_equilibrium"), "s/op"),
        "equilibrium.solve_bounded_s": (per_op("equilibrium.solve_bounded"), "s/op"),
        "equilibrium.solve_sweeps": (counts.get("equilibrium.solve_sweeps", 0), "count"),
        "equilibrium.sweep_s": (tracer.total("op", "equilibrium.solve_bounded")[1]
                                / sweeps_done if sweeps_done else 0.0, "s/sweep"),
        "equilibrium.spectral_radius_s": (per_op("equilibrium.spectral_radius"), "s/op"),
        "equilibrium.solve_unbounded_s": (per_op("equilibrium.solve_unbounded"), "s/op"),
        "equilibrium.alpha_sweep_s": (per_op("equilibrium.alpha_sweep"), "s/op"),
        "equilibrium.certify_grid_attempted": (attempted, "count"),
        "equilibrium.certify_grid_evaluated_ratio": (
            counts.get("equilibrium.certify_grid_evaluated", 0) / attempted
            if attempted else 0.0, "ratio"),
        "welfare.price_of_anarchy_s": (per_op("welfare.price_of_anarchy"), "s/op"),
        "effort.effort_response_s": (per_call("op", "effort.effort_response"), "s/call"),
        "estimators.trial_stream_s": (per_call("op", "estimators.trial_stream"), "s/call"),
        "simulate.round_s": (statistics.median(rounds) if rounds else 0.0, "s/round"),
        "simulate.rounds": (counts.get("simulate.rounds", 0), "count"),
        "results.result_json_s": (per_op("results.result_to_json",
                                         "results.result_from_json"), "s/op"),
        "results.rounds_csv_s": (tracer.total("op", "results.rounds_csv")[2] / n_ops,
                                 "s/op"),
        "cli.solve_s": (per_call("cli", "cli.solve"), "s/call"),
        "cli.certify_s": (per_call("cli", "cli.certify"), "s/call"),
        "cli.simulate_s": (per_call("cli", "cli.simulate"), "s/call"),
        "cli.edge_s": (cli_self / cli_calls if cli_calls else 0.0, "s/call"),
        "lead_layer_s": (lead / n_ops, "s/op"),
        "lead_layer_share": (lead / op_time, "ratio"),
        "unaccounted_share": (tracer.total("op", "operation")[2] / op_time, "ratio"),
        "trace_overhead": (sum(_scaled(run["t_walls"], run["t_factors"]))
                           / sum(_scaled(run["walls"], run["factors"])), "ratio"),
        "traced_throughput_ops_per_s": (run["t_passed"] / sum(run["t_walls"]), "1/s"),
        "spans_per_op": (sum(1 for s in tracer.spans if s[4] is not None) / n_ops,
                         "count"),
    }
    return m


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(run, env: dict, trace: bool) -> tuple[list[str], dict]:
    workload, runner = run["workload"], run["runner"]
    lines = [f"# workload {workload.name}  seed {run['seed']}  "
             f"operations {len(run['walls'])}  trace {int(trace)}",
             "# env " + "  ".join(f"{k}={v}" for k, v in env.items()),
             "# reference fingerprints: "
             + ("stored for this seed" if runner.references else
                "none stored for this seed; reruns checked against the first answer")]
    e2e = end_to_end_metrics(run)
    walls = _scaled(run["walls"], run["factors"])
    for name, (value, unit) in e2e.items():
        note = f"  (n={len(walls)})" if name == "latency_p50_s" else ""
        lines.append(f"{name:<42} {_fmt(value):>14} {unit}{note}")
    if len(walls) >= 100:
        p90 = statistics.quantiles(walls, n=10)[8]
        lines.append(f"{'latency_p90_s':<42} {_fmt(p90):>14} s  (n={len(walls)})")
    lines.append(f"# set-up: {run['counts']['scenario.generate_attempts']} generation "
                 f"draws for {run['setup_markets']} markets; setup_s leaves out the "
                 f"{run['rejected_s']:.3g} s the rejected draws took")
    lines.append(f"{'machine_speed':<42} {_fmt(statistics.median(run['factors'])):>14} "
                 "ratio  (kernel speed over the reference speed)")
    for name, (value, unit) in end_to_end_metrics(run, raw=True).items():
        if unit != "MB":
            lines.append(f"{'raw.' + name:<42} {_fmt(value):>14} {unit}  (as measured)")
    by_item: dict[str, list[float]] = {}
    for key, wall in zip(run["keys"], walls):
        by_item.setdefault(key, []).append(wall)
    lines.append("# median scaled latency by item: " + "  ".join(
        f"{key}={_fmt(statistics.median(v))}s" for key, v in by_item.items()))
    error_rate = runner.failed / runner.attempted
    lines.append(f"{'error_rate':<42} {_fmt(error_rate):>14} ratio  "
                 f"({runner.failed} of {runner.attempted} operations)")
    lines += [f"# failed: {f}" for f in runner.failures[:10]]

    chosen = e2e
    if trace:
        layers = layer_metrics(run)
        tracer = run["tracer"]
        n_ops = len(run["t_walls"])
        op_time = tracer.total("op", "operation")[1]
        lines.append(f"# per-layer metrics over {n_ops} traced operations")
        for name, (value, unit) in layers.items():
            note = "  (not on this workload's path)" if value == 0 else ""
            lines.append(f"{name:<42} {_fmt(value):>14} {unit}{note}")
        lines.append("# layer self time per operation (share of traced operation time)")
        for layer, own in sorted(tracer.layer_self_times("op").items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"self.{layer:<37} {_fmt(own / n_ops):>14} s/op  "
                         f"({own / op_time:.1%})")
        chosen = layers
        write_trace(run, env)
    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {n: {"value": chosen[n][0], "unit": chosen[n][1]}
                          for n in names}}
    return lines, result


def write_trace(run, env: dict) -> None:
    tracer = run["tracer"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{run['workload'].name}-seed{run['seed']}.json"
    doc = {"env": env, "workload": run["workload"].name, "seed": run["seed"],
           "span_fields": ["name", "start", "end", "parent", "op"],
           "spans": tracer.spans,
           "totals": [{"phase": p, "name": n, "calls": c, "inclusive_s": i, "self_s": s}
                      for (p, n), (c, i, s) in sorted(tracer.totals.items())]}
    path.write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# Manifest and references
# ---------------------------------------------------------------------------

def manifest() -> dict:
    from workloads import WORKLOADS
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def load_references(workload: str, seed: int) -> dict:
    if not REFERENCES.is_file():
        return {}
    doc = json.loads(REFERENCES.read_text())
    return doc.get("seeds", {}).get(str(seed), {}).get(workload, {})


def record_references(seeds: list[int], names: list[str]) -> None:
    """Fingerprint every item of the named workloads for the given seeds,
    once, and store them as the references later runs are checked against."""
    from workloads import WORKLOADS
    doc = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {"seeds": {}}
    for seed in seeds:
        for name in names:
            workload = WORKLOADS[name]
            plan = workload.plan(seed, False)
            prepared = workload.setup(plan, False)
            runner = Runner(workload, None)
            for key, payload in prepared.items:
                if not runner.execute(key, payload)[2]:
                    raise SystemExit(f"bench: {name} seed {seed}: {runner.failures}")
            doc["seeds"].setdefault(str(seed), {})[name] = runner.first
            print(f"recorded {name} seed {seed}", file=sys.stderr)
        REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and exit")
    parser.add_argument("--record-references", type=int, nargs="+", metavar="SEED",
                        help="store answer fingerprints for these seeds and exit")
    args = parser.parse_args(argv)

    cap_blas_threads()
    import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    if args.record_references:
        record_references(args.record_references, names)
        return 0

    env = environment()
    all_correct = True
    for name in names:
        run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           references=load_references(name, args.seed))
        lines, result = report(run, env, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
