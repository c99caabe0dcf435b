"""Benchmark entry point: one workload, one closed loop, one JSON result.

    python3 perfbench/run.py --workload gqs-read --seed 2 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and checks
correctness; ``--seconds`` sets how many units the run does (about that
many seconds' worth on a quiet 2-vCPU host).  The gated times are scaled
by the host's slowdown, probed before every unit (``hostspeed.py``).
``--trace 1`` runs the same units once untraced, once with a span around
every layer's public entry points and the program's PROBE counters on,
and once untraced again, and reports the per-layer metrics, the tracing
overhead (traced minus untraced wall time), the unattributed remainder and
the slowest judged queries.

The metric names and units come from ``BENCHMARK.json`` at the root of the
checkout; the program is imported from ``src/``.  The last line of standard
output is the result object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it, prefixed ``#``, carry the figures that are
reported but not gated.  The exit code is 0 unless the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: Host-speed probes before each of them.
SPEED_PROBES = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_contract():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to {HERE.name}/")
    contract = json.loads(path.read_text(encoding="utf-8"))
    return contract


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail("the program's source (src/repro) is not in this checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def measure_setup(args) -> float:
    """Median wall time of fresh processes that only build the inputs,
    each scaled by the host's slowdown probed just before it."""
    from hostspeed import HostSpeed

    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
    walls = []
    for _ in range(SETUP_PROBES):
        speed = HostSpeed()
        for _ in range(SPEED_PROBES):
            speed.sample()
        began = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append((time.perf_counter() - began) / speed.slowdown())
    return statistics.median(walls)


def rerun_matches(workloads, run, workload: str, seed: int) -> bool:
    """Re-run the cheapest digested unit; its result must not change."""
    from repro.core.reporting import campaign_to_dict
    from repro.experiments.campaign import run_tool_campaign

    if workload == "grid":
        cells = workloads.grid_cells(workloads.grid_spec(seed, 0))
        walls = run.unit_walls[:len(cells)]
        index = walls.index(min(walls))
        cell = cells[index]
        again = run_tool_campaign(
            cell.tester, cell.engine, budget_seconds=cell.budget_seconds,
            seed=cell.seed, execution_mode=cell.execution_mode,
            step_budget=workloads.STEP_BUDGET,
        )
        return campaign_to_dict(again) == run.documents[0][index]
    count = workloads.MIN_UNITS[workload]
    walls = run.unit_walls[:count]
    index = walls.index(min(walls))
    unit = workloads.gqs_unit(workload, seed, index)
    again = campaign_to_dict(run_tool_campaign(**unit))
    recorded = run.documents[index]
    if workload == "triage-reduce":
        recorded = recorded["campaign"]
    return again == recorded


def expected_digest(workload: str, seed: int):
    """The digest recorded for *workload*, if *seed* is the default seed."""
    expected = json.loads((HERE / "expected.json").read_text("utf-8"))
    if seed != expected["default_seed"]:
        return None
    return expected["digests"][workload]


def emit(contract_metrics, values, correct, attempted, failed) -> None:
    metrics = {}
    for metric in contract_metrics:
        name = metric["name"]
        if name not in values:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> None:
    args = parse_args(argv)
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    import_program()
    import workloads

    if args.setup_probe:
        workloads.prepare(args.workload, args.seed)
        return
    workdir = workloads.fresh_workdir(ROOT / ".perfbench_tmp",
                                      args.workload, args.seed)
    try:
        if args.trace:
            import traced

            result = traced.run_traced(args.workload, args.seed,
                                       args.seconds, workdir,
                                       ROOT / ".perfbench_out")
            for line in result["lines"]:
                print("# " + line)
            emit(contract["per_layer"], result["metrics"],
                 result["correct"], result["attempted"], result["failed"])
            return
        setup_s = measure_setup(args)
        units = workloads.units_for(args.workload, args.seconds)
        run = workloads.execute(args.workload, args.seed, units, workdir)
        problems = list(run.problems)
        if not rerun_matches(workloads, run, args.workload, args.seed):
            problems.append("a re-run unit gave a different result")
        run_digest = workloads.digest(run.documents)
        recorded = expected_digest(args.workload, args.seed)
        if recorded is not None and recorded != run_digest:
            problems.append(
                f"digest {run_digest} differs from the recorded "
                f"{recorded} for seed {args.seed}"
            )
        values = workloads.end_to_end(run, args.workload)
        values["setup_s"] = setup_s
        detail = workloads.details(run, args.workload)
        detail["digest"] = run_digest
        print("# details " + json.dumps(detail, sort_keys=True))
        for problem in problems:
            print("# problem " + problem)
        emit(contract["end_to_end"], values, not problems, run.attempted,
             run.failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
