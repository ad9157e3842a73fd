"""Benchmark of the tcmerton CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's config,
then repeats rounds of the CLI command, each in a fresh process, while
the next round is expected to end within S seconds, and checks every
round's outputs with perfbench/checks.py.  The last line of standard output is one JSON
object: correct, attempted, failed, and the metrics (the end-to-end
metrics with --trace 0, the per-layer metrics of the fastest traced
round with --trace 1).  With --trace 1 untraced and traced rounds
alternate, so the tracing overhead is measured in the same run.  Run
files go to perfbench/.runs/.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0    # a run must end within 180 s


def metric_units():
    """name -> unit of every metric BENCHMARK.json declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cores = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = cores
    env["OMP_NUM_THREADS"] = cores
    return env


def run_round(round_dir, config, argv, trace, trace_file, time_left):
    """One CLI command in a fresh process; returns its timings."""
    round_dir.mkdir(parents=True)
    request = round_dir / "request.json"
    result = round_dir / "result.json"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(round_dir / "output.log", "w") as log:
        spawned_at = time.monotonic()
        request.write_text(json.dumps({
            "spawned_at": spawned_at, "config": str(config), "argv": argv,
            "trace": trace, "result": str(result),
            "trace_file": str(trace_file)}))
        proc = subprocess.run(
            [sys.executable, str(HERE / "one_round.py"), str(request)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(),
            cwd=ROOT, timeout=time_left)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError("round process failed (exit %d); see %s"
                           % (proc.returncode, round_dir / "output.log"))
    out = json.loads(result.read_text())
    out["cpu_s"] = (after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "tcmerton" / "cli.py").is_file():
        print("error: no tcmerton sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(wl, args.seed)
    run_dir = HERE / ".runs" / ("%s-seed%d" % (wl.name, args.seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.cfg"
    config.write_text(inputs.config_text())
    trace_file = run_dir / "trace.json"

    rounds = {False: [], True: []}
    attempted = failed = 0
    k = 0
    while True:
        cycle_start = time.monotonic()
        for traced in ((False, True) if args.trace else (False,)):
            out_dir = run_dir / ("round%d" % k) / "out"
            time_left = DEADLINE_S - (time.monotonic() - started)
            r = run_round(out_dir.parent, config,
                          inputs.cli_args(wl, config, out_dir), int(traced),
                          trace_file, time_left)
            results = checks.check_outputs(wl, inputs, out_dir,
                                           r["exit_code"])
            attempted += len(results)
            for name, ok, detail in results:
                if not ok:
                    failed += 1
                    print("FAIL round %d %s: %s" % (k, name, detail),
                          file=sys.stderr)
            if all(ok for _, ok, _ in results):
                shutil.rmtree(out_dir.parent)
            rounds[traced].append(r)
            k += 1
        # start another cycle only if it is expected to end in time
        now = time.monotonic()
        if now - started + (now - cycle_start) > args.seconds:
            break

    # Times are the fastest round's.  On a shared 2-core host the speed
    # changed in phases of 5-40 s by up to 1.7x, which only ever slows
    # the work: over ten 36-second runs the median round spread 7-28%
    # between runs, the fastest round 2.5-13%.
    plain = rounds[False]
    fastest = min(plain, key=lambda r: r["wall_s"])
    env = plain[0]["environment"]
    if args.trace:
        traced = min(rounds[True], key=lambda r: r["wall_s"])
        values = dict(traced["layers"])
        values["process.cpu_s"] = fastest["cpu_s"]
        values["process.tracing_overhead_s"] = (traced["wall_s"]
                                                - fastest["wall_s"])
    else:
        values = {
            # one cold set-up per run: later rounds find the files cached
            "setup_s": plain[0]["setup_s"],
            "wall_s": fastest["wall_s"],
            "solve_s": min(r["solve_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    units = metric_units()
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    summary = {"workload": wl.name, "seed": args.seed,
               "round_wall_s": [r["wall_s"] for r in plain],
               "environment": env, "correct": failed == 0,
               "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
