"""Layered benchmark of nftrace: `nf inspect --json` and `nf compare --json`.

    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Generates the workload's inputs from the
seed, runs the workload in a fresh interpreter (bench/worker.py) as one
closed-loop caller, checks every output, and prints every metric by name
with its unit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "nftrace")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from spans import per_layer_spec  # noqa: E402

# Per-op cap, in reference seconds (bench/calib.py): the wall-clock cap of
# an op is this divided by the host speed measured just before it, so a slow
# host does not cap an op that finishes on a fast one.  Each lies about
# twice above the slowest op of the workload that finishes (inspect-structured:
# phi23 at about 1.8 s; inspect-random: about 0.6 s; compare-pool: 0.15 s),
# and well below the stalls it tracks, which run for 12 s (two random draws)
# to minutes.
CAP_S = {"inspect-structured": 3.5, "inspect-random": 2.0, "compare-pool": 4.0}
WORKLOADS = tuple(CAP_S)
# set-up is measured in this many fresh interpreters; the median is reported
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

EXPECTED_PATH = os.path.join(HERE, "expected.json")


def make_job(workload: str, seed: int) -> tuple[dict, dict]:
    if workload == "inspect-structured":
        ops, info = workloads.inspect_structured(seed)
    elif workload == "inspect-random":
        from nftrace.exact import IntPoly, factor_poly

        def is_irreducible(coeffs):
            fac = factor_poly(IntPoly(coeffs))
            return len(fac) == 1 and fac[0][1] == 1

        ops, info = workloads.inspect_random(seed, is_irreducible)
    else:
        ops, info = workloads.compare_pool(seed)
    job = {"ops": ops, "pool": info.pop("pool", {}), "cap_s": CAP_S[workload]}
    return job, info


def run_worker(job: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool, expected: dict) -> dict:
    job, info = make_job(workload, seed)
    job.update(seconds=seconds, trace=trace, setup_only=False)
    job["expected"] = expected
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_worker(dict(job, ops=[], setup_only=True)))
    else:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        job["trace_path"] = os.path.join(out_dir, f"spans-{workload}-seed{seed}.tsv")
    res = run_worker(job)
    setups.append(res)
    res["setup_s"] = statistics.median(x["setup_s"] for x in setups)
    res["raw"]["setup_s"] = statistics.median(x["setup_raw_s"] for x in setups)
    res["info"] = info
    return res


def report(workload: str, res: dict, trace: bool) -> dict:
    """Print one workload's figures; return its metrics in result-line form."""
    s, a = res["statuses"], res["attempts"]
    print(f"== {workload}: {res['inputs']} inputs: ok {s['ok']}, capped {s['capped']}, "
          f"error {s['error']}, wrong {s['wrong']}; fail_frac {1 - res['ok_frac']:.4f}; "
          f"{res['p90_tail_samples']} inputs beyond p90")
    print(f"   {res['attempted']} attempts in {res['passes']} pass(es), "
          f"{res['timed_s']:.2f} s timed, {res['samples_per_input']:g} per input (median); "
          f"attempts ok {a['ok']}, capped {a['capped']}, error {a['error']}, wrong {a['wrong']}; "
          f"host speed {res['speed']:.3f} of the reference (median)")
    print("   measured, before scaling to the reference speed: " + ", ".join(
        f"{k} {v:.6g}" for k, v in res["raw"].items()))
    for key, value in res["info"].items():
        print(f"   {key}: {value}")
    for name, note in sorted(res["notes"].items()):
        print(f"   {name}: {note}")
    print("   slowest ok inputs: " + ", ".join(
        f"{name} {ms:.0f} ms" for name, ms in res["slowest_ok"]))
    if trace:
        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                   for m in per_layer_spec()}
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"   {name:44s} {m['value']:14.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-digests",
        action="store_true",
        help="rewrite bench/expected.json from this run's checked outputs",
    )
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.record_digests and args.workload != "all":
        ap.error("--record-digests needs --workload all")
    if not os.path.isdir(SRC):
        print(f"no program to measure: {SRC} is missing (run from the repository root)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    expected = {}
    if os.path.exists(EXPECTED_PATH) and not args.record_digests:
        with open(EXPECTED_PATH) as fh:
            expected = json.load(fh)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, wrong = {}, 0, 0, 0
    recorded = {"seed": args.seed, "digests": {}, "verdicts": {}}
    for workload in chosen:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace), expected)
        got = report(workload, res, bool(args.trace))
        prefix = "" if len(chosen) == 1 else workload + "."
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += res["attempted"]
        failed += res["attempts"]["error"] + res["attempts"]["wrong"]
        wrong += res["attempts"]["wrong"]
        recorded["digests"].update(res["digests"])
        recorded["verdicts"].update(res["verdicts"])
    if args.record_digests:
        with open(EXPECTED_PATH, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
