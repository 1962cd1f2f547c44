"""One workload in a fresh interpreter: set-up, timed closed loop, checks.

Reads a job (JSON) on stdin and prints one JSON result line.  Run by
bench/run.py; not meant to be started by hand.

The first pass runs every input once.  Later passes repeat the inputs that
finished ok, to gather more latency samples, until the timed wall time
reaches the job's seconds, and then go on over the short inputs only (see
MIN_SAMPLES).  Each op runs under a wall-clock cap that fires from SIGALRM
and raises `OpCapped`, a BaseException, so no `except` clause of the program
can swallow it.  Every op is timed between two calibration brackets
(bench/calib.py), and its latency is also reported scaled to the reference
host speed.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time

import calib
import checks
from spans import Tracer


# Once the run has lasted its seconds, passes go on over the inputs that
# finished ok with fewer than MIN_SAMPLES attempts and less than MIN_INPUT_S
# of timed work, so short ops, whose single timings scatter most, get
# several samples taken far apart in time even when the first pass fills
# the run.
MIN_SAMPLES = 5
MIN_INPUT_S = 0.15


class OpCapped(BaseException):
    """The per-op cap fired; `stage` is the innermost open span, if traced."""

    def __init__(self, stage):
        super().__init__(stage)
        self.stage = stage


def percentiles(latencies_ms: list[float]) -> tuple[float, float]:
    p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
    return statistics.median(latencies_ms), p90


def main() -> int:
    job = json.load(sys.stdin)
    calib.warm_up()
    setup_raw_s, setup_s = 0.0, 0.0

    def setup_step(fn):
        # set-up is timed step by step, each step between two brackets, so
        # each step is scaled by the host speed around it
        nonlocal setup_raw_s, setup_s
        before = calib.bracket()
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        after = calib.bracket()
        setup_raw_s += elapsed
        setup_s += elapsed * calib.REF_BRACKET_S / ((before + after) / 2)
        return out

    def load():
        import nftrace.cli

        return nftrace

    nftrace = setup_step(load)
    setup_step(lambda: nftrace.factor_integer(2))  # first use sieves the small primes
    pool = {
        name: setup_step(lambda: nftrace.new_field(nftrace.parse_polynomial(text)))
        for name, text in job.get("pool", {}).items()
    }
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    render_json = nftrace.cli.render_json

    def inspect(op):
        K = nftrace.new_field(nftrace.parse_polynomial(op["poly"]))
        return render_json(nftrace.inspect_field(K))

    def compare(op):
        a, b = op["pair"]
        return render_json(nftrace.compare(pool[a], pool[b]).to_dict())

    run_op = compare if pool else inspect
    cap = job["cap_s"]

    def on_alarm(signum, frame):
        raise OpCapped(tracer.innermost() if tracer else None)

    signal.signal(signal.SIGALRM, on_alarm)

    ops = job["ops"]
    want_digest = job["expected"].get("digests", {})
    want_verdicts = job["expected"].get("verdicts", {})
    first_digest: dict[int, str] = {}
    scaled_ms: list[list[float]] = [[] for _ in ops]  # per input, per attempt
    raw_ms: list[list[float]] = [[] for _ in ops]
    status = ["ok"] * len(ops)  # an input is ok while every attempt of it is
    speeds: list[float] = []
    attempts = {"ok": 0, "capped": 0, "error": 0, "wrong": 0}
    capped_stages: list[str] = []
    notes: dict[str, str] = {}  # op name -> detail of its first non-ok outcome
    digests: dict[str, str] = {}
    verdicts: dict[str, dict] = {}
    timed_s = 0.0
    passes = 0
    attempted = 0

    def attempt(i: int) -> None:
        nonlocal timed_s, attempted
        op = ops[i]
        if tracer:
            tracer.start_op(attempted)
        attempted += 1
        text, detail, stage = None, None, None
        # start every op from a heap without the garbage of earlier ops,
        # so that its latency does not depend on the seeded order
        gc.collect()
        before = calib.bracket()
        start = time.perf_counter()
        try:
            try:
                # the cap is in reference seconds: a slow host gets longer
                signal.setitimer(signal.ITIMER_REAL, cap * before / calib.REF_BRACKET_S)
                text = run_op(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = "ok"
        except OpCapped as exc:
            outcome, stage = "capped", exc.stage
        except Exception as exc:  # any raise is an `error` outcome
            outcome, detail = "error", f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - start
        after = calib.bracket()
        timed_s += elapsed
        speed = calib.REF_BRACKET_S / ((before + after) / 2)
        speeds.append(speed)
        raw_ms[i].append(1000 * elapsed)
        scaled_ms[i].append(1000 * (cap if outcome == "capped" else elapsed * speed))

        # checks, outside the op's timed interval
        if outcome == "ok":
            d = checks.digest(text)
            if i in first_digest:
                if d != first_digest[i]:
                    outcome, detail = "wrong", "output differs from the first attempt"
            else:
                payload = json.loads(text)
                problems = checks.payload_problems(payload, tuple(op.get("pair", ())))
                want = want_digest.get(op["name"])
                if want is not None and want != d:
                    problems.append("output digest differs from the recorded one")
                want = want_verdicts.get(op["name"])
                if want is not None and want != payload["verdicts"]:
                    problems.append("verdicts differ from the recorded ones")
                if problems:
                    outcome, detail = "wrong", "; ".join(problems)
                else:
                    first_digest[i] = d
                    digests[op["name"]] = d
                    if op["name"] == checks.PINNED_PAIR:
                        verdicts[op["name"]] = payload["verdicts"]
        attempts[outcome] += 1
        if outcome == "capped":
            capped_stages.append(stage)
            detail = f"capped in {stage}" if stage else "capped"
        if outcome != "ok" and status[i] == "ok":
            status[i] = outcome
        if detail:
            notes.setdefault(op["name"], detail)

    def wanted(i: int) -> bool:
        if status[i] != "ok":
            return False
        if timed_s < job["seconds"]:
            return True
        return len(raw_ms[i]) < MIN_SAMPLES and sum(raw_ms[i]) < 1000 * MIN_INPUT_S

    # A traced run makes whole passes over the inputs instead, so that every
    # input weighs the same in the per-op layer stats.
    whole_passes = tracer is not None
    while True:
        if passes == 0:
            order = range(len(ops))
        elif whole_passes:
            order = [i for i in range(len(ops)) if status[i] == "ok"]
            if timed_s >= job["seconds"]:
                order = []
        else:
            order = [i for i in range(len(ops)) if wanted(i)]
        if not order:
            break
        if tracer:
            tracer.new_pass()
        for i in order:
            if passes == 0 or whole_passes or wanted(i):
                attempt(i)
        passes += 1

    # one latency per input: the median of its attempts; a capped input
    # reads the cap
    def per_input(samples):
        return [
            1000 * cap if s == "capped" else statistics.median(x)
            for s, x in zip(status, samples)
        ]

    scaled, raw = per_input(scaled_ms), per_input(raw_ms)
    ok_inputs = status.count("ok")
    p50, p90 = percentiles(scaled)
    raw_p50, raw_p90 = percentiles(raw)
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "inputs": len(ops),
        "statuses": {s: status.count(s) for s in attempts},
        "attempted": attempted,
        "attempts": attempts,
        "passes": passes,
        "timed_s": timed_s,
        "ok_frac": ok_inputs / len(ops),
        "ops_per_s": ok_inputs / (sum(scaled) / 1000),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "raw": {
            "ops_per_s": ok_inputs / (sum(raw) / 1000),
            "op_p50_ms": raw_p50,
            "op_p90_ms": raw_p90,
        },
        "speed": statistics.median(speeds),
        "samples_per_input": statistics.median(len(x) for x in raw_ms),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "notes": notes,
        "slowest_ok": sorted(
            ((op["name"], ms) for op, s, ms in zip(ops, status, scaled) if s == "ok"),
            key=lambda x: -x[1],
        )[:12],
        "digests": digests,
        "verdicts": verdicts,
    }
    result["p90_tail_samples"] = sum(1 for x in scaled if x > p90)
    if tracer:
        result["layers"] = tracer.layer_metrics(attempted, capped_stages)
        result["layers"]["trace.ops_per_s"] = result["ops_per_s"]
        if job.get("trace_path"):
            tracer.write(job["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
