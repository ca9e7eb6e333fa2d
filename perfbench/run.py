"""Benchmark of selfdual.decompose on one seeded workload.

    python3 perfbench/run.py --workload interval-1d --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

With ``--trace 0`` it prints the end-to-end metrics: ``decompose_s`` (median
over the timed passes of the time to decompose the instance set once),
``setup_s`` (median over fresh processes of the time from start to ready
for the first timed pass), ``peak_mem_mb`` (tracemalloc peak of one pass,
measured in a pass of its own) and ``residual_median``. With ``--trace 1``
it prints the per-layer metrics of a traced run (see tracing.py), medians
over traced passes. Every call is checked (see checks.py); a call that
raises or fails a check counts as failed. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; it and the spans of a traced run are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("interval-1d", "plane-2d", "small-batch")
# timed passes made even when one pass outlasts --seconds
MIN_PASSES = 3
# fresh processes whose set-up time is measured; setup_s is their median
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a timed run would, print "ready" and exit
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class Ledger:
    """Makes, counts and checks every decompose call of the run.

    The first output of each instance is kept; every later output of that
    instance must equal it bit for bit (sigma, P, D, residuals). That is
    how traced and memory-traced calls are compared with untraced ones.
    """

    def __init__(self, insts, refs):
        self.insts = insts
        self.refs = refs
        self.first = [None] * len(insts)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # outputs that failed a check, as opposed to raising

    def call(self, k: int, after=None):
        """Decompose instance k and check the output.

        ``after`` is called as soon as decompose returns, before the
        checks. Returns the seconds decompose took and the report, None if
        it raised.
        """
        import checks  # loaded by main once the program is importable

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = self.insts[k].decompose()
        except Exception as exc:  # a failed operation: counted and reported
            self.failed += 1
            print(f"FAILED {self.insts[k].label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        if after is not None:
            after()
        out = checks.outcome_of(report)
        fails = checks.check(self.insts[k], self.refs[k], out)
        if self.first[k] is None:
            self.first[k] = out
        elif not checks.same_output(self.first[k], out):
            fails.append("output differs from the first call on this instance")
        if fails:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG {self.insts[k].label}: {'; '.join(fails)}")
        return elapsed, report


def setup_probes(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        out.append(elapsed)
    return out


def timed_passes(ledger, seconds, call=None):
    """Whole passes over the instance set until ``seconds`` have passed.

    Yields, per pass, the summed decompose time and the reports.
    """
    call = call or ledger.call
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        results = [call(k) for k in range(len(ledger.insts))]
        passes += 1
        yield sum(t for t, _ in results), [r for _, r in results]


def memory_pass(ledger) -> float:
    """Peak MB traced by tracemalloc over one pass.

    Tracing covers each decompose call only, not the checks; nothing is
    kept from one call to the next, so the largest per-call peak is the
    peak of the pass. The pass runs before the timed ones and collects
    garbage before each call: run after them, its peak moved by 6 % (18.7
    or 19.9 MB on interval-1d) with the number of timed passes before it.
    """
    peak = 0

    def stop():
        nonlocal peak
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    for k in range(len(ledger.insts)):
        gc.collect()
        tracemalloc.start()
        try:
            ledger.call(k, after=stop)
        finally:
            tracemalloc.stop()  # a no-op unless decompose raised
    return peak / 1e6


def end_to_end(args, ledger, setup_s) -> dict:
    mem = memory_pass(ledger)
    times = [t for t, _ in timed_passes(ledger, args.seconds)]
    residuals = np.concatenate(
        [o.residual1 for i, o in zip(ledger.insts, ledger.first) if o is not None and i.closed_form]
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3
    print(f"passes {len(times)}: " + " ".join(f"{t:.4f}" for t in times) + " s")
    print("setup probes: " + " ".join(f"{t:.4f}" for t in setup_s) + " s")
    print(f"ru_maxrss {rss:.1f} MB (whole process, beside peak_mem_mb)")
    return {
        "decompose_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_mem_mb": (mem, "MB"),
        "residual_median": (float(np.median(residuals)), "1"),
    }


def per_layer(args, ledger) -> dict:
    import tracing

    for k in range(len(ledger.insts)):  # untraced outputs to compare against
        ledger.call(k)

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    for metric, target in installed.absent.items():
        print(f"absent: {metric} ({target} not found), reported as 0")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)

    def traced_call(k):
        tracer.call += 1
        sid = tracer.open(tracing.ROOT)
        tracer.active = True

        def stop():
            tracer.active = False
            tracer.close(sid)

        try:
            return ledger.call(k, after=stop)
        finally:
            if tracer.active:  # decompose raised before ``after`` ran
                stop()

    rows = []
    try:
        for seconds, reports in timed_passes(ledger, args.seconds, traced_call):
            row = {name: 0.0 for _, _, name, kind in tracing.TARGETS if kind == "span"}
            row.update(tracer.self_times())
            row["factorize.decompose_s"] = seconds  # timed around each call
            for _, _, name, kind in tracing.TARGETS:
                if kind != "span":
                    row[name] = tracer.counts.get(name, 0)
            row[tracing.BIDUAL_CELLS] = tracer.counts.get(tracing.BIDUAL_CELLS, 0)
            done = [r for r in reports if r is not None]
            row["primal_solver.masters"] = sum(
                r.tolerances["primal_iterations"] for r in done
            )
            row["domain.pset_m"] = sum(r.tolerances["pset_size"] for r in done)
            rows.append(row)
            tracer.append_jsonl(spans_path, workload=args.workload, seed=args.seed, pass_no=len(rows))
            tracer.reset()
    finally:
        installed.restore()

    total = statistics.median(r["factorize.decompose_s"] for r in rows)
    selfsum = statistics.median(
        sum(v for n, v in r.items() if n.endswith("_s") and n != "factorize.decompose_s")
        for r in rows
    )
    print(f"traced passes {len(rows)}: self times add up to {selfsum:.4f} s of {total:.4f} s")
    return {
        name: (statistics.median(r[name] for r in rows), "s" if name.endswith("_s") else "count")
        for name in rows[0]
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "selfdual" / "__init__.py").is_file():
        print(f"error: no selfdual package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # these import selfdual, so only once SRC is on the path
    import checks
    import workloads

    insts = workloads.instances(args.workload, args.seed)
    for inst in workloads.warmup_instances(args.workload, args.seed):
        inst.decompose()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_s = setup_probes(args) if args.trace == 0 else []
    refs = [checks.reference(inst, args.seed) for inst in insts]
    ledger = Ledger(insts, refs)
    if args.trace == 0:
        metrics = end_to_end(args, ledger, setup_s)
    else:
        metrics = per_layer(args, ledger)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {ledger.attempted} failed {ledger.failed}")
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
