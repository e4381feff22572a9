"""restfuzz benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fuzz-byte --seed 0 --seconds 20 --trace 0

Run from the root of a restfuzz checkout; the program is imported from
its ``src/`` directory.  A run sets up its workload several times
(``setup_s`` is the median), runs one discarded warm-up session, then
repeats fixed-size sessions until ``--seconds`` have passed.  It prints
an environment record, one line per session, every metric with its
unit, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 1 when a correctness check fails and 2
when the checkout cannot be benchmarked.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description="Benchmark one restfuzz workload.")
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True, help="RNG seed of the fuzz session or training")
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate traced and untraced sessions and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and a single set-up, for checking the harness itself")
    return ap.parse_args(argv)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return None


def time_wait_sockets() -> int | None:
    """TCP sockets in TIME_WAIT, from /proc/net/sockstat (read only)."""
    text = _read("/proc/net/sockstat") or ""
    for line in text.splitlines():
        if line.startswith("TCP:"):
            fields = line.split()[1:]
            return int(dict(zip(fields[::2], fields[1::2]))["tw"])
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_text = "unknown"
    loadavg = _read("/proc/loadavg")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_1m": float(loadavg.split()[0]) if loadavg else None,
        "tcp_time_wait": time_wait_sockets(),
    }


def check_fingerprint(bench, fingerprints: list[dict], key: str) -> dict:
    """Every session of a run must leave the same fingerprint, and so
    must every earlier run of the same code, workload, seed and sizes."""
    first = fingerprints[0]
    if any(fp != first for fp in fingerprints):
        bench.fail("sessions of one run left different fingerprints")
    if bench.quick_start_losses is not None:
        losses = json.dumps(bench.quick_start_losses).encode()
        first = dict(first, quick_start_losses_sha256=hashlib.sha256(losses).hexdigest())
    store = os.path.join(STATE_DIR, "fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, key + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            if json.load(fh) != first:
                bench.fail("fingerprint differs from an earlier run of the same code (%s)" % path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(first, fh)
    return first


def run(args) -> int:
    import workloads
    import tracing

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    work_dir = os.path.join(STATE_DIR, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir)
    bench = workloads.Bench(args.workload, args.seed, sizes, work_dir)
    setup_times, setup_units, plain, traced = [], [], [], []
    reconstruction = 0.0
    try:
        while len(setup_times) < sizes.setups or sum(setup_times) < sizes.setup_min_s:
            tracer = tracing.Tracer() if args.trace else None
            took = bench.setup(len(setup_times), tracer)
            setup_times.append(took)
            if tracer is not None:
                setup_units.append(tracing.summarize(tracer, took))
        print("setup_s " + " ".join("%.4f" % t for t in setup_times))
        if args.trace:
            reconstruction = bench.reconstruction()
        fingerprints = []
        if sizes.warmup:
            fingerprints.append(bench.session().fingerprint)
        deadline = time.perf_counter() + args.seconds
        while True:
            want_trace = bool(args.trace) and len(traced) < len(plain)
            result = bench.session(tracing.Tracer() if want_trace else None)
            (traced if want_trace else plain).append(result)
            fingerprints.append(result.fingerprint)
            print("session %d%s wall_s=%.4f rate=%.3f failed=%d"
                  % (len(plain) + len(traced), " traced" if want_trace else "",
                     result.wall_s, result.rate, result.failed))
            if time.perf_counter() >= deadline and (traced or not args.trace):
                break
    finally:
        bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    key = "%s-seed%d-%s-%s" % (
        args.workload, args.seed, sizes.tag(), workloads.code_hash([SRC, HERE])[:16]
    )
    fingerprint = check_fingerprint(bench, fingerprints, key)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    last = plain[-1]
    rate = statistics.median(r.rate for r in plain)
    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    fuzz = bench.strategy is not None
    reported = {
        "cases_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_share": (failed / attempted, "share"),
    }
    if fuzz:
        reported["blocks_covered"] = (last.blocks_covered, "blocks")
        reported["faults_found"] = (len(last.faults), "faults")
    else:
        ms = statistics.median(r.train_ms_per_step for r in plain)
        reported["train_ms_per_step"] = (ms, "ms")

    if args.trace:
        extra = {
            "blocks_covered": last.blocks_covered,
            "faults_found": len(last.faults),
            "reports": last.reports,
            "reconstruction": reconstruction,
            "seeds_kept": bench.seeds_kept,
            "overhead_share": 1.0 - statistics.median(r.rate for r in traced) / rate,
        }
        layers = tracing.layer_metrics(
            [tracing.summarize(r.tracer, r.wall_s) for r in traced], setup_units, extra
        )
        wanted = spec["per_layer"]
        values = {m["name"]: (layers[m["name"]], m["unit"]) for m in wanted}
        write_trace(args, env, values, traced)
    else:
        values = {m["name"]: (reported[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}

    print("tcp_time_wait_end %s" % time_wait_sockets())
    for name, (value, unit) in sorted({**reported, **values}.items()):
        print("metric %-13s %-42s %16.6f %s" % (args.workload, name, value, unit))
    for message in bench.failures:
        print("CHECK FAILED: " + message)
    correct = not bench.failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


def write_trace(args, env, values, traced) -> None:
    """Spans stay in memory during the run and are written out here."""
    import tracing

    out_dir = os.path.join(STATE_DIR, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "metrics": {name: value for name, (value, _unit) in values.items()},
            "span_fields": ["name", "start_s", "end_s", "parent", "case"],
            "sessions": [tracing.spans_record(r.tracer) for r in traced],
        }, fh)
    print("trace written to %s" % os.path.relpath(path, ROOT))


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "restfuzz", "cli.py")):
        print("perfbench: no restfuzz sources at %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    nproc = str(os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:  # before numpy loads: BLAS threads <= nproc
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, SRC)
    import workloads

    return run(parse_args(argv, sorted(workloads.WORKLOADS)))


if __name__ == "__main__":
    sys.exit(main())
