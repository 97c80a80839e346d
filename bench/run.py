"""pragrate benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 22 --trace 0

Load is a closed loop with one client in one thread: each op starts when the
previous one has finished.  CLI ops call ``pragrate.cli.main(argv)`` in
process with stdin/stdout/stderr redirected; a few ops call public library
functions the CLI cannot reach.

``--trace 0`` prints the end-to-end metrics: set-up time (cold imports in
fresh interpreters), a timed pass of about ``--seconds`` over a fixed
number of blocks of fresh ops, and a separate tracemalloc pass.  ``--trace 1``
runs each op of one block untraced and then under the tracer, and prints the
per-layer metrics.  Every op's output is checked after its pass, outside
the timed region.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  A record of the run, with its environment, is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (BENCH is on sys.path when run as a script)
from checks import check  # noqa: E402

SETUP_REPEATS = 11
SETUP_CODE = "import pragrate.cli as cli; cli.build_parser()"
CALIBRATION_LOOPS = 5_000_000
# Blocks per second of the timed pass on the development box (2 vCPU, CPython
# 3.11), from the median of ten wall-bound runs per workload.  The timed pass
# runs round(seconds * rate) whole blocks, so that a seed fixes its op list,
# and with it ``attempted`` and ``failed``, and every block keeps its mix;
# it lasts about ``--seconds`` there.
BLOCKS_PER_S = {"exact_sweep": 1.09, "tilted_sweep": 0.70,
                "codec_roundtrip": 0.94, "census_sweep": 2.84}
MAX_STRETCH = 4  # a pass that runs this many times over --seconds stops at a block end

# Speed probe.  On a shared box the CPU's speed swings by a quarter or more
# in phases lasting seconds, and op latencies swing with it.  A short fixed
# loop is timed before every op (and every set-up launch); each time is
# scaled by PROBE_REF_S over the median probe of its neighbourhood, which
# reports it at one fixed machine speed.  The raw times go to the run record.
PROBE_LOOPS = 20_000
PROBE_REF_S = 0.0015  # the probe's time on the development box at full speed
PROBE_WINDOW = 3  # neighbours on each side in the local median


# --- running ops -------------------------------------------------------------


def _call_cli(argv, stdin):
    from pragrate import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refuses bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _call_lib(op):
    import pragrate

    source = pragrate.SourcePmf.parse(op.args[0])
    if op.fn == "length_distribution":
        return pragrate.exact_limits.length_distribution(source, op.args[1], exact=True)
    n, lengths = op.args[1], op.args[2]
    return tuple(pragrate.coding.universal_excess_probability(source, n, L) for L in lengths)


def run_op(op):
    """Run one op: (ok, output, error).  A nonzero exit or an exception fails it."""
    try:
        if op.kind == "lib":
            return True, _call_lib(op), ""
        code, out, err = _call_cli(op.argv, op.stdin)
        if code == 0 and op.kind == "codec":
            code, decoded, err = _call_cli(op.argv2, out)
            out = (out, decoded)
        return code == 0, out, err if code == 0 else f"exit {code}: {err.strip()}"
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        return False, None, f"{type(exc).__name__}: {exc}"


def clear_caches():
    """Empty pragrate's memo caches, as a fresh process would have them."""
    for name, module in list(sys.modules.items()):
        if name.startswith("pragrate"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Tally:
    """Outcomes of the ops of one run, checked after each pass."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.deep = 0
        self.incorrect: list[str] = []

    def add(self, results) -> list[bool]:
        """Check (op, ok, output, error) tuples; return which ops succeeded."""
        passed = []
        for op, ok, output, error in results:
            self.attempted += 1
            self.deep += op.deep
            reason = check(op, output) if ok else None
            if reason is not None:
                self.incorrect.append(f"{op.cell}: {reason}")
            elif not ok and not op.deep:
                # deep-regime ladders are the one known failure; anything else is wrong
                self.incorrect.append(f"{op.cell}: {error}")
            good = ok and reason is None
            self.failed += not good
            passed.append(good)
        return passed


# --- passes ------------------------------------------------------------------


def cpu_loop(loops: int) -> float:
    """Seconds taken by a fixed CPU loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_scale(probes: list[float]) -> list[float]:
    """Per-sample factor PROBE_REF_S / (median of the neighbouring probes)."""
    w = PROBE_WINDOW
    return [PROBE_REF_S / statistics.median(probes[max(0, i - w):i + w + 1])
            for i in range(len(probes))]


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing pragrate.cli and building
    its parser, and the speed probe taken before each launch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, probes = [], []
    for i in range(SETUP_REPEATS + 1):
        probe = cpu_loop(PROBE_LOOPS)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:  # the first one may still be writing bytecode caches
            times.append(time.perf_counter() - t0)
            probes.append(probe)
    return times, probes


def run_list(ops):
    return [(op, *run_op(op)) for op in ops]


def timed_blocks(workload: str, seconds: float) -> int:
    return max(1, round(seconds * BLOCKS_PER_S[workload]))


def timed_pass(workload: str, seed: int, seconds: float):
    """Closed loop over ``timed_blocks`` blocks of the fresh ``timed``
    stream; returns results, op latencies, the probe before each op, wall."""
    stream = workloads.stream(workload, seed, "timed")
    size = workloads.block_size(workload)
    results, latencies, probes, wall = [], [], [], 0.0
    for _ in range(timed_blocks(workload, seconds)):
        if wall > MAX_STRETCH * seconds:
            break
        block = list(itertools.islice(stream, size))  # generated outside the clock
        start = time.perf_counter()
        for op in block:
            probes.append(cpu_loop(PROBE_LOOPS))
            t0 = time.perf_counter()
            ok, output, error = run_op(op)
            latencies.append(time.perf_counter() - t0)
            results.append((op, ok, output, error))
        wall += time.perf_counter() - start
    return results, latencies, probes, wall


def memory_pass(ops) -> tuple[dict, list]:
    """Per cell, the tracemalloc peak (MiB) of one fresh op above the memory
    held when it started (earlier outputs are still held).  Garbage left by
    earlier ops (argparse parsers hold reference cycles) is collected first,
    so the peak does not depend on when the collector last ran."""
    clear_caches()
    results, peaks = [], {}
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            results.append((op, *run_op(op)))
            peaks[op.cell] = (tracemalloc.get_traced_memory()[1] - held) / 2 ** 20
    finally:
        tracemalloc.stop()
    return peaks, results


def paired_passes(ops):
    """Run each op untraced, then again under the tracer, back to back, so
    that both sides see the same machine speed.  Caches are emptied before
    every run.  Returns (untraced wall, traced wall, results of each, tracer)."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    hits = lookups = 0
    for i, op in enumerate(ops):
        clear_caches()
        t0 = time.perf_counter()
        plain.append((op, *run_op(op)))
        plain_wall += time.perf_counter() - t0
        clear_caches()
        with tracer:
            before = tracer.envelope.cache_info()
            t0 = time.perf_counter()
            with tracer.op(i, op.kind, op.cell):
                traced.append((op, *run_op(op)))
            traced_wall += time.perf_counter() - t0
            after = tracer.envelope.cache_info()
        hits += after.hits - before.hits
        lookups += after.hits + after.misses - before.hits - before.misses
    tracer.hit_ratio = hits / lookups if lookups else 0.0
    return plain_wall, traced_wall, plain, traced, tracer


# --- metrics -----------------------------------------------------------------


def _latency_metrics(latencies, passed):
    good = [lat for lat, ok in zip(latencies, passed) if ok]
    if len(good) < 2:
        raise RuntimeError(f"only {len(good)} ops succeeded in the timed pass")
    p90 = statistics.quantiles(good, n=10)[8]
    return len(good) / sum(latencies), statistics.median(good), p90, sum(lat > p90 for lat in good)


def end_to_end(workload, seed, seconds, tally, record):
    setup, setup_probes = measure_setup()
    clear_caches()
    run_list(workloads.one_per_cell(workload, seed, "warmup"))
    clear_caches()
    results, latencies, probes, wall = timed_pass(workload, seed, seconds)
    passed = tally.add(results)
    peaks, mem_results = memory_pass(workloads.memory_ops(workload, seed))
    tally.add(mem_results)
    scaled = [lat * s for lat, s in zip(latencies, speed_scale(probes))]
    ops_per_s, p50, p90, beyond = _latency_metrics(scaled, passed)
    raw_ops_per_s, raw_p50, raw_p90, _ = _latency_metrics(latencies, passed)
    by_cell = {}
    for (op, *_), lat, ok in zip(results, scaled, passed):
        if ok:
            by_cell.setdefault(op.cell, []).append(1000 * lat)
    setup_s = statistics.median(setup) * PROBE_REF_S / statistics.median(setup_probes)
    record.update(timed_ops=len(results), latency_samples=sum(passed), samples_beyond_p90=beyond,
                  timed_wall_s=wall, probe_median_s=statistics.median(probes),
                  raw={"ops_per_s": raw_ops_per_s, "op_p50_ms": 1000 * raw_p50,
                       "op_p90_ms": 1000 * raw_p90, "setup_s": statistics.median(setup),
                       "ops_per_s_wall": sum(passed) / wall},
                  cell_p50_ms={c: statistics.median(v) for c, v in sorted(by_cell.items())},
                  cell_peak_mb=peaks, setup_samples_s=setup)
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (1000 * p50, "ms"),
        "op_p90_ms": (1000 * p90, "ms"),
        "peak_mem_mb": (max(peaks.values()), "MiB"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": (sum(passed) / len(results), "ratio"),
    }


def per_layer(workload, seed, tally, record):
    from tracer import LAYERS

    trace_ops = workloads.ops(workload, seed, "trace", workloads.block_size(workload))
    run_list(workloads.one_per_cell(workload, seed, "warmup"))
    plain_wall, traced_wall, plain, traced, tracer = paired_passes(trace_ops)
    tally.add(plain)
    tally.add(traced)
    for (op, ok_a, out_a, _), (_, ok_b, out_b, _) in zip(plain, traced):
        if ok_a != ok_b or repr(out_a) != repr(out_b):
            tally.incorrect.append(f"{op.cell}: traced output differs from untraced")
    metrics = {}
    for mod, fn, _ in LAYERS:
        calls, self_s, errors = tracer.stats[f"{mod}.{fn}"]
        metrics[f"{mod}.{fn}.calls"] = (calls, "count")
        metrics[f"{mod}.{fn}.self_s"] = (self_s, "s")
        metrics[f"{mod}.{fn}.errors"] = (errors, "count")
    metrics["types_census.types_enumerated"] = (tracer.types_enumerated, "count")
    metrics["exact_limits.length_distribution.distinct_ratio"] = (tracer.distinct_ratio, "ratio")
    metrics["exponents.moment_envelope.hit_ratio"] = (tracer.hit_ratio, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    record.update(trace_ops=len(trace_ops), untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
    spans_path = BENCH / "out" / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.spans))
    return metrics


# --- environment -------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout's git metadata, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, calibration) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "op_list_sha256": workloads.op_list_hash(workload, seed),
        "calibration_s": calibration,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "pragrate" / "cli.py").is_file():
        sys.stderr.write(f"pragrate sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import pragrate  # noqa: F401  (fails loudly if the package is broken)

    (BENCH / "out").mkdir(exist_ok=True)
    env = environment(args.workload, args.seed, cpu_loop(CALIBRATION_LOOPS))
    print(f"op list sha256 {env['op_list_sha256']}")
    tally = Tally()
    record = {"env": env}
    if args.trace:
        metrics = per_layer(args.workload, args.seed, tally, record)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, tally, record)
    record.update(attempted=tally.attempted, failed=tally.failed, incorrect=tally.incorrect[:20])
    result = {
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for reason in tally.incorrect[:20]:
        sys.stderr.write(f"incorrect: {reason}\n")
    print("env " + json.dumps(env))
    summary = {k: v for k, v in record.items()
               if k not in ("env", "result", "setup_samples_s", "cell_p50_ms", "cell_peak_mb")}
    summary["fail_ratio"] = tally.failed / tally.attempted
    summary["deep_share"] = tally.deep / tally.attempted
    print("run " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
