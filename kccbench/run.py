"""kcc-bench: end-to-end and per-layer benchmark of kcc-repro.

One process, one closed-loop client: the next item starts when the previous
one has finished.  Usage, from the repository root::

    python3 kccbench/run.py --workload check-cold --seed 1 --seconds 25 --trace 0
    python3 kccbench/run.py --workload all --seed 1      # every workload, one table
    python3 kccbench/run.py --workload fuzz-oracle --digest-only --seed 3

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures an
untraced loop and then a traced loop over the same inputs, and reports the
per-layer metrics of the traced loop (tracing overhead included).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out DIR`` also writes the full result
(and, when traced, the raw spans) under DIR; nothing else is written.

Exit status: 0 when every answer was right, 1 when an answer check failed,
2 when the program under test is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("check-cold", "run-kernels", "harness-probed", "fuzz-oracle")
#: Set-up runs per benchmark run; ``setup_s`` reports their median.
SETUP_REPS = 3
END_TO_END_UNITS = {"items_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "correct_share": "share",
                    "setup_s": "s", "peak_rss_mb": "MB"}
#: Layers whose self time is reported, per item.
SELF_TIME_LAYERS = (
    "cfront.preprocess", "cfront.lex", "cfront.parse", "sema.static_checks",
    "core.lowering.plain", "core.lowering.instrumented", "core.bytecode",
    "core.run", "core.run.probed", "analyzers.run_probe_group",
    "fuzz.generate_case", "fuzz.run_oracles")
CFRONT_LAYERS = ("cfront.preprocess", "cfront.lex", "cfront.parse")
RUN_LAYERS = ("core.run", "core.run.probed", "core.run.walker")
PER_LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms/item" for layer in SELF_TIME_LAYERS},
    "cfront.lex.tokens": "tokens/item",
    "cfront.lex.us_per_token": "us/token",
    "cfront.parse.calls_per_item": "calls/item",
    "cfront.share_of_item": "share",
    "api.session.compile_cache_hit_share": "share",
    "core.bytecode.native_fn_share": "share",
    "core.bytecode.main_native_share": "share",
    "core.run.steps": "steps/item",
    "core.run.steps_per_s": "steps/s",
    "fuzz.oracles.compiles_per_case": "calls/item",
    "fuzz.oracles.walker_run_ms": "ms/item",
    "trace.items_per_s": "1/s",
    "trace.overhead_share": "share",
}


def _quantile(sorted_values: list[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the highest whole
    percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in range(99, 49, -1):
        beyond = count - math.ceil(percentile / 100.0 * count)
        if beyond >= 10 or percentile == 50:
            return percentile, _quantile(ordered, percentile), beyond
    raise AssertionError("unreachable")


class Loop:
    """What one measuring loop saw, per distinct item."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}  # scaled time per pass, per item
        self.wrong: dict[str, str] = {}        # items answered wrong
        self.tracebacks: dict[str, str] = {}   # items that raised
        self.known: set[str] = set()           # pinned known misses
        self.samples = 0
        self.failed_samples = 0
        self.sample_s = 0.0                    # raw seconds in items
        self.passes = 0
        self.table_problems: list[str] = []
        self.wall_s = 0.0


def measure(workload, seconds: float, tracer=None) -> Loop:
    """Run passes over the corpus until ``seconds`` of wall time have
    passed and at least one pass is whole.  Every item time is kept, scaled
    to the reference host speed (:mod:`hostspeed`)."""
    loop = Loop()
    check_pass = getattr(workload, "check_pass", None)
    pending: list[tuple[str, float, int]] = []
    window = [0.0, hostspeed.calibrate()]  # item time since, and last, calibration

    def flush() -> None:
        calibration = hostspeed.calibrate()
        scale = hostspeed.scale(window[1], calibration)
        for name, elapsed, span in pending:
            loop.times.setdefault(name, []).append(elapsed * scale)
            if tracer is not None:
                tracer.scales[span] = scale
        pending.clear()
        window[:] = [0.0, calibration]

    gc.collect()
    start = time.perf_counter()
    for batch in workload.batches():
        records = {}
        for item in batch:
            if loop.passes and time.perf_counter() - start >= seconds:
                break
            name = workload.item_name(item)
            began = time.perf_counter()
            span = tracer.begin("item") if tracer is not None else -1
            error = None
            try:
                result = workload.run_item(item)
            except Exception as exc:  # an exception is a failed item
                result, error = None, f"{type(exc).__name__}: {exc}"
                loop.tracebacks.setdefault(name, traceback.format_exc())
            finally:
                if tracer is not None:
                    tracer.end(span)
            elapsed = time.perf_counter() - began
            pending.append((name, elapsed, span))
            window[0] += elapsed
            if window[0] >= hostspeed.WINDOW_S:
                flush()
            loop.samples += 1
            loop.sample_s += elapsed
            reason = error or workload.check(item, result)
            if reason is not None:
                if error is None and workload.known_miss(item, result):
                    loop.known.add(name)
                else:
                    loop.failed_samples += 1
                    loop.wrong.setdefault(name, reason)
            records[name] = result
        else:
            loop.passes += 1
            # A pass with a failed item is already counted as wrong.
            if check_pass is not None and None not in records.values():
                loop.table_problems.extend(check_pass(records))
            continue
        break
    flush()
    loop.wall_s = time.perf_counter() - start
    return loop


def item_times(loop: Loop) -> list[float]:
    """Each distinct item's median time over the passes of the loop."""
    return [statistics.median(times) for times in loop.times.values()]


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, dict]:
    times = item_times(loop)
    percentile, tail, beyond = _tail(times)
    items = len(times)
    values = {
        "items_per_s": items / sum(times),
        "latency_p50_ms": 1000.0 * statistics.median(times),
        "latency_tail_ms": 1000.0 * tail,
        "correct_share": (items - len(loop.wrong) - len(loop.known)) / items,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"items": items, "tail_percentile": percentile,
             "tail_samples_beyond": beyond,
             "raw_items_per_s": loop.samples / loop.sample_s}
    return values, notes


def per_layer(tracer, traced: Loop, untraced: Loop) -> dict:
    """Per-layer figures of the traced loop, per measured item."""
    self_s, total_s, _calls = tracer.totals()
    counts = tracer.counts
    items = traced.samples
    item_s = total_s.get("item", 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {f"{layer}.self_ms": 1000.0 * self_s.get(layer, 0.0) / items
              for layer in SELF_TIME_LAYERS}
    tokens = counts["cfront.lex.tokens"]
    run_s = sum(self_s.get(layer, 0.0) for layer in RUN_LAYERS)
    traced_rate = len(traced.times) / sum(item_times(traced))
    untraced_rate = len(untraced.times) / sum(item_times(untraced))
    values.update({
        "cfront.lex.tokens": tokens / items,
        "cfront.lex.us_per_token": ratio(1e6 * self_s.get("cfront.lex", 0.0), tokens),
        "cfront.parse.calls_per_item": counts["cfront.parse.calls"] / items,
        "cfront.share_of_item": ratio(
            sum(self_s.get(layer, 0.0) for layer in CFRONT_LAYERS), item_s),
        "api.session.compile_cache_hit_share": ratio(
            counts["api.session.cache_lookups"] - counts["api.session.cache_misses"],
            counts["api.session.cache_lookups"]),
        "core.bytecode.native_fn_share": ratio(
            counts["core.bytecode.fns_native"], counts["core.bytecode.fns_defined"]),
        "core.bytecode.main_native_share": ratio(
            counts["core.bytecode.main_native"], counts["core.bytecode.units_run"]),
        "core.run.steps": counts["core.run.steps"] / items,
        "core.run.steps_per_s": ratio(counts["core.run.steps"], run_s),
        "fuzz.oracles.compiles_per_case": counts["core.compile_unit.calls"] / items,
        "fuzz.oracles.walker_run_ms": 1000.0 * total_s.get("core.run.walker", 0.0) / items,
        "trace.items_per_s": traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
    })
    return values


def scaled(elapsed: float, calibration: float) -> float:
    """``elapsed`` at the reference host speed, given the calibration times
    just before (``calibration``) and just after it."""
    return elapsed * hostspeed.scale(calibration, hostspeed.calibrate())


def recorded_digest(workload: str, seed: int):
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def run_one(args) -> int:
    import compileall

    # Build step: byte-compile the sources once per checkout, outside set-up.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    sys.path.insert(0, str(SRC))
    calibration = hostspeed.calibrate()
    began = time.perf_counter()
    import repro  # noqa: F401
    import repro.analyzers.registry  # noqa: F401
    import repro.fuzz.oracles  # noqa: F401
    import repro.suites.harness  # noqa: F401
    import repro.suites.juliet  # noqa: F401
    import repro.suites.ubsuite  # noqa: F401
    import_s = scaled(time.perf_counter() - began, calibration)

    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.digest_only:
        workload = cls()
        workload.setup(args.seed)
        print(workload.inputs_digest())
        return 0
    setups = []
    for _ in range(SETUP_REPS):
        workload = cls()
        calibration = hostspeed.calibrate()
        began = time.perf_counter()
        workload.setup(args.seed)
        setups.append(scaled(time.perf_counter() - began, calibration))
    setup_s = import_s + statistics.median(setups)

    # A traced run splits its time: an untraced loop, then a traced one
    # over the same corpus; the gap between them is the tracing overhead.
    loop_s = args.seconds / 2.0 if args.trace else args.seconds
    untraced = measure(workload, loop_s)
    loops = [untraced]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            loops.append(measure(workload, loop_s, tracer))
        finally:
            uninstall()

    digest = workload.inputs_digest()
    recorded = recorded_digest(args.workload, args.seed)
    if recorded is None:
        digest_note = f"no recorded digest for seed {args.seed}"
    else:
        digest_note = "matches the recorded digest" if recorded == digest \
            else "DIFFERS from the recorded digest: the inputs changed"

    values, notes = end_to_end(untraced, setup_s)
    if tracer is not None:
        metrics = per_layer(tracer, loops[1], untraced)
        units = PER_LAYER_UNITS
    else:
        metrics, units = values, END_TO_END_UNITS
    attempted = sum(loop.samples for loop in loops)
    failed = sum(loop.failed_samples for loop in loops)
    wrong = {name: reason for loop in loops for name, reason in loop.wrong.items()}
    problems = [p for loop in loops for p in loop.table_problems]
    correct = not wrong and not problems

    print(f"kcc-bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  inputs digest {digest} ({digest_note})")
    for index, loop in enumerate(loops):
        print(f"  {'traced' if index else 'untraced'} loop: {loop.passes} whole "
              f"passes over {len(loop.times)} items, {loop.samples} runs, "
              f"{loop.wall_s:.2f} s wall; {len(loop.known)} known misses, "
              f"{len(loop.wrong)} wrong")
    print(f"  raw throughput over every run {notes['raw_items_per_s']:.4g} 1/s; "
          f"latency_tail_ms is p{notes['tail_percentile']} of {notes['items']} "
          f"items ({notes['tail_samples_beyond']} beyond it)")
    print(f"  import {import_s:.3f} s, set-up runs "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for name, reason in sorted(wrong.items())[:20]:
        print(f"  WRONG {name}: {reason}")
    for problem in problems[:20]:
        print(f"  TABLE MISMATCH {problem}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")

    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        full = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "correct": correct, "attempted": attempted, "failed": failed,
                "known_misses": sorted(untraced.known), "wrong": wrong,
                "tracebacks": {n: t for loop in loops for n, t in loop.tracebacks.items()},
                "table_problems": problems,
                "inputs_digest": digest, "digest_note": digest_note,
                "end_to_end": values, "notes": notes,
                "per_layer": metrics if tracer is not None else None,
                "setup_runs_s": setups, "import_s": import_s}
        if tracer is not None:
            self_s, total_s, calls = tracer.totals()
            full["spans"] = {name: {"self_s": self_s[name], "total_s": total_s[name],
                                    "calls": calls[name]} for name in sorted(calls)}
            (out / f"{stem}-spans.json").write_text(json.dumps(tracer.to_dict()))
        (out / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            status = 1
        if lines:
            try:
                results[name] = json.loads(lines[-1])
            except json.JSONDecodeError:
                status = 1
    print()
    print(f"{'metric':40s} {'unit':12s}" + "".join(f"{n:>16s}" for n in WORKLOAD_NAMES))
    for metric, unit in units.items():
        cells = []
        for name in WORKLOAD_NAMES:
            value = results.get(name, {}).get("metrics", {}).get(metric, {}).get("value")
            cells.append(f"{value:16.6g}" if value is not None else f"{'-':>16s}")
        print(f"{metric:40s} {unit:12s}" + "".join(cells))
    print(f"{'correct':40s} {'':12s}" + "".join(
        f"{str(results.get(n, {}).get('correct', False)):>16s}" for n in WORKLOAD_NAMES))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write the full result files under DIR")
    parser.add_argument("--digest-only", action="store_true",
                        help="print the digest of the seed's inputs and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"kcc-bench: no program to measure: {SRC / 'repro'} is missing "
              "(run from a checkout of the repository)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
