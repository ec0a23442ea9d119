"""E7 — dynamic-stage throughput: compiled VM vs lowered closures vs walker.

PR 2 replaced the interpreter's hot inner loop with a lowered closure tree
(:mod:`repro.core.lowering`); PR 7 compiles that IR further into a flat
register bytecode run by a single dispatch loop (:mod:`repro.core.bytecode`
+ :mod:`repro.core.vm`).  This benchmark pins both claims with numbers:
compile each program once, then measure steady-state ``run_unit`` throughput
(runs/second, dynamic stage only — the compile is warmed outside the clock)
under each engine.  Results are written to
``benchmarks/results/interp_speed.txt`` (table) and ``interp_speed.json``
(machine-readable, so future PRs can track the trend).

The interpreter-bound programs (tight loops over arithmetic, arrays, calls)
are where the compilation pays: the gated target is >= 2x over the lowered
closures on arith-loop, array-sweep and pointer-walk (observed well above
that; pointer-walk's ``int *`` register runs every pointer operation through
the shared pointer helpers, so its margin is the smallest).  The ubsuite
aggregate is also reported honestly —
its programs are tiny, so their dynamic stage is dominated by per-run setup
(globals, argv, memory), not by the interpreter loop, and the ratio there is
correspondingly modest.
"""

import json
import statistics
import time

import pytest

from repro.analyzers.base import merge_options
from repro.analyzers.checkpointer_like import CheckPointerLikeTool
from repro.analyzers.valgrind_like import ValgrindLikeTool
from repro.analyzers.value_analysis import ValueAnalysisTool
from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.reporting import render_table

from benchmarks.conftest import RESULTS_DIR, publish

#: Interpreter-bound microbenchmarks: the dynamic stage is the program.
PROGRAMS = {
    "arith-loop": r"""
int main(void){
    long s = 0;
    int i;
    for (i = 0; i < 6000; i++) { s += i * 2 + (i % 3); }
    return s & 0xFF ? 0 : 1;
}
""",
    "array-sweep": r"""
int main(void){
    int a[64];
    int i, j, s = 0;
    for (i = 0; i < 64; i++) a[i] = i * i;
    for (j = 0; j < 90; j++)
        for (i = 0; i < 64; i++)
            s += a[i] >> 2;
    return s == 0;
}
""",
    "call-chain": r"""
static int f(int x){ return x * 2 + 1; }
int main(void){
    int i, s = 0;
    for (i = 0; i < 1500; i++) s += f(i) & 7;
    return s < 0;
}
""",
    "pointer-walk": r"""
int main(void){
    int a[32];
    int *p;
    int i, j, s = 0;
    for (i = 0; i < 32; i++) a[i] = i;
    for (j = 0; j < 120; j++)
        for (p = a; p < a + 32; p++)
            s += *p;
    return s == 0;
}
""",
}

#: Minimum acceptable speedup on the interpreter-bound programs overall
#: (geometric mean).  The observed value is ~2x; the gate is set below it so
#: a noisy CI machine does not flake, while still catching a real regression
#: of the fast path.
MIN_GEOMEAN_SPEEDUP = 1.3

#: Minimum acceptable compiled-VM speedup over the lowered closures on the
#: programs inside the bytecode's native subset.
#: The PR-7 target is 2x; the observed value is an order of magnitude above
#: it, so gating at the target itself leaves no room for flakes while still
#: catching a fallback regression (a native program silently dropping to
#: the closures shows up as ~1x).
MIN_COMPILED_SPEEDUP = 2.0
COMPILED_NATIVE_PROGRAMS = ("arith-loop", "array-sweep", "pointer-walk")

#: Maximum acceptable overhead of the probe-capable entry point when no
#: probe is attached (``run_unit(compiled, probes=[])``), on the arith-loop
#: program.  The null-probe case is compile-time specialized — neither the
#: bytecode stream nor the plain lowered IR carries any instrumentation
#: code — so this gates the dispatch plumbing, not emission.  It is the
#: strictest ratio gate here: the compiled engine's dynamic stage is fast
#: enough that even small per-run plumbing costs would show.
MAX_NULL_PROBE_OVERHEAD = 0.05

#: The same budget on every other program, with headroom for measurement
#: noise on the less interpreter-bound ones (their shorter dynamic stage
#: amplifies per-window jitter).  This catches a probe-dispatch regression
#: on call- or pointer-heavy paths that arith-loop alone would miss.
MAX_NULL_PROBE_OVERHEAD_ANY = 0.10

WINDOW_SECONDS = 0.5
REPEATS = 4


def _timed_window(run) -> float:
    """Throughput of one measurement window (runs/sec)."""
    runs = 0
    start = time.perf_counter()
    while time.perf_counter() - start < WINDOW_SECONDS:
        run()
        runs += 1
    return runs / (time.perf_counter() - start)


def _three_probe_runner(source: str, name: str):
    """One shared observed execution feeding the three baseline-tool probes."""
    tools = [ValgrindLikeTool(), CheckPointerLikeTool(), ValueAnalysisTool()]
    union = merge_options([tool.options for tool in tools])
    engine = KccTool(union, run_static_checks=False)
    compiled = engine.compile_unit(source, filename=name)
    assert compiled.ok, name
    compiled.lowered_for(union, instrument=True)  # warm the instrumented IR

    def run():
        probes = [tool.make_probe() for tool in tools]
        engine.run_unit(compiled, probes=probes)
    return run


@pytest.fixture(scope="module")
def speed_results():
    results = {}
    for name, source in PROGRAMS.items():
        runners = {}
        for key, engine in (("compiled", "compiled"), ("lowered", "lowered"),
                            ("legacy", "walker")):
            tool = KccTool(CheckerOptions(engine=engine))
            compiled = tool.compile_unit(source, filename=name)
            assert compiled.ok, name
            runners[key] = (lambda t, c: (lambda: t.run_unit(c)))(tool, compiled)
        # Null-probe: the probe-capable entry point with zero probes attached
        # must compile down to the plain fast path (the specialization claim)
        # — for the default engine, the uninstrumented bytecode stream.
        null_tool = KccTool(CheckerOptions())
        null_compiled = null_tool.compile_unit(source, filename=name)
        runners["null_probe"] = lambda: null_tool.run_unit(null_compiled, probes=[])
        # Three probes: one observed execution feeding all baseline tools.
        runners["three_probe"] = _three_probe_runner(source, name)
        for run in runners.values():
            run()  # warm: lowering, caches, allocator paths
        # Interleave the configurations' windows so machine-load drift
        # during the measurement hits all sides equally.  The throughput
        # columns report each side's best window (steady state is the
        # fastest the box allowed, noise only slows); the gated *ratio*
        # metrics are medians of per-repeat adjacent-window ratios —
        # adjacent windows share machine conditions, so neither a spike
        # in one window nor slow drift across the measurement can fake a
        # regression (or hide one behind a lucky best window).
        best = dict.fromkeys(runners, 0.0)
        speedups, compiled_speedups, overheads = [], [], []
        for _ in range(REPEATS):
            window = {}
            for key, run in runners.items():
                window[key] = _timed_window(run)
                best[key] = max(best[key], window[key])
            speedups.append(window["lowered"] / window["legacy"])
            compiled_speedups.append(window["compiled"] / window["lowered"])
            overheads.append(1.0 - window["null_probe"] / window["compiled"])
        results[name] = {
            "compiled_runs_per_sec": best["compiled"],
            "lowered_runs_per_sec": best["lowered"],
            "legacy_runs_per_sec": best["legacy"],
            "null_probe_runs_per_sec": best["null_probe"],
            "three_probe_runs_per_sec": best["three_probe"],
            "speedup": statistics.median(speedups),
            "compiled_speedup": statistics.median(compiled_speedups),
            # A budget check wants the *systematic* overhead: noise only
            # inflates a window's reading (a genuinely regressed dispatch
            # path is slower in every window), so the min over repeats is
            # the noise-robust estimate the 5%/10% gates compare against.
            "null_probe_overhead": max(0.0, min(overheads)),
        }
    return results


@pytest.fixture(scope="module")
def ubsuite_aggregate(undefinedness_suite):
    """Whole-suite dynamic-stage throughput (setup-dominated; see module doc).

    The two configurations' windows are interleaved (like the
    micro-benchmarks) and the published speedup is the *median of the
    per-repeat adjacent-window ratios*: adjacent windows run under nearly
    identical machine conditions, so neither a transient load spike in
    one window nor slow host drift across the measurement can publish a
    phantom regression (which the committed JSON would then bake into
    the CI gate's baseline).  The throughput columns report each side's
    best window.
    """
    runners = {}
    for key, engine in (("compiled", "compiled"), ("lowered", "lowered"),
                        ("legacy", "walker")):
        tool = KccTool(CheckerOptions(engine=engine))
        units = [tool.compile_unit(case.source, filename=case.name)
                 for case in undefinedness_suite.cases]

        def run_suite(tool=tool, units=units):
            for unit in units:
                tool.run_unit(unit)
        runners[key] = (run_suite, len(units))
    for run, _ in runners.values():
        run()  # warm: lowering, caches, allocator paths
    best = dict.fromkeys(runners, 0.0)
    ratios = []
    for _ in range(REPEATS):
        window = {}
        for key, (run, count) in runners.items():
            # _timed_window counts whole-suite passes; scale to unit runs.
            window[key] = _timed_window(run) * count
            best[key] = max(best[key], window[key])
        ratios.append(window["lowered"] / window["legacy"])
    return {
        "compiled_runs_per_sec": best["compiled"],
        "lowered_runs_per_sec": best["lowered"],
        "legacy_runs_per_sec": best["legacy"],
        "speedup": statistics.median(ratios),
    }


def test_interp_speed_table(speed_results, ubsuite_aggregate, capsys, benchmark):
    rows = []
    for name, data in speed_results.items():
        rows.append([name, f"{data['compiled_runs_per_sec']:.2f}",
                     f"{data['lowered_runs_per_sec']:.2f}",
                     f"{data['legacy_runs_per_sec']:.2f}",
                     f"{data['null_probe_runs_per_sec']:.2f}",
                     f"{data['three_probe_runs_per_sec']:.2f}",
                     f"{data['compiled_speedup']:.2f}x",
                     f"{data['speedup']:.2f}x"])
    rows.append(["ubsuite (all 150, setup-dominated)",
                 f"{ubsuite_aggregate['compiled_runs_per_sec']:.1f}",
                 f"{ubsuite_aggregate['lowered_runs_per_sec']:.1f}",
                 f"{ubsuite_aggregate['legacy_runs_per_sec']:.1f}",
                 "—", "—", "—",
                 f"{ubsuite_aggregate['speedup']:.2f}x"])

    def build_table() -> str:
        return render_table(
            ["program", "compiled runs/s", "lowered runs/s", "legacy runs/s",
             "null-probe runs/s", "3-probe runs/s",
             "compiled/lowered", "lowered/legacy"],
            rows,
            title="Dynamic-stage throughput: compiled VM vs lowered closures "
                  "vs legacy walker vs probe instrumentation")

    table = benchmark(build_table)
    publish("interp_speed.txt", table, capsys)

    payload = dict(speed_results)
    payload["ubsuite-aggregate"] = ubsuite_aggregate
    (RESULTS_DIR / "interp_speed.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def test_compiled_meets_speedup_target(speed_results):
    # CI gate: the register-bytecode VM must hold its 2x-over-the-closures
    # target on the programs inside its native subset.  A compiler bug that
    # silently drops a native function to the fallback shows up here as a
    # ~1x ratio long before it would show in any verdict.
    for name in COMPILED_NATIVE_PROGRAMS:
        data = speed_results[name]
        assert data["compiled_speedup"] >= MIN_COMPILED_SPEEDUP, (name, data)


def test_compiled_never_slows_a_program_down_badly(speed_results):
    # Programs outside the native subset fall back to the lowered closures
    # per function; the fallback must cost compile time only, never
    # run-time throughput.
    for name, data in speed_results.items():
        assert data["compiled_speedup"] > 0.85, (name, data)


def test_null_probe_overhead_within_budget(speed_results):
    # CI gate: the probe-capable entry point with no probes attached must
    # stay within 5% of the plain compiled fast path on the arith-loop
    # benchmark — the compile-time null-probe specialization at work.
    data = speed_results["arith-loop"]
    assert data["null_probe_overhead"] <= MAX_NULL_PROBE_OVERHEAD, data
    # Every program gets the wider budget, so a probe-dispatch regression
    # on call- or pointer-heavy paths cannot hide behind the arith-loop
    # gate.
    for name, data in speed_results.items():
        assert data["null_probe_overhead"] <= MAX_NULL_PROBE_OVERHEAD_ANY, (
            name, data)


def test_lowering_meets_speedup_target(speed_results):
    speedups = [data["speedup"] for data in speed_results.values()]
    geomean = 1.0
    for value in speedups:
        geomean *= value
    geomean **= 1.0 / len(speedups)
    assert geomean >= MIN_GEOMEAN_SPEEDUP, (
        f"lowered fast path geomean speedup {geomean:.2f}x fell below "
        f"{MIN_GEOMEAN_SPEEDUP}x over {speed_results}")


def test_lowering_never_slows_a_program_down_badly(speed_results, ubsuite_aggregate):
    # Even the least interpreter-bound program must not regress: the lowered
    # form costs one compile-time pass, never run-time throughput.  The
    # setup-dominated ubsuite aggregate is gated too — the geomean target
    # above excludes it by design, so without this check a per-run overhead
    # regression on tiny programs would only surface once a poisoned
    # baseline reached compare_results.py.
    for name, data in speed_results.items():
        assert data["speedup"] > 0.85, (name, data)
    assert ubsuite_aggregate["speedup"] > 0.85, ubsuite_aggregate
