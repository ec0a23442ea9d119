"""Summarise one set of kcc-bench results, or compare two (base, change).

Each set is a directory that ``run.py --out DIR`` wrote, usually one run per
seed and workload::

    python3 kccbench/compare.py results/base                 # one set
    python3 kccbench/compare.py results/base results/change  # A/B

For every workload it prints each end-to-end metric's median and quartiles,
with the spread (quartile distance over the median) of one set or the
change of the median against the metric's bound in ``BENCHMARK.json``.
Traced runs add the per-layer medians and, for two sets, their deltas,
largest self-time change first: where a saving (or a cost) appeared.
It also says whether both sets measured the same inputs, seed by seed.

Exit status: 1 when a run was not correct or a metric got worse than its
bound allows, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def _spec() -> dict[str, dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load(directory: str) -> dict:
    """workload -> {"e2e": metric -> values, "layers": metric -> values,
    "digests": seed -> digest, "bad": [seeds whose run was not correct]}"""
    sets: dict = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        run = json.loads(path.read_text(encoding="utf-8"))
        entry = sets.setdefault(run["workload"], {"e2e": {}, "layers": {},
                                                   "digests": {}, "bad": []})
        entry["digests"][run["seed"]] = run["inputs_digest"]
        if not run["correct"]:
            entry["bad"].append(run["seed"])
        key, metrics = ("layers", run["per_layer"]) if run["trace"] \
            else ("e2e", run["end_to_end"])
        for name, value in metrics.items():
            entry[key].setdefault(name, []).append(value)
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(sets: dict, spec: dict) -> int:
    status = 0
    for workload, entry in sets.items():
        runs = len(next(iter(entry["e2e"].values()), []))
        print(f"== {workload}: {runs} runs"
              + (f"; NOT CORRECT for seeds {entry['bad']}" if entry["bad"] else ""))
        status |= bool(entry["bad"])
        for name, values in entry["e2e"].items():
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = spec.get(name, {}).get("bound")
            print(f"  {name:24s} {spec.get(name, {}).get('unit', ''):6s} "
                  f"{_cell(values):34s} spread {spread:6.3f}"
                  + (f" (bound {bound})" if bound is not None else ""))
        for name, values in entry["layers"].items():
            print(f"  {name:40s} {_cell(values)}")
    return status


def compare(base: dict, head: dict, spec: dict) -> int:
    status = 0
    for workload in base:
        if workload not in head:
            continue
        b, h = base[workload], head[workload]
        print(f"== {workload}")
        for label, entry in (("base", b), ("change", h)):
            if entry["bad"]:
                print(f"  {label} runs NOT CORRECT for seeds {entry['bad']}")
                status = 1
        shared = sorted(set(b["digests"]) & set(h["digests"]))
        differ = [s for s in shared if b["digests"][s] != h["digests"][s]]
        print(f"  inputs: {len(shared) - len(differ)} of {len(shared)} shared seeds "
              "identical" + (f"; DIFFER for seeds {differ}" if differ else ""))
        for name, base_values in b["e2e"].items():
            if name not in h["e2e"]:
                continue
            head_values = h["e2e"][name]
            m = spec.get(name, {})
            base_q1, base_median, base_q3 = quartiles(base_values)
            head_median = quartiles(head_values)[1]
            change = (head_median - base_median) / base_median if base_median else 0.0
            worse = -change if m.get("better") == "higher" else change
            noise = (base_q3 - base_q1) / base_median if base_median else 0.0
            if m.get("bound") is not None and worse > m["bound"]:
                verdict, status = "WORSE than the bound allows", 1
            elif -worse > noise:
                verdict = "better by more than the base spread"
            else:
                verdict = "no change beyond the base spread"
            print(f"  {name:24s} {m.get('unit', ''):6s} base {_cell(base_values):34s} "
                  f"change {_cell(head_values):34s} {change:+7.2%}  {verdict}")
        deltas = []
        for name, base_values in b["layers"].items():
            if name in h["layers"]:
                base_median = quartiles(base_values)[1]
                head_median = quartiles(h["layers"][name])[1]
                deltas.append((name, base_median, head_median))
        deltas.sort(key=lambda d: (not d[0].endswith(".self_ms"), -abs(d[2] - d[1])))
        if deltas:
            print("  per layer (median of traced runs), largest self-time change first:")
        for name, base_median, head_median in deltas:
            relative = f"{(head_median - base_median) / base_median:+7.1%}" \
                if base_median else "      -"
            print(f"    {name:40s} {base_median:12.5g} -> {head_median:12.5g} "
                  f"({head_median - base_median:+.4g}, {relative})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="directory of results (run.py --out)")
    parser.add_argument("change", nargs="?", help="second directory, to compare")
    args = parser.parse_args(argv)
    spec = _spec()
    if args.change is None:
        return summarise(load(args.base), spec)
    return compare(load(args.base), load(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
