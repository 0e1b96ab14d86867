"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out DIR`` writes, one per
run.  For every end-to-end metric in ``BENCHMARK.json`` and every workload,
one row gives each side's median and quartiles and a verdict:

``worse``
    the change's median is worse than the parent's by more than the bound;
``unresolved``
    either side's spread (quartile distance over median) exceeds the bound,
    and not every change run beats every parent run;
``better``
    the change wins at least 9 in 10 runs paired by seed (ties count for
    neither side), and the medians differ by more than the parent's
    quartile distance;
``same``
    anything else.

Under each timing, a ``raw`` row gives the same comparison before host-speed
scaling (README.md, "Host speed"), to cross-check a scaled verdict; it does
not count towards the exit status.  Then two per-layer shares are bounded
in absolute terms, by the median of their seed-paired differences: category
disagreement (at most 0.001 worse) and SLO attainment (at most 0.01 worse).
Run both sides on the same seeds: a seed fixes which blocks are checked.

When both directories also hold traced runs, the per-layer medians follow,
without verdicts: they show where a change moved time.  The exit status is 1
when any row is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
#: per-layer quantities compared with an absolute bound: name -> (better, bound)
ABSOLUTE = {
    "quality.category_disagreement": ("lower", 0.001),
    "loadgen.slo_attainment": ("higher", 0.01),
}


def load(directory: str) -> dict[tuple[str, bool], dict[int, dict]]:
    """``{(workload, traced): {seed: metrics}}`` from one result directory."""
    runs: dict[tuple[str, bool], dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            result = json.load(fh)
        key = (result["workload"], result["traced"])
        runs.setdefault(key, {})[result["seed"]] = result["metrics"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float, absolute: bool = False) -> tuple[str, str]:
    """The row's verdict and its win count over seed-paired runs.

    ``bound`` is a share of the median, or with ``absolute`` an amount.  An
    absolute row compares the median of the seed-paired differences and is
    never unresolved: its quantities differ between seeds by design (which
    blocks a seed checks) but repeat, or nearly, for one seed.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = list(parent.values()), list(change.values())
    seeds = sorted(set(parent) & set(change))
    # runs pair by seed; sides run on different seeds pair in seed order
    pairs = [(parent[s], change[s]) for s in seeds] or [
        (parent[a], change[b]) for a, b in zip(sorted(parent), sorted(change))
    ]
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)

    def allowed(median: float) -> float:
        return bound if absolute else bound * abs(median)

    if absolute:
        gain = statistics.median(sign * (b - a) for a, b in pairs)
        too_wide = False
    else:
        gain = sign * (c_med - p_med)
        too_wide = p_q3 - p_q1 > allowed(p_med) or c_q3 - c_q1 > allowed(c_med)
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if too_wide and not all_better:
        label = "unresolved"
    elif -gain > allowed(p_med):
        label = "worse"
    elif wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        label = "better"
    else:
        label = "same"
    return label, f"{wins}/{len(pairs)}"


def _cell(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:>11.5g} [{q1:.4g}, {q3:.4g}]"


def _rows(title: str, name: str, better: str, bound: float, parent: dict, change: dict,
          workloads: list[str], absolute: bool = False) -> int:
    """One table of rows, per workload; returns how many are worse or unresolved."""
    shown = f"{bound:g}" if absolute else f"{bound:.0%}"
    print(f"== {title} ({better} is better, bound {shown}) ==")
    print(f"{'workload':<14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8} {'wins':>6}  verdict")
    failing = 0
    for wl in workloads:
        for label, key in (("", name), ("  raw", f"raw.{name}")):
            p = {s: m[key] for s, m in parent.get((wl, False), {}).items() if key in m}
            c = {s: m[key] for s, m in change.get((wl, False), {}).items() if key in m}
            if label and not (p and c):
                continue
            if not p or not c:
                print(f"{wl:<14} (missing runs)")
                failing += 1
                continue
            verdict_, wins = verdict(p, c, better, bound, absolute)
            p_med = statistics.median(p.values())
            rel = (statistics.median(c.values()) - p_med) / abs(p_med) if p_med else 0.0
            if label:
                verdict_ = f"({verdict_})"
            else:
                failing += verdict_ in ("worse", "unresolved")
            print(f"{label or wl:<14} {_cell(list(p.values())):>34} "
                  f"{_cell(list(c.values())):>34} {rel:>+8.1%} {wins:>6}  {verdict_}")
    return failing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        catalog = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in catalog["workloads"]]
    failing = 0
    for metric in catalog["end_to_end"]:
        failing += _rows(f"{metric['name']} ({metric['unit']})", metric["name"],
                         metric["better"], metric["bound"], parent, change, workloads)
    for name, (better, bound) in ABSOLUTE.items():
        failing += _rows(name, name, better, bound, parent, change, workloads, absolute=True)
    for wl in workloads:
        p_runs, c_runs = parent.get((wl, True)), change.get((wl, True))
        if not p_runs or not c_runs:
            continue
        print(f"== per-layer medians, traced runs of {wl} ==")
        for metric in catalog["per_layer"]:
            name = metric["name"]
            p = statistics.median(m[name] for m in p_runs.values())
            c = statistics.median(m[name] for m in c_runs.values())
            rel = f"{(c - p) / abs(p):+8.1%}" if p else f"{'':>8}"
            print(f"  {name:<40} {p:>12.5g} {c:>12.5g} {rel} {metric['unit']}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
