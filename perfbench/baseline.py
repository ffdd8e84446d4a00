"""Summarise run records into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Reads every ``.perfbench_results/<workload>-seed<n>-trace<t>.json`` and
writes, per workload, the median and quartiles over seeds of each metric
(the end-to-end metrics from ``--trace 0`` runs, the per-layer ones from
``--trace 1`` runs, and the printed-only extras), the seeds used, the seeds
whose checks failed, the ``lq`` seeds that missed criterion 7, and the
environment of the first run.
"""

import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".perfbench_results")


def _summary(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def main():
    records = []
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-seed*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    out = {}
    for rec in records:
        wl = out.setdefault(rec["workload"], {"env": rec["env"]})
        kind = "per_layer" if rec["trace"] else "end_to_end"
        seeds = wl.setdefault(f"{kind}_seeds", [])
        seeds.append(rec["seed"])
        if not rec["correct"]:
            wl.setdefault(f"{kind}_incorrect_seeds", []).append(rec["seed"])
        if rec.get("criterion7_missed"):
            wl.setdefault(f"{kind}_criterion7_missed_seeds", []).append(
                rec["seed"])
        metrics = dict(rec["metrics"])
        if not rec["trace"]:
            metrics.update({k: {"value": v} for k, v in rec["extra"].items()})
        for name, m in metrics.items():
            wl.setdefault(kind, {}).setdefault(name, []).append(m["value"])
    for wl in out.values():
        for kind in ("end_to_end", "per_layer"):
            if kind in wl:
                wl[kind] = {k: _summary(v) for k, v in wl[kind].items()}
                wl[f"{kind}_seeds"].sort()
                wl.get(f"{kind}_incorrect_seeds", []).sort()
                wl.get(f"{kind}_criterion7_missed_seeds", []).sort()
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
