"""Summarise the run records in bench/out/ into one BENCH file.

    python3 bench/collect.py bench/BENCH_seed.json

For every workload: the environment, and for each metric the median,
quartiles (``statistics.quantiles(values, n=4)``), min and max over the
untraced runs, and over the traced runs (per-layer counts repeat exactly
for a seed, so their medians are exact).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def main(target: str) -> None:
    report = {}
    for path in sorted(OUT.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        env, result = record["env"], record["result"]
        mode = "per_layer" if path.stem.endswith("trace1") else "end_to_end"
        entry = report.setdefault(env["workload"], {"env": {}, "end_to_end": {}, "per_layer": {}})
        entry["env"] = {k: env[k] for k in ("python", "implementation", "commit", "nproc", "machine")}
        runs = entry.setdefault(f"{mode}_runs", [])
        runs.append({"seed": env["seed"], "attempted": result["attempted"], "failed": result["failed"],
                     "correct": result["correct"], "calibration_s": env["calibration_s"],
                     "latency_samples": record.get("latency_samples"),
                     "samples_beyond_p90": record.get("samples_beyond_p90")})
        for name, metric in result["metrics"].items():
            entry[mode].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
    for entry in report.values():
        for mode in ("end_to_end", "per_layer"):
            for metric in entry[mode].values():
                metric.update(summarise(metric.pop("values")))
    Path(target).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
