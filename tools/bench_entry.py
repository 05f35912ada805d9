"""Append one entry to a BENCH_<workload>.json trajectory file.

Each input file holds the output of one `python3 qabench/run.py
--workload W --seed S --seconds 55 --trace 0` run; its last line is the
run's JSON result. The entry records, over those runs, the median and
the quartiles (statistics.quantiles, inclusive method) of every
end-to-end metric, with the commit measured, the seeds, the Python
version, nproc and the operation counts:

    python3 tools/bench_entry.py BENCH_staged-planted-5k.json COMMIT SEEDS RUN_OUTPUT...

COMMIT names the source measured (a commit id, or a description of an
uncommitted tree). SEEDS is a free-form string such as "201-210".
"""

import json
import os
import platform
import sys
from pathlib import Path
from statistics import median, quantiles


def entry(commit: str, seeds: str, run_files: list[str]) -> dict:
    runs = [json.loads(Path(f).read_text().strip().splitlines()[-1]) for f in run_files]
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": median(values), "q1": q1, "q3": q3}
    return {
        "commit": commit,
        "seeds": seeds,
        "runs": len(runs),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "all_correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    bench, commit, seeds, *run_files = argv
    path = Path(bench)
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry(commit, seeds, run_files))
    path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
