"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 qabench/steadiness.py --seeds 1-10 [--seeds 11-20] [--record qabench/steadiness.json]

Each --seeds range is one set of runs. For every workload of
BENCHMARK.json and end-to-end metric it prints the median of the set's
runs and the distance between the first and third quartile as a share
of the median, the spread that BENCHMARK.json's bounds are checked
against. For every set after the first it prints how much worse each
median is than the first set's. With --record, the figures, seeds,
Python version, CPU count, fixture statistics and per-layer traced
figures (one traced run per workload) are written to the given JSON
file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_iqr

BENCH_DIR = Path(__file__).resolve().parent


def _seeds(spec: str) -> list[int]:
    """Seeds of a range `LO-HI`, both ends included."""
    lo, hi = spec.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=BENCH_DIR.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fixture_stats(workload: str, seed: int) -> dict:
    """Docs, terms, postings, median query-term df and answer-type share."""
    import shutil
    from collections import Counter

    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import fixtures
    from run import WORKLOADS
    from qapipe.classifier import TrainingExample, train_classifier
    from qapipe.corpus import parse_corpus
    from qapipe.index import build_index
    from qapipe.questions import Question, analyze
    from qapipe.stopwords import STOPWORDS
    from qapipe.synth import TRAINING_LINES, write_fixture

    w = WORKLOADS[workload]
    out = BENCH_DIR.parent / ".qabench_work" / f"stats-{workload}-{seed}"
    try:
        if w.kind == "planted":
            paths = write_fixture(out, num_docs=w.docs, seed=seed)
        else:
            paths = fixtures.write_zipf_fixture(out, seed, w.docs, w.questions, w.corpus_format)
        idx = build_index(parse_corpus(paths["corpus"], w.corpus_format))
        model = train_classifier([TrainingExample(*l.split(" ", 1)) for l in TRAINING_LINES])
        analyses = [analyze(Question(q, t), model, STOPWORDS)
                    for q, t in fixtures.read_questions(paths["questions"])]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    st = idx.stats()
    types = Counter(a.answer_type.label for a in analyses)
    return {
        "docs": st.doc_count,
        "distinct_terms": st.distinct_terms,
        "postings": st.total_postings,
        "questions": len(analyses),
        "median_query_term_df": statistics.median(
            idx.document_frequency(t) for a in analyses for t in a.query_terms),
        "answer_type_share": {k: round(v / len(analyses), 4) for k, v in sorted(types.items())},
    }


def run_set(names: list[str], seeds: list[int], spec: dict) -> dict:
    """Untraced runs of every workload over `seeds`: median, spread and values per metric."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            spread = relative_iqr(vals)
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:30s} median {statistics.median(vals):10.4g}  spread {spread:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
            summary[name] = {"median": statistics.median(vals), "spread": round(spread, 4),
                             "values": vals}
        out[workload] = summary
    return out


def worsening(first: dict, later: dict, spec: dict) -> dict:
    """How much worse each later median is than the first set's, as a share of it."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for workload, metrics in first.items():
        out[workload] = {}
        for name, m in metrics.items():
            change = later[workload][name]["median"] / m["median"] - 1.0
            worse = change if better[name] == "lower" else -change
            flag = "" if worse <= bounds[name] else "  <-- worse than the bound"
            print(f"  {workload} {name:30s} worse by {worse:+.4f}  bound {bounds[name]}{flag}")
            out[workload][name] = round(worse, 4)
    return out


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", action="append", help="one set of runs per range, e.g. 1-10")
    parser.add_argument("--record")
    args = parser.parse_args()
    ranges = args.seeds or ["1-10"]

    sets = []
    for spec_range in ranges:
        seeds = _seeds(spec_range)
        print(f"set of seeds {spec_range}", flush=True)
        sets.append({"seeds": seeds, "workloads": run_set(names, seeds, spec)})
    for later in sets[1:]:
        print(f"medians of seeds {later['seeds'][0]}-{later['seeds'][-1]} against the first set")
        later["worse_than_first"] = worsening(sets[0]["workloads"], later["workloads"], spec)
    if not args.record:
        return 0

    seed = sets[0]["seeds"][0]
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "command": "python3 qabench/steadiness.py "
        + " ".join(f"--seeds {r}" for r in ranges) + f" --record {args.record}",
        "sets": sets,
        "per_layer_seed": seed,
        "per_layer": {},
        "fixture_seed": seed,
        "fixture": {},
    }
    for workload in names:
        traced = run_once(workload, seed, spec["run_seconds"], 1)
        record["per_layer"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
        record["fixture"][workload] = fixture_stats(workload, seed)
    Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
