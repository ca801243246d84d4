"""ctrlgraph benchmark: census, subset-rank and all-subset analyze workloads.

Run from the repository root:

    python3 perfbench/run.py --workload census-n8 --seed 1 --seconds 40 --trace 0

Each workload samples every k-th graph of data/graphs8.g6, taken in the
order of their reference verdicts, the seed picking the offset.  The run
first starts a few interpreters that only set up (import ctrlgraph, read
the sample), then repeats the workload on the same sample, each repeat in
a fresh interpreter (perfbench/repeat.py) so no cache carries over, until
--seconds have passed.  The time metrics but set-up take the slowest
value the run measured.  Every output is checked against the reference
verdicts in perfbench/reference/graphs8.csv.  With --trace 1 the run
alternates untraced and traced repeats and reports per-layer metrics
instead of end-to-end ones.  The last line of stdout is one JSON object;
the exit code is 0 only when every output was correct.  See
perfbench/README.md for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import pathlib
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "data" / "graphs8.g6"
REFERENCE = HERE / "reference" / "graphs8.csv"
OUT = ROOT / ".perfbench_out"

NPROC = len(os.sched_getaffinity(0))

# name -> (CLI command, stride k, extra census arguments).  Each stride makes
# one repeat take about 2-5 s on 2 vCPUs.  census-n8-pool is not in
# BENCHMARK.json; it stays runnable by hand.
WORKLOADS = {
    "census-n8": ("census", 120, ""),
    "census-n8-pool": ("census", 120, f"--workers {NPROC}"),
    "subsets-n8": ("census", 200, "--mode subsets"),
    "analyze-all-n8": ("analyze", 480, ""),
}

# Reference columns a sample is ordered by before every k-th graph is taken:
# the verdicts that decide how much work a graph costs, so that every offset
# draws alike from each kind of graph and samples of different seeds cost
# alike.
STRATA = (
    "controllable_subsets",
    "rank_sum",
    "controllable_vertices",
    "irreducible_charpoly",
    "rank_full",
    "line",
)

END_TO_END = {
    "graphs_per_s": "1/s",
    "cpu_ms_per_graph": "ms",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _name in spans.traced_names():
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
for _mod, _fn in spans.CACHED:
    PER_LAYER[f"{_mod}.{_fn}.hit_ratio"] = "ratio"
PER_LAYER["matrices.adjugate_samples.per_inverse"] = "ratio"
PER_LAYER["trace.graphs_per_s"] = "1/s"
PER_LAYER["trace.untraced_graphs_per_s"] = "1/s"
PER_LAYER["trace.slowdown"] = "ratio"

SETUP_PROBES = 5
MIN_REPEATS = 6
HARD_STOP_S = 150
N = 8
PAPER_N8 = (2332, 12346)  # controllable with S = V, out of all graphs on 8 vertices

# Spelled out rather than imported from ctrlgraph, so that a change to the
# program's header or subset order fails the check.
CSV_HEADER = (
    "line,graph6,n,rank_full,dual_degree_full,controllable_full,"
    "controllable_vertices,irreducible_charpoly,controllable_subsets,"
    "total_subsets,error"
)
ALL_SUBSETS = [s for r in range(N + 1) for s in itertools.combinations(range(N), r)]


class BenchError(Exception):
    pass


def load_reference() -> list[dict]:
    with open(REFERENCE, newline="") as fh:
        rows = [
            {k: (v if k == "graph6" else int(v)) for k, v in r.items()}
            for r in csv.DictReader(fh)
        ]
    lines = DATA.read_text().splitlines()
    if [r["graph6"] for r in rows] != lines:
        raise BenchError(f"{REFERENCE.name} does not match {DATA.name}")
    got = (sum(r["controllable_full"] for r in rows), len(rows))
    if got != PAPER_N8:
        raise BenchError(f"reference counts {got}, paper says {PAPER_N8}")
    return rows


# ---------------------------------------------------------------- checks


def expected_census(refs: list[dict], subsets: bool) -> tuple[list[str], dict]:
    """CSV lines and summary the census must print for these graphs."""
    lines = [CSV_HEADER]
    for i, r in enumerate(refs, start=1):
        if subsets:
            lines.append(f"{i},{r['graph6']},{N},,,,,,{r['controllable_subsets']},{2**N},")
        else:
            lines.append(
                f"{i},{r['graph6']},{N},{r['rank_full']},{r['rank_full'] - 1},"
                f"{bool(r['controllable_full'])},{r['controllable_vertices']},"
                f"{bool(r['irreducible_charpoly'])},,,"
            )
    per_n = {
        "graphs": len(refs),
        "controllable": 0 if subsets else sum(r["controllable_full"] for r in refs),
        "with_controllable_vertex": 0
        if subsets
        else sum(1 for r in refs if r["controllable_vertices"]),
        "irreducible_charpoly": 0
        if subsets
        else sum(r["irreducible_charpoly"] for r in refs),
    }
    summary = {
        "format_version": 1,
        "total_lines": len(refs),
        "error_lines": 0,
        "per_n": {str(N): per_n},
    }
    return lines, summary


def census_failures(out_dir: pathlib.Path, refs: list[dict], subsets: bool, codes) -> int:
    """Number of graphs whose CSV row is missing or differs from the reference."""
    want, want_summary = expected_census(refs, subsets)
    text = (out_dir / "stdout.txt").read_text()
    try:
        summary = json.loads((out_dir / "stderr.txt").read_text())
    except json.JSONDecodeError:
        summary = None
    if codes != [0] or summary != want_summary or not text.endswith("\n"):
        return len(refs)
    got = text.split("\n")[:-1]
    if not got or got[0] != want[0]:
        return len(refs)
    rows = got[1:]
    bad = sum(1 for i, w in enumerate(want[1:]) if i >= len(rows) or rows[i] != w)
    return min(len(refs), bad + max(0, len(rows) - len(refs)))


def analyze_ok(doc, ref: dict) -> bool:
    reports = doc.get("reports", [])
    if doc.get("graph6") != ref["graph6"] or doc.get("n") != N:
        return False
    if [tuple(r["subset"]) for r in reports] != ALL_SUBSETS:
        return False
    for r in reports:
        rank = r["rank_of_w"]
        ctrl = r["controllable"]
        if (
            r["support_size"] != rank
            or r["dual_degree"] != rank - 1
            or ctrl != (rank == N)
            or any(v != ctrl for v in r["verdicts"].values())
            or r["covrad_bound_ok"] is False
            or r["degenerate"] != (not r["subset"])
        ):
            return False
    full = reports[-1]
    singles = reports[1 : N + 1]
    return (
        sum(r["controllable"] for r in reports) == ref["controllable_subsets"]
        and sum(r["rank_of_w"] for r in reports) == ref["rank_sum"]
        and full["rank_of_w"] == ref["rank_full"]
        and sum(r["controllable"] for r in singles) == ref["controllable_vertices"]
        and all("coprime" in r["verdicts"] for r in singles)
    )


def analyze_failures(out_dir: pathlib.Path, refs: list[dict], codes) -> int:
    """Number of graphs whose analyze report is missing or wrong."""
    text = (out_dir / "stdout.txt").read_text()
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    try:
        while pos < len(text):
            doc, pos = decoder.raw_decode(text, pos)
            docs.append(doc)
            while pos < len(text) and text[pos].isspace():
                pos += 1
    except json.JSONDecodeError:
        pass
    failed = max(0, len(refs) - len(docs)) + max(0, len(docs) - len(refs))
    for doc, ref, code in zip(docs, refs, codes):
        if code != 0 or not analyze_ok(doc, ref):
            failed += 1
    return min(failed, len(refs))


# ---------------------------------------------------------------- processes


def start_child(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run repeat.py; returns (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "repeat.py"), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"repeat timed out: {argv}")
    if proc.returncode != 0:
        raise BenchError(f"repeat failed ({proc.returncode}): {err.strip()[-2000:]}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def machine_record(args, offset: int, stride: int, sample: int) -> dict:
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "offset": offset,
        "stride": stride,
        "sample_graphs": sample,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
    }


# ---------------------------------------------------------------- run


def median_of(repeats: list[dict], key) -> float:
    return statistics.median(key(r) for r in repeats)


def take_sample(rows: list[dict], stride: int, offset: int) -> list[dict]:
    """Every stride-th graph in STRATA order from offset, back in file order."""
    ordered = sorted(rows, key=lambda r: tuple(r[k] for k in STRATA))
    return sorted(ordered[offset::stride], key=lambda r: r["line"])


def run(args) -> tuple[dict, dict]:
    command, stride, cli_args = WORKLOADS[args.workload]
    offset = random.Random(args.seed).randrange(stride)
    refs = take_sample(load_reference(), stride, offset)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    sample = out_dir / "sample.g6"
    sample.write_text("".join(r["graph6"] + "\n" for r in refs))
    base = [
        "--command", command,
        "--input", str(sample),
        "--cli-args", cli_args,
        "--out", str(out_dir),
    ]
    min_repeats = MIN_REPEATS
    if args.trace:
        min_repeats = 1

    start = time.monotonic()

    def remaining() -> float:
        return HARD_STOP_S - (time.monotonic() - start)

    setups = []
    for _ in range(SETUP_PROBES):
        spawned, res = start_child(base + ["--setup-only"], remaining())
        setups.append(res["ready"] - spawned)

    plain, traced = [], []
    attempted = failed = 0

    def one_repeat(trace: bool) -> dict:
        nonlocal attempted, failed
        spawned, res = start_child(base + (["--trace"] if trace else []), remaining())
        setups.append(res["ready"] - spawned)
        if res["graphs"] != len(refs):
            raise BenchError("repeat read a different sample")
        if command == "census":
            bad = census_failures(out_dir, refs, "subsets" in cli_args, res["exit_codes"])
        else:
            bad = analyze_failures(out_dir, refs, res["exit_codes"])
        attempted += len(refs)
        failed += bad
        return res

    while True:
        r0 = time.monotonic()
        plain.append(one_repeat(False))
        if args.trace:
            traced.append(one_repeat(True))
        took = time.monotonic() - r0
        elapsed = time.monotonic() - start
        if len(plain) >= min_repeats and elapsed + took > args.seconds:
            break
        if elapsed + took > HARD_STOP_S:
            break

    def rate(r):
        return r["graphs"] / r["wall_s"]

    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            if name in traced[0]["layers"]:
                metrics[name] = median_of(traced, lambda r: r["layers"][name])
        inverse = metrics["matrices.inverse.calls"]
        metrics["matrices.adjugate_samples.per_inverse"] = (
            metrics["matrices.adjugate_samples.calls"] / inverse if inverse else 0.0
        )
        metrics["trace.graphs_per_s"] = median_of(traced, rate)
        metrics["trace.untraced_graphs_per_s"] = median_of(plain, rate)
        metrics["trace.slowdown"] = (
            metrics["trace.untraced_graphs_per_s"] / metrics["trace.graphs_per_s"]
        )
        units = PER_LAYER
    else:
        # The host this was built on alternates between a loaded state, its
        # usual one, and spells of seconds to minutes in which the same work
        # runs up to 1.7x faster.  A median mixes the two in whatever share
        # the run happened to see; the slowest repeat, and the slowest time
        # of each call (every repeat makes the same calls in the same
        # order), are in the loaded state in nearly every run.
        slowest = max(plain, key=lambda r: r["wall_s"])
        calls = [max(times) for times in zip(*(r["call_s"] for r in plain))]
        p90 = statistics.quantiles(calls, n=10, method="inclusive")[8] if len(calls) > 1 else calls[0]
        metrics = {
            "graphs_per_s": rate(slowest),
            "cpu_ms_per_graph": max(1000 * r["cpu_s"] / r["graphs"] for r in plain),
            "call_ms_p50": 1000 * statistics.median(calls),
            "call_ms_p90": 1000 * p90,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_kb"] / 1024),
        }
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")

    detail = {
        "record": machine_record(args, offset, stride, len(refs)),
        "repeats": len(plain),
        "traced_repeats": len(traced),
        "calls": sum(len(r["call_s"]) for r in plain),
        "setup_samples": len(setups),
        "setup_s": setups,
        "repeat_wall_s": [r["wall_s"] for r in plain],
        "repeat_cpu_s": [r["cpu_s"] for r in plain],
        "repeat_call_s": [r["call_s"] for r in plain],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "bindings_wrapped": traced[0]["bindings_wrapped"] if traced else None,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return detail, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in (ROOT / "src" / "ctrlgraph" / "cli.py", DATA, REFERENCE):
        if not need.is_file():
            sys.stderr.write(f"error: {need.relative_to(ROOT)} not found; run from a ctrlgraph checkout\n")
            return 2
    try:
        detail, result = run(args)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    (OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    print("record " + json.dumps(detail["record"], sort_keys=True))
    print(
        f"repeats {detail['repeats']} (traced {detail['traced_repeats']}), "
        f"calls {detail['calls']}, set-up samples {detail['setup_samples']}"
    )
    for name, m in detail["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {detail['failed_frac']:.6g} ({detail['failed']} of {detail['attempted']} graphs)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
