"""One repeat of a workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  It imports ctrlgraph from
the checkout's src/, reads the sample run.py wrote (that is the set-up),
then drives `ctrlgraph.cli.main` in-process as a closed loop with
one client.  The CLI's stdout and stderr go to files in the output
directory, where run.py checks them.  The measurements are printed as one
JSON object on the real stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", choices=["census", "analyze"], required=True)
    ap.add_argument("--input", required=True, help="graph6 sample, one per line")
    ap.add_argument("--cli-args", default="", help="extra census arguments")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import ctrlgraph
    from ctrlgraph import cli

    with open(args.input) as fh:
        sample = fh.read().splitlines()
    ready = time.monotonic()

    src = pathlib.Path(ctrlgraph.__file__).resolve().parent
    if src != ROOT / "src" / "ctrlgraph":
        sys.exit(f"imported ctrlgraph from {src}, not from this checkout")
    result = {"ready": ready, "graphs": len(sample)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()

    out_dir = pathlib.Path(args.out)
    stdout = open(out_dir / "stdout.txt", "w")
    stderr = open(out_dir / "stderr.txt", "w")
    codes = []
    calls = []
    sys.stdout, sys.stderr = stdout, stderr
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if args.command == "census":
            sys.stdin = io.StringIO("".join(line + "\n" for line in sample))
            codes.append(cli.main(["census", "--format", "csv", *args.cli_args.split()]))
            calls.append(time.perf_counter() - t0)
        else:
            for g in sample:
                c0 = time.perf_counter()
                codes.append(cli.main(["analyze", g, "--subset", "all"]))
                calls.append(time.perf_counter() - c0)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        stdout.close()
        stderr.close()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        call_s=calls,
        exit_codes=codes,
        peak_rss_kb=own + kids,
    )
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["bindings_wrapped"] = tracer.bindings
        tracer.write(out_dir / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
