"""Benchmark: answer seeded multishift problem files through the public CLI.

Run from the repository root:

    python3 bench/run.py --workload certify-random --seed 1 --seconds 30 --trace 0

The run imports the package from `src/`, keeps the CPU busy for a few
seconds, writes the workload's problem files for the seed (three times, to
time set-up), then calls
`multishift.cli.main(["run", problem, "--out", report, "--quiet"])`
in-process, one problem after another: a closed loop with one client, one
process, the CLI's default single worker thread and the BLAS threading left
at its default. Every report is checked against the generated ground truth.

With `--trace 0` the whole problem set is answered in passes until the next
pass would overrun `--seconds` (always at least one pass), and the
end-to-end metrics are printed. With `--trace 1` the set is answered once
untraced and once with spans around every public function of the package
(see tracer.py), and the per-layer metrics are printed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
WARMUP_S = 5.0
EXIT_NO_PACKAGE = 2
_GROWTH_METRIC = re.compile(r"equivalence\.growth\.deg(\d+)\.")


@dataclass
class Pass:
    """One answer of the whole problem set: wall time, and per problem the
    CLI's time, exit code and report text (None when no report was written)."""

    wall: float
    times: list
    codes: list
    texts: list


def warm_up(seconds: float) -> None:
    """Keep one core busy before anything is timed.

    On a 2-vCPU Intel Xeon VM a fixed loop ran 56%, 39% and 13% slower in
    its first three seconds after an idle spell than once busy; the first
    problem timed would carry that ramp.
    """
    end = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < end:
        for i in range(100_000):
            x += i * i


def declared_metrics(key: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)[key]


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def answer(cli, problems, outdir: str, tracer=None) -> Pass:
    """Run every problem through the CLI once; reports go to outdir."""
    os.makedirs(outdir, exist_ok=True)
    outs = [os.path.join(outdir, p.pid + ".report.json") for p in problems]
    times, codes = [], []
    started = time.perf_counter()
    for i, (problem, out) in enumerate(zip(problems, outs)):
        if tracer is not None:
            tracer.problem_id = i
        t = time.perf_counter()
        try:
            code = cli.main(["run", problem.path, "--out", out, "--quiet"])
        except Exception:  # a traceback is a failed problem, not a crashed run
            traceback.print_exc(file=sys.stderr)
            code = 1
        times.append(time.perf_counter() - t)
        codes.append(code)
    wall = time.perf_counter() - started
    return Pass(wall, times, codes, [_read(out) for out in outs])


def failures(problems, passes) -> list:
    """One line per failed output check, over every pass."""
    out = []
    for k, run in enumerate(passes):
        for problem, code, text in zip(problems, run.codes, run.texts):
            reason = checks.check_report(problem, code, text)
            if reason is not None:
                out.append(f"pass {k} {problem.pid}: {reason}")
    return out


def passed_texts(problems, run: Pass) -> list:
    """Reports of one pass that passed their output check."""
    return [text for problem, code, text in zip(problems, run.codes, run.texts)
            if checks.check_report(problem, code, text) is None]


def inconsistencies(problems, passes) -> list:
    """Problems whose report differs between passes apart from timing_seconds."""
    first = [checks.without_timing(t) for t in passes[0].texts]
    out = []
    for k, run in enumerate(passes[1:], start=1):
        for problem, ref, text in zip(problems, first, run.texts):
            if ref is None or checks.without_timing(text) != ref:
                out.append(f"pass {k} {problem.pid}: report differs from pass 0")
    return out


def _tree_bytes(root: str) -> dict:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def setup(workload: str, seed: int, workroot: str):
    """Write the problem files SETUP_REPEATS times; returns (problems, times, mismatches)."""
    times, trees, problems = [], [], None
    for k in range(SETUP_REPEATS):
        target = os.path.join(workroot, f"setup{k}")
        t = time.perf_counter()
        problems = workloads.build(workload, seed, target)
        times.append(time.perf_counter() - t)
        trees.append(_tree_bytes(target))
    mismatches = [] if all(tree == trees[0] for tree in trees) else [
        "problem files differ between set-up repeats of one seed"]
    return problems, times, mismatches


def log_ratio_mean(texts) -> tuple:
    ratios = [r for t in texts for r in checks.certificate_log_ratios(t)]
    return (statistics.fmean(ratios) if ratios else 0.0), len(ratios)


def invertible_share(texts) -> float:
    pairs = [checks.oracle_samples(t) for t in texts]
    samples = sum(s for _, s in pairs)
    return sum(i for i, _ in pairs) / samples if samples else 0.0


def _measure(cli, problems, workroot, seconds):
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(answer(cli, problems, os.path.join(workroot, f"pass{len(passes)}")))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - started + typical > seconds:
            return passes


def _traced(cli, problems, workroot):
    reference = answer(cli, problems, os.path.join(workroot, "untraced"))
    tracer = Tracer()
    tracer.install()
    try:
        traced = answer(cli, problems, os.path.join(workroot, "traced"), tracer)
    finally:
        tracer.remove()
    return reference, traced, tracer


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, answer and check one workload; returns the result and summary."""
    started = time.perf_counter()
    from multishift import cli
    import_s = time.perf_counter() - started

    workroot = os.path.join(ROOT, ".bench_run", f"{workload}-{seed}-{os.getpid()}")
    warm_up(WARMUP_S)
    try:
        problems, setup_times, mismatches = setup(workload, seed, workroot)
        summary = [
            f"workload {workload}, seed {seed}: {len(problems)} problems, closed loop, "
            f"1 client, CLI threads 1, OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset (library default)')}",
        ]
        if trace:
            reference, traced, tracer = _traced(cli, problems, workroot)
            passes = [reference, traced]
            leftover = tracer.leftover_wrappers()
            if leftover:
                mismatches.append(f"wrappers left after the traced run: {leftover[:3]}")
            declared = declared_metrics("per_layer")
            degrees = sorted({int(m.group(1)) for m in map(
                _GROWTH_METRIC.match, (d["name"] for d in declared)) if m})
            values = tracer.metrics(degrees)
            inside = values.pop("trace.inside_s")
            texts = passed_texts(problems, traced)
            values.update({
                "trace.wall_s": traced.wall,
                "trace.overhead_s": traced.wall - reference.wall,
                "trace.glue_s": traced.wall - inside,
                "equivalence.oracle.invertible_share": invertible_share(texts),
                "equivalence.log_ratio_mean": log_ratio_mean(texts)[0],
            })
            summary.append(f"traced {len(tracer.name)} spans; untraced pass "
                           f"{reference.wall:.4f} s, traced pass {traced.wall:.4f} s, "
                           f"layer self times {inside:.4f} s")
        else:
            passes = _measure(cli, problems, workroot, seconds)
            times = [t for p in passes for t in p.times]
            values = {
                "wall_s": statistics.median(p.wall for p in passes),
                "problem_p50_s": statistics.median(times),
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            ratio, ratios = log_ratio_mean(passed_texts(problems, passes[0]))
            summary += [
                f"wall_s {values['wall_s']:.4f} s (median of {len(passes)} passes)",
                f"problem_p50_s {values['problem_p50_s']:.4f} s "
                f"(median of {len(times)} problem runs)",
                f"setup_s {values['setup_s']:.4f} s (import {import_s:.4f} s + median "
                f"of {SETUP_REPEATS} generations)",
                f"peak_rss_mb {values['peak_rss_mb']:.1f} MB",
                f"log_ratio_mean {ratio:.6f} nats (over {ratios} certificates)",
            ]
            declared = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))
        except OSError:
            pass

    failed_lines = failures(problems, passes)
    mismatches += inconsistencies(problems, passes)
    attempted = len(problems) * len(passes)
    failed = len(failed_lines)
    summary.append(f"failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted})")
    summary += failed_lines + mismatches
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "summary": summary,
        "result": {
            "correct": not failed_lines and not mismatches,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "multishift", "cli.py")):
        print(f"error: no multishift package under {src}; run from a checkout",
              file=sys.stderr)
        return EXIT_NO_PACKAGE
    if src not in sys.path:
        sys.path.insert(0, src)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["summary"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
