"""Benchmark of the `mdiqkd` command line, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
`./src`.  One client calls `mdiqkd.cli.main(argv)` in a closed loop, one op
after another, for whole rounds of the workload until S seconds have passed.
Every op's result file is then checked against the references in
`oracle.py`.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it, starting
with `#`, give the run's metadata and every metric by name and unit.  The
exit code is 0 whenever that line is printed; failed ops show in it.

With `--trace 0` the metrics are end to end, with timings scaled to a
reference machine speed (see speed.py; README.md lists the metrics).  With
`--trace 1` rounds alternate between untraced and traced, the metrics are
per layer and per op from the traced rounds, and the spans are written to
`bench/out/spans-<workload>.csv`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# A fresh interpreter that imports the CLI and runs one op: the cost a user
# pays on every `mdiqkd` call, lazy caches included.
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import mdiqkd.cli; "
               "sys.exit(mdiqkd.cli.main(sys.argv[2:]))")
SETUP_TIMEOUT_S = 120
# p90 is reported only when at least ten samples lie beyond it.
P90_MIN_OPS = 100


@dataclass
class OpResult:
    op: object
    seconds: float
    stdout: str
    error: str | None = None


@dataclass
class Side:
    """The untraced or the traced rounds of a run."""

    results: list = field(default_factory=list)
    wall: float = 0.0


def execute(main, op, call=None) -> OpResult:
    """Run one op through `main(argv)`; a raise or a nonzero exit is an error.

    `call(fn, *args)` runs the op, so a tracer can put it under a span.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = call(main, list(op.argv)) if call else main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is counted as failed; the run goes on
            code = None
            error = traceback.format_exc(limit=-3).strip()
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:500]}"
    return OpResult(op, seconds, out.getvalue(), error)


def check(result: OpResult, checks) -> OpResult:
    """Apply the op's output check unless the op already failed."""
    if result.error is None:
        try:
            text = Path(result.op.out).read_text(encoding="utf-8")
            checks[result.op.kind](result.op.params, text, result.stdout)
        except Exception as exc:  # any failed or crashed check fails the op
            result.error = f"check: {type(exc).__name__}: {exc}"
    return result


def measure_setup(workload, runs: int) -> list[OpResult]:
    """Time fresh interpreters through import and the workload's first op."""
    results = []
    for k in range(runs):
        op = workload.round(0, tag=f"setup{k}")[0]
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *op.argv],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            results.append(OpResult(op, SETUP_TIMEOUT_S, "", "setup timed out"))
            continue
        seconds = time.perf_counter() - start
        error = None if proc.returncode == 0 else (
            f"setup exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        results.append(OpResult(op, seconds, proc.stdout, error))
    return results


def run_rounds(main, workload, seconds: float, tracer=None, speed=None) -> dict[bool, Side]:
    """Closed loop over whole rounds until `seconds` have passed.

    With a tracer, odd rounds are traced and even rounds are not, so both
    see the same mix of ops.  With a speedometer, the reference kernel is
    timed between rounds.
    """
    sides = {False: Side(), True: Side()}
    start = time.perf_counter()
    r = 0
    # A traced run needs at least one untraced and one traced round.
    min_rounds = 1 if tracer is None else 2
    while r < min_rounds or time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 1
        side = sides[traced]
        if speed is not None:
            speed.maybe_sample()
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        try:
            for i, op in enumerate(workload.round(r)):
                call = None
                if traced:
                    index = len(side.results)
                    call = lambda fn, argv, k=index: tracer.call_op(k, fn, argv)  # noqa: E731
                result = execute(main, op, call)
                # Keep only where the op sits, so that the benchmark's own memory
                # does not grow with the number of ops; see with_ops().
                result.op = (r, i)
                side.results.append(result)
        finally:
            if traced:
                tracer.uninstall()
        side.wall += time.perf_counter() - round_start
        r += 1
    if speed is not None:
        speed.sample()
    return sides


def with_ops(workload, results: list[OpResult]) -> list[OpResult]:
    """Put back each result's op, regenerated from its round and index."""
    rounds: dict[int, list] = {}
    for result in results:
        r, i = result.op
        if r not in rounds:
            rounds[r] = workload.round(r)
        result.op = rounds[r][i]
    return results


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mdiqkd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (there may be no git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source_digest()}


def end_to_end(setup: list[OpResult], side: Side, factor: float, rss_mb: float) -> dict:
    """End-to-end metrics, with timings scaled to the reference machine speed.

    `setup_s` is scaled by the loop's factor too: the loop samples the kernel
    far more often than the few setup interpreters would allow.
    """
    ok = [r.seconds for r in side.results if r.error is None]
    times = ok or [r.seconds for r in side.results]
    return {
        "setup_s": (statistics.median(r.seconds for r in setup) * factor, "s"),
        "ops_per_s": (len(ok) / (side.wall * factor), "1/s"),
        "op_p50_s": (statistics.median(times) * factor, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mdiqkd" / "cli.py").is_file():
        print(f"error: no mdiqkd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mdiqkd.cli

    from oracle import CHECKS
    from speed import Speedometer
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        speed = None if args.trace else Speedometer()
        setup = [] if args.trace else measure_setup(workload, workload.setup_runs)
        warmup = execute(mdiqkd.cli.main, workload.round(0, tag="warmup")[0])
        tracer = Tracer() if args.trace else None
        sides = run_rounds(mdiqkd.cli.main, workload, args.seconds, tracer, speed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced, traced = sides[False].results, sides[True].results
        with_ops(workload, untraced + traced)
        everything = setup + [warmup] + untraced + traced
        for result in everything:
            check(result, CHECKS)
        failures = [r for r in everything if r.error is not None]

        if args.trace:
            bytes_written = sum(os.path.getsize(r.op.out) for r in traced
                                if os.path.exists(r.op.out))
            metrics = layer_metrics(tracer, bytes_written)
            metrics["trace.overhead_frac"] = (
                (sides[True].wall / len(traced)) / (sides[False].wall / len(untraced)) - 1.0,
                "ratio")
            tracer.write_spans(OUT / f"spans-{args.workload}.csv")
        else:
            metrics = end_to_end(setup, sides[False], speed.factor(), rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# meta " + json.dumps(metadata(args)))
    wall = sides[False].wall + sides[True].wall
    print(f"# ops {len(untraced) + len(traced)} timed, wall {wall:.3f} s")
    if speed is not None:
        raw = [r.seconds for r in untraced if r.error is None]
        print(f"# speed factor {speed.factor():.4f}; unscaled: "
              f"setup_s {statistics.median(r.seconds for r in setup):.6g} s, "
              f"ops_per_s {len(raw) / sides[False].wall:.6g} 1/s, "
              f"op_p50_s {statistics.median(raw or [0.0]):.6g} s")
    print(f"# error_rate = {len(failures) / len(everything):.6g} "
          f"({len(failures)} of {len(everything)} ops)")
    if not args.trace and len(untraced) >= P90_MIN_OPS:
        p90 = statistics.quantiles([r.seconds for r in untraced], n=10, method="inclusive")[8]
        print(f"# op_p90_s = {p90 * speed.factor():.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for failure in failures[:5]:
        first = failure.error.splitlines()[-1] if failure.error else ""
        print(f"# FAILED {' '.join(failure.op.argv[:1])} ({failure.op.out}): {first}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
