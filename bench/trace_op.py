"""Trace one `mdiqkd` invocation and print its per-layer counts and times.

    python3 bench/trace_op.py keyrate --out bench/out/keyrate_scan.csv

Run from the root of a source checkout.  The arguments are passed to
`mdiqkd.cli.main` unchanged; the op runs once untraced first, so lazy caches
are filled, then once under the tracer.  The spans are written to
`bench/out/spans-op.csv`.
"""

from __future__ import annotations

import os
import sys

from run import OUT, SRC, execute


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import mdiqkd.cli

    from tracer import Tracer, layer_metrics
    from workloads import Op

    op = Op("", tuple(argv), "", {})
    execute(mdiqkd.cli.main, op)
    tracer = Tracer()
    tracer.install()
    try:
        result = execute(mdiqkd.cli.main, op, lambda fn, args: tracer.call_op(0, fn, args))
    finally:
        tracer.uninstall()
    if result.error:
        print(result.error, file=sys.stderr)
        return 1
    out = next((a.split("=", 1)[1] for a in argv if a.startswith("--out=")), None)
    if out is None and "--out" in argv:
        out = argv[argv.index("--out") + 1]
    written = os.path.getsize(out) if out and os.path.exists(out) else 0
    for name, (value, unit) in layer_metrics(tracer, written).items():
        print(f"{name} = {value:.6g} {unit}")
    tracer.write_spans(OUT / "spans-op.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
