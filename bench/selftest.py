"""Self-test of the benchmark's failure accounting and output checks.

    python3 bench/selftest.py

Run from the root of a source checkout.  It checks that

* an op that raises, exits nonzero or leaves a wrong result is counted as
  failed while the run goes on, using stub ops (not a library defect);
* every output check passes on a real op of its kind, and rejects the same
  result with one value moved by a relative 1e-6.

Prints one line per case and exits nonzero on the first case that fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import OUT, SRC, check, execute, run_rounds, with_ops

sys.path.insert(0, str(SRC))

import mdiqkd.cli  # noqa: E402
from oracle import CHECKS, OutputMismatch  # noqa: E402
from workloads import DecoyRoundtrip, Op, ScanOptimized, ShortRuns, Workload  # noqa: E402


class StubWorkload(Workload):
    name = "stub"

    def round(self, r: int, tag: str = "op") -> list[Op]:
        ops = []
        for i, action in enumerate(("ok", "raise", "exit", "wrong", "usage")):
            out = str(self._out(tag, r, i, "txt"))
            ops.append(Op("stub", (action, out), out, {"want": "ok"}))
        return ops


def stub_main(argv: list[str]) -> int:
    """Stands in for mdiqkd.cli.main: argv[0] says how this op behaves."""
    action, out = argv[0], argv[-1]
    if action == "raise":
        raise RuntimeError("stub op raised")
    if action == "exit":
        return 3
    if action == "usage":
        raise SystemExit(2)
    Path(out).write_text("ok" if action == "ok" else "not ok")
    return 0


def stub_check(params: dict, text: str, stdout: str) -> None:
    if text != params["want"]:
        raise OutputMismatch(f"got {text!r}")


def test_failure_accounting(workdir: Path) -> None:
    workload = StubWorkload(0, workdir)
    results = with_ops(workload, run_rounds(stub_main, workload, seconds=0.0)[False].results)
    for result in results:
        check(result, {"stub": stub_check})
    failed = [r.op.argv[0] for r in results if r.error is not None]
    assert len(results) == 5, f"the run stopped early: {len(results)} ops"
    assert failed == ["raise", "exit", "wrong", "usage"], failed
    assert "RuntimeError" in results[1].error, results[1].error
    print("ok   failure accounting: 4 of 5 stub ops failed, the run went on")


def _perturb_csv(text: str, column: str, row: int) -> str:
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    header = lines[data[0]].split(",")
    target = data[1 + row]
    fields = lines[target].split(",")
    k = header.index(column)
    fields[k] = repr(float(fields[k]) * (1.0 + 1e-6))
    lines[target] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _perturb_json(text: str, path: tuple) -> str:
    data = json.loads(text)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 1.0 + 1e-6
    return json.dumps(data)


def test_checks(workdir: Path) -> None:
    short = ShortRuns(7, workdir).round(0)
    decoy_workload = DecoyRoundtrip(7, workdir)
    decoy_workload.prepare()
    decoy = decoy_workload.round(0)
    cases = [
        ("bsm fock", short[0], lambda t: _perturb_csv(t, "p_psi_minus", 5)),
        ("bsm coherent", short[1], lambda t: _perturb_csv(t, "p_fail", 0)),
        ("hom", short[2], lambda t: _perturb_csv(t, "pc", 40)),
        ("keyrate fixed", short[3], lambda t: _perturb_csv(t, "q_rect", 3)),
        ("keyrate optimized", ScanOptimized(7, workdir).round(0)[0],
         lambda t: _perturb_csv(t, "q11_rect", 10)),
        ("decoy table", decoy[0],
         lambda t: _perturb_json(t, ("bases", "rect", "true", "yields", 1, 1))),
        ("decoy model", decoy[1],
         lambda t: _perturb_json(t, ("bases", "diag", "true", "errors", 1, 1))),
        ("decoy observed", decoy[2],
         lambda t: _perturb_json(t, ("estimated", "yields", 1, 1))),
    ]
    for label, op, perturb in cases:
        result = check(execute(mdiqkd.cli.main, op), CHECKS)
        assert result.error is None, f"{label}: {result.error}"
        text = Path(op.out).read_text()
        Path(op.out).write_text(perturb(text))
        try:
            CHECKS[op.kind](op.params, Path(op.out).read_text(), result.stdout)
        except OutputMismatch as exc:
            print(f"ok   {label}: passes, and a 1e-6 change is caught ({exc})")
        else:
            raise AssertionError(f"{label}: a perturbed result passed its check")


def main() -> int:
    workdir = OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        test_failure_accounting(workdir)
        test_checks(workdir)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
