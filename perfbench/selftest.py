"""Fast self-test of the benchmark on the tiny TW stand-in (n = 1,024).

Runs every workload at ``--tier tiny`` three ways and checks:

* ``--trace 0`` prints every end-to-end metric with its unit (and the
  reported, unbounded figures on its text lines), answers correctly and
  exits 0;
* ``--trace 1`` prints every per-layer metric with its unit (the
  reconciliation verdict is not asserted: at this size fixed overheads
  dominate every layer);
* ``--corrupt`` (one received answer altered before its check) is
  caught: ``correct`` false, ``failed`` at least 1, exit code 1.

It also checks that ``BENCHMARK.json``, when present at the checkout
root, names the same metrics with the same units.  Run from the root of
a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, REPORTED, WORKLOADS  # noqa: E402


def _run(workload: str, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--tier", "tiny", *extra],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} {extra}: no output\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def _check_names(label: str, metrics: dict, expected: dict, stdout: str):
    got = {name: entry["unit"] for name, entry in metrics.items()}
    assert got == expected, f"{label}: metrics/units differ: {got}"
    for name, entry in metrics.items():
        assert isinstance(entry["value"], float), f"{label}: {name} not a number"
        assert f"{name} " in stdout, f"{label}: {name} not printed"


def _check_spec() -> None:
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        assert listed == table, f"BENCHMARK.json {key} differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def main() -> int:
    _check_spec()
    for workload in WORKLOADS:
        code, result, out = _run(workload, "--trace", "0")
        assert code == 0 and result["correct"], f"{workload}: plain run failed"
        assert result["attempted"] >= 1 and result["failed"] == 0
        _check_names(f"{workload} plain", result["metrics"], END_TO_END, out)
        for name, unit in REPORTED.items():
            assert any(
                line.split()[:1] == [name] and unit in line.split()
                for line in out.splitlines()
            ), f"{workload}: reported {name} not printed with {unit}"

        code, result, out = _run(workload, "--trace", "1")
        _check_names(f"{workload} traced", result["metrics"], PER_LAYER, out)

        code, result, _ = _run(workload, "--trace", "0", "--corrupt")
        assert code == 1 and not result["correct"] and result["failed"] >= 1, (
            f"{workload}: a corrupted answer went unnoticed"
        )
        print(f"ok  {workload}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
