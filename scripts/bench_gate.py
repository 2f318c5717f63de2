#!/usr/bin/env python3
"""Benchmark regression gate for the transient-solver hot loop.

Compares a fresh ``perf_solver --table=BENCH_solver.json`` run against
the committed baseline in ``bench/baselines/solver.json`` and fails
(exit 1) on any of three regressions:

* The lane speedup. ``speedup_k8`` is the median, over interleaved
  alternations in one process, of one lane's ns per step divided by
  K=8's ns per lane-step. Both sides of each ratio are measured back to
  back on the same machine, so it needs no normalization; it must not
  fall below the baseline's ``speedup_k8_floor``. The floor is set from
  ten reruns of an unchanged tree, below the lowest of them.
* The non-solve share. ``chip_solver_k8`` is the median, over the same
  alternations, of the whole chip lane-step (activity, currents, solve,
  statistics, meter, R-Unit) divided by the solver step, both at K=8;
  it must not rise above the baseline's ``chip_solver_k8_ceiling``, set
  from ten reruns of an unchanged tree, above the highest of them.
* A configuration's ns/step/lane. Raw nanoseconds are not comparable
  across machines, so each is first divided by the run's own
  ``calibration_ns``, the wall time of a fixed, dependency-chained FMA
  kernel measured in the same process, and may not exceed the
  baseline's by more than the tolerance.

Usage:
    scripts/bench_gate.py CURRENT.json [BASELINE.json] [--tolerance PCT]
    scripts/bench_gate.py --self-test

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "vnoise-bench-solver-v2"
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / \
    "bench" / "baselines" / "solver.json"
DEFAULT_TOLERANCE = 15.0


def load(path):
    """The document at `path` and its calibration-normalized rows."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: expected schema {SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    cal = float(doc["calibration_ns"])
    if cal <= 0:
        raise SystemExit(f"{path}: calibration_ns must be positive")
    configs = {}
    for entry in doc.get("lanes", []):
        configs[f"K={int(entry['lanes'])}"] = \
            float(entry["ns_per_step_lane"]) / cal
    return doc, configs


def gate(current_path, baseline_path, tolerance_pct):
    """Return the number of failed checks (0 == gate passes)."""
    current_doc, current = load(current_path)
    baseline_doc, baseline = load(baseline_path)
    if "speedup_k8_floor" not in baseline_doc:
        raise SystemExit(f"{baseline_path}: no speedup_k8_floor")
    regressions = 0
    print(f"bench gate: {current_path} vs {baseline_path} "
          f"(tolerance {tolerance_pct:.0f}%)")

    floor = float(baseline_doc["speedup_k8_floor"])
    speedup = current_doc.get("speedup_k8")
    if speedup is None:
        print(f"{'speedup_k8':<24}{'MISSING':>12}  FAIL")
        regressions += 1
    else:
        verdict = "ok"
        if float(speedup) < floor:
            verdict = "FAIL (below floor)"
            regressions += 1
        print(f"{'speedup_k8':<24}{float(speedup):>11.2f}x "
              f"floor {floor:.2f}x  {verdict}")

    if "chip_solver_k8_ceiling" in baseline_doc:
        ceiling = float(baseline_doc["chip_solver_k8_ceiling"])
        share = current_doc.get("chip_solver_k8")
        if share is None:
            print(f"{'chip_solver_k8':<24}{'MISSING':>12}  FAIL")
            regressions += 1
        else:
            verdict = "ok"
            if float(share) > ceiling:
                verdict = "FAIL (above ceiling)"
                regressions += 1
            print(f"{'chip_solver_k8':<24}{float(share):>12.3f} "
                  f"ceiling {ceiling:.3f}  {verdict}")

    print(f"{'config':<24}{'baseline':>12}{'current':>12}{'delta':>9}")
    for name, base in sorted(baseline.items()):
        if name not in current:
            print(f"{name:<24}{base:>12.4e}{'MISSING':>12}{'':>9}  FAIL")
            regressions += 1
            continue
        cur = current[name]
        delta_pct = (cur / base - 1.0) * 100.0
        verdict = "ok"
        if delta_pct > tolerance_pct:
            verdict = "FAIL (regression)"
            regressions += 1
        print(f"{name:<24}{base:>12.4e}{cur:>12.4e}"
              f"{delta_pct:>+8.1f}%  {verdict}")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<24}{'(new)':>12}{current[name]:>12.4e}{'':>9}  ok")
    if regressions:
        print(f"bench gate: {regressions} check(s) failed — failing")
    else:
        print("bench gate: ok")
    return regressions


def make_doc(k1_ns, k8_ns, calibration_ns, speedup_k8=None, floor=None,
             chip_solver_k8=1.1, ceiling=None):
    doc = {
        "schema": SCHEMA,
        "steps": 1000,
        "alternations": 7,
        "calibration_ns": calibration_ns,
        "lanes": [
            {"lanes": 1, "ns_per_step_lane": k1_ns,
             "speedup_vs_one_lane": 1.0},
            {"lanes": 8, "ns_per_step_lane": k8_ns,
             "speedup_vs_one_lane": k1_ns / k8_ns},
        ],
        "speedup_k8": k1_ns / k8_ns if speedup_k8 is None else speedup_k8,
    }
    if chip_solver_k8 is not None:
        doc["chip_solver_k8"] = chip_solver_k8
    if floor is not None:
        doc["speedup_k8_floor"] = floor
    if ceiling is not None:
        doc["chip_solver_k8_ceiling"] = ceiling
    return doc


def self_test(tmpdir):
    """Fabricate baseline/current pairs and assert the gate's verdicts."""
    tmpdir.mkdir(parents=True, exist_ok=True)
    base = tmpdir / "base.json"
    base.write_text(json.dumps(make_doc(2000.0, 500.0, 1e8, floor=3.0,
                                        ceiling=1.3)))

    def expect(name, doc, failures):
        path = tmpdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        got = gate(path, base, DEFAULT_TOLERANCE)
        if got != failures:
            raise SystemExit(f"self-test: {name}: {got} failed check(s), "
                             f"expected {failures}")

    # Identical figures on a machine half as fast: both the benchmark
    # and the calibration kernel take 2x the wall time, so the
    # normalized rows are unchanged, and so is the speedup.
    expect("pass", make_doc(4000.0, 1000.0, 2e8), 0)
    # One lane 40% slower at the same calibration: the K=1 row fails;
    # the speedup rises, which is no failure.
    expect("one-lane-regression", make_doc(2800.0, 500.0, 1e8), 1)
    # K=8 twice as slow per lane-step: its row fails, and so does the
    # speedup, now 2.0x, below the floor.
    expect("lost-speedup", make_doc(2000.0, 1000.0, 1e8), 2)
    # The paired ratio below the floor though the row medians look
    # fine: the floor alone fails.
    expect("ratio-below-floor", make_doc(2000.0, 500.0, 1e8,
                                         speedup_k8=2.9), 1)
    # K=8 dropped from the table: its row and the speedup are missing.
    dropped = make_doc(2000.0, 500.0, 1e8)
    dropped["lanes"] = dropped["lanes"][:1]
    del dropped["speedup_k8"]
    expect("dropped", dropped, 2)
    # The chip lane-step 40% above the solver step: the non-solve share
    # grew past the ceiling, though every solver row is unchanged.
    expect("non-solve-share", make_doc(2000.0, 500.0, 1e8,
                                       chip_solver_k8=1.4), 1)
    # A table without the chip ratio fails against a baseline with a
    # ceiling.
    expect("no-chip-ratio", make_doc(2000.0, 500.0, 1e8,
                                     chip_solver_k8=None), 1)
    print("bench gate self-test: ok")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", nargs="?",
                        help="fresh perf_solver --table JSON")
    parser.add_argument("baseline", nargs="?",
                        default=str(DEFAULT_BASELINE),
                        help="committed baseline JSON "
                             "(default: bench/baselines/solver.json)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="PCT",
                        help="allowed normalized slowdown in percent "
                             "(default: %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate logic on fabricated data")
    args = parser.parse_args(argv)

    if args.self_test:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            self_test(Path(tmp))
        return 0
    if not args.current:
        parser.error("CURRENT.json is required unless --self-test")
    return 1 if gate(args.current, args.baseline, args.tolerance) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
