#!/usr/bin/env python3
"""vnbench driver: build, run, repeat and compare the end-to-end benchmark.

Usage (from the repository root):
  python3 bench/vnbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build vnbench if needed, run one workload once, and print as the
      last line one JSON object {correct, attempted, failed, metrics}:
      the end-to-end metrics of BENCHMARK.json (--trace 0) or its
      per-layer metrics (--trace 1).
  python3 bench/vnbench/run.py run --reps N --out FILE [--seed-base N]
      N repetitions of every workload of BENCHMARK.json at its
      run_seconds, alternating the workload order, seed = seed-base +
      repetition; writes each end-to-end metric's values, median and
      quartiles per workload to FILE.
  python3 bench/vnbench/run.py compare A.json B.json
      Verdict per workload and end-to-end metric, B against A, with the
      bounds of BENCHMARK.json: pass, regression, or unresolved (the
      spread of either side is wider than the bound). Exits 1 unless
      every verdict is pass.
  python3 bench/vnbench/run.py smoke
      vnbench --smoke: every workload at ~1/20 size, with checks.
  python3 bench/vnbench/run.py --self-test
      Check the compare verdicts on fabricated data.

The build goes to $CARGO_TARGET_DIR/vnbench (default .bench_build/vnbench,
relative to the repository root); the kit memo, scratch caches and traces
go to .bench_build/vnbench-work. Stdlib only.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def work_dir():
    return build_root() / "vnbench-work"


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def build():
    """Configure (once) and build vnbench; return the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no library sources under {ROOT / 'src'}; "
                         "run from a full checkout")
    bdir = build_root() / "vnbench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "bench" / "vnbench"), "-B", str(bdir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "vnbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    exe = bdir / "vnbench"
    work = work_dir()
    work.mkdir(parents=True, exist_ok=True)
    if not (work / "vnoise_kit.cache").is_file():
        subprocess.run([str(exe), "prepare", "--work", str(work)],
                       check=True, stdout=sys.stderr)
    return exe


def run_vnbench(exe, workload, seed, seconds, trace):
    """One vnbench run; returns (exit code, stdout lines, result dict)."""
    work = work_dir()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work", str(work)]
    if trace:
        cmd += ["--trace", str(work / f"trace-{workload}-s{seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines[:-1] if result else lines, result


def select_metrics(result, wanted):
    """The metrics BENCHMARK.json names, checked against their units."""
    out = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            raise SystemExit(f"run.py: vnbench did not report {entry['name']}")
        if got["unit"] != entry["unit"]:
            raise SystemExit(f"run.py: {entry['name']} reported in "
                             f"{got['unit']}, BENCHMARK.json says "
                             f"{entry['unit']}")
        out[entry["name"]] = got
    return out


def bench(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}")
    exe = build()
    code, lines, result = run_vnbench(exe, args.workload, args.seed,
                                      args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        log(f"run.py: vnbench exited {code} without a result")
        return code or 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {"correct": bool(result["correct"]) and code == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": select_metrics(result, wanted)}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def run_sets(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    exe = build()
    values = {w: {m["name"]: [] for m in spec["end_to_end"]}
              for w in workloads}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for rep in range(args.reps):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed_base + rep
            code, _, result = run_vnbench(exe, w, seed, seconds, False)
            if code != 0 or result is None or not result["correct"]:
                raise SystemExit(f"run.py: {w} seed {seed} failed "
                                 f"(exit {code})")
            metrics = select_metrics(result, spec["end_to_end"])
            for name, got in metrics.items():
                values[w][name].append(got["value"])
            log(f"rep {rep} {w} seed {seed}: " + ", ".join(
                f"{n}={g['value']:.4g}" for n, g in metrics.items()))
    doc = {"seconds": seconds, "reps": args.reps,
           "workloads": {w: {n: dict(summarize(v), unit=units[n])
                             for n, v in per.items()}
                         for w, per in values.items()}}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for w, per in doc["workloads"].items():
        for n, s in per.items():
            spread = (s["q3"] - s["q1"]) / s["median"]
            log(f"{w:<14} {n:<12} median {s['median']:<12.5g} "
                f"IQR/median {spread:6.1%}")
    return 0


def verdict(base, change, bound, better):
    """pass / regression / unresolved for one metric of one workload."""
    def worse_by(a, b):
        return (b - a) / a if better == "lower" else (a - b) / a

    def spread(s):
        return (s["q3"] - s["q1"]) / s["median"]

    if max(spread(base), spread(change)) > bound:
        # Too noisy to call, unless every run of the change reads better
        # than every run of the base.
        if better == "lower":
            clear = max(change["values"]) < min(base["values"])
        else:
            clear = min(change["values"]) > max(base["values"])
        return "pass" if clear else "unresolved"
    if worse_by(base["median"], change["median"]) > bound:
        return "regression"
    return "pass"


def compare(a, b, spec):
    """Print the verdict table of two `run` documents; return the number
    of non-pass verdicts."""
    a, b = a["workloads"], b["workloads"]
    bad = 0
    print(f"{'workload':<14} {'metric':<12} {'base':>12} {'change':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for w in a:
        if w not in b:
            print(f"{w:<14} missing from the change")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            sa, sb = a[w][m["name"]], b[w][m["name"]]
            v = verdict(sa, sb, m["bound"], m["better"])
            delta = sb["median"] / sa["median"] - 1.0
            print(f"{w:<14} {m['name']:<12} {sa['median']:>12.5g} "
                  f"{sb['median']:>12.5g} {delta:>+8.1%} "
                  f"{m['bound']:>6.0%}  {v}")
            bad += v != "pass"
    print("compare: " + ("ok" if bad == 0 else f"{bad} verdict(s) not pass"))
    return bad


def self_test():
    """Check each verdict, and compare's count, on fabricated data."""
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]
    noisy = [5, 6, 8, 10, 12, 14, 16, 18, 9, 11]
    cases = [
        ("pass", steady, [v * 1.05 for v in steady], "lower", "pass"),
        ("regression", steady, [v * 1.3 for v in steady], "lower",
         "regression"),
        ("throughput drop", steady, [v * 0.8 for v in steady], "higher",
         "regression"),
        ("throughput gain", steady, [v * 1.3 for v in steady], "higher",
         "pass"),
        ("unresolved", steady, noisy, "lower", "unresolved"),
        ("noisy but every run better", steady,
         [5, 6, 6.5, 7, 7.5, 8, 8.5, 9, 9.5, 5.5], "lower", "pass"),
    ]
    for name, base, change, better, want in cases:
        got = verdict(summarize(base), summarize(change), 0.1, better)
        if got != want:
            raise SystemExit(f"self-test: {name}: {got}, expected {want}")

    spec = {"end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}

    def doc(values):
        return {"workloads": {"w": {"wall_s": summarize(values)}}}

    if compare(doc(steady), doc(steady), spec) != 0 or \
            compare(doc(steady), doc(noisy), spec) != 1:
        raise SystemExit("self-test: compare miscounts verdicts")
    print("run.py self-test: ok")
    return 0


def main(argv):
    # SIGTERM unwinds like an exception, so a running subprocess.run()
    # kills its child and waits for it instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if argv and argv[0] in ("run", "compare", "smoke"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "run":
            parser.add_argument("--reps", type=int, default=10)
            parser.add_argument("--out", required=True)
            parser.add_argument("--seed-base", type=int, default=1000)
            return run_sets(parser.parse_args(argv[1:]))
        if argv[0] == "compare":
            parser.add_argument("base")
            parser.add_argument("change")
            args = parser.parse_args(argv[1:])
            docs = [json.loads(Path(p).read_text())
                    for p in (args.base, args.change)]
            return 1 if compare(*docs, load_spec()) else 0
        parser.parse_args(argv[1:])
        exe = build()
        return subprocess.run([str(exe), "--smoke", "--work",
                               str(work_dir())]).returncode

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required (or run/compare/smoke)")
    args.seconds = args.seconds or load_spec()["run_seconds"]
    return bench(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
