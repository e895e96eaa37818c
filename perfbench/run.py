"""acnn benchmark: train and tag throughput on the workloads of BENCHMARK.json.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each run starts the workload in a fresh Python process (perfbench/workloads.py)
with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 set before numpy loads, and
the program imported from ./src. `--seconds` fixes how many units the run does
(see `Workload.units_per_s`), so every run of a workload, traced or not and on
any commit, does the same work.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it runs
the workload twice, untraced and then traced, each in its own process, and
reports the per-layer metrics of the traced process plus the tracing overhead,
the gap in tokens_per_s between the two.

Every metric is printed with its unit, then the environment, then, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}. If the
program cannot be run, the exit code is non-zero and no JSON is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
P90_MIN_UNITS = 100  # so that at least 10 samples lie beyond the 90th percentile
RUN_LIMIT_S = 170    # a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run one workload in a fresh process and return its raw result."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise ChildFailed(f"{workload}: no result within the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload}: workload process printed no result")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree. Git does
    not look above the checkout, so an enclosing repository is not reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(raw: dict) -> dict:
    unit_s = raw["unit_s"]
    return {
        "tokens_per_s": {"value": raw["tokens"] / sum(unit_s), "unit": "1/s"},
        "unit_ms_p50": {"value": statistics.median(unit_s) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }


def report(raw: dict, metrics: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric with unit and sample count."""
    n = len(raw["unit_s"])
    lines = [f"workload {raw['workload']}  seed {raw['seed']}  units {n}  "
             f"tokens {raw['tokens']}  input_sha256 {raw['input_sha256']}"]
    for name, m in metrics.items():
        note = {"unit_ms_p50": f"  (n={n})",
                "setup_s": f"  (median of {len(raw['setup_s'])} set-ups)"}.get(name, "")
        lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}{note}")
    if n >= P90_MIN_UNITS:
        p90 = statistics.quantiles(raw["unit_s"], n=10)[-1] * 1e3
        lines.append(f"  {'unit_ms_p90':<14} {p90:.6g} ms  (n={n})")
    else:
        lines.append(f"  {'unit_ms_p90':<14} not reported: {n} units < {P90_MIN_UNITS}, "
                     "so fewer than 10 samples would lie beyond it")
    lines.append(f"  {'failed_ratio':<14} {raw['failed'] / raw['attempted']:.6g}  "
                 f"({raw['failed']}/{raw['attempted']} units, {raw['checked']} checked "
                 "against the oracle" + (f", probabilities from {raw['probs_source']}"
                                         if raw["probs_source"] else "") + ")")
    lines.extend(f"  error: {e}" for e in raw["errors"])
    lines.append("env " + json.dumps(raw["env"], sort_keys=True))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: int, sha: str | None) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_child(workload, seed, seconds, 0, deadline)
    plain["env"]["git_sha"] = sha
    metrics = end_to_end(plain)
    for line in report(plain, metrics):
        print(line)
    correct = plain["failed"] == 0
    attempted, failed = plain["attempted"], plain["failed"]
    if trace:
        traced = run_child(workload, seed, seconds, 1, deadline)
        parity = (traced["tokens"], len(traced["unit_s"])) == (plain["tokens"], len(plain["unit_s"]))
        correct = correct and traced["failed"] == 0 and parity
        attempted += traced["attempted"]
        failed += traced["failed"]
        untraced_tps = metrics["tokens_per_s"]["value"]
        traced_tps = end_to_end(traced)["tokens_per_s"]["value"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["per_layer"].items()}
        metrics["trace.untraced_tokens_per_s"] = {"value": untraced_tps, "unit": "1/s"}
        metrics["trace.tokens_per_s"] = {"value": traced_tps, "unit": "1/s"}
        metrics["trace.overhead_share"] = {
            "value": (untraced_tps - traced_tps) / untraced_tps, "unit": "ratio"}
        print(f"traced run: parity {'ok' if parity else 'MISMATCH'}, "
              f"tracing overhead {100 * metrics['trace.overhead_share']['value']:.1f}% "
              "of untraced tokens_per_s")
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workload_names = tuple(w["name"] for w in spec["workloads"])
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the workloads from BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description="acnn benchmark: train and tag throughput.")
    p.add_argument("--workload", required=True, choices=workload_names + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "acnn" / "__init__.py").is_file():
        print(f"error: the program (src/acnn) is not in {ROOT}", file=sys.stderr)
        return 2
    names = workload_names if args.workload == "all" else (args.workload,)
    sha = git_sha()
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, sha)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
