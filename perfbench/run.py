#!/usr/bin/env python3
"""The symgf benchmark: one workload, one seed, fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; symgf is imported from ``src/``.

``--trace 0`` repeats complete workload runs, each in a fresh interpreter,
for about ``--seconds`` (at least one run), and reports the end-to-end
metrics over all of them.  ``--trace 1`` makes one untraced run, one traced run
and one probe run, and reports the per-layer metrics.  Every run is checked
against perfbench/reference.json; the last line of standard output is the
JSON result, and the exit code is 1 if any check failed.  Details and the
rationale for each workload are in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import AXIOMS, POOL, WORKLOADS, grid_seed, operations, points  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Residual maxima may move by rounding only.
RTOL, ATOL = 1e-6, 1e-12
# A run whose CPU time falls below this share of its wall time was stalled
# by the shared machine; it is flagged, not dropped.
STALL_RATIO = 0.9
# Every child must end before this many seconds after start.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


UNITS = {"points_per_s": "1/s", "peak_rss_mb": "MB", "serialize.report_bytes": "B",
         "trace.overhead_ratio": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if ".ms" in name or "_ms" in name:
        return "ms"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, env, log_path, deadline):
    """Run ``cmd`` to completion; return (wall_s, t_spawn, exit_code, rusage)."""
    lock = threading.Lock()
    exited = False
    with open(log_path, "w") as log:
        t0 = clock()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)

        def kill():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(max(deadline - t0, 0.0), kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            t1 = clock()
            with lock:
                exited = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL and not clock() < deadline:
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish before the deadline")
    return t1 - t0, t0, proc.returncode, rusage


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.grid_seed = grid_seed(seed)
        self.out = ROOT / ".bench_out" / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.deadline = clock() + DEADLINE_S
        with open(HERE / "reference.json") as fh:
            ref = json.load(fh)["workloads"][workload]
        if ref["grid_n"] != self.spec["grid_n"]:
            raise BenchError("reference.json was recorded for another grid size")
        self.ref = ref["grids"][seed % POOL]
        self.runs = []
        self.problems = []

    def _python(self, *args, log):
        return spawn([sys.executable, *args], self.env, self.out / log, self.deadline)

    def warm_up(self):
        """Import once before timing: proves src/ imports and fills the bytecode cache."""
        _, _, code, _ = self._python("-c", "import symgf.cli", log="warmup.log")
        if code != 0:
            raise BenchError(f"cannot import symgf from {ROOT / 'src'}; "
                             f"see {self.out / 'warmup.log'}")

    def run(self, traced=False):
        """One complete workload run in a fresh interpreter."""
        tag = f"{len(self.runs)}{'-traced' if traced else ''}"
        report, result = self.out / f"report-{tag}.json", self.out / f"result-{tag}.json"
        for stale in (report, result):
            stale.unlink(missing_ok=True)
        cmd = [str(HERE / "child.py"), "--workload", self.workload,
               "--grid-seed", str(self.grid_seed), "--out", str(report),
               "--result", str(result)]
        if traced:
            cmd += ["--spans", str(self.out / "spans.npz")]
        wall, t0, code, ru = self._python(*cmd, log=f"child-{tag}.log")
        run = {"tag": tag, "wall_s": wall, "exit_code": code,
               "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0,
               "result": None, "report": None}
        run["stalled"] = run["cpu_s"] < STALL_RATIO * wall
        if result.exists():
            res = json.loads(result.read_text())
            if Path(res["symgf_file"]).resolve() != (ROOT / "src/symgf/__init__.py").resolve():
                raise BenchError(f"child imported symgf from {res['symgf_file']}")
            run["result"] = res
            run["setup_s"] = res["t_first_check"] - t0
            run["check_s"] = res["t_last_check"] - res["t_first_check"]
        if report.exists():
            run["report"] = report.read_bytes()
        run["failed"] = self.gate(run)
        self.runs.append(run)
        return run

    def per_layer(self) -> dict:
        """Layer metrics of the traced run, its overhead and the probes."""
        untraced, traced = self.runs
        if traced["result"] is None or untraced["result"] is None:
            raise BenchError("the traced or untraced run did not complete")
        out = dict(traced["result"]["layers"])
        out["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        result = self.out / "probes.json"
        result.unlink(missing_ok=True)
        _, _, code, _ = self._python(str(HERE / "probes.py"), "--result", str(result),
                                     log="probes.log")
        if code != 0:
            raise BenchError(f"probes failed; see {self.out / 'probes.log'}")
        out.update(json.loads(result.read_text())["probes"])
        return out

    def gate(self, run) -> int:
        """Failed operations of one run, checked against the reference."""
        n, ops, tag = self.spec["grid_n"], operations(self.workload), run["tag"]
        if run["result"] is None or run["report"] is None:
            self.problems.append(f"run {tag}: no result (exit {run['exit_code']}); "
                                 f"see {self.out / ('child-' + tag + '.log')}")
            return ops
        doc = json.loads(run["report"])
        if run["exit_code"] != self.ref["exit_code"] or doc["exit_code"] != run["exit_code"]:
            self.problems.append(f"run {tag}: exit code {run['exit_code']}, "
                                 f"reference {self.ref['exit_code']}")
            return ops
        gate_ref = self.ref.get("order2_gate")
        if gate_ref is not None:
            fit = doc.get("order2_gate", {})
            same = all(_close(fit.get(k), gate_ref[k]) for k in ("c1", "c2"))
            if not (fit.get("passed") and same):
                self.problems.append(f"run {tag}: order-2 gate fit {fit} differs from {gate_ref}")
                return ops
        failed = 0
        reports = {r["axiom"]: r for r in doc["reports"]}
        for axiom in AXIOMS:
            r = reports.get(axiom)
            if r is None or r["n"] != n or not all(map(math.isfinite, (r["max"], r["mean"]))):
                self.problems.append(f"run {tag}: {axiom} missing, short or non-finite: {r}")
                failed += n
            elif (len(r["failures"]) == 0) != self.ref["verdict"][axiom]:
                self.problems.append(f"run {tag}: {axiom} verdict differs from reference")
                failed += len(r["failures"]) or n
            elif not _close(r["max"], self.ref["max"][axiom]):
                self.problems.append(f"run {tag}: {axiom} max {r['max']!r} differs from "
                                     f"reference {self.ref['max'][axiom]!r}")
                failed += n
        first = self.runs[0]["report"] if self.runs else None
        if first is not None and run["report"] != first:
            self.problems.append(f"run {tag}: report is not byte-identical to run 0")
            failed = ops
        return failed


def _close(value, ref) -> bool:
    return value is not None and math.isfinite(value) and abs(value - ref) <= ATOL + RTOL * abs(ref)


def provenance(bench: Bench) -> dict:
    os.environ.update({var: "1" for var in THREAD_VARS})
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": 1, "loadavg": os.getloadavg(), "workload": bench.workload,
        "seed": bench.seed, "grid_seed": bench.grid_seed, "grid_n": bench.spec["grid_n"],
        "points_per_run": points(bench.workload),
        "operations_per_run": operations(bench.workload),
    }


def end_to_end(bench: Bench) -> dict:
    """Throughput and mean wall time over all runs, which the shared machine's
    slow spells disturb less than a median of a few runs; medians for set-up
    and memory."""
    ok = [r for r in bench.runs if r["result"] is not None]
    if not ok:
        raise BenchError("no run completed")
    return {
        "wall_s": statistics.fmean(r["wall_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "points_per_s": points(bench.workload) * len(ok) / sum(r["check_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "symgf" / "__init__.py").is_file():
        print(f"error: no symgf source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        bench = Bench(args.workload, args.seed)
        bench.warm_up()
        if args.trace:
            bench.run()
            bench.run(traced=True)
            metrics = bench.per_layer()
        else:
            start = clock()
            while True:
                bench.run()
                elapsed = clock() - start
                # stop unless, on average, the next run ends within half a run of --seconds
                if elapsed * (1 + 0.5 / len(bench.runs)) >= args.seconds:
                    break
            metrics = end_to_end(bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = provenance(bench)
    attempted = operations(args.workload) * len(bench.runs)
    failed = sum(r["failed"] for r in bench.runs)
    print("# provenance", json.dumps(prov))
    for r in bench.runs:
        timing = (f"setup_s={r['setup_s']:.4f} check_s={r['check_s']:.4f} "
                  if r["result"] else "")
        print(f"# run {r['tag']}: wall_s={r['wall_s']:.4f} {timing}cpu_s={r['cpu_s']:.4f} "
              f"cpu/wall={r['cpu_s'] / r['wall_s']:.3f} peak_rss_mb={r['peak_rss_mb']:.1f} "
              f"exit={r['exit_code']} failed={r['failed']}"
              f"{' STALLED' if r['stalled'] else ''}")
    for problem in bench.problems:
        print("# FAIL", problem)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit(name)}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} operations)")

    missing = [m["name"] for m in declared
               if m["name"] not in metrics or m["unit"] != unit(m["name"])]
    if missing:
        print(f"error: BENCHMARK.json metrics not measured as declared: {missing}",
              file=sys.stderr)
        return 1
    correct = failed == 0 and not bench.problems
    record = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, "problems": bench.problems,
              "runs": [{k: v for k, v in r.items() if k not in ("report", "result")}
                       for r in bench.runs]}
    (bench.out / f"seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
