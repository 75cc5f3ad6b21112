#!/usr/bin/env python3
"""Benchmark of the qpic command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check
    python3 bench/run.py --write-reference

A run repeats its workload's qpic commands as real processes, one at a
time, through ``entry.py`` (the ``qpic`` entry point plus a set-up
timestamp), until another repetition would overrun ``--seconds``; at
least one repetition always runs. ``QPIC_THREADS`` is unset for the
children, and the run refuses to start when any thread cap in the
environment exceeds ``nproc``.

With ``--trace 0`` it reports, as medians over the repetitions:

- ``wall_s``: spawn of a repetition's first process to exit of its last;
- ``setup_s``: spawn until ``qpic.cli`` is imported, per process, times the
  workload's process count. The median runs over every process of the run
  plus import-only probes, so each run has at least five samples;
- ``peak_rss_mb``: the largest ``ru_maxrss`` among a repetition's
  processes, read per child from ``os.wait4``.

With ``--trace 1`` it repeats the workload untraced the same way, then once
with every qpic library function wrapped (tracer.py), and reports per-layer
figures of that traced repetition; ``process.cpu_s`` is the untraced
median and ``trace.overhead_s`` the traced wall time minus the untraced
median. A name the program no longer has is reported with value null and
listed as absent in the results file.

Every repetition writes into a fresh directory under ``bench/tmp`` that is
removed afterwards, and fails when a process exits non-zero or its
outputs differ from the stored reference (workloads.py). The last stdout
line is the JSON result; ``bench/results`` keeps a record of each run with
its environment, per-process figures and the summary outputs of its seed.

``--self-check`` runs every workload at a 32x32 grid, traced, and checks
the harness itself: reference checks pass, corrupted outputs fail,
per-process accounting, and that a root span equals the sum of the self
times below it. ``--write-reference`` regenerates ``bench/reference``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ENTRY = BENCH / "entry.py"
TMP_DIR = BENCH / "tmp"
RESULTS_DIR = BENCH / "results"

PROCESS_TIMEOUT_S = 170.0
MIN_SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "circuit.self_s": "s", "circuit.compositions": "count",
    "elements.evaluations": "count", "elements.self_s": "s",
    "elements.matrix_bytes": "bytes",
    "dispersion.index_calls": "count", "dispersion.index_points": "count",
    "dispersion.self_s": "s", "dispersion.roots_s": "s",
    "source.self_s": "s", "source.jsa_builds": "count",
    "source.build_jsa_s": "s", "source.marginals_s": "s",
    "cmt.self_s": "s",
    "detection.scans": "count", "detection.probes": "count",
    "detection.self_s": "s",
    "process.cpu_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory or environment."""


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    threads = {k: v for k, v in sorted(os.environ.items())
               if k == "QPIC_THREADS" or k.endswith("_NUM_THREADS")}
    for name, raw in threads.items():
        if not raw.strip():
            continue
        if not raw.strip().isdigit():
            raise BenchError(f"{name}={raw!r} is not a thread count")
        if int(raw) > nproc:
            raise BenchError(f"{name}={raw} exceeds nproc={nproc}")
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": _git_commit(),
        "thread_variables": threads,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


_CHILD_ENV = {k: v for k, v in os.environ.items() if k != "QPIC_THREADS"}


# ---------------------------------------------------------------------------
# processes and repetitions

def run_process(cmd, log_path: Path) -> dict:
    """Run ``cmd`` to completion; its own rusage comes from ``os.wait4``."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_CHILD_ENV, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "start": start, "end": end,
            "wall_s": end - start, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def _qpic_process(rep_dir: Path, i: int, argv, trace: bool) -> dict:
    ready = rep_dir / f"ready-{i}"
    trace_file = rep_dir / f"trace-{i}.json"
    cmd = [sys.executable, str(ENTRY), str(ready),
           str(trace_file) if trace else "-", *argv]
    record = run_process(cmd, rep_dir / f"log-{i}")
    record["argv"] = argv
    record["setup_s"] = float(ready.read_text()) - record["start"] \
        if ready.exists() else None
    if trace and trace_file.exists():
        record["trace"] = tracer.process_metrics(
            json.loads(trace_file.read_text()))
    if record["exit"] != 0:
        log = (rep_dir / f"log-{i}").read_text(errors="replace")
        record["log_tail"] = log[-2000:]
    return record


def setup_probe() -> float:
    """Set-up time of one import-only entry process."""
    rep_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=TMP_DIR))
    try:
        record = _qpic_process(rep_dir, 0, [], trace=False)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if record["exit"] != 0 or record["setup_s"] is None:
        raise BenchError("importing qpic.cli failed:\n"
                         + record.get("log_tail", ""))
    return record["setup_s"]


def run_rep(argvs, reference, trace=False, before_check=None) -> dict:
    """One repetition of a workload: its processes in order, then the
    output check. ``before_check(outdir)`` may alter the outputs first."""
    rep_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=TMP_DIR))
    try:
        out = rep_dir / "out"
        out.mkdir()
        procs = [_qpic_process(rep_dir, i, [*argv, "-o", str(out)], trace)
                 for i, argv in enumerate(argvs)]
        problems = [f"{p['argv'][0]} exited {p['exit']}: "
                    f"{p.get('log_tail', '')}" for p in procs if p["exit"]]
        if before_check is not None:
            before_check(out)
        if not problems:
            problems = workloads.check(out, argvs, reference)
        summaries = {}
        for argv in argvs:
            path = workloads.manifest_path(out, argv)
            if path.exists():
                summaries[workloads.key(argv)] = \
                    json.loads(path.read_text())["summary"]
        written = sum(f.stat().st_size for f in out.rglob("*")
                      if f.is_file())
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    for p in procs:
        p["argv"] = p["argv"][:-2]  # drop the temporary "-o DIR"
    return {"wall_s": procs[-1]["end"] - procs[0]["start"],
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "bytes_written": written, "problems": problems,
            "summaries": summaries, "procs": procs}


def repeat(argvs, reference, seconds: float) -> list:
    """Repetitions until another one of typical length would overrun."""
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(argvs, reference))
        typical = statistics.median(r["wall_s"] for r in reps)
        if time.monotonic() - start + typical > seconds:
            return reps


def _median(reps, field):
    good = [r for r in reps if not r["problems"]] or reps
    return statistics.median(r[field] for r in good)


# ---------------------------------------------------------------------------
# runs

def timed_run(workload, seed, seconds):
    argvs = workloads.commands(workload, seed)
    reference = workloads.load_reference(workload)
    setup_probe()  # warm-up: byte-compiles and pages in a fresh checkout
    reps = repeat(argvs, reference, seconds)
    samples = [p["setup_s"] for r in reps for p in r["procs"]
               if p["setup_s"] is not None]
    while len(samples) < MIN_SETUP_SAMPLES:
        samples.append(setup_probe())
    values = {"wall_s": _median(reps, "wall_s"),
              "setup_s": len(argvs) * statistics.median(samples),
              "peak_rss_mb": _median(reps, "peak_rss_mb")}
    metrics = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in values.items()}
    return metrics, reps, {"setup_samples_s": samples}


def traced_run(workload, seed, seconds):
    argvs = workloads.commands(workload, seed)
    reference = workloads.load_reference(workload)
    setup_probe()
    reps = repeat(argvs, reference, seconds)
    traced = run_rep(argvs, reference, trace=True)
    values = layer_totals(traced)
    values["cli.bytes_written"] = traced["bytes_written"]
    values["process.cpu_s"] = _median(reps, "cpu_s")
    values["trace.overhead_s"] = traced["wall_s"] - _median(reps, "wall_s")
    metrics = {k: {"value": values.get(k), "unit": unit}
               for k, unit in PER_LAYER.items()}
    absent = sorted(k for k in PER_LAYER if values.get(k) is None)
    return metrics, reps + [traced], {"absent": absent}


def layer_totals(rep) -> dict:
    """Per-layer figures summed over a traced repetition's processes."""
    totals = {}
    for p in rep["procs"]:
        for name, value in p.get("trace", {}).get("metrics", {}).items():
            before = totals.get(name, 0)
            totals[name] = None if value is None or before is None \
                else before + value
    return totals


def result_line(metrics, reps) -> dict:
    failed = sum(1 for r in reps if r["problems"])
    return {"correct": failed == 0, "attempted": len(reps),
            "failed": failed, "metrics": metrics}


def save_record(args, env, result, reps, extra):
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS_DIR / (f"{args.workload}-seed{args.seed}-trace"
                          f"{args.trace}-{stamp}-{os.getpid()}.json")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result,
              "error_rate": result["failed"] / result["attempted"],
              "summaries": reps[0]["summaries"],
              "repetitions": [{k: v for k, v in r.items()
                               if k != "summaries"} for r in reps],
              **extra}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# self-check and reference generation

def _perturb(delta, update_manifest):
    """Output hook: shift one hom probability by ``delta``; optionally
    re-hash it into the manifest, as a program writing that value would."""

    def hook(out: Path):
        csv_path = out / "hom_scan.csv"
        lines = csv_path.read_bytes().split(b"\r\n")
        x, p = lines[3].split(b",")
        lines[3] = x + b"," + f"{float(p) + delta:.11e}".encode()
        csv_path.write_bytes(b"\r\n".join(lines))
        if update_manifest:
            path = workloads.manifest_path(out, ["hom"])
            manifest = json.loads(path.read_text())
            manifest["outputs"][0]["sha256"] = workloads.sha256(csv_path)
            path.write_text(json.dumps(manifest))

    return hook


def self_check() -> dict:
    report = {"workloads": {}}
    ok = True
    for workload in workloads.WORKLOADS:
        argvs = workloads.commands(workload, 0, small=True)
        reference = workloads.load_reference(workload, small=True)
        rep = run_rep(argvs, reference, trace=True)
        spans = [p.get("trace", {}) for p in rep["procs"]]
        arithmetic = all(s and abs(s["root_s"] - s["self_sum_s"]) <= 1e-9
                         and s["root_s"] > 0 for s in spans)
        report["workloads"][workload] = {
            "problems": rep["problems"], "layers": layer_totals(rep),
            "root_equals_self_sum": arithmetic,
            "processes": [{k: p[k] for k in ("argv", "exit", "wall_s",
                                             "setup_s", "rss_mb", "cpu_s")}
                          for p in rep["procs"]]}
        ok &= not rep["problems"] and arithmetic

    hom = workloads.commands("hom", 0, small=True)
    reference = workloads.load_reference("hom", small=True)
    report["corruption"] = {
        name: bool(run_rep(hom, reference, before_check=hook)["problems"])
        for name, hook in (
            ("file_changed", _perturb(1e-9, False)),
            ("wrong_value", _perturb(1e-9, True)),
            ("last_digit", _perturb(1e-12, True)))}
    ok &= report["corruption"] == {"file_changed": True,
                                   "wrong_value": True, "last_digit": False}

    rep_dir = Path(tempfile.mkdtemp(prefix="acct-", dir=TMP_DIR))
    try:
        hog = run_process([sys.executable, "-c",
                           "b = b'x' * (160 << 20)"], rep_dir / "hog")
        small = run_process([sys.executable, "-c", "pass"],
                            rep_dir / "small")
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["accounting"] = {"hog_rss_mb": hog["rss_mb"],
                            "small_rss_mb": small["rss_mb"],
                            "rusage_children_mb": children / 1024.0}
    ok &= hog["rss_mb"] >= 160 and small["rss_mb"] < hog["rss_mb"] / 4
    report["ok"] = bool(ok)
    return report


def write_reference(env):
    for small in (True, False):
        for workload in workloads.WORKLOADS:
            cases = {}
            for argv in workloads.reference_commands(workload, small):
                rep_dir = Path(tempfile.mkdtemp(prefix="ref-", dir=TMP_DIR))
                try:
                    out = rep_dir / "out"
                    out.mkdir()
                    record = _qpic_process(rep_dir, 0,
                                             [*argv, "-o", str(out)], False)
                    if record["exit"] != 0:
                        raise BenchError(f"{argv}: {record['log_tail']}")
                    cases[workloads.key(argv)] = \
                        workloads.case_record(out, argv)
                finally:
                    shutil.rmtree(rep_dir, ignore_errors=True)
                print(f"reference: {workloads.key(argv)}", file=sys.stderr)
            path = workloads.reference_path(workload, small)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"environment": env, "cases": cases},
                                       indent=0) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not (args.self_check
                                      or args.write_reference):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if not (ROOT / "src" / "qpic" / "cli.py").is_file():
            raise BenchError(f"no qpic source under {ROOT / 'src'}")
        env = environment()
        TMP_DIR.mkdir(exist_ok=True)
        if args.self_check:
            report = self_check()
            print(json.dumps(report, indent=1))
            return 0 if report["ok"] else 1
        if args.write_reference:
            write_reference(env)
            return 0
        run = traced_run if args.trace else timed_run
        metrics, reps, extra = run(args.workload, args.seed, args.seconds)
        result = result_line(metrics, reps)
        save_record(args, env, result, reps, extra)
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
