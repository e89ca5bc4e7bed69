"""Benchmark of the irrfib command line, run as fresh processes.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it runs the program from src/.
One closed-loop client starts one `python -m irrfib.cli ... --json` process
at a time, for --seconds, on a request stream that perfbench/workloads.py
makes from --seed, and checks every reply. With --trace 0 it prints the
end-to-end metrics. With --trace 1 it runs the workload's first block of
requests again and again, each request once plain and once under
perfbench/tracer.py, and prints per-layer metrics (unscaled seconds) and
the tracing overhead. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. The exit code is 1 when a reply is wrong.
"""

import argparse
import hashlib
import json
import marshal
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CONTRACT_CODES = (0, 2, 64, 65)
CPU_LIMIT_S = 60      # the kernel stops a runaway command
SETUP_SPAWNS = 15
OK, FAILED = "ok", "failed"

# The host's speed drifts by tens of percent over minutes, in wall and CPU
# time alike, so raw seconds from two runs are not comparable. A fixed
# pure-Python calibration process, which never imports irrfib, runs between
# commands, at least every CAL_EVERY_S. Like the workloads, it starts an
# interpreter, does Fraction arithmetic (as phi_L does) and runs a modular
# loop over a product of ranges (as the kernel oracle does). Each command's
# seconds are scaled by CAL_REF_S over the mean of the CAL_WINDOW
# calibrations on either side of it. Reported times are therefore seconds
# on a host where one calibration run takes CAL_REF_S, the usual speed of a
# 2-core x86-64 Linux VM.
CALIBRATION = """from fractions import Fraction as F
from itertools import product
t = F(0)
seen = set()
for i in range(1, 15000):
    t += F(i % 7, i % 11 + 1)
    seen.add((i % 13, t.numerator % 17))
n = 0
for a, b, c, d in product(range(22), repeat=4):
    if (3 * a + 5 * b) % 22 == 0 and (a + c) % 11 == 0:
        n += 1
"""
CAL_EVERY_S = 0.5
CAL_WINDOW = 2
CAL_REF_S = 0.17


@dataclass
class Run:
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes


def child_env():
    """The environment of every command: the checkout's source, and a
    bytecode cache inside the checkout, as an installed package has."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Spawner:
    """Runs processes one at a time through perfbench/spawner.py, which
    times each from fork to exit and reads its CPU time and peak RSS with
    wait4. Use it as a context manager; leaving it stops the server."""

    def __init__(self):
        self.tmp = Path(tempfile.mkdtemp(dir=WORK))
        self.out, self.err = str(self.tmp / "stdout"), str(self.tmp / "stderr")
        self.server = subprocess.Popen(
            [sys.executable, "-S", "-I", str(HERE / "spawner.py"),
             str(CPU_LIMIT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.server.stdin.close()
        self.server.wait()
        self.server.stdout.close()
        shutil.rmtree(self.tmp)

    def __call__(self, argv):
        marshal.dump((list(argv), self.out, self.err), self.server.stdin)
        self.server.stdin.flush()
        try:
            code, wall, cpu, rss = marshal.load(self.server.stdout)
        except EOFError:
            raise SystemExit("perfbench: the fork server stopped") from None
        return Run(code, wall, cpu, rss, Path(self.out).read_bytes(),
                   Path(self.err).read_bytes())


def run_cli(req, spawn):
    return spawn([sys.executable, "-m", "irrfib.cli", *req.cli_argv])


def run_traced(req, request_id, spawn):
    """Run one request under the tracer; returns the run and its spans."""
    fd, spans_path = tempfile.mkstemp(dir=WORK, suffix=".json")
    os.close(fd)
    try:
        run = spawn([sys.executable, str(HERE / "tracer.py"), spans_path,
                     str(request_id), "--", *req.cli_argv])
        with open(spans_path) as handle:
            text = handle.read()
        return run, (json.loads(text) if text else [])
    finally:
        os.unlink(spans_path)


def judge(req, run):
    """OK, FAILED when a known crash still crashes, or why the reply is
    wrong. Any other crash is a wrong reply."""
    if (run.code not in CONTRACT_CODES
            or b"Traceback (most recent call last)" in run.stderr):
        if req.known_crash:
            return FAILED
        last = run.stderr.decode(errors="replace").strip().splitlines()
        return "crashed, exit %d: %s" % (run.code, last[-1] if last else "")
    if run.code != req.expect:
        return "exit %d, expected %d" % (run.code, req.expect)
    if req.expect != 0:
        return "a rejected request wrote to stdout" if run.stdout else OK
    return workloads.check_reply(req, run.stdout.decode()) or OK


class Tally:
    """Outcomes of every command run, and the replies seen per argv. Every
    request of a stream must succeed: a command that does not is failed,
    and its reason makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = []
        self.bodies = {}

    def add(self, req, run):
        self.attempted += 1
        verdict = judge(req, run)
        if verdict != OK:
            self.failed += 1
            self.wrong.append("%s: %s" % (" ".join(req.argv), verdict))
        elif req.expect == 0:
            digest = hashlib.sha256(run.stdout).hexdigest()
            if self.bodies.setdefault(req.argv, digest) != digest:
                self.wrong.append("%s: reply differs between runs"
                                  % " ".join(req.argv))


def body_digest(block, runs):
    """sha256 over exit codes and stdout of the first block, in order."""
    h = hashlib.sha256()
    for req, run in zip(block, runs):
        h.update("\0".join(req.cli_argv).encode() + b"\n")
        h.update(b"%d\n" % run.code)
        h.update(run.stdout)
    return h.hexdigest()


def calibrate(spawn):
    run = spawn([sys.executable, "-c", CALIBRATION])
    if run.code != 0:
        raise SystemExit("perfbench: the calibration run failed:\n"
                         + run.stderr.decode(errors="replace"))
    return run


def calibrated(items, execute, spawn, deadline=None):
    """Run items one at a time, until the deadline if one is given, with
    calibration runs between them; returns (item, run, wall seconds, CPU
    seconds) tuples, the seconds scaled to the reference speed."""
    cals, done = [calibrate(spawn)], []
    since = time.perf_counter()
    for item in items:
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            break
        if now - since >= CAL_EVERY_S:
            cals.append(calibrate(spawn))
            since = time.perf_counter()
        done.append((item, execute(item), len(cals)))
    cals.append(calibrate(spawn))
    out = []
    for item, run, after in done:
        near = cals[max(0, after - CAL_WINDOW):after + CAL_WINDOW]
        wall = CAL_REF_S / statistics.mean(c.wall_s for c in near)
        cpu = CAL_REF_S / statistics.mean(c.cpu_s for c in near)
        out.append((item, run, run.wall_s * wall, run.cpu_s * cpu))
    return out


def measure_setup(spawn):
    """Median start-up of an interpreter that only imports irrfib.cli."""
    argv = [sys.executable, "-c", "import irrfib.cli"]
    spawn(argv)   # fills the bytecode cache
    runs = calibrated(range(SETUP_SPAWNS), lambda _: spawn(argv), spawn)
    for _, run, _, _ in runs:
        if run.code != 0:
            raise SystemExit("perfbench: cannot import irrfib.cli:\n"
                             + run.stderr.decode(errors="replace"))
    return statistics.median(wall for _, _, wall, _ in runs)


def tail(values):
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the median when fewer than 21 samples leave none above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def probe_known_crashes(spawn, tally):
    """Run each known crash once, untimed and outside the counts, and say
    whether it still crashes. Any reply other than a crash or the expected
    exit is wrong."""
    for req in workloads.known_crashes():
        verdict = judge(req, run_cli(req, spawn))
        if verdict == FAILED:
            status = "still crashes"
        elif verdict == OK:
            status = "fixed, exit %d" % req.expect
        else:
            status = verdict
            tally.wrong.append("%s: %s" % (" ".join(req.argv), verdict))
        print("known crash %s: %s" % (" ".join(req.argv), status))


def end_to_end(args, spawn, tally):
    if args.workload == "queries":
        probe_known_crashes(spawn, tally)
    setup = measure_setup(spawn)
    stream = chain.from_iterable(workloads.blocks(args.workload, args.seed))
    first_block = next(workloads.blocks(args.workload, args.seed))
    start = time.perf_counter()
    done = calibrated(stream, lambda req: run_cli(req, spawn), spawn,
                      deadline=start + args.seconds)
    elapsed = time.perf_counter() - start
    for req, run, _, _ in done:
        tally.add(req, run)
    runs = [run for _, run, _, _ in done]
    walls = [wall for _, _, wall, _ in done]
    tail_s, pct = tail(walls)
    print("%s seed %d: %d commands in %.1f s; tail is p%.1f of %d samples; "
          "unscaled p50 %.4f s" % (args.workload, args.seed, len(runs),
                                   elapsed, pct, len(runs),
                                   statistics.median(r.wall_s for r in runs)))
    if len(runs) >= len(first_block):
        print("stdout sha256 of the first block (%d requests): %s"
              % (len(first_block), body_digest(first_block, runs)))
    return {
        "setup_s": (setup, "s"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "throughput_cps": (len(walls) / sum(walls), "1/s"),
        "cpu_per_cmd_s": (statistics.median(c for _, _, _, c in done), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in runs) / 1024, "MB"),
    }


COUNTED = ("calls", "size", "enumerated", "hits", "cells")


def layer_metrics(summaries, overheads):
    """Per-layer metrics: work counts of one block, median seconds."""
    first = summaries[0]
    out = {}
    for name in tracer.LAYER_NAMES:
        out[name + ".calls"] = (first[name]["calls"], "count")
        for key in ("busy_s", "self_s"):
            out["%s.%s" % (name, key)] = (
                statistics.median(s[name][key] for s in summaries), "s")
    points = first["torus.translation_points"]
    oracle = first["intersection.kernel_oracle"]
    out["torus.fibre_hit_ratio"] = (
        points["size"] / points["enumerated"] if points["enumerated"] else 0.0,
        "ratio")
    out["lattice.torsion_points"] = (
        first["lattice.torsion_subgroup"]["size"], "count")
    out["intersection.kernel_oracle.cells"] = (oracle["cells"], "count")
    out["intersection.kernel_oracle.hit_ratio"] = (
        oracle["hits"] / oracle["cells"] if oracle["cells"] else 0.0, "ratio")
    out["report.bytes_out"] = (first["report.render"]["size"], "bytes")
    out["trace.overhead_s"] = (statistics.median(overheads), "s")
    return out


def _counts(summary):
    return {(name, key): entry[key] for name, entry in summary.items()
            for key in COUNTED if key in entry}


def per_layer(args, spawn, tally):
    block = next(workloads.blocks(args.workload, args.seed))
    summaries, overheads = [], []
    deadline = time.perf_counter() + args.seconds
    while not summaries or time.perf_counter() < deadline:
        traced = []
        for i, req in enumerate(block):
            # plain and traced back to back, in alternating order
            if (i + len(summaries)) % 2:
                run, spans = run_traced(req, i, spawn)
                plain = run_cli(req, spawn)
            else:
                plain = run_cli(req, spawn)
                run, spans = run_traced(req, i, spawn)
            tally.add(req, plain)
            tally.add(req, run)
            traced.append(spans)
            overheads.append(run.wall_s - plain.wall_s)
        summaries.append(tracer.summarize(
            [span for spans in traced for span in spans]))
    if any(_counts(s) != _counts(summaries[0]) for s in summaries[1:]):
        tally.wrong.append("work counters differ between repetitions")
    print("%s seed %d: %d traced repetitions of a %d-request block"
          % (args.workload, args.seed, len(summaries), len(block)))
    shown = set()
    for req, spans in zip(block, traced):
        if req.kind in shown:
            continue
        shown.add(req.kind)
        s = tracer.summarize(spans)
        tp = s["torus.translation_points"]
        print("  %s: oracle %d calls, phi_L %d calls, fibre points %d/%d, "
              "kernel oracle %d cells" % (
                  " ".join(req.argv), s["torus.classify_oracle"]["calls"],
                  s["polarization.phi_L"]["calls"], tp["size"],
                  tp["enumerated"], s["intersection.kernel_oracle"]["cells"]))
    return layer_metrics(summaries, overheads)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "irrfib" / "cli.py").is_file():
        raise SystemExit("perfbench: no src/irrfib/cli.py under %s; run from "
                         "the root of an irrfib checkout" % ROOT)
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    with Spawner() as spawn:
        if args.trace:
            metrics = per_layer(args, spawn, tally)
        else:
            metrics = end_to_end(args, spawn, tally)
    for reason in tally.wrong[:20]:
        print("WRONG %s" % reason, file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
