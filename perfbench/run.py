"""Benchmark of whole `workbench` runs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in workloads.py, or `all`.  Each command
of a workload is a fresh `python -m fukaya_workbench.cli` child, started
one at a time from this process, with src/ of this checkout on
PYTHONPATH.  A pass runs the workload's commands once, in order.

--trace 0 measures with the package unmodified and prints the end-to-end
metrics: wall_s and cpu_s (per pass, the sum over its commands of each
command's median), peak_rss_mb (median over the passes) and setup_s
(median over repeated calls of the workload's verb on its smallest
valid input).  The times are at the reference speed.  Each timed child
is stopped every SLICE_S seconds, and a fixed piece of pure-Python work
is timed between the slices; each slice counts for what it would take
if that work took REFERENCE_S.  On a shared host the speed of a core
drifts by up to a half within a second or two, and each core drifts on
its own; the scaling takes that drift out, and the measured times are
printed beside the scaled ones.

--trace 1 alternates untraced passes with traced ones, whose children
run tracer.py, and prints the per-layer metrics of layers.py.

Every command's exit code and stdout are checked; a mismatch, timeout or
memory-guard hit is a failed command.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Full
records (stamp, every pass, every failure, the spans) are written under
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
import spawn
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_PASSES = 3
# A timed child is stopped every SLICE_S seconds to time _reference(),
# which takes REFERENCE_S on an idle core of a 2.1 GHz Xeon VM with
# CPython 3.11.
SLICE_S = 0.25
REFERENCE_S = 0.007
MIN_TRACED = 2
SETUP_PROBES_FIRST = 2
# A run must end within 180 s; past this, children get no more time and
# no new round starts.
RUN_LIMIT_S = 165


class BenchError(Exception):
    """The benchmark cannot run here, or its own invariants broke."""

    code = 2


class CountMismatch(BenchError):
    code = 3


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _reference() -> float:
    """Time a fixed piece of pure-Python work that, like the workbench,
    allocates: 10,000 tuples holding a string and a pair, a dict of
    them, and a sort."""
    t0 = time.perf_counter()
    rows = [(i * 7919 % 100003, "n%d" % i, (i, i + 1)) for i in range(10000)]
    by_name = {row[1]: row for row in rows}
    rows.sort()
    sum(len(row[1]) for row in by_name.values())
    return time.perf_counter() - t0


class Bench:
    def __init__(self, workload, seconds: float, workdir: Path):
        self.workload = workload
        self.seconds = seconds
        self.workdir = workdir
        self.src = ROOT / "src"
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON") and k != "WORKBENCH_SEED"}
        self.env["PYTHONPATH"] = str(self.src)
        self.attempted = 0
        self.failures = []
        self.commands = []
        self.md5 = {}
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def preflight(self):
        """The package must exist here and be the one that is imported."""
        if not (self.src / "fukaya_workbench" / "cli.py").is_file():
            raise BenchError("no workbench source at %s" % (self.src / "fukaya_workbench"))
        res = spawn.run([sys.executable, "-c", "import fukaya_workbench.cli as m; print(m.__file__)"],
                        cwd=str(ROOT), env=self.env)
        where = res.stdout_head.decode().strip()
        if res.code != 0 or not where.startswith(str(self.src) + os.sep):
            raise BenchError("fukaya_workbench.cli imports from %r, not from %s" % (where, self.src))

    def run(self, cmd, traced_to=None):
        argv = list(cmd.argv) + ["--format", "machine"]
        if traced_to is None:
            argv = [sys.executable, "-m", "fukaya_workbench.cli"] + argv
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(traced_to), str(self.src), "--"] + argv
        left = int(self.deadline - time.perf_counter())
        return spawn.run(argv, cwd=str(self.workdir), env=self.env,
                         timeout=max(1, min(spawn.TIMEOUT_S, left)))

    def run_scaled(self, cmd):
        """Run cmd untraced and in slices; return the result and the
        factor that takes its times to the reference speed: each slice
        is scaled by the reference work timed just before and after it."""
        argv = [sys.executable, "-m", "fukaya_workbench.cli"] + list(cmd.argv) + ["--format", "machine"]
        left = int(self.deadline - time.perf_counter())
        res, slices = spawn.run_sliced(argv, cwd=str(self.workdir), env=self.env, reference=_reference,
                                       slice_s=SLICE_S, timeout=max(1, min(spawn.TIMEOUT_S, left)))
        scaled = sum(t * REFERENCE_S / ((before + after) / 2) for t, before, after in slices)
        return res, scaled / res.wall_s

    def check(self, cmd, res):
        self.attempted += 1
        problems = cmd.problems(res)
        # Every pass must print the same bytes, at any seed.
        key = " ".join(cmd.argv)
        first = self.md5.setdefault(key, res.stdout_md5)
        if first != res.stdout_md5:
            problems.append("stdout differs from the first pass")
        if problems:
            self.failures.append({"argv": cmd.argv, "code": res.code, "problems": problems,
                                  "stderr": res.stderr[-2000:].decode(errors="replace")})

    def probe(self):
        res, scale = self.run_scaled(self.workload.probe)
        self.check(self.workload.probe, res)
        return {"wall_s": res.wall_s, "scale": scale}

    def one_pass(self, traced=False, scaled=False):
        """Run every command once; the wall time of a pass is the sum of
        its children's, each from spawn to exit.  Scaled commands also
        get the factor to the reference speed."""
        spans = [self.workdir / ("spans-%d.json" % i) for i in range(len(self.commands))]
        results = []
        scales = []
        for cmd, path in zip(self.commands, spans):
            if scaled:
                res, scale = self.run_scaled(cmd)
                results.append(res)
                scales.append(scale)
            else:
                results.append(self.run(cmd, path if traced else None))
        for cmd, res in zip(self.commands, results):
            self.check(cmd, res)
        record = {
            "wall_s": sum(r.wall_s for r in results),
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.maxrss_mb for r in results),
            "stdout_bytes": sum(r.stdout_bytes for r in results),
            "commands": [{"argv": r.argv[r.argv.index("--") + 1:] if traced else r.argv[3:],
                          "code": r.code, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                          "maxrss_mb": r.maxrss_mb, "stdout_md5": r.stdout_md5} for r in results],
        }
        for c, scale in zip(record["commands"], scales):
            c["scale"] = scale
        if traced:
            traces = []
            for path in spans:
                if not path.is_file():
                    raise BenchError("a traced child wrote no spans to %s" % path)
                traces.append(json.loads(path.read_text()))
                path.unlink()
            record["traces"] = traces
        return record

    def loop(self, one_round, minimum):
        """Rounds until the next one would end after --seconds, or after
        the run's time limit."""
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(one_round())
            now = time.perf_counter()
            per_round = (now - start) / len(rounds)
            if now + per_round > self.deadline:
                return rounds
            if len(rounds) >= minimum and now - start + per_round > self.seconds:
                return rounds

    def timed(self):
        # The cores of a shared host slow down independently, so the
        # reference work runs on the core of the child: this process and
        # its children keep to one core.  The CLI is single-threaded.
        cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cores)})
        try:
            probes = [self.probe() for _ in range(SETUP_PROBES_FIRST)]

            def one_round():
                rec = self.one_pass(scaled=True)
                probes.append(self.probe())
                return rec

            passes = self.loop(one_round, MIN_PASSES)
        finally:
            os.sched_setaffinity(0, cores)
        metrics = {
            "wall_s": at_reference(passes, "wall_s"),
            "cpu_s": at_reference(passes, "cpu_s"),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(p["wall_s"] * p["scale"] for p in probes),
        }
        notes = {
            "passes": len(passes),
            "setup_probes": len(probes),
            "wall_s_tail": _tail([sum(c["wall_s"] * c["scale"] for c in p["commands"]) for p in passes]),
            "measured_wall_s": statistics.median(p["wall_s"] for p in passes),
            "measured_cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "measured_setup_s": statistics.median(p["wall_s"] for p in probes),
            "reference_scale": _spread([c["scale"] for p in passes for c in p["commands"]]),
            "fail_ratio": "%d/%d" % (len(self.failures), self.attempted),
        }
        return metrics, END_TO_END, notes, {"passes": passes, "setup_s": probes}

    def traced(self):
        def one_round():
            return self.one_pass(), self.one_pass(traced=True)

        rounds = self.loop(one_round, MIN_TRACED)
        plain = [u["wall_s"] for u, _ in rounds]
        per_pass = [layers.pass_metrics(t["traces"], t["stdout_bytes"], t["wall_s"]) for _, t in rounds]
        for name in layers.EXACT:
            seen = {m[name] for m in per_pass}
            if len(seen) > 1:
                raise CountMismatch("%s differs between traced passes: %s" % (name, sorted(seen)))
        metrics = {name: per_pass[0][name] if name in layers.EXACT else statistics.median(m[name] for m in per_pass)
                   for name in layers.METRICS if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(plain)
        notes = {
            "traced_passes": len(rounds),
            "untraced_wall_s": plain,
            "fail_ratio": "%d/%d" % (len(self.failures), self.attempted),
            "ratios": {r: "%d / %d" % (metrics[n], metrics[d]) for r, (n, d) in layers.RATIOS.items()},
        }
        spans = [{"pass": i, "command": " ".join(tr["argv"]), "agg": tr["agg"], "spans": tr["spans"]}
                 for i, (_, t) in enumerate(rounds) for tr in t["traces"]]
        for _, t in rounds:
            del t["traces"]
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        return metrics, units, notes, {"rounds": rounds, "spans": spans}


def at_reference(passes, key) -> float:
    """Sum over the commands of a pass of each command's median time
    at the reference speed."""
    by_command = zip(*(p["commands"] for p in passes))
    return sum(statistics.median(c[key] * c["scale"] for c in runs) for runs in by_command)


def _spread(values):
    """Minimum, quartiles and maximum."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return "min %.3f q1 %.3f median %.3f q3 %.3f max %.3f" % (min(values), q[0], q[1], q[2], max(values))


def _tail(values):
    """Highest percentile with at least ten samples above it."""
    k = len(values) - 10
    if k < 1:
        return "none: %d samples, a tail percentile needs 11" % len(values)
    return {"percentile": 100.0 * k / len(values), "value": sorted(values)[k - 1], "samples": len(values)}


def _check_counts(key: str, metrics: dict):
    """Exact counts must also repeat across runs on the same source and
    the same inputs; the first run of a key records them."""
    path = WORK / "counts.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    mine = {n: metrics[n] for n in layers.EXACT}
    if key in known and known[key] != mine:
        diff = sorted(n for n in mine if known[key].get(n) != mine[n])
        raise CountMismatch("counts differ from an earlier run of %s: %s" % (key, ", ".join(diff)))
    known[key] = mine
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[name]
    workdir = WORK / "inputs" / ("%s-seed%d-%d" % (name, seed, os.getpid()))
    bench = Bench(workload, seconds, workdir)
    bench.preflight()
    workdir.mkdir(parents=True, exist_ok=True)
    stamp = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_digest": _digest(bench.src / "fukaya_workbench"),
        "load1_start": os.getloadavg()[0],
    }
    try:
        bench.commands = workload.commands(seed, str(workdir))
        argvs = json.dumps([c.argv for c in bench.commands]).encode()
        stamp["inputs_digest"] = hashlib.sha256(argvs + _digest(workdir).encode()).hexdigest()[:16]
        metrics, units, notes, detail = bench.traced() if trace else bench.timed()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp["load1_end"] = os.getloadavg()[0]
    if trace:
        _check_counts("%s:%s:%s" % (name, stamp["inputs_digest"], stamp["src_digest"]), metrics)
    record = {"stamp": stamp, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "notes": notes, "failures": bench.failures, "detail": detail}
    out = WORK / "results" / ("%s-seed%d-trace%d.json" % (name, seed, int(trace)))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))
    _print_report(record, bench)
    return bench.attempted, len(bench.failures), record["metrics"]


def _print_report(record, bench):
    s = record["stamp"]
    print("workload=%s seed=%d trace=%d nproc=%s python=%s git=%s src=%s load1=%.2f->%.2f"
          % (s["workload"], s["seed"], s["trace"], s["nproc"], s["python"], s["git_sha"][:12],
             s["src_digest"], s["load1_start"], s["load1_end"]))
    for name, m in record["metrics"].items():
        value = m["value"]
        print("  %-28s %14s %s" % (name, value if isinstance(value, int) else "%.6f" % value, m["unit"]))
    notes = record["notes"]
    print("  %-28s %s (%s)" % ("fail_ratio", notes["fail_ratio"],
                               "%.4f" % (len(bench.failures) / max(1, bench.attempted))))
    for key, value in notes.items():
        if key != "fail_ratio":
            print("  %-28s %s" % (key, value))
    for f in bench.failures:
        print("FAILED %s: %s" % (" ".join(f["argv"]), "; ".join(f["problems"])), file=sys.stderr)
        if f["stderr"]:
            print(f["stderr"], file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += a
            failed += f
            for k, v in m.items():
                metrics[k if len(names) == 1 else "%s.%s" % (name, k)] = v
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
