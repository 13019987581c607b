"""The four workloads: the commands of one pass, the set-up probe, and
the check each command's stdout must pass.

All commands use --format machine.  None passes --parallel: the
benchmark measures the serial CLI; on two cores a pool buys wall time
with CPU time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import inputs

ENUMERATE_LABELS = "(L0,L0,L1,L1,L0,L2,L2,L0,L1,L0)"


@dataclass
class Command:
    """One CLI invocation and what its stdout must be.

    stdout: the exact expected text; md5: the pinned digest; count and
    fvector: closed-form values of the trailing count= and f-vector=
    lines of an enumeration report, whose item lines must number count.
    """

    argv: list
    code: int = 0
    stdout: str | None = None
    md5: str | None = None
    count: int | None = None
    fvector: str | None = None

    def problems(self, res) -> list:
        """Reasons the run res does not match; empty when it does."""
        out = []
        if res.timed_out:
            return ["timed out"]
        if res.memory_hit:
            return ["hit the memory guard"]
        if res.code != self.code:
            out.append("exit code %d, expected %d" % (res.code, self.code))
        if self.stdout is not None:
            if not res.stdout_complete or res.stdout_head.decode() != self.stdout:
                out.append("stdout differs from the expected text")
        if self.md5 is not None and res.stdout_md5 != self.md5:
            out.append("stdout md5 %s, pinned %s" % (res.stdout_md5, self.md5))
        if self.count is not None:
            out.extend(_report_problems(res, self.count, self.fvector))
        return out


def _report_problems(res, count, fvector) -> list:
    tail = dict(line.split("=", 1) for line in res.stdout_tail.decode().splitlines()[-3:] if "=" in line)
    out = []
    if tail.get("count") != str(count):
        out.append("count=%s, expected %d" % (tail.get("count"), count))
    trailer = 3 if "f-vector" in tail else 1
    if res.stdout_lines != count + trailer:
        out.append("%d lines for %d items" % (res.stdout_lines, count))
    if "f-vector" in tail:
        f = [int(x) for x in tail["f-vector"].split(",")]
        if sum(f) != count:
            out.append("f-vector sums to %d, not %d" % (sum(f), count))
        if tail.get("euler") != str(sum((-1) ** i * v for i, v in enumerate(f))):
            out.append("euler=%s disagrees with the f-vector" % tail.get("euler"))
        if fvector is not None and tail["f-vector"] != fvector:
            out.append("f-vector=%s, expected %s" % (tail["f-vector"], fvector))
    return out


@dataclass
class Workload:
    name: str
    why: str
    probe: Command
    fixed: list = field(default_factory=list)
    seeded: object = None
    seed0_md5: list = field(default_factory=list)

    def commands(self, seed: int, workdir: str) -> list:
        """Write the seeded inputs into workdir and return the pass."""
        if self.seeded is None:
            return self.fixed
        files, specs = self.seeded(seed)
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)
        return [Command(argv, code, stdout, self.seed0_md5[i] if seed == 0 else None)
                for i, (argv, code, stdout) in enumerate(specs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enumerate",
            why="shape generation, LabelledTree construction and s-expression output "
                "with nothing discarded; target for trees/cli formatting, control for stacked and scans",
            probe=Command(["strata", "--d", "2"], md5="28dc321aa0a7c165a78c56f4b2a8ed23", count=1),
            fixed=[
                # f-vector: faces of the associahedron K_9.
                Command(["strata", "--d", "9"], md5="cabf6799905e2e9b69c4a5b92b44af3c", count=20793,
                        fvector="1430,5005,7007,5005,1925,385,35,1"),
                # Repeated labels add broken counts.
                Command(["strata", "--labels", ENUMERATE_LABELS], md5="791fcea76b4fda1a0370bc38366fdb30", count=48029),
                # Little Schroeder number s(10).
                Command(["trees", "--d", "10"], md5="8501c0a8bf700ca4f789f57874fdcbe1", count=103049),
            ],
        ),
        Workload(
            name="stacked",
            why="99% of 204,416 candidate shapes are built as LabelledTree and discarded; "
                "shows direct multiplihedron generation and the memory growth",
            probe=Command(["stacked", "--d", "2"], md5="e809a9586e24ba62e18f0324e47806d8", count=3, fvector="2,1"),
            # Faces of the multiplihedron J_6.
            fixed=[Command(["stacked", "--d", "6"], md5="66de401e57896f6961447dc871b4213a", count=2311, fvector="322,841,788,313,46,1")],
        ),
        Workload(
            name="relations",
            why="defect loops and Novikov products over tiny sparse tables, where few tuples "
                "reach a nonzero insertion; shows output-sensitive scans",
            probe=Command(["check-ainf", "bundled:exterior", "--max-d", "1"], stdout="ainf=pass\nmax_d=1\n",
                          md5="fe50bb40470d4cc9e8bc6834f70d9b32"),
            seeded=inputs.relations_inputs,
            seed0_md5=["e775ccbbd7c0e12bf5f8ce8a990efdff", "d8c5199a192f0174984abedad6420ddd",
                       "9612f0df9d7d704d09ac5bfb675027e5", "081eff97b5b2b3044af18c102bddd5f6",
                       "435d76e4356f23a10550061aa89dff78"],
        ),
        Workload(
            name="tables",
            why="loading and reporting a 10,000-line random table rather than scanning it; "
                "shows loader and parser cost, the counterpart of relations",
            probe=Command(["measure", "bundled:weakly"], stdout="raw.2=1/2\neps.2=1/2\nfiltered=no\n",
                          md5="0709956801e83b1a1f34b198f9902c8c"),
            seeded=inputs.tables_inputs,
            seed0_md5=["4c529c764af2b84abf8ae5b257d0de04", "062b4ed68a592d36c41a58699cec2dd5",
                       "ce24371b59bfd9a728eeba78fd291b89", "306b52c2e4ac63a76dfd48beab0170b7"],
        ),
    )
}
