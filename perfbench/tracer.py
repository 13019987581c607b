"""Traced child: run one workbench command in-process with timing
wrappers on the boundaries between the package's modules, then write
the spans out as JSON.

    python3 perfbench/tracer.py SPANS.json SRC_DIR -- ARGV...

The wrappers are installed in this process only; timed runs import the
package unmodified.  Wrapped are
  - the functions (and, for strata, the classes) that cli, strata and
    ainfinity import from trees, strata, ainfinity and novikov;
  - the module globals that loops look up at call time: the *_defect
    functions, generalized_corner_flag and trees.shape_to_sexpr (which
    Stratum.report_line imports on every call);
  - the methods Stratum.report_line and Out.kv/item/seq, and the cli
    verbs cmd_*.
Generator functions are left alone: a wrapper would time only the
creation of the generator, not the work done while it is consumed.

Every call is aggregated per (name, parent name) into calls, total time
and self time (total minus the time of wrapped callees).  The first
FULL_SPANS calls of each name are also kept as single spans.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from time import perf_counter

FULL_SPANS = 50
ROOT = "<root>"


class Tracer:
    def __init__(self):
        # A frame is [time of wrapped callees, name, start, called nov_mul].
        self.stack = [[0.0, ROOT, 0.0, False]]
        self.agg = {}
        self.spans = []
        self.full = {}
        self.counts = {
            "trees.shapes": 0,
            "strata.cluster_strata": 0,
            "strata.stacked_productive": 0,
            "ainfinity.load_lines": 0,
            "ainfinity.defects_with_mul": 0,
            "novikov.max_support": 0,
        }
        self.wrapped = {}

    def record(self, name, parent, t0, t1, child_time):
        dur = t1 - t0
        parent[0] += dur
        key = (name, parent[1])
        a = self.agg.get(key)
        if a is None:
            a = self.agg[key] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child_time
        n = self.full.get(name, 0)
        if n < FULL_SPANS:
            self.full[name] = n + 1
            self.spans.append((name, t0, t1, parent[1], parent[2]))

    def wrap(self, fn, name, observe=None):
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)]
        stack = self.stack
        record = self.record

        def traced(*args, **kwargs):
            t0 = perf_counter()
            frame = [0.0, name, t0, False]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result, frame)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                record(name, stack[-1], t0, t1, frame[0])

        self.wrapped[id(fn)] = traced
        return traced

    # -- observers: counts taken where the work happens ---------------------

    def _count_len(self, key):
        def observe(args, result, frame):
            self.counts[key] += len(result)
        return observe

    def _productive(self, args, result, frame):
        if result:
            self.counts["strata.stacked_productive"] += 1

    def _load_lines(self, args, result, frame):
        text = args[0]
        self.counts["ainfinity.load_lines"] += text.count("\n") + (0 if text.endswith("\n") else 1)

    def _mul(self, args, result, frame):
        self.stack[-2][3] = True
        if len(result.exps) > self.counts["novikov.max_support"]:
            self.counts["novikov.max_support"] = len(result.exps)

    def _defect(self, args, result, frame):
        if frame[3]:
            self.counts["ainfinity.defects_with_mul"] += 1

    def observer(self, name):
        return {
            "trees.enumerate_stable_trees": self._count_len("trees.shapes"),
            "strata.cluster_strata_for_shape": self._count_len("strata.cluster_strata"),
            "strata.stacked_strata_for_shape": self._productive,
            "ainfinity.load_category": self._load_lines,
            "ainfinity.load_linf": self._load_lines,
            "ainfinity.load_ocha": self._load_lines,
            "ainfinity.load_functor": self._load_lines,
            "novikov.nov_mul": self._mul,
            "ainfinity.ainf_defect": self._defect,
            "ainfinity.linf_defect": self._defect,
            "ainfinity.ocha_defect": self._defect,
            "ainfinity.functor_defect": self._defect,
        }.get(name)

    # -- installation ---------------------------------------------------

    def _short(self, module) -> str:
        return module.__name__.rsplit(".", 1)[-1]

    def wrap_global(self, module, attr):
        fn = getattr(module, attr)
        name = "%s.%s" % (self._short(sys.modules[fn.__module__]), attr)
        setattr(module, attr, self.wrap(fn, name, self.observer(name)))

    def wrap_imports(self, importer, exporter, classes=False):
        for attr, obj in list(vars(importer).items()):
            if getattr(obj, "__module__", None) != exporter.__name__:
                continue
            if inspect.isclass(obj) and not classes:
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if inspect.isgeneratorfunction(obj):
                continue
            name = "%s.%s" % (self._short(exporter), attr)
            setattr(importer, attr, self.wrap(obj, name, self.observer(name)))

    def wrap_method(self, cls, attr, name):
        setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def install(self, cli, trees, strata, ainfinity, novikov):
        for exporter in (trees, strata, ainfinity, novikov):
            self.wrap_imports(cli, exporter)
        # strata binds no name from trees that it tests with isinstance,
        # so its class imports (LabelledTree, MetricTree) can be wrapped.
        self.wrap_imports(strata, trees, classes=True)
        self.wrap_imports(ainfinity, novikov)
        for attr in ("ainf_defect", "linf_defect", "ocha_defect", "functor_defect"):
            self.wrap_global(ainfinity, attr)
        self.wrap_global(strata, "generalized_corner_flag")
        self.wrap_global(trees, "shape_to_sexpr")
        self.wrap_method(strata.Stratum, "report_line", "strata.Stratum.report_line")
        for attr in ("kv", "item", "seq"):
            self.wrap_method(cli.Out, attr, "cli.Out.%s" % attr)
        for attr in list(vars(cli)):
            if attr.startswith("cmd_"):
                self.wrap_global(cli, attr)

    def dump(self, path, argv):
        data = {
            "argv": argv,
            "agg": [[n, p, c, t, s] for (n, p), (c, t, s) in self.agg.items()],
            "spans": [list(s) for s in self.spans],
            "counts": self.counts,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)


def main():
    out_path, src = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS.json SRC_DIR -- ARGV...")
    argv = sys.argv[4:]
    tracer = Tracer()
    t0 = perf_counter()
    from fukaya_workbench import ainfinity, cli, novikov, strata, trees
    t1 = perf_counter()
    tracer.record("cli.import", tracer.stack[0], t0, t1, 0.0)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("fukaya_workbench imported from %s, not from %s" % (cli.__file__, src))
    tracer.install(cli, trees, strata, ainfinity, novikov)
    try:
        return tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, argv)


if __name__ == "__main__":
    sys.exit(main())
