import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fukaya_workbench
from fukaya_workbench import cli
from fukaya_workbench.cli import _read_source, main
from fukaya_workbench.trees import enumerate_stable_trees, shape_to_sexpr
from test_strata import labels_for, oracle_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_text(capsys):
    code, out, _ = run(capsys, "reduce", "(L0,L0,L2,L3,L2,L1,L0)")
    assert code == 0
    assert out == (
        "input: (L0,L0,L2,L3,L2,L1,L0)\n"
        "reduced: ((L0,2+1),L2,L3,L2,L1)\n"
        "d_R: 4\n"
        "m0: 2+1\n"
        "fundamental: (L0,L2,L3,L1)\n"
        "constant: no\n"
    )


def test_reduce_machine(capsys):
    code, out, _ = run(capsys, "reduce", "(L0,L0,L2,L3,L2,L1,L0)", "--format", "machine")
    assert code == 0
    assert "m0_begin=2\nm0_end=1\n" in out
    assert out.startswith("input=(L0,L0,L2,L3,L2,L1,L0)\n")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "(L0,L1,L0,L2)")
    assert code == 0
    assert out.endswith("class: cyclically_different\n")


def test_trees_counts(capsys):
    code, out, _ = run(capsys, "trees", "--d", "4")
    assert code == 0
    assert out.rstrip().endswith("count: 11")
    code, out, _ = run(capsys, "trees", "--d", "4", "--binary")
    assert code == 0
    assert out.rstrip().endswith("count: 5")
    assert out.count("(v ") + out.count("(v(") >= 5


def test_check_ainf_with_only_mu2_entries_passes_at_any_max_d(capsys):
    # A violation has length 2 + 2 - 1 = 3, so --max-d 12 costs what 3 does.
    assert run(capsys, "check-ainf", "bundled:exterior", "--max-d", "12",
               "--format", "machine") == (0, "ainf=pass\nmax_d=12\n", "")


def test_strata_report(capsys):
    code, out, _ = run(capsys, "strata", "--d", "4")
    assert code == 0
    assert "f-vector: [5,5,1]" in out
    assert "euler: 1" in out
    assert "count: 11" in out


def test_strata_labels_option(capsys):
    code, out, _ = run(capsys, "strata", "--labels", "(L,L,L,L)")
    assert code == 0
    assert "f-vector: [2,3]" in out
    assert "euler: -1" in out


def test_stacked_machine(capsys):
    code, out, _ = run(capsys, "stacked", "--d", "2", "--format", "machine")
    assert code == 0
    assert out == (
        "stratum.0=dim=0 codim=1 tree=(v* (v (leaf 1) (leaf 2))) broken=0 colored={r}\n"
        "stratum.1=dim=1 codim=0 tree=(v* (leaf 1) (leaf 2)) broken=0 colored={r}\n"
        "stratum.2=dim=0 codim=1 tree=(v (v* (leaf 1)) (v* (leaf 2))) broken=0 colored={r.0,r.1}\n"
        "f-vector=2,1\n"
        "euler=1\n"
        "count=3\n"
    )


@pytest.mark.parametrize("verb", ["trees", "strata", "stacked"])
def test_parallel_is_no_option(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--d", "3", "--parallel"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# importlib.resources (bundled: inputs) is the standard library's own
# cost; on Python 3.13 it imports inspect.
_NEWLY_LOADED_MODULES = """
import sys
from importlib import resources
before = set(sys.modules)
from fukaya_workbench.cli import main
main(sys.argv[1:])
print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""


def _fresh_run(*argv):
    """(stdout, the modules that importing cli and running argv loaded
    beyond importlib.resources) of a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(fukaya_workbench.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _NEWLY_LOADED_MODULES, *argv],
                         env=env, capture_output=True, text=True, check=True)
    return res.stdout, set(res.stderr.split())


def test_enumeration_loads_no_process_pool():
    # Every enumeration verb streams serially.
    for verb in ("trees", "strata", "stacked"):
        loaded = _fresh_run(verb, "--d", "3")[1]
        assert not [m for m in loaded if m.startswith(("concurrent", "multiprocessing"))], verb


def test_verbs_load_neither_dataclasses_nor_budget():
    # The records are named tuples, and budget is imported by its verbs.
    for argv in (("strata", "--d", "2"), ("check-ainf", "bundled:exterior", "--max-d", "1"),
                 ("measure", "bundled:weakly")):
        loaded = _fresh_run(*argv)[1]
        assert not loaded & {"dataclasses", "inspect", "fukaya_workbench.budget"}, argv


def _run_without_site(*argv):
    """(stdout, whether importlib.resources got loaded) of the CLI run
    by an interpreter that skips site, whose hooks may load it."""
    env = dict(os.environ, PYTHONPATH=str(Path(fukaya_workbench.__file__).parents[1]))
    code = ("import sys\nfrom fukaya_workbench.cli import main\nmain(sys.argv[1:])\n"
            "print('importlib.resources' in sys.modules, file=sys.stderr)")
    res = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                         env=env, capture_output=True, text=True, check=True)
    return res.stdout, res.stderr.split()[-1] == "True"


def test_only_bundled_inputs_load_importlib_resources():
    assert _run_without_site("strata", "--d", "2")[1] is False
    out, loaded = _run_without_site("check-ainf", "bundled:exterior", "--max-d", "1",
                                    "--format", "machine")
    assert out == "ainf=pass\nmax_d=1\n"
    assert loaded


def test_budget_verbs_import_budget_when_run():
    for argv, stdout in ((("budget", "thin", "--d", "5"), "thin_parts: 9\n"),
                         (("dim", "--case", "marked_disc", "--l", "3", "--k", "2"), "dim: 5\n")):
        out, loaded = _fresh_run(*argv)
        assert out == stdout
        assert "fukaya_workbench.budget" in loaded


STACKED_MACHINE_MD5 = {
    1: "d98a262c466b73408250fe765f3deaf6",
    2: "e809a9586e24ba62e18f0324e47806d8",
    3: "86f9a189583074812123ecae24eb5a3e",
    4: "869854feff0dfbbb7e68e2b395fb8cc0",
    5: "6327943831c5a21cb133a3d23ce50440",
    6: "66de401e57896f6961447dc871b4213a",
    7: "4af247a24aea141e2faaf4f52bfed275",
    8: "0638af255cff274ad56d750e22e8e221",
}


def test_stacked_machine_bytes_pinned(capsys):
    for d, digest in STACKED_MACHINE_MD5.items():
        code, out, _ = run(capsys, "stacked", "--d", str(d), "--format", "machine")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == digest, d
    assert out.endswith("f-vector=5814,21702,32413,24602,9910,1986,155,1\n"
                        "euler=1\ncount=96583\n")


# (machine, text) stdout md5s of the enumeration verbs.
ENUMERATION_MD5 = {
    ("trees", "--d", "8"): ("59c094051c61cdca5b547966da36c0fc", "f1739fef1d913f50e23c208af3490bd6"),
    ("trees", "--d", "8", "--binary"): ("306ef0e3a6f521dfa94b9fbb8601be0c",
                                        "9d78925e508bd04d65bfde71834bfc76"),
    ("strata", "--d", "8"): ("63f155ceb2bd0e9c53dad3d9841698b0", "f90734a60c396a8ea124e20b715563ba"),
    ("strata", "--labels", "(L0,L0,L1,L1,L0,L2,L2,L0)"): ("4ad216d18013ccb937e6c48ebbdc736f",
                                                         "2a2e2d6198baf912134fa30775d562d3"),
}


@pytest.mark.parametrize("argv", ENUMERATION_MD5, ids=" ".join)
def test_enumeration_bytes_pinned(capsys, argv):
    for fmt, digest in zip(("machine", "text"), ENUMERATION_MD5[argv]):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == digest, fmt


# d = 2 and d = 3 are the edges of the streamed root children with d - 1
# leaves: at d = 2 both are leaves, at d = 3 the one with two leaves
# has a single shape.  stacked reads the stable trees through its unary
# root, so its pinned bytes cover the same route.
@pytest.mark.parametrize("d", range(2, 8))
def test_enumeration_matches_the_shape_oracle_at_small_d(capsys, d):
    for fmt in ("text", "machine"):
        for binary in ((), ("--binary",)):
            texts = [shape_to_sexpr(s) for s in enumerate_stable_trees(d, 2 if binary else None)]
            items = texts if fmt == "text" else ["tree.%d=%s" % (i, t) for i, t in enumerate(texts)]
            trailer = ("count: %d" if fmt == "text" else "count=%d") % len(texts)
            code, out, _ = run(capsys, "trees", "--d", str(d), *binary, "--format", fmt)
            assert code == 0
            assert out.splitlines() == items + [trailer], (fmt, binary)
        code, out, _ = run(capsys, "strata", "--d", str(d), "--format", fmt)
        assert code == 0
        assert out.splitlines() == oracle_report(labels_for(d), fmt), fmt
    code, out, _ = run(capsys, "stacked", "--d", str(d), "--format", "machine")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == STACKED_MACHINE_MD5[d]


def _usage_error(capsys, *argv):
    """The stderr of argv, which must be a usage error with empty stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("verb", ["trees", "strata", "stacked"])
def test_leaf_counts_past_the_limit_are_usage_errors(capsys, verb):
    limit = cli.MAX_D[verb]
    for d in (limit + 1, 10 ** 20 - 1, 3000):
        err = _usage_error(capsys, verb, "--d", str(d))
        assert err.endswith("error: argument --d: at most %d, got %d\n" % (limit, d))
    if verb != "trees":
        labels = ",".join("L%d" % i for i in range(limit + 2))
        err = _usage_error(capsys, verb, "--labels", labels)
        assert err.endswith("error: argument --labels: at most %d labels, got %d\n"
                            % (limit + 1, limit + 2))


def test_leaf_count_limits_keep_the_documented_runs():
    """The largest pinned runs (trees --d 11, strata --d 10, stacked
    --d 9) stay allowed, and README.md states the limits."""
    assert cli.MAX_D["trees"] >= 11 and cli.MAX_D["strata"] >= 10 and cli.MAX_D["stacked"] >= 9
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert ("`--d` is at most %(trees)d for `trees`, %(strata)d for `strata` and %(stacked)d "
            "for `stacked`" % cli.MAX_D) in readme.replace("\n", " ")


def test_closed_stdout_is_one_error_line():
    """`trees --d 9 | head -1`: the reader leaves after one line, and the
    next block write fails with a broken pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(fukaya_workbench.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "fukaya_workbench.cli", "trees", "--d", "9"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"(v (leaf 1)")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_d_zero_reports_range_error(capsys):
    for verb, message in (("strata", "cluster strata need d >= 2"),
                          ("stacked", "stacked strata need d >= 1")):
        code, out, err = run(capsys, verb, "--d", "0")
        assert code == 2
        assert out == ""
        assert err == "error: %s\n" % message


@pytest.mark.parametrize("verb", ["strata", "stacked"])
def test_labels_and_d_together_are_a_usage_error(capsys, verb):
    err = _usage_error(capsys, verb, "--labels", "(L0,L1,L2)", "--d", "5")
    assert err.endswith("error: argument --d: not allowed with argument --labels\n")
    err = _usage_error(capsys, verb)
    assert err.endswith("error: one of the arguments --labels --d is required\n")


ITEM_LINES = ["plain", "100%", "%s", "%%", "%d", "a %(x)s b", "%"]


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
@pytest.mark.parametrize("key", ["stratum", "odd%key"])
def test_out_items_match_the_per_line_rendering(capsys, fmt, n, key):
    lines = [ITEM_LINES[i % len(ITEM_LINES)] + " %d" % i for i in range(n)]
    assert cli.Out(fmt).items(key, iter(lines)) == n
    if fmt == "machine":
        expected = "".join("%s.%d=%s\n" % (key, i, line) for i, line in enumerate(lines))
    else:
        expected = "".join(line + "\n" for line in lines)
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_out_items_write_each_block_before_reading_the_next(monkeypatch, fmt):
    """Each write follows the block it holds: 256, 512, then 513 lines read."""
    read = []
    writes = []

    def lines():
        for i in range(513):
            read.append(i)
            yield "line %d" % i

    class Stdout:
        def write(self, text):
            writes.append((len(read), text.count("\n")))

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert cli.Out(fmt).items("tree", lines()) == 513
    assert writes == [(256, 256), (512, 256), (513, 1)]


LABEL_ERRORS = [("(A,,B,A)", "empty label in '(A,,B,A)'"),
                ("(A,B,)", "empty label in '(A,B,)'"),
                ("(A,B", "unbalanced parenthesis in label '(A' of '(A,B'"),
                ("A,B)", "unbalanced parenthesis in label 'B)' of 'A,B)'")]


@pytest.mark.parametrize("verb", ["reduce", "classify"])
@pytest.mark.parametrize("text, message", LABEL_ERRORS)
def test_bad_label_tuples_are_errors(capsys, verb, text, message):
    err = _usage_error(capsys, verb, text)
    assert err.endswith("error: argument tuple: %s\n" % message)


@pytest.mark.parametrize("verb", ["strata", "stacked"])
@pytest.mark.parametrize("text, message", LABEL_ERRORS)
def test_bad_labels_options_are_usage_errors(capsys, verb, text, message):
    err = _usage_error(capsys, verb, "--labels", text)
    assert err.endswith("error: argument --labels: %s\n" % message)


def test_labels_keep_their_whitespace_rule(capsys):
    code, out, _ = run(capsys, "reduce", " ( L0 , L1,L0 ) ", "--format", "machine")
    assert code == 0
    assert out.startswith("input=(L0,L1,L0)\n")


def test_coloring_rejects_an_empty_label(tmp_path, capsys):
    f = tmp_path / "empty.tree"
    f.write_text("labels: A,,B,C\n(v (leaf 1) (leaf 2))\n")
    assert run(capsys, "coloring", str(f)) == (2, "", "error: empty label in 'A,,B,C'\n")


def test_coloring_valid_file(tmp_path, capsys):
    f = tmp_path / "ok.tree"
    f.write_text("labels: L0,L1,L2,L3,L4,L5,L6\n"
                 "(v (v (v* (leaf 1) (leaf 2)) (v* (leaf 3) (leaf 4))) (v* (leaf 5) (leaf 6)))\n")
    code, out, _ = run(capsys, "coloring", str(f))
    assert code == 0
    assert "valid: yes" in out
    assert "constraint: e2 = e3" in out
    assert "constraint: e1 + e2 = e4" in out
    assert "len e4 = 1" in out
    assert "cone_dim: 2" in out
    assert "corner: simplicial" in out


def test_coloring_invalid_file(tmp_path, capsys):
    f = tmp_path / "bad.tree"
    f.write_text("labels: L0,L1,L2,L3\n(v (v* (leaf 1) (leaf 2)) (leaf 3))\n")
    code, out, _ = run(capsys, "coloring", str(f))
    assert code == 1
    assert "valid: no" in out
    assert "leaf 3" in out


def test_width_expression(capsys):
    code, out, _ = run(capsys, "width", "(glue (surface 2) 1 (surface 2) 3/10)")
    assert code == 0
    assert out == "widths: (3/10,3/10,0)\nd: 3\n"


def test_width_random_self_check(capsys, monkeypatch):
    code, out, _ = run(capsys, "width", "--random", "10")
    assert code == 0
    assert "random: 10 ok" in out and "seed: 0" in out
    monkeypatch.setenv("WORKBENCH_SEED", "123")
    code, out, _ = run(capsys, "width", "--random", "10")
    assert code == 0
    assert "seed: 123" in out


@pytest.mark.parametrize("argv", [
    ("width", "--random", "3"),
    ("budget", "epsdelta", "--eps", "1/2", "--delta", "3/4", "--random", "3"),
], ids=" ".join)
def test_invalid_seed_is_named(capsys, monkeypatch, argv):
    monkeypatch.setenv("WORKBENCH_SEED", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: WORKBENCH_SEED must be an integer, got 'abc'\n"


def test_width_stack(capsys):
    code, out, _ = run(capsys, "width", "--stack=-0.25",
                       "--child-widths", "0,1/2", "--root-widths", "0,1/4")
    assert code == 0
    assert out == "scale: 54.5981500331\nlengths: [54.5981500331,53.8481500331]\n"
    code, out, _ = run(capsys, "width", "--stack=-0.25", "--child-widths", "", "--root-widths=")
    assert (code, out) == (0, "scale: 54.5981500331\nlengths: []\n")


def test_width_usage_error(capsys):
    err = _usage_error(capsys, "width")
    assert err.endswith("error: one of the arguments expr --random --stack is required\n")


# width takes exactly one mode: given two, argparse names the second it
# meets and the first; given none, it lists the three.
WIDTH_MIXES = [
    (("(surface 2)", "--stack=-0.5"), "argument --stack: not allowed with argument expr"),
    (("(surface 2)", "--random", "3"), "argument --random: not allowed with argument expr"),
    (("--stack=-0.5", "--random", "3"), "argument --random: not allowed with argument --stack"),
    (("(surface 2)", "--random", "3", "--stack=-0.5"),
     "argument --random: not allowed with argument expr"),
    (("--child-widths", ""), "one of the arguments expr --random --stack is required"),
]


@pytest.mark.parametrize("argv, message", WIDTH_MIXES,
                         ids=[" ".join(argv) for argv, _ in WIDTH_MIXES])
def test_width_runs_one_mode(capsys, argv, message):
    err = _usage_error(capsys, "width", *argv)
    assert err.endswith("error: %s\n" % message)


@pytest.mark.parametrize("argv", [("--random", "3", "--child-widths", "1"),
                                  ("(surface 2)", "--root-widths", "0")], ids=" ".join)
def test_width_lists_need_stack(capsys, argv):
    message = "error: --child-widths and --root-widths need --stack\n"
    assert run(capsys, "width", *argv) == (2, "", message)


# Scan verbs: exact stdout in both formats, on passing and failing inputs.
EXTERIOR_MAP = "obj M M\n" + "".join("F 1 M M in=%s out=%s coeff=T^0\n" % (g, g)
                                     for g in ("a", "ab", "b", "e"))
SCAN_FILES = {
    "bad.cat": _read_source("bundled:exterior") + "mu 2 M M M in=a,b out=e coeff=T^0\n",
    "ok.linf": "basis x\nbasis y\nl 2 in=x,y out=x coeff=T^0\n",
    "bad.linf": "basis x\nbasis y\nl 2 in=x,y out=x coeff=T^0\nl 2 in=x,x out=y coeff=T^0\n",
    # a differential with d(d(a)) = a breaks the relations at (a,)
    "open.ocha": "closed x\nclosed y\nopen a\nl 2 in=x,y out=x coeff=T^0\n"
                 "mu 0 1 closed= in=a out=a coeff=T^0\n",
    "ok.ocha": "closed x\nclosed y\nopen a\nl 2 in=x,y out=x coeff=T^0\n",
    "closed.ocha": "closed x\nclosed y\nopen a\nopen b\nl 1 in=x out=y coeff=T^0\n"
                   "mu 1 0 closed=y out=a coeff=T^0\nmu 1 1 closed=y in=a out=b coeff=T^1\n",
    "spec.ocha": "closed x\nopen a\nl 1 in=x out=x coeff=T^0\nl 2 in=x,x out=x coeff=T^0\n",
    "id.fun": EXTERIOR_MAP,
    "bad.fun": EXTERIOR_MAP + "F 2 M M M in=a,b out=e coeff=T^1/2\n",
}
FUNCTOR = ("functor", "--source", "bundled:exterior", "--target", "bundled:exterior", "--map")
SCAN_CASES = [
    (("check-ainf", "bundled:exterior", "--max-d", "4"), 0,
     "ainf: pass\nmax_d: 4\n",
     "ainf=pass\nmax_d=4\n"),
    (("check-ainf", "bad.cat", "--max-d", "3"), 1,
     "ainf: fail\nwitness: (a,a,b)\ndefect: a*(T^0)\n",
     "ainf=fail\nwitness=(a,a,b)\ndefect=a*(T^0)\n"),
    (("check-linf", "ok.linf", "--max-n", "4"), 0,
     "linf: pass\nmax_n: 4\n",
     "linf=pass\nmax_n=4\n"),
    (("check-linf", "bad.linf", "--max-n", "3"), 1,
     "linf: fail\nwitness: (x,x,x)\ndefect: x*(T^0)\n",
     "linf=fail\nwitness=(x,x,x)\ndefect=x*(T^0)\n"),
    (("check-ocha", "open.ocha"), 1,
     "ocha: fail\nwitness_closed: ()\nwitness_open: (a)\ndefect: a*(T^0)\n",
     "ocha=fail\nwitness_closed=()\nwitness_open=(a)\ndefect=a*(T^0)\n"),
    (("check-ocha", "open.ocha", "--specializations"), 1,
     "ocha: fail\nwitness_closed: ()\nwitness_open: (a)\ndefect: a*(T^0)\n",
     "ocha=fail\nwitness_closed=()\nwitness_open=(a)\ndefect=a*(T^0)\n"),
    (("check-ocha", "ok.ocha"), 0,
     "ocha: pass\nmax_closed: 2\nmax_open: 3\n",
     "ocha=pass\nmax_closed=2\nmax_open=3\n"),
    (("check-ocha", "ok.ocha", "--specializations"), 0,
     "ocha: pass\nmax_closed: 2\nmax_open: 3\n"
     "open_sector_matches_ainf: yes\nclosed_sector_linf_consistent: yes\n",
     "ocha=pass\nmax_closed=2\nmax_open=3\n"
     "open_sector_matches_ainf=yes\nclosed_sector_linf_consistent=yes\n"),
    (("check-ocha", "closed.ocha"), 1,
     "ocha: fail\nwitness_closed: (x)\nwitness_open: ()\ndefect: a*(T^0)\n",
     "ocha=fail\nwitness_closed=(x)\nwitness_open=()\ndefect=a*(T^0)\n"),
    (("check-ocha", "spec.ocha", "--specializations"), 1,
     "ocha: pass\nmax_closed: 2\nmax_open: 3\n"
     "open_sector_matches_ainf: yes\nclosed_sector_linf_consistent: no\n",
     "ocha=pass\nmax_closed=2\nmax_open=3\n"
     "open_sector_matches_ainf=yes\nclosed_sector_linf_consistent=no\n"),
    (FUNCTOR + ("id.fun", "--max-d", "2"), 0,
     "raw.1: 0\nrho_star: 0\nequation: pass\nmax_d: 2\n",
     "raw.1=0\nrho_star=0\nequation=pass\nmax_d=2\n"),
    (FUNCTOR + ("bad.fun",), 1,
     "raw.1: 0\nraw.2: -1/2\nrho_star: 0\n"
     "equation: fail\nwitness: (a,a,b)\ndefect: a*(T^1/2)\n",
     "raw.1=0\nraw.2=-1/2\nrho_star=0\n"
     "equation=fail\nwitness=(a,a,b)\ndefect=a*(T^1/2)\n"),
]


@pytest.mark.parametrize("argv, code, text, machine", SCAN_CASES,
                         ids=[" ".join(case[0]) for case in SCAN_CASES])
def test_scan_verbs_print_exact_reports(tmp_path, monkeypatch, capsys, argv, code, text, machine):
    for name, body in SCAN_FILES.items():
        (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (code, text, "")
    assert run(capsys, *argv, "--format", "machine") == (code, machine, "")


def test_scans_that_check_nothing_are_rejected(tmp_path, capsys):
    linf = tmp_path / "alg.linf"
    linf.write_text("basis x\nl 2 in=x,x out=x coeff=T^0\n")
    ocha = tmp_path / "s.ocha"
    ocha.write_text("closed x\nopen a\n")
    fun = tmp_path / "id.fun"
    fun.write_text("obj M M\nF 1 M M in=a out=a coeff=T^0\n")
    functor = ("functor", "--source", "bundled:exterior", "--target",
               "bundled:exterior", "--map", str(fun))
    for argv in (
        ("check-ainf", "bundled:exterior", "--max-d", "0"),
        ("check-ainf", "bundled:exterior", "--max-d=-1"),
        functor + ("--max-d", "0"),
        ("check-linf", str(linf), "--max-n", "0"),
        ("check-ocha", str(ocha), "--max-closed", "0", "--max-open", "0"),
        ("check-ocha", str(ocha), "--max-closed=-1", "--max-open", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: "), argv
    # a closed-only scan and an unchecked functor still run
    code, out, _ = run(capsys, "check-ocha", str(ocha), "--max-closed", "2",
                       "--max-open", "0")
    assert code == 0
    assert "ocha: pass" in out
    code, out, _ = run(capsys, *functor, "--max-d", "0", "--no-check")
    assert code == 0
    assert "equation" not in out


OCHA_SECTORS = ("closed c\nopen o\nl 2 in=c,c out=c coeff=T^1\n"
                "mu 0 2 in=o,o out=o coeff=T^0\nmu 1 1 closed=c in=o out=o coeff=T^1\n")


def test_specializations_need_both_sectors(tmp_path, capsys):
    """A sector with bound 0 would compare no tuple and pass."""
    f = tmp_path / "s.ocha"
    f.write_text(OCHA_SECTORS)
    for bounds, flag in ((("--max-open", "0", "--max-closed", "2"), "--max-open"),
                         (("--max-open", "2", "--max-closed", "0"), "--max-closed"),
                         (("--max-open=-1", "--max-closed", "2"), "--max-open")):
        code, out, err = run(capsys, "check-ocha", str(f), *bounds, "--specializations")
        assert (code, out) == (2, ""), bounds
        assert err.startswith("error: --specializations needs %s of at least 1, got " % flag)
        assert err.count("\n") == 1
    # the scans themselves still run with either bound at 0
    code, out, _ = run(capsys, "check-ocha", str(f), "--max-open", "0", "--max-closed", "2")
    assert (code, out) == (0, "ocha: pass\nmax_closed: 2\nmax_open: 0\n")


@pytest.mark.parametrize("units, message", [
    (("Q:e",), "unknown object 'Q'"),
    ((":e",), "unknown object ''"),
    (("M:zz",), "unknown unit generator 'zz'"),
    (("M:e", "M:a"), "--unit names object 'M' twice"),
    (("M:e", "M:e"), "--unit names object 'M' twice"),
])
def test_measure_units_name_each_known_object_once(capsys, units, message):
    argv = ["measure", "bundled:exterior"]
    for unit in units:
        argv += ["--unit", unit]
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)
    code, out, _ = run(capsys, "measure", "bundled:exterior", "--unit", "M:e")
    assert code == 0 and "unit.M: 0\n" in out


def test_functor_rejects_an_object_mapped_twice(tmp_path, capsys):
    (tmp_path / "two.cat").write_text("object M\nobject N\n")
    (tmp_path / "twice.fun").write_text("obj M N\nobj N N\nobj M M\n")
    cat = str(tmp_path / "two.cat")
    code, out, err = run(capsys, "functor", "--source", cat, "--target", cat,
                         "--map", str(tmp_path / "twice.fun"))
    assert (code, out) == (2, "")
    assert err == "error: line 3: object 'M' is already mapped to 'N'\n"


def test_coloring_rejects_a_second_labels_line_and_tree(tmp_path, capsys):
    f = tmp_path / "twice.tree"
    f.write_text("labels: A,B,C\nlabels: X,Y,Z\n(v (leaf 1) (leaf 2))\n(v* (leaf 1) (leaf 2))\n")
    assert run(capsys, "coloring", str(f)) == (2, "", "error: line 2: a second 'labels:' line\n")
    f.write_text("labels: X,Y,Z\n(v (leaf 1) (leaf 2))\n(v* (leaf 1) (leaf 2))\n")
    assert run(capsys, "coloring", str(f)) == (2, "", "error: line 3: a second s-expression\n")


def test_functor_loads_a_category_once_when_source_and_target_texts_agree(
        tmp_path, monkeypatch, capsys):
    exterior = _read_source("bundled:exterior")
    (tmp_path / "a.cat").write_text(exterior)
    (tmp_path / "copy_of_a.cat").write_text(exterior)
    (tmp_path / "raised.cat").write_text(exterior.replace("level=0", "level=1/2"))
    (tmp_path / "id.fun").write_text(EXTERIOR_MAP)
    monkeypatch.chdir(tmp_path)
    loads = []
    load = cli.load_category
    monkeypatch.setattr(cli, "load_category", lambda text: loads.append(text) or load(text))

    def functor(target):
        loads.clear()
        result = run(capsys, "functor", "--source", "a.cat", "--target", target,
                     "--map", "id.fun", "--max-d", "3")
        return result, len(loads)

    same = functor("a.cat")
    assert same == ((0, "raw.1: 0\nrho_star: 0\nequation: pass\nmax_d: 3\n", ""), 1)
    assert functor("copy_of_a.cat") == same
    assert functor("raised.cat") == (
        (0, "raw.1: 1/2\nrho_star: 1/2\nequation: pass\nmax_d: 3\n", ""), 2)


def test_measure(capsys):
    code, out, _ = run(capsys, "measure", "bundled:weakly")
    assert code == 0
    assert out == "raw.2: 1/2\neps.2: 1/2\nfiltered: no\n"


def test_measure_rejects_a_value_it_could_not_print(tmp_path, capsys):
    f = tmp_path / "big.cat"
    f.write_text("object M\ngen M M a level=0 ham=0\nmu 1 M M in=a out=a coeff=T^1e-4300\n")
    code, out, err = run(capsys, "measure", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3: ") and "has more than 4300 digits" in err
    assert len(err.splitlines()) == 1 and len(err) < 120


def test_measure_with_unit(capsys):
    code, out, _ = run(capsys, "measure", "bundled:exterior", "--unit", "M:e")
    assert code == 0
    assert "unit.M: 0" in out
    assert "filtered: yes" in out


def test_unit_pass_and_fail(tmp_path, capsys):
    code, out, _ = run(capsys, "unit", "bundled:exterior", "--object", "M", "--unit", "e")
    assert code == 0
    assert out == "unit: pass\n"

    from fukaya_workbench.ainfinity import dump_category, load_category
    from fukaya_workbench.novikov import NovikovElement
    from fukaya_workbench.cli import _read_source

    cat = load_category(_read_source("bundled:exterior"))
    cat.set_mu(("a", "e", "b"), {"ab": NovikovElement.one()})
    f = tmp_path / "u.cat"
    f.write_text(dump_category(cat))
    code, out, _ = run(capsys, "unit", str(f), "--object", "M", "--unit", "e")
    assert code == 1
    assert "violation: d=3 slot=2 inputs=(a,e,b)" in out
    assert "expected: 0" in out


def test_budget_vertex(capsys):
    code, out, _ = run(capsys, "budget", "vertex", "--d", "7", "--eps", "7/2",
                       "--case", "closed")
    assert code == 0
    assert out == "budget: -21/4\n"


def test_budget_epsdelta(capsys):
    code, out, _ = run(capsys, "budget", "epsdelta", "--eps", "2/3", "--delta", "3/4")
    assert code == 0
    assert out == "worst_case: 0\ninterior_cap: 1/3\n"


def test_budget_epsdelta_random(capsys):
    code, out, _ = run(capsys, "budget", "epsdelta", "--eps", "1", "--delta", "3/4",
                       "--random", "25")
    assert code == 0
    assert "random: 25 ok" in out


def test_random_self_checks_that_check_nothing_are_rejected(capsys):
    epsdelta = ("budget", "epsdelta", "--eps", "1", "--delta", "3/4")
    for argv in (("width", "--random", "0"), ("width", "--random=-3"),
                 ("width", "--stack=-0.25", "--random", "0"),
                 epsdelta + ("--random", "0"), epsdelta + ("--random=-2",)):
        err = _usage_error(capsys, *argv)
        assert "error: argument --random: --random must be at least 1, got " in err, argv


def test_budget_strip_overflow_names_the_value(capsys):
    code, out, err = run(capsys, "budget", "strip", "--lo", "0", "--hi", "1e400",
                         "--end", "exit", "--cutoffs", "0,1")
    assert (code, out) == (2, "")
    assert err == "error: hi 1e+400 does not fit in a float\n"
    assert len(err) < 120


def test_budget_window_failure_exit(capsys):
    code, out, _ = run(capsys, "budget", "window", "--lo", "2/5", "--hi", "9/10",
                       "--eps", "1")
    assert code == 1
    assert "ok: no" in out
    assert "reason: lo 2/5 does not exceed the lower bound 1/2" in out


def test_non_numeric_values_name_the_bad_value(capsys):
    for argv, message in (
        (("budget", "window", "--lo", "x", "--hi", "1", "--eps", "1"),
         "argument --lo: --lo must be a rational number, got 'x'"),
        (("budget", "vertex", "--d", "3", "--eps", "x"),
         "argument --eps: eps must be a rational number, got 'x'"),
        (("budget", "strip", "--lo", "0", "--hi", "1", "--end", "entry", "--cutoffs", "0,x"),
         "argument --cutoffs: a --cutoffs entry must be a number, got 'x'"),
        (("dim", "--case", "open", "--d", "3", "--n", "2", "--d-R", "3", "--mu", "0",
          "--morse", "1,x"),
         "argument --morse: a --morse entry must be an integer, got 'x'"),
    ):
        err = _usage_error(capsys, *argv)
        assert err.endswith("error: %s\n" % message), argv
    # a width expression is read by the library, not by argparse
    code, out, err = run(capsys, "width", "(glue (surface 2) 1 (surface 2) x)")
    assert (code, out) == (2, "")
    assert err == "error: a neck length must be a rational number, got 'x'\n"


def test_values_out_of_range_are_library_errors(capsys):
    for argv, message in (
        (("budget", "vertex", "--d", "3", "--eps", "0"), "eps must be positive, got 0"),
        (("budget", "window", "--lo", "0", "--hi", "1", "--eps", "-1"),
         "eps must be positive, got -1"),
        (("budget", "epsdelta", "--eps", "1", "--delta", "1/2"),
         "delta must lie strictly between 1/2 and 1, got 1/2"),
    ):
        assert run(capsys, *argv) == (2, "", "error: %s\n" % message), argv


def test_budget_strip(capsys):
    code, out, _ = run(capsys, "budget", "strip", "--lo", "3/5", "--hi", "9/10",
                       "--end", "entry", "--cutoffs", "0,0.25,0.5,1")
    assert code == 0
    assert out == "bound: -0.6\nclosed_form: -0.6\nquadrature_error: 0\n"


def test_budget_strip_rejects_non_finite_cutoffs(capsys):
    for cutoffs in ("nan,1", "0,inf", "-inf,1"):
        code, out, err = run(capsys, "budget", "strip", "--lo", "0", "--hi", "1",
                             "--end", "entry", "--cutoffs=" + cutoffs)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cutoff samples must be finite")


def test_budget_energy(capsys):
    code, out, _ = run(capsys, "budget", "energy", "--inputs", "1,-inf",
                       "--output=-inf", "--curvature", "5")
    assert code == 0
    assert out == "bound: -inf\noutput: -inf\nok: yes\n"
    code, out, _ = run(capsys, "budget", "energy", "--inputs", "1,-1/2",
                       "--output", "3/5", "--curvature", "0")
    assert code == 1
    assert "ok: no" in out


def test_budget_continuation(capsys):
    code, out, _ = run(capsys, "budget", "continuation", "--eps1", "1", "--delta1",
                       "3/5", "--eps2", "1/2", "--delta2", "4/5", "--d", "3")
    assert code == 0
    assert out == "per_d: -9/10\noverall: -1/10\ntheorem_bound: 0\nfiltered: yes\n"


def test_budget_thin(capsys):
    code, out, _ = run(capsys, "budget", "thin", "--d", "6", "--case", "closed")
    assert code == 0
    assert out == "thin_parts: 9\n"


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--case", "open", "--n", "2", "--d", "3",
                       "--d-R", "3", "--mu", "0", "--morse", "")
    assert code == 0
    assert out == "dim: 3\n"
    code, out, _ = run(capsys, "dim", "--case", "marked_disc", "--l", "3", "--k", "2")
    assert code == 0
    assert out == "dim: 5\n"


def _readme_examples():
    """(argv, tail, expected stdout) for each `$ workbench` line in the
    fenced block under `## Command line` in README.md; tail is the N of
    a trailing `| tail -N`, or None."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    examples = []
    for chunk in block.split("$ workbench ")[1:]:
        command, *shown = chunk.strip("\n").split("\n")
        command, _, tail = command.partition(" | tail -")
        examples.append((shlex.split(command), int(tail) if tail else None,
                         "".join(line + "\n" for line in shown)))
    return examples


def test_readme_examples_print_what_they_show(capsys):
    examples = _readme_examples()
    assert len(examples) == 8
    for argv, tail, shown in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if tail is not None:
            out = "".join(out.splitlines(keepends=True)[-tail:])
        assert out == shown, argv


def test_reruns_are_byte_identical(capsys):
    for argv in (
        ("strata", "--d", "4"),
        ("stacked", "--d", "3", "--format", "machine"),
        ("check-ainf", "bundled:exterior"),
        ("width", "--random", "5"),
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "junk.cat"
    f.write_text("junk line\n")
    code, _, err = run(capsys, "check-ainf", str(f))
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "check-ainf", str(tmp_path / "missing.cat"))
    assert code == 2


def test_usage_error_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["budget"])


CATEGORY_HEAD = "object M\ngen M M a level=0 ham=0\n"


@pytest.mark.parametrize("verb, text, message", [
    ("check-ainf", CATEGORY_HEAD + "mu 1 M M out=a coeff=T^0\n",
     "line 3: mu line 'mu 1 M M out=a coeff=T^0' has no in= field"),
    ("check-ainf", CATEGORY_HEAD + "mu 1 M M in=a coeff=T^0\n",
     "line 3: mu line 'mu 1 M M in=a coeff=T^0' has no out= field"),
    ("check-ainf", CATEGORY_HEAD + "mu 0 M in= out=a coeff=T^0\n",
     "line 3: arity must be at least 1, got 0"),
    ("check-ocha", "open o\nclosed\n",
     "line 2: closed line 'closed' is too short: it needs 1 token(s) before its fields"),
    ("check-ocha", "open o\nmu 0 1 in=o out=o\n",
     "line 2: mu line 'mu 0 1 in=o out=o' has no coeff= field"),
    ("check-linf", "basis x\nl\n",
     "line 2: l line 'l' is too short: it needs 1 token(s) before its fields"),
    ("functor", "obj M M\nF 1 M M out=a coeff=T^0\n",
     "line 2: F line 'F 1 M M out=a coeff=T^0' has no in= field"),
    ("check-ainf", CATEGORY_HEAD + "mu 2 M M in=a,a out=a coeff=T^0\n",
     "line 3: object path 'M M' is too short for arity 2: it needs 3 objects"),
])
def test_malformed_lines_exit_2_with_their_line(tmp_path, capsys, verb, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    if verb == "functor":
        argv = ("functor", "--source", "bundled:exterior", "--target", "bundled:exterior",
                "--map", str(f))
    else:
        argv = (verb, str(f))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_truncated_expressions_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "width", "(surface")
    assert (code, out) == (2, "")
    assert err == "error: width expression '(surface' ends early\n"
    f = tmp_path / "cut.tree"
    f.write_text("labels: L0,L1,L2\n(v (leaf 1\n")
    code, out, err = run(capsys, "coloring", str(f))
    assert (code, out) == (2, "")
    assert err == "error: tree '(v (leaf 1' ends early\n"


def test_width_stack_scale_overflow_exits_2(capsys):
    for rho in ("-0.001", "-1e-320"):
        code, out, err = run(capsys, "width", "--stack=%s" % rho)
        assert (code, out) == (2, "")
        assert err.startswith("error: the scale e^(-1/rho) overflows a float")
    # out-of-range values are shown in a bounded form, not digit by digit
    for argv in (("--stack=1e400",),
                 ("--stack=-0." + "3" * 200, "--child-widths", "1000", "--root-widths", "0")):
        code, out, err = run(capsys, "width", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: stacking parameter ")
        assert err.count("\n") == 1 and len(err) < 120
