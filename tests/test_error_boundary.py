"""The CLI's error boundary: whatever a file argument or a flag value
holds, every verb ends in exit 0, 1 or 2, raises nothing but SystemExit,
and prints an 'error:' line whenever it exits 2."""

import argparse
import contextlib
import importlib.resources
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fukaya_workbench.cli import build_parser, main
from fukaya_workbench.strata import MAX_WIDTH_INPUTS

CATEGORY = importlib.resources.files("fukaya_workbench").joinpath("data/exterior.cat").read_text()

VALID = {
    "category": CATEGORY,
    "linf": "basis x\nbasis y\nl 2 in=x,y out=x coeff=T^0\nl 1 in=x out=y coeff=T^1/2\n",
    "ocha": ("closed c\nclosed d\nopen a\nopen b\n"
             "l 2 in=c,d out=c coeff=T^0\n"
             "mu 0 2 closed= in=a,b out=a coeff=T^0\n"
             "mu 1 1 closed=c in=a out=b coeff=T^1+T^2\n"),
    "functor": "obj M M\nF 1 M M in=a out=a coeff=T^0\nF 2 M M M in=a,b out=ab coeff=T^1/2\n",
    "tree": ("labels: L0,L1,L2,L3,L4\n"
             "(v (v* (leaf 1) (leaf 2)) (v* (v (leaf 3) (leaf 4))))\n"
             "len e1 = 1\n"),
}

EXTERIOR = ("--source", "bundled:exterior", "--target", "bundled:exterior")

# verb -> (argv with PATH standing for the file, the format it reads)
VERBS = {
    "check-ainf": (("check-ainf", "PATH", "--max-d", "3"), "category"),
    "check-linf": (("check-linf", "PATH", "--max-n", "3"), "linf"),
    "check-ocha": (("check-ocha", "PATH", "--max-closed", "2", "--max-open", "2",
                    "--specializations"), "ocha"),
    "measure": (("measure", "PATH", "--unit", "M:e"), "category"),
    "unit": (("unit", "PATH", "--object", "M", "--unit", "e"), "category"),
    "functor": (("functor",) + EXTERIOR + ("--map", "PATH", "--max-d", "3"), "functor"),
    "coloring": (("coloring", "PATH"), "tree"),
}

TOKENS = st.sampled_from([
    "", "=", "==", "in=", "out=", "coeff=", "closed=", "level=1/0", "ham=x", "in=a,b", "in=,",
    "T^0", "T^1/0", "T^x", "T^{1/2}", "1", "0", "-1", "2", "1/0", "x", "a", "M", "zz",
    "object", "gen", "mu", "l", "F", "obj", "basis", "closed", "open", "labels:", "len",
    "(", ")", "(v", "(v*", "(leaf", "leaf", "#", "A,,B",
]) | st.text(max_size=6)


@st.composite
def mutated(draw, text):
    """A valid file with a few lines edited token by token."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines = [""]
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        op = draw(st.sampled_from(["drop", "replace", "insert", "cut", "copy", "swap",
                                   "drop line", "copy line"]))
        if op == "drop line":
            del lines[i]
            continue
        if op == "copy line":
            lines.insert(i, lines[i])
            continue
        j = draw(st.integers(0, len(tokens)))
        if op == "insert" or not tokens:
            tokens.insert(j, draw(TOKENS))
        else:
            j = min(j, len(tokens) - 1)
            if op == "drop":
                del tokens[j]
            elif op == "replace":
                tokens[j] = draw(TOKENS)
            elif op == "cut":
                tokens[j] = tokens[j][:draw(st.integers(0, len(tokens[j])))]
            elif op == "copy":
                tokens.insert(j, tokens[j])
            elif j + 1 < len(tokens):
                tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def contents(fmt):
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=120)
    return st.one_of(mutated(VALID[fmt]), text, st.binary(max_size=60))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, err.getvalue(), out.getvalue()


def assert_boundary(code, err, out):
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err
    if err.startswith("usage:"):
        # an argparse usage error, raised before any work
        assert (code, out) == (2, "")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_file_verbs_keep_their_exit_codes(workdir, verb):
    argv, fmt = VERBS[verb]
    path = workdir / ("%s.txt" % verb)

    @settings(max_examples=60, deadline=None)
    @given(contents(fmt))
    def check(data):
        if isinstance(data, str):
            data = data.encode()
        path.write_bytes(data)
        assert_boundary(*run_main(str(path) if a == "PATH" else a for a in argv))

    check()


# Surfaces whose profile would not fit in memory, by their arity: refused
# before the profile is built.
WIDE_SURFACES = {"(surface 99999999999999999999)": "99999999999999999999",
                 "(surface 1000000000)": "1000000000"}


@settings(max_examples=150, deadline=None)
@given(st.one_of(mutated("(glue (glue (surface 2) 1 (surface 2) 1/2) 3 (surface 3) 1/4)"),
                 st.text(max_size=60), st.sampled_from(sorted(WIDE_SURFACES))))
def test_width_expressions_keep_their_exit_codes(expr):
    assert_boundary(*run_main(["width", expr.strip()]))


@pytest.mark.parametrize("expr", sorted(WIDE_SURFACES))
def test_surfaces_past_the_input_bound_are_refused(expr):
    assert run_main(["width", expr]) == (
        2, "error: a width expression has at most %d inputs, got %s\n"
        % (MAX_WIDTH_INPUTS, WIDE_SURFACES[expr]), "")


def assert_short_error(code, err, out):
    """Exit 2 with empty stdout, and a last stderr line that shows a long
    value cut short rather than whole."""
    last = err.splitlines()[-1]
    assert (code, out) == (2, "") and "error: " in last and len(last) < 200, err


def test_huge_integer_tokens_are_shown_cut_short(workdir):
    path = workdir / "huge-arity.cat"
    path.write_text(CATEGORY.replace("mu 2 M M M in=a,b", "mu %s M M M in=a,b" % HUGE[1], 1))
    cut = "has more than 4300 digits: '%s'...\n" % HUGE[1][:40]
    for argv, what in ((["check-ainf", str(path)], "line 6: mu arity"),
                       (["width", "(surface %s)" % HUGE[1]], "surface arity")):
        code, err, out = run_main(argv)
        assert_short_error(code, err, out)
        assert err == "error: %s %s" % (what, cut)


# A text past the 4,300 digits that int() reads, which no flag, path or
# name takes: an error shows it cut short.
LONG = "L" * 4301

# Tables whose one fault is a name of LONG's length, by the verb that
# reads them and where the name sits.
LONG_NAMES = {
    "mu input": ("check-ainf", CATEGORY + "mu 1 M M in=%s out=a coeff=T^0\n" % LONG),
    "mu output": ("check-ainf", CATEGORY + "mu 1 M M in=a out=%s coeff=T^0\n" % LONG),
    "gen twice": ("check-ainf", CATEGORY + "gen M M %s level=0 ham=0\n" % LONG * 2),
    "field": ("check-ainf", CATEGORY + "mu 1 M M in=a out=a coeff=T^0 %s=1\n" % LONG),
    "token": ("check-ainf", CATEGORY + "mu 1 M M in=a out=a coeff=T^0 %s\n" % LONG),
    "bracket input": ("check-linf", VALID["linf"] + "l 1 in=%s out=x coeff=T^0\n" % LONG),
    "open input": ("check-ocha", VALID["ocha"] + "mu 0 1 in=%s out=a coeff=T^0\n" % LONG),
    "closed input": ("check-ocha", VALID["ocha"] + "mu 1 0 closed=%s out=a coeff=T^0\n" % LONG),
    "object map": ("functor", "obj %s M\n" % LONG),
    "component output": ("functor", VALID["functor"] + "F 1 M M in=a out=%s coeff=T^0\n" % LONG),
}


@pytest.mark.parametrize("where", sorted(LONG_NAMES))
def test_long_names_in_tables_are_shown_cut_short(workdir, where):
    verb, text = LONG_NAMES[where]
    path = workdir / "long-name.txt"
    path.write_text(text)
    argv = VERBS[verb][0]
    code, err, out = run_main(str(path) if a == "PATH" else a for a in argv)
    assert_short_error(code, err, out)
    assert "%s'..." % LONG[:40] in err


# Tables whose one fault is reported by a message that quotes a file
# line or writes values bare, with a name, line head or arity text of
# LONG's length, by the message and then the verb that reads them.
DIGITS = "9" * 4000
LONG_LINES = {
    "unknown line": ("check-ainf", CATEGORY + "%s in=a\n" % LONG),
    "too short": ("check-ainf", CATEGORY + "gen %s\n" % LONG),
    "no field": ("check-ainf", CATEGORY + "gen M M c level=%s\n" % LONG),
    "unknown object": ("check-ainf", CATEGORY + "gen M %s c level=0 ham=0\n" % LONG),
    "object path": ("check-ainf", CATEGORY + "mu 1 M %s in=a out=a coeff=T^0\n" % LONG),
    "lies in hom": ("check-ainf", CATEGORY + "object %s\ngen %s %s z level=0 ham=0\n" % ((LONG,) * 3)
                    + "mu 1 M M in=a out=z coeff=T^0\n"),
    "not composable": ("check-ainf", CATEGORY + "object N\ngen M N %s level=0 ham=0\n" % LONG
                       + "mu 2 M M M in=%s,b out=a coeff=T^0\n" % LONG),
    "bracket inputs": ("check-linf", VALID["linf"] + "l %s in=x out=x coeff=T^0\n" % DIGITS),
    "open inputs": ("check-ocha", VALID["ocha"] + "mu %s 1 in=a out=a coeff=T^0\n" % DIGITS),
}


@pytest.mark.parametrize("where", sorted(LONG_LINES))
def test_loader_messages_show_long_values_cut_short(workdir, where):
    verb, text = LONG_LINES[where]
    path = workdir / "long-line.txt"
    path.write_text(text)
    code, err, out = run_main(str(path) if a == "PATH" else a for a in VERBS[verb][0])
    assert_short_error(code, err, out)
    assert "..." in err and where.split()[-1] in err, err


def test_long_paths_are_shown_cut_short():
    for path in ("/nonexistent/" + LONG, "bundled:" + LONG):
        code, err, out = run_main(["check-ainf", path])
        assert_short_error(code, err, out)
        assert err.endswith("LLL'...\n"), err


def test_a_non_finite_cutoff_is_named_by_position():
    cutoffs = ",".join(["0"] * 2500 + ["nan"] + ["1"] * 2500)
    code, err, out = run_main(["budget", "strip", "--lo", "0", "--hi", "1", "--end", "entry",
                               "--cutoffs", cutoffs])
    assert_short_error(code, err, out)
    assert err == "error: cutoff samples must be finite, got nan at position 2501 of 5001\n"


# -- every flag of every verb --------------------------------------------


def walk_options(parser, path=(), seen=None):
    """(verb path, action) for every argument of every subcommand; an
    argument shared through a parent parser, such as --format, is one
    action and is walked once."""
    seen = set() if seen is None else seen
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from walk_options(sub, path + (name,), seen)
        elif path and not isinstance(action, argparse._HelpAction) and action not in seen:
            seen.add(action)
            yield path, action


def option_key(action):
    return action.option_strings[0] if action.option_strings else action.dest


OPTIONS = list(walk_options(build_parser()))

# Runs of each verb, each as the arguments it gives by option string or
# positional name; a value FILE:fmt names a file holding VALID[fmt].  An
# argument is fed the values below in the first run that gives it, or
# else in the first run, with every other argument at its default.
RUNS = {
    ("reduce",): [{"tuple": "(L0,L1,L0)"}],
    ("classify",): [{"tuple": "(L0,L1,L0)"}],
    ("trees",): [{"--d": "3"}],
    ("strata",): [{"--d": "3"}, {"--labels": "(A,B,A,B)"}],
    ("stacked",): [{"--d": "3"}, {"--labels": "(A,B,A,B)"}],
    ("coloring",): [{"file": "FILE:tree"}],
    ("width",): [{"expr": "(glue (surface 2) 1 (surface 2) 1/2)"}, {"--random": "2"},
                 {"--stack": "-1/2", "--child-widths": "0,1", "--root-widths": "1,0"}],
    ("check-ainf",): [{"file": "bundled:exterior"}],
    ("check-linf",): [{"file": "FILE:linf"}],
    ("check-ocha",): [{"file": "FILE:ocha"}],
    ("measure",): [{"file": "bundled:weakly"}],
    ("unit",): [{"file": "bundled:exterior", "--object": "M", "--unit": "e"}],
    ("functor",): [{"--source": "bundled:exterior", "--target": "bundled:exterior",
                    "--map": "FILE:functor"}],
    ("budget", "vertex"): [{"--d": "3", "--eps": "1/10"}],
    ("budget", "epsdelta"): [{"--eps": "1/10", "--delta": "3/4"}],
    ("budget", "window"): [{"--lo": "3/50", "--hi": "2/25", "--eps": "1/10"}],
    ("budget", "strip"): [{"--lo": "0", "--hi": "1", "--end": "entry", "--cutoffs": "0,0.5,1"}],
    ("budget", "energy"): [{"--inputs": "1,2", "--output": "3"}],
    ("budget", "continuation"): [{"--eps1": "1/10", "--delta1": "3/4", "--eps2": "1/10",
                                  "--delta2": "3/4", "--d": "3"}],
    ("budget", "thin"): [{"--d": "5"}],
    ("dim",): [{"--case": "marked_disc", "--l": "3", "--k": "2"}],
}

# A 20-digit integer, and one past the 4,300 digits that int() reads.
HUGE = ["9" * 20, "9" * 4301]
FLAG_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e400", "1e-400", "", "1/0", "(A,,B)"] + HUGE + [LONG]

# Options whose value is the amount of work asked for: a 20-digit value
# is honoured, not refused, so they get a small stand-in for it.  Every
# other count (--max-d, --max-n, --max-closed, --max-open, the budget
# and dim --d) is fed it and answers at once on these inputs.
WORK_SIZE = {
    ("width", "--random"): "builds and checks N random expressions",
    ("budget", "epsdelta", "--random"): "runs N random trials",
}
STAND_IN = "3"


@pytest.fixture(scope="module")
def files(workdir):
    out = {}
    for fmt, text in VALID.items():
        path = workdir / ("valid-%s.txt" % fmt)
        path.write_text(text)
        out["FILE:" + fmt] = str(path)
    return out


def flag_argv(path, run, files, action=None, value=None):
    """argv of the verb at path with the arguments of run, and action fed
    value (a flag that takes no value is given bare)."""
    run = dict(run)
    if action is not None:
        run.pop(option_key(action), None)
    argv = list(path)
    for key, v in run.items():
        v = files.get(v, v)
        argv.append("%s=%s" % (key, v) if key.startswith("-") else v)
    if action is None:
        return argv
    if not action.option_strings:
        return argv + [value]
    return argv + [action.option_strings[0] if value is None
                   else "%s=%s" % (action.option_strings[0], value)]


def test_every_verb_has_runs_that_work(files, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert sorted(RUNS) == sorted({path for path, _ in OPTIONS})
    for path, runs in RUNS.items():
        for run in runs:
            code, err, out = run_main(flag_argv(path, run, files))
            assert code in (0, 1) and err == "" and out, (path, run, code, err)


@pytest.mark.parametrize("path, action", OPTIONS,
                         ids=[" ".join(path + (option_key(a),)) for path, a in OPTIONS])
def test_every_flag_value_keeps_the_exit_codes(files, workdir, monkeypatch, path, action):
    monkeypatch.chdir(workdir)
    key = option_key(action)
    run = next((run for run in RUNS[path] if key in run), RUNS[path][0])
    values = [None] if action.nargs == 0 else FLAG_VALUES
    if path + (key,) in WORK_SIZE:
        values = [STAND_IN if v == HUGE[0] else v for v in values]
    for value in values:
        result = run_main(flag_argv(path, run, files, action, value))
        assert_boundary(*result)
        if value == HUGE[1] and path + (key,) in INTEGERS or value == LONG:
            assert_short_error(*result)


# -- flag text is read by argparse alone ---------------------------------

TYPED = [(path, a) for path, a in OPTIONS if a.type is not None]


def reads_integers(action):
    """Whether the argument's text is an integer or a comma list of them."""
    try:
        value = action.type("1")
    except argparse.ArgumentTypeError:
        return False
    return type(value) is int or value == (1,)


INTEGERS = {path + (option_key(a),) for path, a in TYPED if reads_integers(a)}


def test_integer_flags_are_found():
    assert INTEGERS >= {("trees", "--d"), ("strata", "--d"), ("stacked", "--d"),
                        ("width", "--random"), ("check-ainf", "--max-d"),
                        ("check-ocha", "--max-open"), ("functor", "--max-d"),
                        ("budget", "thin", "--d"), ("dim", "--mu"), ("dim", "--morse")}


# Options whose value is a name that the verb looks up (an object, a
# generator, a file, a dimension case), so argparse has no text to check.
NAMES = {("unit", "--object"), ("unit", "--unit"), ("functor", "--source"),
         ("functor", "--target"), ("functor", "--map"), ("dim", "--case")}

# '' is a value of these lists: no widths, no indices.
EMPTY_IS_NO_ENTRIES = {("width", "--child-widths"), ("width", "--root-widths"),
                       ("dim", "--morse")}


def test_every_flag_with_text_to_read_is_typed():
    untyped = {path + (option_key(a),) for path, a in OPTIONS
               if a.option_strings and a.nargs != 0 and a.type is None and a.choices is None}
    assert untyped == NAMES
    assert {path + (option_key(a),) for path, a in TYPED} >= {
        ("width", "--random"), ("width", "--stack"), ("width", "--child-widths"),
        ("width", "--root-widths"), ("measure", "--unit"), ("dim", "--morse"),
        ("budget", "epsdelta", "--random"), ("budget", "strip", "--cutoffs"),
        ("budget", "energy", "--inputs"), ("budget", "energy", "--output"),
        ("budget", "energy", "--curvature"), ("budget", "window", "--lo"),
        ("budget", "continuation", "--delta2")} | EMPTY_IS_NO_ENTRIES


@pytest.mark.parametrize("path, action", TYPED,
                         ids=[" ".join(path + (option_key(a),)) for path, a in TYPED])
def test_flag_text_errors_are_usage_errors_naming_the_flag(files, workdir, monkeypatch,
                                                           path, action):
    monkeypatch.chdir(workdir)
    key = option_key(action)
    run = next((run for run in RUNS[path] if key in run), RUNS[path][0])
    for value in ("", "1/0", "x"):
        code, err, out = run_main(flag_argv(path, run, files, action, value))
        if value == "" and path + (key,) in EMPTY_IS_NO_ENTRIES:
            # read as no entries; the verb may still refuse the run
            assert not err.startswith("usage:"), err
            continue
        assert (code, out) == (2, ""), value
        assert err.startswith("usage:") and "error: argument %s: " % key in err, value
