"""The CLI's error boundary: whatever a file argument holds, every verb
that reads one ends in exit 0, 1 or 2, raises nothing but SystemExit,
and prints an 'error:' line whenever it exits 2."""

import contextlib
import importlib.resources
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fukaya_workbench.cli import main

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
    "(", ")", "(v", "(v*", "(leaf", "leaf", "#",
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
    return code, err.getvalue()


def assert_boundary(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err


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


@settings(max_examples=150, deadline=None)
@given(st.one_of(mutated("(glue (glue (surface 2) 1 (surface 2) 1/2) 3 (surface 3) 1/4)"),
                 st.text(max_size=60)))
def test_width_expressions_keep_their_exit_codes(expr):
    assert_boundary(*run_main(["width", expr.strip()]))
