"""The table loaders against the generic line reader they replaced.

Every load of a seeded mutation of a valid file must end as the
reference in oracles.py ends: with the same exception and message, or
with tables that dump to the same text.  The bases are the bundled
fixtures and small random tables of all four formats; the mutations
drop, copy and swap tokens and lines, rename names, reorder fields,
break chains that keep their object path, spoil coefficients, and add
comments, blank lines and indentation; lines end with each boundary
that str.splitlines knows, so the line numbers in messages are
checked too."""

import importlib.resources
import random
import re

import pytest

import oracles
from fukaya_workbench.ainfinity import (dump_category, dump_functor, dump_linf, dump_ocha,
                                        load_category, load_functor, load_linf, load_ocha)

FILES_PER_FORMAT = 600

LEVELS = ["0", "1/2", "-1", "3", "2/3"]
COEFFS = ["T^0", "1", "T^1/2", "T^{1/2}", "T^-1+T^2", "T^1/3+T^{1/3}", "T^1+T^2+T^3", "0",
          "T^{-2}+1"]
BAD_COEFFS = ["T^x", "T^1/0", "T^1+0", "", "x", "T^{1/2", "T^1e9999", "T^%s" % ("9" * 4301),
              "T^1++T^2", "T^", "+", "T^1.5", "T^1/2+y"]
NOISE = ["", "   ", "\t", "# a comment", "#", "  # indented comment", "#mu 1 X0 X0 in=g0"]
# Every line boundary of str.splitlines; "\n" most often.
BOUNDARIES = ["\n"] * 8 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                           "\u2028", "\u2029"]


def _bundled(name):
    return importlib.resources.files("fukaya_workbench").joinpath("data/%s" % name).read_text()


def _random_category(rng):
    """Lines of a small category, its generators as name -> (src, tgt)."""
    objects = ["X%d" % i for i in range(rng.randint(1, 3))]
    gens = {"g%d" % i: (rng.choice(objects), rng.choice(objects))
            for i in range(rng.randint(2, 6))}
    lines = ["object %s" % x for x in objects]
    lines += ["gen %s %s %s level=%s ham=%s" % (s, t, g, rng.choice(LEVELS), rng.choice(LEVELS))
              for g, (s, t) in gens.items()]
    for _ in range(rng.randint(1, 8)):
        chain = _random_chain(rng, gens)
        lines.append("mu %s out=%s coeff=%s"
                     % (_chain_head(chain, gens), _output(rng, gens, gens[chain[0]][0],
                                                         gens[chain[-1]][1]),
                        rng.choice(COEFFS)))
    return lines, gens


def _random_chain(rng, gens):
    names = sorted(gens)
    chain = [rng.choice(names)]
    for _ in range(rng.randint(0, 2)):
        nxt = [g for g in names if gens[g][0] == gens[chain[-1]][1]]
        if nxt:
            chain.append(rng.choice(nxt))
    return chain


def _chain_head(chain, gens):
    """'d X0 .. Xd in=g1,..,gd' of a composable chain."""
    path = [gens[g][0] for g in chain] + [gens[chain[-1]][1]]
    return "%d %s in=%s" % (len(chain), " ".join(path), ",".join(chain))


def _output(rng, gens, src, tgt):
    """A generator of hom(src, tgt) mostly, any generator now and then."""
    fits = [g for g, ends in sorted(gens.items()) if ends == (src, tgt)]
    return rng.choice(fits if fits and rng.random() < 0.85 else sorted(gens))


def _random_functor(rng, gens):
    """Lines of a map from the category of gens to itself."""
    objects = sorted({x for ends in gens.values() for x in ends})
    object_map = {x: rng.choice(objects) for x in objects}
    lines = ["obj %s %s" % pair for pair in object_map.items()]
    mapped = {g: (object_map[s], object_map[t]) for g, (s, t) in gens.items()}
    for _ in range(rng.randint(1, 6)):
        chain = _random_chain(rng, gens)
        src, tgt = mapped[chain[0]][0], mapped[chain[-1]][1]
        fits = [g for g, ends in sorted(gens.items()) if ends == (src, tgt)]
        out = rng.choice(fits if fits and rng.random() < 0.85 else sorted(gens))
        lines.append("F %s out=%s coeff=%s" % (_chain_head(chain, gens), out, rng.choice(COEFFS)))
    return lines


def _random_linf(rng, head="basis"):
    basis = ["x%d" % i for i in range(rng.randint(1, 4))]
    lines = ["%s %s" % (head, b) for b in basis]
    for _ in range(rng.randint(1, 6)):
        # A bracket of no input is well formed and refused when stored.
        inputs = [rng.choice(basis) for _ in range(rng.choice([0] + [1, 2, 3] * 6))]
        lines.append("l %d in=%s out=%s coeff=%s"
                     % (len(inputs), ",".join(inputs), rng.choice(basis), rng.choice(COEFFS)))
    return lines


def _random_ocha(rng):
    lines = _random_linf(rng, head="closed")
    closed = [ln.split()[1] for ln in lines if ln.startswith("closed ")]
    opens = ["o%d" % i for i in range(rng.randint(1, 3))]
    lines[len(closed):len(closed)] = ["open %s" % o for o in opens]
    for _ in range(rng.randint(1, 6)):
        k, d = rng.choice([(0, 1), (0, 2), (1, 0), (1, 1), (2, 1), (0, 3)] * 3 + [(0, 0)])
        cs = [rng.choice(closed) for _ in range(k)]
        os_ = [rng.choice(opens) for _ in range(d)]
        fields = ["closed=%s" % ",".join(cs) if cs or rng.random() < 0.5 else "",
                  "in=%s" % ",".join(os_) if os_ or rng.random() < 0.5 else "",
                  "out=%s" % rng.choice(opens), "coeff=%s" % rng.choice(COEFFS)]
        lines.append("mu %d %d %s" % (k, d, " ".join(f for f in fields if f)))
    return lines


# -- mutations -----------------------------------------------------------


def _names(lines):
    """Every name a line declares or uses, and a few that none does."""
    out = {"zz", "g9", "x9", "o9", "X9", "M", "a"}
    for ln in lines:
        for token in ln.split()[1:]:
            value = token.partition("=")[2] if "=" in token else token
            out.update(n for n in value.split(",") if n)
    return sorted(out)


def _same_source(gens):
    """name -> the other generators that start where it starts."""
    return {g: [h for h in sorted(gens) if h != g and gens[h][0] == gens[g][0]] for g in gens}


# Each mutation with its weight: the ones that keep a line well formed
# come more often, so that the checks made when entries are stored are
# reached as well as those made line by line.
MUTATIONS = {"drop token": 1, "copy token": 1, "swap tokens": 1, "rename": 4,
             "reorder fields": 3, "break chain": 4, "bad coeff": 2, "noise": 2,
             "comment out": 1, "indent": 1, "drop line": 2, "copy line": 3, "swap lines": 2}


def _mutate(rng, lines, names, same_source):
    lines = list(lines)
    for _ in range(rng.choice([1, 1, 2, 3])):
        if not lines:
            lines.append(rng.choice(NOISE))
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        op, = rng.choices(list(MUTATIONS), list(MUTATIONS.values()))
        if op == "drop line":
            del lines[i]
        elif op == "copy line":
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == "swap lines":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "noise":
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(NOISE))
        elif op == "comment out":
            lines[i] = rng.choice(["#", "# ", "#\t"]) + lines[i]
        elif op == "indent":
            lines[i] = rng.choice([" ", "\t", "  \t "]) + lines[i] + rng.choice(["", " ", "\t"])
        elif not tokens:
            continue
        else:
            j = rng.randrange(len(tokens))
            if op == "drop token":
                del tokens[j]
            elif op == "copy token":
                tokens.insert(j, tokens[j])
            elif op == "swap tokens":
                k = rng.randrange(len(tokens))
                tokens[j], tokens[k] = tokens[k], tokens[j]
            elif op == "rename":
                key, eq, value = tokens[j].partition("=")
                if eq and key in ("in", "closed"):
                    parts = value.split(",")
                    parts[rng.randrange(len(parts))] = rng.choice(names)
                    tokens[j] = "%s=%s" % (key, ",".join(parts))
                elif eq:
                    tokens[j] = "%s=%s" % (key, rng.choice(names))
                else:
                    tokens[j] = rng.choice(names)
            elif op == "reorder fields":
                at = [k for k, t in enumerate(tokens) if "=" in t]
                moved = [tokens[k] for k in at]
                rng.shuffle(moved)
                for k, t in zip(at, moved):
                    tokens[k] = t
            elif op == "break chain":
                # Swap an input other than the last for one with the same
                # source: the object path still holds, composing may not.
                at = [k for k, t in enumerate(tokens) if t.startswith("in=")]
                if at:
                    parts = tokens[at[0]][3:].split(",")
                    swappable = [k for k in range(len(parts) - 1) if same_source.get(parts[k])]
                    if swappable:
                        k = rng.choice(swappable)
                        parts[k] = rng.choice(same_source[parts[k]])
                        tokens[at[0]] = "in=" + ",".join(parts)
            elif op == "bad coeff":
                at = [k for k, t in enumerate(tokens) if t.startswith("coeff=")]
                if at:
                    tokens[at[0]] = "coeff=" + rng.choice(BAD_COEFFS)
            lines[i] = " ".join(tokens)
    ends = [rng.choice(BOUNDARIES) for _ in lines[1:]] + [rng.choice(["\n", "", "\n\n", "\r\n"])]
    return "".join(ln + end for ln, end in zip(lines, ends))


def _outcome(load, dump, text, *args):
    try:
        return "ok", dump(load(text, *args))
    except Exception as e:  # any exception, so that a crash of either shows
        return type(e).__name__, str(e)


# A sample of outcomes that the corpus must reach, so that it keeps
# exercising the checks and not just the happy path.
REACHED = {
    "category": ["unknown generator", "does not match inputs", "inputs not composable",
                 "object path", "bad Novikov", "lies in hom", "unknown output generator",
                 "duplicate generator", "needs known objects", "unknown line",
                 "expected key=value", "repeated field", "has no in= field",
                 "arity must be an integer"],
    "functor": ["unknown generator", "does not match inputs", "inputs not composable",
                "object map misses", "already mapped", "lies in hom", "bad Novikov",
                "unknown target object", "unknown source object", "F arity"],
    "linf": ["unknown basis element", "unknown output basis element", "bad Novikov",
             "duplicate basis element", "brackets need at least one input", "l arity"],
    "ocha": ["unknown closed basis element", "unknown open basis element", "unknown open output",
             "closed and", "bad Novikov", "identically zero", "duplicate open basis element",
             "unknown basis element"],
}


def _corpus(fmt, rng):
    """(base lines, names to rename to, same_source, and the text of the
    category that a functor map goes from and to, else None) for one
    file."""
    if fmt == "category":
        if rng.random() < 0.3:
            text = _bundled(rng.choice(["exterior.cat", "weakly.cat"]))
            lines = text.splitlines()
            gens = {t[3]: (t[1], t[2]) for t in map(str.split, lines) if t[0] == "gen"}
        else:
            lines, gens = _random_category(rng)
        return lines, _names(lines), _same_source(gens), None
    if fmt == "functor":
        cat_lines, gens = _random_category(rng)
        lines = _random_functor(rng, gens)
        # The map's source and target: the category without its mu lines.
        source = "".join(ln + "\n" for ln in cat_lines if not ln.startswith("mu "))
        return lines, _names(lines), _same_source(gens), source
    lines = _random_linf(rng) if fmt == "linf" else _random_ocha(rng)
    return lines, _names(lines), {}, None


LOADERS = {
    "category": (load_category, oracles.load_category_oracle, dump_category),
    "linf": (load_linf, oracles.load_linf_oracle, dump_linf),
    "ocha": (load_ocha, oracles.load_ocha_oracle, dump_ocha),
    "functor": (load_functor, oracles.load_functor_oracle, dump_functor),
}


@pytest.mark.parametrize("fmt", sorted(LOADERS))
def test_loaders_end_as_the_generic_reader_ends(fmt):
    load, reference, dump = LOADERS[fmt]
    rng = random.Random("line reader:%s" % fmt)
    seen = set()
    for n in range(FILES_PER_FORMAT):
        lines, names, same_source, source_text = _corpus(fmt, rng)
        text = _mutate(rng, lines, names, same_source)
        args = ()
        if source_text is not None:
            source = load_category(source_text)
            args = (source, source)
        got = _outcome(load, dump, text, *args)
        assert got == _outcome(reference, dump, text, *args), (n, text)
        seen.add(re.sub(r"^line \d+: ", "", got[1]) if got[0] != "ok" else "ok")
    assert "ok" in seen
    for fragment in REACHED[fmt]:
        assert any(fragment in outcome for outcome in seen), fragment
