"""Seeded inputs for the `relations` and `tables` workloads, and the
stdout each command must print on them.

Everything here is written against the file formats and the report
formats of the workbench, never against its code: the expected outputs
come from the constructions themselves (a deformed exterior algebra is
associative, a Hochschild coboundary is a cocycle, an Euler derivation
commutes with its siblings, central brackets kill every insertion) and
from a small Z2 Novikov evaluator defined below.

A Z2 Novikov element is a frozenset of Fraction exponents; a table maps
an input tuple to {output name: element}.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

ZERO = frozenset()
ONE = frozenset((Fraction(0),))
HALF = Fraction(1, 2)


# -- Z2 Novikov arithmetic ------------------------------------------------


def n_mul(a, b):
    out = set()
    for x in a:
        for y in b:
            out ^= {x + y}
    return frozenset(out)


def n_text(a) -> str:
    if not a:
        return "0"
    return "+".join("T^%s" % e for e in sorted(a))


def one_plus_t_half_power(n: int):
    """(1 + T^{1/2})^n over Z2: T^{k/2} for every k with C(n, k) odd."""
    return frozenset(k * HALF for k in range(n + 1) if (n & k) == k)


def element_text(el: dict) -> str:
    if not el:
        return "0"
    return " + ".join("%s*(%s)" % (g, n_text(el[g])) for g in sorted(el))


def _accumulate(acc: dict, key, out: str, coeff):
    entry = acc.setdefault(key, {})
    new = entry.get(out, ZERO) ^ coeff
    if new:
        entry[out] = new
    else:
        entry.pop(out, None)
        if not entry:
            del acc[key]


def _random_novikov(rng, terms=2):
    """A nonzero element with `terms` distinct random exponents; a fixed
    term count keeps the cost of products the same from seed to seed."""
    return frozenset(Fraction(n, 2) for n in rng.sample(range(-12, 25), terms))


def defect(mu: dict, inputs) -> dict:
    """Z2 sum of the single insertions mu(.., mu(..), ..) over the
    inputs: the A-infinity relation evaluated literally."""
    d = len(inputs)
    total = {}
    for m in range(1, d + 1):
        for n in range(0, d - m + 1):
            for g, c in mu.get(inputs[n:n + m], {}).items():
                for h, c2 in mu.get(inputs[:n] + (g,) + inputs[n + m:], {}).items():
                    v = total.get(h, ZERO) ^ n_mul(c, c2)
                    if v:
                        total[h] = v
                    else:
                        total.pop(h, None)
    return total


def _shift_report(table: dict, source_level, target_level):
    """Largest gap per arity, as `functor` and `measure` print it: the
    action of the output minus the levels of the inputs."""
    raw = {}
    for inputs, out in table.items():
        a_out = max(-min(c) + target_level[g] for g, c in out.items())
        gap = a_out - sum(source_level[g] for g in inputs)
        d = len(inputs)
        if d not in raw or gap > raw[d]:
            raw[d] = gap
    return raw


# -- exterior algebras ----------------------------------------------------


class Exterior:
    """The deformed exterior algebra on n variables over Z2 Novikov:
    x_S x_T = (1 + T^{1/2})^{|S||T|} x_{S u T} for disjoint S, T and 0
    otherwise.  |S||T| is a symmetric bilinear form, hence a 2-cocycle,
    so the product is associative, and it is commutative over Z2.  The
    seed permutes the variable names and draws the generator levels."""

    def __init__(self, rng, n: int, obj: str = "M"):
        self.obj = obj
        self.n = n
        labels = rng.sample(range(1, n + 1), n)
        self.subsets = [frozenset(s) for k in range(n + 1)
                        for s in itertools.combinations(range(n), k)]
        self.name = {}
        for s in self.subsets:
            self.name[s] = "u" if not s else "x" + "".join(sorted(str(labels[i]) for i in s))
        self.unit = self.name[frozenset()]
        self.top = self.name[frozenset(range(n))]
        self.level = {self.name[s]: Fraction(rng.randint(-8, 8), 4) for s in self.subsets}
        self.mu = {}
        for s in self.subsets:
            for t in self.subsets:
                if not s & t:
                    self.mu[(self.name[s], self.name[t])] = {
                        self.name[s | t]: one_plus_t_half_power(len(s) * len(t))}

    @property
    def gens(self):
        return sorted(self.name.values())

    def product(self, a: dict, b: dict) -> dict:
        """Bilinear extension of the product to elements."""
        out = {}
        for g, c in a.items():
            for h, c2 in b.items():
                for k, c3 in self.mu.get((g, h), {}).items():
                    out[k] = out.get(k, ZERO) ^ n_mul(n_mul(c, c2), c3)
        return {k: v for k, v in out.items() if v}

    def category_lines(self):
        lines = ["object %s" % self.obj]
        for g in self.gens:
            lines.append("gen %s %s %s level=%s ham=0" % (self.obj, self.obj, g, self.level[g]))
        for (a, b), out in self.mu.items():
            for o, c in out.items():
                lines.append("mu 2 %s %s %s in=%s,%s out=%s coeff=%s"
                             % (self.obj, self.obj, self.obj, a, b, o, n_text(c)))
        return lines


def _text(lines, rng) -> str:
    """Object and generator lines first, every other line shuffled."""
    head, body = [], []
    for ln in lines:
        (head if ln.split()[0] in ("object", "gen", "obj", "closed", "open", "basis") else body).append(ln)
    rng.shuffle(body)
    return "\n".join(head + body) + "\n"


# -- relations workload ---------------------------------------------------


def _planted(ext: Exterior, rng):
    """One mu3 entry on non-unit inputs; returns (entry, first witness,
    its defect).  A violating 4-tuple must contain the planted inputs as
    a block or merge two neighbours into one of them, so only those
    candidates are evaluated, and the first in scan order wins.  Shorter
    tuples have zero defect: mu1 = 0 and the product is associative."""
    non_unit = [g for g in ext.gens if g != ext.unit]
    first = non_unit[0]
    head = non_unit[len(non_unit) // 2]
    while True:
        p = (head,) + tuple(rng.choice(non_unit) for _ in range(2))
        q = rng.choice(ext.gens)
        mu = dict(ext.mu)
        mu[p] = {q: _random_novikov(rng)}
        cands = set()
        for g in ext.gens:
            cands.add(p + (g,))
            cands.add((g,) + p)
        for n in range(3):
            for (a, b), out in ext.mu.items():
                if p[n] in out:
                    cands.add(p[:n] + (a, b) + p[n + 1:])
        hits = sorted(w for w in cands if defect(mu, w))
        # Keep the witness at one place in the scan order, so the scan
        # costs the same at every seed.
        if hits and hits[0][:2] == (first, head):
            return (p, q, mu[p][q]), hits[0], defect(mu, hits[0])


def _functor_lines(ext: Exterior, rng):
    """Identity plus F2 = dh and F3 = dg, where h and g take values in
    Novikov multiples of the top class.  d is the Hochschild
    differential, so dF2 = dF3 = 0; top * top = 0 kills F2 * F2; the
    functor equation holds through arity 4.  Returns the map lines and
    the component table."""
    gens = ext.gens
    top = ext.top
    # h on every generator and g on every pair of the unit and the
    # variables: the seed draws coefficients, not which entries exist,
    # so the table has the same shape at every seed.
    h = {g: {top: _random_novikov(rng)} for g in gens}
    low = [ext.unit] + [ext.name[frozenset((i,))] for i in range(ext.n)]
    g2 = {(a, b): {top: _random_novikov(rng)} for a in low for b in low}

    def basis(x):
        return {x: ONE}

    def add(*els):
        out = {}
        for el in els:
            for k, c in el.items():
                out[k] = out.get(k, ZERO) ^ c
        return {k: v for k, v in out.items() if v}

    def through(f, el, key):
        """Novikov-linear extension of f in the slot that key fills."""
        return add(*({k: n_mul(c, c2) for k, c2 in f.get(key(g), {}).items()} for g, c in el.items()))

    table = {(g,): {g: ONE} for g in gens}
    for a in gens:
        for b in gens:
            ab = ext.product(basis(a), basis(b))
            f2 = add(ext.product(h.get(a, {}), basis(b)),
                     ext.product(basis(a), h.get(b, {})),
                     through(h, ab, lambda x: x))
            if f2:
                table[(a, b)] = f2
            for c in gens:
                bc = ext.product(basis(b), basis(c))
                f3 = add(ext.product(g2.get((a, b), {}), basis(c)),
                         ext.product(basis(a), g2.get((b, c), {})),
                         through(g2, ab, lambda x: (x, c)),
                         through(g2, bc, lambda x: (a, x)))
                if f3:
                    table[(a, b, c)] = f3
    o = ext.obj
    lines = ["obj %s %s" % (o, o)]
    for inputs, out in table.items():
        for k, c in out.items():
            lines.append("F %d %s in=%s out=%s coeff=%s"
                         % (len(inputs), " ".join([o] * (len(inputs) + 1)), ",".join(inputs), k, n_text(c)))
    return lines, table


def _shift_text(raw: dict) -> str:
    rho = Fraction(0)
    for d, v in raw.items():
        rho = max(rho, Fraction(v, d))
    return "".join("raw.%d=%s\n" % (d, raw[d]) for d in sorted(raw)) + "rho_star=%s\n" % rho


def _ocha_lines(ext: Exterior, rng):
    """Open sector: the exterior algebra as mu_{0,2}.  Each closed c_j
    gets mu_{1,0}(c_j) = a_j u and mu_{1,1}(c_j; x_S) = (sum over i in S
    of l_{j,i}) x_S, an Euler derivation; the l_{j,i} are distinct
    monomials, so no sum cancels.  u is central and killed by
    every derivation, the derivations are diagonal and commute, and
    mu3 = 0, so every open-closed relation holds."""
    lines = ["closed c1", "closed c2"] + ["open %s" % g for g in ext.gens]
    for a, b in ext.mu:
        for o, c in ext.mu[(a, b)].items():
            lines.append("mu 0 2 closed= in=%s,%s out=%s coeff=%s" % (a, b, o, n_text(c)))
    for j in ("c1", "c2"):
        lines.append("mu 1 0 closed=%s in= out=%s coeff=%s" % (j, ext.unit, n_text(_random_novikov(rng))))
        weights = [frozenset((Fraction(e, 2),)) for e in rng.sample(range(-12, 25), ext.n)]
        for s, name in ext.name.items():
            lam = ZERO
            for i in s:
                lam ^= weights[i]
            if lam:
                lines.append("mu 1 1 closed=%s in=%s out=%s coeff=%s" % (j, name, name, n_text(lam)))
    return lines


def _heisenberg_lines(rng, n: int):
    """x1..xn, y1..yn and central z1, z2; random l2 and l3 on the
    non-central elements with central values.  Every insertion then
    feeds a central element into a bracket, which is zero."""
    noncentral = ["x%d" % i for i in range(1, n + 1)] + ["y%d" % i for i in range(1, n + 1)]
    central = ["z1", "z2"]
    lines = ["basis %s" % b for b in noncentral + central]
    for arity, share in ((2, 2), (3, 7)):
        keys = list(itertools.combinations_with_replacement(noncentral, arity))
        for key in sorted(rng.sample(keys, len(keys) // share)):
            z = rng.choice(central)
            lines.append("l %d in=%s out=%s coeff=%s" % (arity, ",".join(key), z, n_text(_random_novikov(rng))))
    return lines


def relations_inputs(seed: int):
    """Files and (argv, exit code, stdout) for the relations workload."""
    rng = random.Random("relations:%d" % seed)
    ext4 = Exterior(rng, 4)
    (p, q, c), witness, wdefect = _planted(ext4, rng)
    ext3 = Exterior(rng, 3)
    fun_lines, fun_table = _functor_lines(ext3, rng)
    files = {
        "ext4.cat": _text(ext4.category_lines(), rng),
        "ext4_planted.cat": _text(
            ext4.category_lines()
            + ["mu 3 M M M M in=%s out=%s coeff=%s" % (",".join(p), q, n_text(c))], rng),
        "ext3.cat": _text(ext3.category_lines(), rng),
        "ext3_functor.map": _text(fun_lines, rng),
        "ocha.txt": _text(_ocha_lines(ext3, rng), rng),
        "heisenberg.txt": _text(_heisenberg_lines(rng, 5), rng),
    }
    raw = _shift_report(fun_table, ext3.level, ext3.level)
    commands = [
        (["check-ainf", "ext4.cat", "--max-d", "4"], 0, "ainf=pass\nmax_d=4\n"),
        (["check-ainf", "ext4_planted.cat", "--max-d", "4"], 1,
         "ainf=fail\nwitness=(%s)\ndefect=%s\n" % (",".join(witness), element_text(wdefect))),
        (["functor", "--source", "ext3.cat", "--target", "ext3.cat", "--map", "ext3_functor.map",
          "--max-d", "4"], 0, _shift_text(raw) + "equation=pass\nmax_d=4\n"),
        (["check-ocha", "ocha.txt", "--max-closed", "2", "--max-open", "4"], 0,
         "ocha=pass\nmax_closed=2\nmax_open=4\n"),
        (["check-linf", "heisenberg.txt", "--max-n", "4"], 0, "linf=pass\nmax_n=4\n"),
    ]
    return files, commands


# -- tables workload ------------------------------------------------------


def _coeff_text(rng, c) -> str:
    """Canonical text mostly; sometimes braces or a bare 1, which the
    format also accepts."""
    terms = []
    for e in sorted(c):
        r = rng.random()
        if e == 0 and r < 0.3:
            terms.append("1")
        elif r < 0.1:
            terms.append("T^{%s}" % e)
        else:
            terms.append("T^%s" % e)
    return "+".join(terms)


def tables_inputs(seed: int, n_objects=8, n_gens=400, n_lines=10000):
    """A random filtered category and a 400-component map on it."""
    rng = random.Random("tables:%d" % seed)
    objects = ["O%d" % i for i in range(n_objects)]
    gens = {}
    for i in range(n_gens):
        src = objects[i] if i < n_objects else rng.choice(objects)
        tgt = src if i < n_objects else rng.choice(objects)
        gens["g%d" % i] = (src, tgt, Fraction(rng.randint(-40, 40), rng.randint(1, 8)),
                           Fraction(rng.randint(-4, 4), 2))
    level = {g: v[2] for g, v in gens.items()}
    by_source = {}
    by_hom = {}
    for g in sorted(gens):
        src, tgt = gens[g][:2]
        by_source.setdefault(src, []).append(g)
        by_hom.setdefault((src, tgt), []).append(g)
    names = sorted(gens)

    mu_lines = []
    table = {}
    while len(mu_lines) < n_lines:
        d = rng.choice((1, 2, 2, 3, 3, 4))
        chain = [rng.choice(names)]
        while len(chain) < d:
            chain.append(rng.choice(by_source[gens[chain[-1]][1]]))
        src, tgt = gens[chain[0]][0], gens[chain[-1]][1]
        if (src, tgt) not in by_hom:
            continue
        out = rng.choice(by_hom[(src, tgt)])
        exps = set()
        for _ in range(rng.randint(1, 4)):
            exps.add(Fraction(rng.randint(-12, 24), rng.choice((1, 2, 3, 4, 6))))
        coeff = frozenset(exps)
        objs = [gens[g][0] for g in chain] + [tgt]
        line = "mu %d %s in=%s out=%s coeff=%s" % (d, " ".join(objs), ",".join(chain), out,
                                                   _coeff_text(rng, coeff))
        copies = 2 if rng.random() < 0.06 else 1
        for _ in range(copies):
            mu_lines.append(line)
            _accumulate(table, tuple(chain), out, coeff)
    cat_lines = ["object %s" % o for o in objects]
    cat_lines += ["gen %s %s %s level=%s ham=%s" % (v[0], v[1], g, v[2], v[3]) for g, v in gens.items()]

    endos = [g for g in names if gens[g][0] == gens[g][1]]
    unit = rng.choice(endos)
    obj = gens[unit][0]

    fmap = {}
    map_lines = ["obj %s %s" % (o, o) for o in objects]
    for g in names:
        src, tgt = gens[g][:2]
        out = {g: ONE}
        other = rng.choice(by_hom[(src, tgt)])
        if other != g and rng.random() < 0.5:
            out[other] = _random_novikov(rng)
        fmap[(g,)] = out
        for k, c in out.items():
            map_lines.append("F 1 %s %s in=%s out=%s coeff=%s" % (src, tgt, g, k, n_text(c)))

    files = {"cat.txt": _text(cat_lines + mu_lines, rng), "map.txt": _text(map_lines, rng)}

    raw = _shift_report(table, level, level)
    eps = {d: max(Fraction(0), v) for d, v in raw.items()}
    filtered = all(v <= 0 for v in raw.values()) and level[unit] <= 0
    measure_out = "".join("raw.%d=%s\n" % (d, raw[d]) for d in sorted(raw))
    measure_out += "".join("eps.%d=%s\n" % (d, eps[d]) for d in sorted(eps))
    measure_out += "unit.%s=%s\nfiltered=%s\n" % (obj, level[unit], "yes" if filtered else "no")

    unit_out, unit_code = _unit_report(table, gens, obj, unit)
    ainf_out, ainf_code = _first_violation(table, names, by_source, gens, 2)
    return files, [
        (["measure", "cat.txt", "--unit", "%s:%s" % (obj, unit)], 0, measure_out),
        (["unit", "cat.txt", "--object", obj, "--unit", unit], unit_code, unit_out),
        (["check-ainf", "cat.txt", "--max-d", "2"], ainf_code, ainf_out),
        (["functor", "--source", "cat.txt", "--target", "cat.txt", "--map", "map.txt", "--no-check"], 0,
         _shift_text(_shift_report(fmap, level, level))),
    ]


def _unit_report(table, gens, obj, unit):
    """Strict unit violations in the documented order: mu2(u, g) and
    mu2(g, u) per generator by name, then every higher entry holding u."""
    found = []
    for g in sorted(gens):
        src, tgt = gens[g][:2]
        if src == obj:
            got = table.get((unit, g), {})
            if got != {g: ONE}:
                found.append((2, 1, (unit, g), got, {g: ONE}))
        if tgt == obj:
            got = table.get((g, unit), {})
            if got != {g: ONE}:
                found.append((2, 2, (g, unit), got, {g: ONE}))
    for key in sorted(table):
        if len(key) >= 3 and unit in key:
            found.append((len(key), key.index(unit) + 1, key, table[key], {}))
    if not found:
        return "unit=pass\n", 0
    d, slot, inputs, got, want = found[0]
    return ("unit=fail\nviolation=d=%d slot=%d inputs=(%s)\nfound=%s\nexpected=%s\nviolations=%d\n"
            % (d, slot, ",".join(inputs), element_text(got), element_text(want), len(found))), 1


def _first_violation(table, names, by_source, gens, max_d):
    for d in range(1, max_d + 1):
        def extend(chain):
            if len(chain) == d:
                yield chain
                return
            for g in by_source.get(gens[chain[-1]][1], ()):
                yield from extend(chain + (g,))
        for g in names:
            for inputs in extend((g,)):
                hit = defect(table, inputs)
                if hit:
                    return "ainf=fail\nwitness=(%s)\ndefect=%s\n" % (",".join(inputs), element_text(hit)), 1
    return "ainf=pass\nmax_d=%d\n" % max_d, 0
