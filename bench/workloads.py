"""The three workloads: seeded inputs, the queries run on them, and checks.

``build(ob, seed, rounds, workdir)`` is the set-up: it generates every
round's inputs, turns them into the program's objects or OAF files, and
returns the query list.  A query's ``call`` runs one call into the
program; ``check(query, result)`` judges the result with ``check.py``
after the timed phase and returns ``None`` or a reason.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import sys
from fractions import Fraction

import gen
from graphs import cyclic_sccs

# The checkers are imported only after the timed phase, so that peak RSS
# is read before any checking code is loaded.
C = None


def load_checkers():
    global C
    import check

    C = check


class Query:
    __slots__ = ("kind", "call", "info")

    def __init__(self, kind: str, call, info):
        self.kind = kind
        self.call = call
        self.info = info


def _dma(ob, spec: gen.Spec):
    return ob.DMA.from_parts(ob.Alphabet(spec.symbols), spec.n_states, spec.initial,
                             spec.rows, spec.family)


# ---------------------------------------------------------------------------
# measure-solve


MEASURE_SCHEDULE = [(n, k, skewed, fn)
                    for n in (20, 24, 28, 32, 36, 40)
                    for k in (2, 3)
                    for skewed in (False, True)
                    for fn in ("mu", "acceptance_probabilities")]


def build_measure(ob, seed: int, rounds: int, workdir: str) -> list[Query]:
    queries = []
    for rnd in range(rounds):
        rng = gen.round_rng("measure-solve", seed, rnd)
        batch = []
        for n, k, skewed, fn in MEASURE_SCHEDULE:
            spec = gen.transient_dma(rng, n, k)
            weights = gen.SKEWED[k] if skewed else None
            a = _dma(ob, spec)
            batch.append(Query(fn, lambda fn=fn, a=a, w=weights: getattr(ob, fn)(a, w),
                               (spec, weights)))
        rng.shuffle(batch)
        queries.extend(batch)
    return queries


def check_measure(q: Query, result, rng) -> str | None:
    spec, weights = q.info
    if q.kind == "mu":
        return C.check_measure(spec, weights, result)
    return C.check_probability_vector(spec, weights, result)


# ---------------------------------------------------------------------------
# topology-search

X, Y, Z = ("atom", 0), ("atom", 1), ("atom", 2)
CHAIN = "chain"

# name -> (expression, (container, contained) for the contains query).
# Every chain has three factors of 4-5 states and a strongly connected
# product of up to 100 states.  The program's emptiness search enumerates
# subsets of projection labels and is exponential in general; these
# shapes only ever search for limit sets with two factors in their
# families and one outside, so the family members bound the enumeration.
# Even so its cost varies from input to input; small factors let a run
# hold some 400 chains, which keeps the run's total steady.  The factors
# are over two symbols: over three, most chains are easy and the hard
# ones' queries make up about the slowest tenth, so the 90th percentile
# sat on the edge between the two and moved by half from seed to seed
# (README.md).
SIZES = [(5, 5, 4), (5, 4, 5), (4, 5, 5)]
SHAPES = {
    "difference": (("inter", ("inter", X, Y), ("compl", Z)), (Z, CHAIN)),
    "complement-intersection-union": (("union", ("compl", ("inter", X, Y)), Z), (CHAIN, X)),
    "symdiff-nested": (("symdiff", ("inter", X, Y), ("inter", ("inter", X, Y), Z)),
                       (Z, CHAIN)),
}
TOPOLOGY_QUERIES = ("build", "accepting_witness", "contains", "is_meager", "is_dense",
                    "is_nowhere_dense", "closure", "interior")


def _build_chain(ob, expr, factors):
    op = expr[0]
    if op == "atom":
        return factors[expr[1]]
    if op == "compl":
        return ob.complement(_build_chain(ob, expr[1], factors))
    fn = {"union": ob.union, "inter": ob.intersection, "symdiff": ob.symdiff}[op]
    return fn(_build_chain(ob, expr[1], factors), _build_chain(ob, expr[2], factors))


def build_topology(ob, seed: int, rounds: int, workdir: str) -> list[Query]:
    queries = []
    for rnd in range(rounds):
        rng = gen.round_rng("topology-search", seed, rnd)
        chains = [(shape, expr, gen.sc_factors(rng, sizes), pair)
                  for shape, (expr, pair) in SHAPES.items() for sizes in SIZES]
        rng.shuffle(chains)
        for shape, expr, specs, pair in chains:
            queries.extend(_chain_queries(ob, shape, expr, specs, pair))
    return queries


def _chain_queries(ob, shape, expr, specs, pair) -> list[Query]:
    factors = [_dma(ob, s) for s in specs]
    held = {}

    def build():
        held[CHAIN] = _build_chain(ob, expr, factors)
        return held[CHAIN]

    def operand(x):
        return held[CHAIN] if x == CHAIN else factors[x[1]]

    calls = {
        "build": build,
        "accepting_witness": lambda: ob.accepting_witness(held[CHAIN]),
        "contains": lambda: ob.contains(operand(pair[0]), operand(pair[1])),
        "is_meager": lambda: ob.is_meager(held[CHAIN]),
        "is_dense": lambda: ob.is_dense(held[CHAIN]),
        "is_nowhere_dense": lambda: ob.is_nowhere_dense(held[CHAIN]),
        "closure": lambda: ob.closure(held[CHAIN]),
        "interior": lambda: ob.interior(held[CHAIN]),
    }
    info = {"shape": shape, "expr": expr, "specs": specs, "pair": pair}
    return [Query(kind, calls[kind], info) for kind in TOPOLOGY_QUERIES]


def _product(info):
    # one product per chain, shared by the chain's checks
    if "product" not in info:
        info["product"] = C.Product(info["expr"], info["specs"])
    return info["product"]


def check_topology(q: Query, result, rng) -> str | None:
    info = q.info
    expr, specs = info["expr"], info["specs"]
    P = _product(info)
    kind = q.kind
    if kind == "build":
        for u, v in C.sample_words(rng, P.symbols, 12):
            got = C.cond_accepts(result, u, v)
            if got != C.expr_accepts(expr, specs, u, v):
                return f"chain automaton misjudges {u}({v})^w"
        return None
    if kind == "accepting_witness":
        return C.check_witness(expr, specs, None if result is None else str(result), P)
    if kind == "contains":
        big, small = (expr if x == CHAIN else x for x in info["pair"])
        return C.check_contains(big, small, specs, result)
    if kind == "is_meager":
        return C.check_meager(P, result)
    if kind == "is_dense":
        return C.check_dense(P, result)
    if kind == "is_nowhere_dense":
        return C.check_nowhere_dense(P, result)
    words = C.sample_words(rng, P.symbols, 12)
    member = [C.expr_accepts(expr, specs, u, v) for u, v in words]
    if kind == "closure":
        got = [C.cond_accepts(result, u, v) for u, v in words]
        return C.check_closure(P, words, member, got)
    if kind == "interior":
        ospec = gen.OpenSpec("".join(result.alphabet.symbols), result.transitions,
                             result.initial, result.finals)
        got = [C.open_accepts(ospec, u, v) for u, v in words]
        return C.check_interior(P, words, member, got)
    return f"unknown query kind {kind!r}"


# ---------------------------------------------------------------------------
# cli-witness


class CliFailure(RuntimeError):
    """A CLI call that exited with a non-zero status."""


def run_cli(ob_cli, argv: list[str]) -> tuple[str, str]:
    """One in-process CLI call: (stdout, stderr); raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ob_cli.main(argv)
    if code != 0:
        raise CliFailure(f"exit {code} from {' '.join(argv[:2])}: {err.getvalue().strip()}")
    return out.getvalue(), err.getvalue()


def build_cli(ob, seed: int, rounds: int, workdir: str) -> list[Query]:
    ob_cli = importlib.import_module(ob.__name__ + ".cli")
    queries = []

    def write(name: str, text: str) -> str:
        # Overwrite in place and cut to length, rather than truncate to
        # zero first: on ext4, a file truncated to zero and rewritten is
        # flushed to disk when closed, which made set-up time disk time.
        path = os.path.join(workdir, name)
        data = text.encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
        return path

    def add(kind: str, argv: list[str], info):
        queries.append(Query(kind, lambda: run_cli(ob_cli, argv), dict(info, argv=argv)))

    for rnd in range(rounds):
        rng = gen.round_rng("cli-witness", seed, rnd)
        tag = f"r{rnd}"
        for i, n in enumerate((4, 6)):
            spec = gen.transient_dma(rng, n, 2, inner_members=1)
            f = write(f"{tag}-abp{i}.oaf", gen.dma_text(spec))
            e, fp = (os.path.join(workdir, f"{tag}-abp{i}-{x}.oaf") for x in ("e", "fp"))
            add("abp-synth", ["abp", "synth", f, "--out-e", e, "--out-fprime", fp],
                {"spec": spec, "e": e, "fp": fp})
            add("abp-verify", ["abp", "verify", f, e, fp], {})
        for i, (n, k) in enumerate(((6, 2), (9, 3))):
            spec = gen.transient_dma(rng, n, k, inner_members=2)
            f = write(f"{tag}-top{i}.oaf", gen.dma_text(spec))
            add("closure", ["closure", f], {"spec": spec})
            add("interior", ["interior", f], {"spec": spec})
        ops = [gen.sc_dma(rng, n, 2, members=3) for n in (3, 4, 3, 6)]
        op_paths = [write(f"{tag}-op{j}.oaf", gen.dma_text(s)) for j, s in enumerate(ops)]
        for mode, i, j in (("union", 0, 1), ("intersection", 1, 2), ("symdiff", 2, 0)):
            add("boolean", ["boolean", mode, op_paths[i], op_paths[j]],
                {"specs": [ops[i], ops[j]],
                 "expr": ({"intersection": "inter"}.get(mode, mode), X, Y)})
        add("boolean", ["boolean", "complement", op_paths[3]],
            {"specs": [ops[3]], "expr": ("compl", X)})
        # one batch of files for every multi-file command; the declared
        # measure lines apply unless --measure overrides them
        batch = [(gen.transient_dma(rng, 6, 2), True), (gen.transient_dma(rng, 9, 2), False),
                 (gen.transient_dma(rng, 12, 3), True), (gen.sc_dma(rng, 7, 3), False),
                 (_without_limit_sets(rng, gen.sc_dma(rng, 7, 2)), False)]
        specs = [s for s, _ in batch]
        declared = [gen.SKEWED[len(s.symbols)] if skewed else None for s, skewed in batch]
        paths = [write(f"{tag}-batch{j}.oaf", gen.dma_text(s, w))
                 for j, (s, w) in enumerate(zip(specs, declared))]
        add("measure", ["measure"] + paths, {"specs": specs, "weights": declared})
        add("measure", ["measure"] + paths + ["--measure", "uniform"],
            {"specs": specs, "weights": [None] * len(specs)})
        add("meager", ["meager"] + paths, {"specs": specs})
        add("empty", ["empty"] + paths, {"specs": specs})
        for i, (n, precision) in enumerate(((4, 16), (6, 64))):
            ospec = gen.open_set(rng, n)
            path = write(f"{tag}-refute{i}.oaf", gen.open_text(ospec))
            add("f1-refute", ["v3", "f1-refute", path, "--precision", str(precision)],
                {"open": ospec})
        for n in (40, 80):
            add("survival", ["v3", "survival", "-n", str(n)], {"n": n})
        for k, precision in ((2, 64), (3, 128), (5, 256)):
            add("root", ["v3", "root", "-k", str(k), "--precision", str(precision)],
                {"k": k, "precision": precision})
    return queries


def _without_limit_sets(rng: random.Random, spec: gen.Spec) -> gen.Spec:
    """The same graph with a family of sets no run can visit forever."""
    members = set()
    for _ in range(10):
        s = frozenset(rng.sample(range(spec.n_states), 2))
        if s not in cyclic_sccs(spec.rows, s):
            members.add(s)
    return gen.Spec(spec.symbols, spec.rows, spec.initial, frozenset(members))


def _file_lines(out: str, paths: list[str]) -> list[str] | None:
    lines = out.splitlines()
    if len(lines) != len(paths):
        return None
    values = []
    for line, path in zip(lines, paths):
        prefix = f"{path}: "
        if not line.startswith(prefix):
            return None
        values.append(line[len(prefix):])
    return values


def check_cli(q: Query, result, rng) -> str | None:
    out, err = result
    info = q.info
    kind = q.kind
    if kind == "abp-synth":
        if out != "ok\n":
            return f"unexpected output {out!r}"
        return _check_abp_files(info, rng)
    if kind == "abp-verify":
        return None if out == "true\n" else f"verify printed {out!r}"
    if kind in ("closure", "interior", "boolean"):
        try:
            again = run_cli(sys.modules["omegabaire.cli"], info["argv"])
        except CliFailure as exc:
            return f"running the command again failed: {exc}"
        if again != result:
            return "output differs when the command is run again"
        return _check_derived(kind, info, out, rng)
    if kind == "measure":
        paths = info["argv"][1:1 + len(info["specs"])]
        values = _file_lines(out, paths)
        if values is None:
            return f"unexpected output {out!r}"
        for value, spec, w in zip(values, info["specs"], info["weights"]):
            reason = C.check_measure(spec, w, Fraction(value))
            if reason:
                return reason
        return None
    if kind == "meager":
        values = _file_lines(out, info["argv"][1:])
        if values is None:
            return f"unexpected output {out!r}"
        for value, spec in zip(values, info["specs"]):
            reason = C.check_meager(C.Product(X, [spec]), value == "true")
            if reason:
                return reason
        return None
    if kind == "empty":
        values = _file_lines(out, info["argv"][1:])
        if values is None:
            return f"unexpected output {out!r}"
        for value, spec in zip(values, info["specs"]):
            word = None if value == "empty" else value.removeprefix("nonempty ")
            reason = C.check_witness(X, [spec], word, C.Product(X, [spec]))
            if reason:
                return reason
        return None
    if kind == "f1-refute":
        report = dict(line.split(": ", 1) for line in out.splitlines())
        return C.check_refutation(info["open"], report)
    if kind == "survival":
        return C.check_survival(info["n"], Fraction(out.strip()))
    if kind == "root":
        first = out.splitlines()[0]
        lo, hi = (Fraction(x) for x in first.strip("[]").split(","))
        return C.check_root(info["k"], info["precision"], lo, hi)
    return f"unknown query kind {kind!r}"


def _read_oaf(path: str):
    with open(path, encoding="utf-8") as fh:
        return C.parse_oaf_text(fh.read())


def _as_spec(parsed) -> gen.Spec:
    _, symbols, rows, initial, family = parsed
    return gen.Spec(symbols, rows, initial, family)


def _as_open(parsed) -> gen.OpenSpec:
    _, symbols, rows, initial, finals = parsed
    return gen.OpenSpec(symbols, rows, initial, finals)


def _check_abp_files(info, rng) -> str | None:
    """F delta E inside F' on samples, and F' meager on its own graph."""
    spec = info["spec"]
    e = _as_open(_read_oaf(info["e"]))
    fp = _as_spec(_read_oaf(info["fp"]))
    reason = C.check_meager(C.Product(X, [fp]), True)
    if reason:
        return "F' is not meager: " + reason
    for u, v in C.sample_words(rng, spec.symbols, 24):
        in_f = C.spec_accepts(spec, u, v)
        in_e = C.open_accepts(e, u, v)
        if in_f != in_e and not C.spec_accepts(fp, u, v):
            return f"{u}({v})^w lies in F delta E but not in F'"
    return None


def _check_derived(kind, info, out, rng) -> str | None:
    parsed = C.parse_oaf_text(out)
    if kind == "boolean":
        result = _as_spec(parsed)
        for u, v in C.sample_words(rng, result.symbols, 24):
            if C.spec_accepts(result, u, v) != C.expr_accepts(info["expr"], info["specs"], u, v):
                return f"boolean result misjudges {u}({v})^w"
        return None
    spec = info["spec"]
    P = C.Product(X, [spec])
    words = C.sample_words(rng, spec.symbols, 24)
    member = [C.spec_accepts(spec, u, v) for u, v in words]
    if kind == "closure":
        result = _as_spec(parsed)
        return C.check_closure(P, words, member, [C.spec_accepts(result, u, v) for u, v in words])
    result = _as_open(parsed)
    return C.check_interior(P, words, member, [C.open_accepts(result, u, v) for u, v in words])


WORKLOADS = {
    "measure-solve": (build_measure, check_measure),
    "topology-search": (build_topology, check_topology),
    "cli-witness": (build_cli, check_cli),
}
