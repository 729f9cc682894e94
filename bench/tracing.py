"""Traced mode: spans around the program's public functions.

The wrappers are installed from here, with no edit to the package: every
module of ``omegabaire`` that holds a reference to a wrapped function gets
the wrapper instead, so calls through ``from .automata import closure``
are seen too.  Each span records its name, start, end, parent span and
query index; spans stay in memory and are written out once at the end.
A layer's time is the self time of its spans (duration minus the time
covered by child spans).
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span group); a group's self time is reported as
# ``<group>_ms``.
WRAPPED = [
    ("cli", "main", "cli.self"),
    ("oaf", "parse_oaf", "oaf.parse"),
    ("oaf", "OafDocument.to_dma", "oaf.parse"),
    ("oaf", "OafDocument.to_open", "oaf.parse"),
    ("oaf", "from_dma", "oaf.serialize"),
    ("oaf", "from_open", "oaf.serialize"),
    ("oaf", "serialize_oaf", "oaf.serialize"),
    ("automata", "boolean_combine", "automata.product"),
    ("automata", "open_union", "automata.product"),
    ("automata", "accepting_witness", "automata.emptiness"),
    ("automata", "is_empty", "automata.emptiness"),
    ("automata", "containment_counterexample", "automata.emptiness"),
    ("automata", "closure", "automata.topology"),
    ("automata", "interior", "automata.topology"),
    ("automata", "pref_dfa", "automata.topology"),
    ("automata", "strongly_connected_components", "automata.scc"),
    ("conditions", "evaluate", "conditions.evaluate"),
    ("measure", "solve_linear_system", "measure.solve"),
    ("measure", "mu", "measure.markov"),
    ("measure", "acceptance_probabilities", "measure.markov"),
    ("measure", "measure_open", "measure.markov"),
    ("category", "is_meager", "category.decide"),
    ("category", "is_meager_via_measure", "category.decide"),
    ("category", "is_dense", "category.decide"),
    ("category", "is_nowhere_dense", "category.decide"),
    ("category", "contains_disjunctive", "category.decide"),
    ("category", "avoided_infix", "category.decide"),
    ("baire", "synthesize_abp_witness", "baire.synth"),
    ("baire", "verify_abp_witness", "baire.verify"),
    ("onecounter", "min_positive_root", "onecounter.root"),
    ("onecounter", "survival_probability", "onecounter.survival"),
    ("onecounter", "survival_sequence", "onecounter.survival"),
    ("onecounter", "f1_refute_open", "onecounter.refute"),
]
MATERIALIZE = "automata.materialize"
EMPTINESS = "automata.emptiness:"
GROUPS = sorted({g for _, _, g in WRAPPED} | {MATERIALIZE})

# per-layer metrics besides the ``<group>_ms`` times, with their units
COUNTERS = {
    "cli.invocations": "count",
    "oaf.bytes_in": "bytes",
    "oaf.bytes_out": "bytes",
    "automata.materialized_sets": "count",
    "automata.product_states": "states",
    "automata.emptiness_calls": "count",
    "automata.scc_calls": "count",
    "conditions.evaluate_calls": "count",
    "measure.solve_calls": "count",
    "measure.max_system_size": "states",
    "measure.system_cells": "cells",
    "measure.result_bits": "bits",
    "baire.witness_states": "states",
}


def _bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent, query]
        self.stack: list[int] = []
        self.query = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def _wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(args, result, rec)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, attr: str):
        c = self.counts
        names = self.names

        def cli_main(args, result, rec):
            c["cli.invocations"] += 1

        def parse(args, result, rec):
            c["oaf.bytes_in"] += len(args[0])

        def serialize(args, result, rec):
            c["oaf.bytes_out"] += len(result)

        def product(args, result, rec):
            if len(args) < 3 or args[2] != "complement":
                c["automata.product_states"] += result.n_states

        def empt(args, result, rec):
            parent = rec[3]
            if parent < 0 or not names[self.spans[parent][0]].startswith(EMPTINESS):
                c["automata.emptiness_calls"] += 1

        def scc(args, result, rec):
            c["automata.scc_calls"] += 1

        def evaluate(args, result, rec):
            c["conditions.evaluate_calls"] += 1

        def solve(args, result, rec):
            m = len(args[1])
            c["measure.solve_calls"] += 1
            c["measure.system_cells"] += m * m
            c["measure.max_system_size"] = max(c["measure.max_system_size"], m)

        def measure_value(args, result, rec):
            c["measure.result_bits"] += _bits(result)

        def synth(args, result, rec):
            c["baire.witness_states"] += result.e.n_states + result.fprime.n_states

        return {
            "main": cli_main, "parse_oaf": parse, "serialize_oaf": serialize,
            "boolean_combine": product, "open_union": product,
            "accepting_witness": empt, "is_empty": empt,
            "containment_counterexample": empt,
            "strongly_connected_components": scc, "evaluate": evaluate,
            "solve_linear_system": solve, "mu": measure_value,
            "measure_open": measure_value, "synthesize_abp_witness": synth,
        }.get(attr)

    # -- installation

    def install(self, package) -> None:
        """Wrap every function in ``WRAPPED`` wherever the package refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for modname, attr, group in WRAPPED:
            mod = sys.modules[f"{package.__name__}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(group + ":" + attr, orig, self._after(meth)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(group + ":" + attr, orig, self._after(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
        self._wrap_materialize(sys.modules[f"{package.__name__}.automata"].DMA)

    def _wrap_materialize(self, dma_cls) -> None:
        prop = dma_cls.__dict__["acceptance"]
        getter = prop.fget
        counts = self.counts

        def after(args, result, rec):
            counts["automata.materialized_sets"] += len(result)

        traced = self._wrap(MATERIALIZE + ":DMA.acceptance", getter, after)

        def acceptance(self_):
            if self_._family is None:
                return traced(self_)
            return self_._family

        self._set(dma_cls, "acceptance", property(acceptance, doc=prop.__doc__))

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                           else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Self time per group in ms, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        group_of = [n.split(":", 1)[0] for n in self.names]
        self_s = dict.fromkeys(GROUPS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[group_of[name]] += end - start - child[i]
        out = {f"{g}_ms": (self_s[g] * 1000.0, "ms") for g in GROUPS}
        for key, unit in COUNTERS.items():
            out[key] = (self.counts[key], unit)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent", "query"],
                       "spans": self.spans}, fh, separators=(",", ":"))
