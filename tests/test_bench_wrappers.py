"""The benchmark's traced run wraps package functions by name.

``bench/tracing.py`` lists them in ``WRAPPED`` as (module, attribute, span
group) and looks each one up when it installs its spans, so a function
removed or renamed in the package makes the traced run raise.  This check
fails first, in the package's own suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_traced_function_resolves():
    wrapped = _wrapped()
    assert wrapped
    for modname, attr, _ in wrapped:
        target = importlib.import_module(f"omegabaire.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(target, cls_name)), (modname, attr)
        else:
            assert callable(getattr(target, attr, None)), (modname, attr)
    # the materialization counter wraps this property's getter
    automata = importlib.import_module("omegabaire.automata")
    assert isinstance(vars(automata.DMA)["acceptance"], property)
