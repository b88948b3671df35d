"""The names perfbench/tracing.py wraps must exist in the library.

The tracer patches the functions listed in its TARGETS and reads the
``start`` and ``stop`` arguments of ``kernels.first_fail`` by position, so
renaming a function or reordering those parameters would make a traced
benchmark run fail or count the wrong valuations.  The workloads in
perfbench/workloads.py also pass keywords to the library, and those must
keep being accepted.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import medlat.cli  # noqa: F401  (the tracer wraps functions of every target module)
from medlat import algebra, kernels
from medlat.algebra import bn
from medlat.errors import InputError
from medlat.logic import is_valid, parse
from medlat.poset import chain_poset

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves(tracing):
    for module, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"medlat.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"medlat.{module}.{name}"


def test_first_fail_counter_reads_start_and_stop(tracing):
    params = list(inspect.signature(kernels.first_fail).parameters)
    assert params[8:10] == ["start", "stop"]
    args = [None] * 8 + [10, 50]
    assert tracing.COUNTERS["kernels.first_fail"](args, 14) == 5
    assert tracing.COUNTERS["kernels.first_fail"](args, -1) == 40


def test_is_valid_takes_the_harness_keywords():
    """perfbench/workloads.py calls ``is_valid(formula, algebra, workers=1)``."""
    rep = is_valid(parse("p | ~p"), bn(2), workers=1)
    assert (rep.valid, rep.countermodel, rep.mode) == (False, {"p": 1}, "exhaustive")
    # The scan is single-threaded: another worker count is refused, not ignored.
    with pytest.raises(InputError, match="workers"):
        is_valid(parse("p | ~p"), bn(2), workers=2)


def test_open_sets_span_is_recorded(tracing):
    """from_poset enumerates its up-sets through poset.open_sets, so the
    per-layer ``poset.open_sets`` metrics count one call per algebra."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a = algebra.from_poset(chain_poset(3))
    finally:
        tracer.disable()
    spans = [s for s in tracer.spans if s[0] == "poset.open_sets"]
    assert len(spans) == 1 and spans[0][5] == a.size == 4
