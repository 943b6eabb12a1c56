"""The benchmark's tracer wraps phwc functions by name (bench/tracer.py,
BOUNDARIES); a rename in the package must fail here rather than in a traced
benchmark run."""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

import phwc
import phwc.cli  # noqa: F401  (the package does not import cli or catalog)

TRACER = pathlib.Path(__file__).parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("phwc_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name", [f"{layer}.{qual}"
                                  for layer, names in tracer.BOUNDARIES.items()
                                  for qual in names])
def test_boundary_resolves(name):
    layer, qual = name.split(".", 1)
    module = getattr(phwc, layer)
    if "." in qual:
        cls_name, meth = qual.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, qual))


def test_layers_and_skip_reasons_resolve():
    for layer in tracer.LAYERS:
        assert importlib.import_module(f"phwc.{layer}") is getattr(phwc, layer)
    for layer in tracer.WHOLE_LAYERS:
        module = getattr(phwc, layer)
        assert all(callable(getattr(module, n)) for n in module.__all__)
    for reason in tracer.SKIP_REASONS:
        assert issubclass(getattr(phwc.fstruct, reason), Exception)


def distinct_nodes(e, seen):
    if id(e) not in seen:
        seen.add(id(e))
        # nodes keep their children in slots
        for cls in type(e).__mro__:
            for name in vars(cls).get("__slots__", ()):
                child = getattr(e, name)
                if isinstance(child, phwc.jet.Expr):
                    distinct_nodes(child, seen)
    return seen


def test_node_counter_sees_each_distinct_node_once():
    rng = np.random.default_rng(5)
    psi = phwc.catalog.random_holomorphic_map(rng, 3, 1)
    comp = phwc.maps.compose(psi, phwc.catalog.immersion_r2_c3()).components[0]
    t = tracer.Tracer(phwc)
    t.install()
    try:
        t.op(lambda: phwc.jet.eval_jet2(comp, (0.3, -0.7)))
    finally:
        t.uninstall()
    counts = t.counts()
    assert counts["jet.eval_jet2.calls"] == 1
    assert counts["jet.node_evals"] == len(distinct_nodes(comp, set()))
    assert counts["jet.node_repeats"] == 0
