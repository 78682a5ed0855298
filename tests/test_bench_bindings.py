"""The benchmark's tracer must find every package name it wraps.

``bench/tracer.py`` rebinds named functions and methods of the package; a
name it wraps that the package no longer has would otherwise surface only
as a failed traced benchmark run.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import orbitdensity
from orbitdensity import cli, densities, dyadic, scalars, shift, vector

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_loaded_package(params):
    modules = dict(cli=cli, densities=densities, dyadic=dyadic, scalars=scalars,
                   shift=shift, vector=vector)
    pkg = SimpleNamespace(modules=(orbitdensity, *modules.values()), **modules)
    originals = (dyadic.in_site_set, vector.SeriesOracle.value,
                 vars(scalars.GaussianRational)["__add__"])
    tracer = load_tracer().Tracer()
    try:
        tracer.install(pkg)
        assert vector.in_site_set(params, 1, 40)
        assert dyadic.count_sites(params, 1, 64) == 1
    finally:
        tracer.uninstall()
    assert tracer.counts["dyadic.in_site_set.calls"] == 1
    assert tracer.counts["dyadic.count_sites.calls"] == 1
    assert (dyadic.in_site_set, vector.SeriesOracle.value,
            vars(scalars.GaussianRational)["__add__"]) == originals
