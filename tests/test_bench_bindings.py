"""The benchmark must find every package name it reads.

``bench/tracer.py`` rebinds named functions and methods of the package, and
``bench/workloads.py`` reads ``RunConfig.tail_tol``; a name the package no
longer has would otherwise surface only as a failed benchmark run.
"""

import importlib.util
from dataclasses import fields
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


def test_tail_tol_is_not_a_config_field():
    # the benchmark's certify workload reads config.tail_tol; no key, env var
    # or flag sets it
    assert cli.RunConfig().tail_tol == 1e-12
    assert "tail_tol" not in {f.name for f in fields(cli.RunConfig)}
