"""Mutant catalogue: each row plants one fault in one package function and
runs the command line in process; the run must exit as the row says.

A row is (mutant, the name it replaces, argv, expected exit).  The mutant is
rebound in every package module that binds the original name, since
``from .dyadic import ...`` copies the binding.  A failing check is data, so
no row may end in an ``error:`` line.
"""

from pathlib import Path

import pytest

import orbitdensity
from orbitdensity import cli, densities, dyadic, scalars, shift, vector

MODULES = (orbitdensity, cli, densities, dyadic, scalars, shift, vector)
RUN_CFG = str(Path(__file__).resolve().parent.parent / "run.cfg")


def count_sites_plus_one(count_sites):
    """One site too many at level 1 and horizon 2^23."""
    return lambda params, level, horizon: count_sites(params, level, horizon) + (
        level == 1 and horizon == 2 ** 23)


def strip_sites_halved_at_level6(strip_sites):
    """Every other level-6 site kept, with the step doubled."""
    def mutant(params, level, scale):
        sites = strip_sites(params, level, scale)
        return sites[::2] if level == 6 else sites
    return mutant


def site_window_drops_last(site_window):
    """Each nonempty window loses its last site."""
    def mutant(p, level, scale):
        lo, hi = site_window(p, level, scale)
        return (lo, hi - (2 << level + p)) if hi else (lo, hi)
    return mutant


ROWS = [
    (count_sites_plus_one, "count_sites", ["verify", "--config", RUN_CFG], 1),
    (strip_sites_halved_at_level6, "strip_sites",
     ["all", "--config", RUN_CFG, "--family", "enumerated"], 1),
    pytest.param(strip_sites_halved_at_level6, "strip_sites",
                 ["all", "--d", "62", "--family", "enumerated"], 1,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 1: at d = 62 no check that `all` runs holds "
                     "level 6's sites against a second route"))),
    (site_window_drops_last, "site_window", ["all", "--config", RUN_CFG], 1),
    (site_window_drops_last, "site_window",
     ["all", "--config", RUN_CFG, "--family", "enumerated"], 1),
    (site_window_drops_last, "site_window", ["all", "--d", "62"], 1),
    (site_window_drops_last, "site_window",
     ["all", "--d", "62", "--family", "enumerated"], 1),
]


def row_id(value):
    """A row's mutant by name and its argv without run.cfg's directory."""
    if callable(value):
        return value.__name__
    if isinstance(value, (list, tuple)):
        return " ".join(Path(arg).name for arg in value)
    return None


def plant(monkeypatch, mutant, name):
    original = getattr(dyadic, name)
    planted = mutant(original)
    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, planted)


def run(argv, tmp_path, capsys):
    code = cli.main([*argv, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert "error:" not in err, err
    return code, out


@pytest.mark.parametrize("mutant, name, argv, expected", ROWS, ids=row_id)
def test_mutant_exits(mutant, name, argv, expected, tmp_path, capsys, monkeypatch):
    plant(monkeypatch, mutant, name)
    assert run(argv, tmp_path, capsys)[0] == expected


@pytest.mark.parametrize("argv", sorted({tuple(getattr(row, "values", row)[2]) for row in ROWS}),
                         ids=row_id)
def test_unmutated_runs_pass(argv, tmp_path, capsys):
    # each row's exit comes from its mutant, not from the configuration
    assert run(argv, tmp_path, capsys)[0] == 0


def test_vector_reports_a_route_disagreement_as_a_failure(tmp_path, capsys, monkeypatch):
    # vector samples strip-route sites; the modular route rejecting one is a
    # failed approach check, not bad input
    plant(monkeypatch, site_window_drops_last, "site_window")
    code, out = run(["vector", "--d", "62"], tmp_path, capsys)
    assert code == 1 and "approach=FAIL" in out
