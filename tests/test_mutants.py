"""Mutant catalogue: each row plants one fault in one package function and
runs the command line in process; the run must exit as the row says.

A row is (mutant, the name it replaces, argv, expected exit).  A function
mutant is rebound in every package module that binds the original name,
since ``from .dyadic import ...`` copies the binding; a ``Class.method``
mutant replaces the method on its class.  A failing check is data, so no
row may end in an ``error:`` line.
"""

from fractions import Fraction
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


def min_scale_plus_one(min_scale):
    """Each level's first scale one too high."""
    return lambda self, level: min_scale(self, level) + 1


def min_scale_minus_one(min_scale):
    """Each level's first scale one too low."""
    return lambda self, level: min_scale(self, level) - 1


def class2_limit_off(scale_mass_limit):
    """The class-2 limit L(2) off by 1/31."""
    return lambda residue: scale_mass_limit(residue) + (Fraction(1, 31) if residue == 2 else 0)


def hit_counts_drops_top_level(hit_counts):
    """The highest level with hits left out of the per-level counts."""
    def mutant(self):
        counts = hit_counts(self)
        del counts[max(level for level, hits in counts.items() if hits)]
        return counts
    return mutant


def separation_flag_flipped(density_experiment):
    """The experiment reports the opposite separation flag."""
    def mutant(av, schedule):
        experiment = density_experiment(av, schedule)
        return experiment._replace(separation_flag=not experiment.separation_flag)
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
    (min_scale_plus_one, "SeparationParams.min_scale", ["verify", "--config", RUN_CFG], 1),
    (min_scale_minus_one, "SeparationParams.min_scale", ["all", "--d", "62"], 1),
    (class2_limit_off, "scale_mass_limit", ["all", "--config", RUN_CFG], 1),
    # one-block has hits at level 1 alone, so its drop leaves no return set
    (hit_counts_drops_top_level, "AssembledVector.hit_counts",
     ["all", "--config", RUN_CFG, "--family", "enumerated"], 1),
    pytest.param(hit_counts_drops_top_level, "AssembledVector.hit_counts",
                 ["all", "--d", "62", "--family", "enumerated"], 1,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 4: at d = 62 the 2^18 identity scan holds no "
                     "level-6 site, and nothing else reads the counts on the vector"))),
    (separation_flag_flipped, "density_experiment", ["all", "--config", RUN_CFG], 1),
]


def row_id(value):
    """A row's mutant by name and its argv without run.cfg's directory."""
    if callable(value):
        return value.__name__
    if isinstance(value, (list, tuple)):
        return " ".join(Path(arg).name for arg in value)
    return None


def plant(monkeypatch, mutant, name):
    owner, _, method = name.rpartition(".")
    if owner:
        cls = getattr(orbitdensity, owner)
        monkeypatch.setattr(cls, method, mutant(getattr(cls, method)))
        return
    original = getattr(orbitdensity, name)
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
