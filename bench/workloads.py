"""The three benchmark workloads and their known-answer gates.

A workload is a set of functions:

* ``setup(pkg, root)`` builds everything the verdict needs and is the part
  timed as ``setup_s``;
* ``inputs(pkg, state, seed)`` draws the seeded inputs (untimed; only
  ``certify`` has any);
* ``verdict(pkg, state)`` runs the program to its final verdict (timed as
  ``verdict_s``) and returns the raw outcomes, with an exception standing in
  for any call that raised;
* ``check(state, outcome)`` compares the outcomes with the known answers in
  ``reference.json`` (untimed) and returns ``(check name, ok, detail)``
  triples;
* ``reset(state)`` clears what a verdict leaves behind (``headline``'s
  output directory) before and after each verdict.

``pkg`` is a namespace holding the freshly imported ``orbitdensity``
modules, so every call goes through the package's public functions from
outside the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

FAMILIES = ("one-block", "enumerated")
DEEP_HORIZONS = (2 ** 21, 2 ** 23)
DEEP_SEPARATION = (6, 2 ** 23)  # verify_separation(params, max_level, horizon)
CERTIFY_OVERRIDES = {"family": "enumerated", "omega": "3/2", "space": "lp:3",
                     "smax": 7, "series_horizon": 2 ** 16}
CERTIFY_APPROACH_LEVELS = range(1, 5)
CERTIFY_APPROACH_SAMPLES = 5


def attempt(fn, *args, **kwargs):
    """Call ``fn``; an exception becomes the outcome so the check can report it."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # recorded as a failed check, never swallowed
        return exc


def _expect(name: str, got, expected) -> tuple[str, bool, str]:
    ok = not isinstance(got, Exception) and got == expected
    return name, ok, "" if ok else f"got {got!r}, expected {expected!r}"


def _run_config(pkg, root: Path, **overrides):
    cli = pkg.cli
    values = cli.load_config_file(root / "run.cfg")
    return replace(cli.RunConfig(**values), **overrides)


def _assemble(pkg, config):
    op = config.operator()
    budgets = pkg.vector.build_level_budgets(op, config.smax)
    return pkg.vector.AssembledVector(config.params(), op, budgets,
                                      config.blocks(budgets))


# ---------------------------------------------------------------------------
# headline: `orbitdensity all --config run.cfg` for both families
# ---------------------------------------------------------------------------

def headline_setup(pkg, root: Path) -> dict:
    # `orbitdensity all` reads run.cfg and builds its vectors itself, so on
    # this workload that work is part of the verdict and set-up is the import.
    return {"root": root, "work": root / "bench" / "_work"}


def headline_verdict(pkg, state: dict) -> dict:
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for family in FAMILIES:
            codes[family] = attempt(pkg.cli.main, [
                "all", "--config", str(state["root"] / "run.cfg"),
                "--family", family, "--out", str(state["work"] / family)])
    return codes


def headline_reset(state: dict) -> None:
    shutil.rmtree(state["work"], ignore_errors=True)


def headline_check(state: dict, codes: dict) -> list:
    results = []
    for family in FAMILIES:
        results.append(_expect(f"{family}.exit", codes[family], 0))
        out = state["work"] / family
        found = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(out.iterdir())} if out.is_dir() else {}
        expected = REFERENCE["headline"][family]
        for name in sorted(set(found) | set(expected)):
            results.append(_expect(f"{family}.{name}.sha256",
                                   found.get(name), expected.get(name)))
    return results


# ---------------------------------------------------------------------------
# deep-walk: site-walk return sets at 2^21 and 2^23, separation at 2^23
# ---------------------------------------------------------------------------

def deep_walk_setup(pkg, root: Path) -> dict:
    vectors = {family: _assemble(pkg, _run_config(pkg, root, family=family))
               for family in FAMILIES}
    return {"vectors": vectors}


def deep_walk_verdict(pkg, state: dict) -> dict:
    vector = pkg.vector
    outcome = {}
    for family, av in state["vectors"].items():
        for horizon in DEEP_HORIZONS:
            walked = attempt(lambda: len(vector.return_set(av, horizon, "sites").members))
            counted = attempt(vector.checkpoint_count, av, horizon)
            outcome[family, horizon] = (walked, counted)
    params = next(iter(state["vectors"].values())).params
    report = attempt(pkg.dyadic.verify_separation, params, *DEEP_SEPARATION)
    outcome["separation"] = report
    return outcome


def deep_walk_check(state: dict, outcome: dict) -> list:
    results = []
    for family in FAMILIES:
        for horizon in DEEP_HORIZONS:
            walked, counted = outcome[family, horizon]
            known = REFERENCE["deep-walk"][family][str(horizon)]
            results.append(_expect(f"{family}.{horizon}.walked", walked, known))
            results.append(_expect(f"{family}.{horizon}.checkpoint_count", counted, known))
    report = outcome["separation"]
    passed = report if isinstance(report, Exception) else report.passed
    results.append(_expect("separation", passed, True))
    return results


# ---------------------------------------------------------------------------
# certify: series oracle + sign cross-check, approach samples, hit counts
# ---------------------------------------------------------------------------

def certify_setup(pkg, root: Path) -> dict:
    config = _run_config(pkg, root, **CERTIFY_OVERRIDES)
    av = _assemble(pkg, config)
    oracle = pkg.vector.SeriesOracle(av, config.series_horizon)
    return {"config": config, "av": av, "oracle": oracle}


def certify_inputs(pkg, state: dict, seed: int) -> None:
    """Seeded orbit-approach samples: a few sites per level below the horizon."""
    rng = random.Random(seed)
    av, horizon = state["av"], state["config"].series_horizon
    picks = []
    for level in CERTIFY_APPROACH_LEVELS:
        members = pkg.dyadic.site_members(av.params, level, horizon)
        picks.extend((level, n) for n in
                     sorted(rng.sample(members, min(CERTIFY_APPROACH_SAMPLES, len(members)))))
    state["picks"] = picks


def certify_verdict(pkg, state: dict) -> dict:
    vector = pkg.vector
    config, av = state["config"], state["av"]
    return {
        "disagreements": attempt(vector.sign_cross_check, av, state["oracle"],
                                 config.series_horizon, tail_tol=config.tail_tol),
        "approach": [(level, n, attempt(vector.verify_orbit_approach, av, level, n,
                                        tail_tol=1e-9))
                     for level, n in state["picks"]],
        "hits": {str(level): attempt(vector.site_hit_count, av, level, verify=True)
                 for level in range(1, config.smax + 1)},
    }


def certify_check(state: dict, outcome: dict) -> list:
    results = [_expect("sign_cross_check", outcome["disagreements"], [])]
    for level, n, passed in outcome["approach"]:
        results.append(_expect(f"approach.level{level}.n{n}", passed, True))
    for level, count in outcome["hits"].items():
        results.append(_expect(f"hits.level{level}", count,
                               REFERENCE["certify"]["hit_counts"][level]))
    return results


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    verdict: Callable
    check: Callable
    inputs: Callable = lambda pkg, state, seed: None
    reset: Callable = lambda state: None


# headline's artifacts are pinned by hash and deep-walk's depth is fixed, so
# the seed varies only certify's approach samples.
WORKLOADS = {w.name: w for w in (
    Workload("headline", headline_setup, headline_verdict, headline_check,
             reset=headline_reset),
    Workload("deep-walk", deep_walk_setup, deep_walk_verdict, deep_walk_check),
    Workload("certify", certify_setup, certify_verdict, certify_check,
             inputs=certify_inputs),
)}
