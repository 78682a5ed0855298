"""Batch experiment runner.

Commands: fact0, sets, verify, vector, orbit, all.  Configuration merges,
in increasing precedence: built-in defaults, a flat key=value config file,
ORBITDENSITY_* environment variables, command-line flags.  Every command is
deterministic given its configuration and exits 0 exactly when all enabled
checks pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from bisect import bisect_right
from dataclasses import Field, dataclass, fields
from fractions import Fraction
from pathlib import Path

from . import dyadic, vector as vec
from .densities import density_ratios
from .dyadic import SeparationParams, checkpoint_schedule, count_sites
from .shift import ShiftOperator, tail_constant
from .vector import (
    AssembledVector,
    SeriesOracle,
    build_level_budgets,
    dense_family_blocks,
    density_experiment,
    one_block_family,
    return_set,
    sign_cross_check,
    site_hit_count,
    verify_orbit_approach,
)

ENV_PREFIX = "ORBITDENSITY_"
FAMILIES = ("one-block", "enumerated")


@dataclass(frozen=True)
class RunConfig:
    omega: str = "2"
    space: str = "l2"
    d: int = 1
    p: int | None = None
    smax: int = 6
    checkpoints: int = 9
    series_horizon: int = 2 ** 14
    family: str = FAMILIES[0]
    out: str = "out"
    seed: int = 0
    # not a field, so no key, env var or flag reaches it; only the benchmark's
    # certify workload reads it, and it goes when the benchmark drops that read
    tail_tol = 1e-12

    def __post_init__(self) -> None:
        """Reject a bad value before any stage runs or writes an artifact."""
        if self.smax < 1:
            raise ValueError("smax must be >= 1")
        if not 1 <= self.series_horizon <= 2 ** 24:  # the oracle holds one value per step
            raise ValueError("series_horizon must lie in 1..16777216 (2^24)")
        if not 2 <= self.checkpoints <= 256:  # >= 2: one per class; the cost grows steeply
            raise ValueError("checkpoints must lie in 2..256")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.out:  # Path("") is the working directory
            raise ValueError("out must name a directory, not be empty")
        # SeparationParams rejects a d or p below range; past p = 8192 an
        # artifact integer can outgrow the 4300 digits Python prints
        p = self.params().p
        if p > 8192:
            raise ValueError(f"p must be <= 8192, given or derived from d (here {p})")
        # build_level_budgets reads the tail constants of levels 1..smax
        tail_constant(self.operator(), self.smax)

    def params(self) -> SeparationParams:
        if self.p is not None:
            return SeparationParams(d=self.d, p=self.p)
        return SeparationParams.with_min_p(self.d)

    def operator(self) -> ShiftOperator:
        try:
            weight = Fraction(self.omega)
        except ZeroDivisionError:
            raise ValueError(f"omega {self.omega!r} has a zero denominator") from None
        return ShiftOperator(weight=weight, space_exponent=_parse_space(self.space))

    def blocks(self, budgets):
        if self.family == "one-block":
            return one_block_family(budgets)
        return dense_family_blocks(budgets)


def _parse_space(text: str) -> float:
    text = text.strip().lower()
    if text == "c0":
        return math.inf
    if text == "l2":
        return 2.0
    if text.startswith("lp:"):
        value = float(text[3:])  # ShiftOperator rejects a P below 1
        if not math.isfinite(value):
            raise ValueError(f"lp:P takes a finite P, not {text[3:]!r}: l^inf is not "
                             "separable; c0 is the separable sup-norm space")
        return value
    raise ValueError(f"unknown space {text!r} (use l2, c0, or lp:P)")


# RunConfig's field annotations (strings, by the __future__ import) -> parser
# of a config-file, environment or flag value; any other field stays a str
_PARSERS = {"int": int, "int | None": int}


def _coerce(field: Field, raw: str, where: str):
    """Parse ``raw`` for ``field`` and run the field's own RunConfig checks;
    a bad value names ``where`` it came from."""
    try:
        value = _PARSERS.get(field.type, str)(raw)
        RunConfig(**{field.name: value})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return value


def load_config_file(path: str | Path) -> dict:
    """Flat key=value lines; blank lines and # comments ignored.  An unknown
    or repeated key is an error."""
    values: dict = {}
    first_line: dict[str, int] = {}
    known = {f.name: f for f in fields(RunConfig)}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                             f"(first on line {first_line[key]})")
        first_line[key] = lineno
        values[key] = _coerce(known[key], raw.strip(), f"{path}:{lineno}: {key}")
    return values


def _env_overrides() -> dict:
    """ORBITDENSITY_<FIELD> values; any other ORBITDENSITY_* name is rejected,
    as the config file rejects an unknown key."""
    values: dict = {}
    known = {ENV_PREFIX + f.name.upper(): f for f in fields(RunConfig)}
    for name, raw in sorted(os.environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        if name not in known:
            raise ValueError(f"{name}: unknown variable")
        values[known[name].name] = _coerce(known[name], raw, name)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge file, environment and flags over the defaults; validate once."""
    values = load_config_file(args.config) if args.config else {}
    values.update(_env_overrides())
    for f in fields(RunConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            values[f.name] = _coerce(f, raw, "--" + f.name.replace("_", "-"))
    return RunConfig(**values)


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fact0(config: RunConfig) -> int:
    """Tabulate the selected-scale mass against its residue-class limits."""
    rows, failures = dyadic.mass_table_rows()
    out = _out_dir(config)
    _write_csv(out / "fact0.csv", dyadic.MASS_TABLE_HEADER, rows)
    print(f"fact0: {len(rows)} rows, {failures} failures -> {out / 'fact0.csv'}")
    return 0 if failures == 0 else 1


def cmd_sets(config: RunConfig) -> int:
    """Per-level site-set density reports along the checkpoint schedule."""
    out = _out_dir(config)
    params = config.params()
    schedule = checkpoint_schedule(params, config.checkpoints)
    horizons = [n for n in schedule.horizons
                if n <= max(schedule.horizons[0], 2 ** 23)]
    for level in range(1, config.smax + 1):
        report = density_ratios(lambda n: count_sites(params, level, n), horizons)
        _write_csv(out / f"sets_level{level}.csv", report.CSV_HEADER, report.rows())
        held = {n: r for n, c, r in zip(horizons, report.counts, report.ratios) if c}
        if held:
            print(f"sets: level {level} ratio in "
                  f"[{float(min(held.values())):.6g}, {float(max(held.values())):.6g}] "
                  f"over the {len(held)} checkpoints {min(held)}..{max(held)} that hold sites")
        else:
            print(f"sets: level {level} has no site up to {horizons[-1]}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    """Run the hypothesis suite and write one JSON report per check."""
    out = _out_dir(config)
    params = config.params()
    max_level = min(config.smax, 4)
    reports = [
        dyadic.verify_separation(params, max_level,
                                 max(2 ** 20, dyadic.first_site_bound(params, max_level))),
        dyadic.verify_checkpoint_gap(params, max_level, min(config.checkpoints, 8)),
        dyadic.verify_counting_bounds(params, min(config.smax, 5)),
        dyadic.verify_mass_bound(params, min(config.smax, 3), config.checkpoints),
        dyadic.verify_class_limits(params, min(config.smax, 3)),
    ]
    _write_json(out / "verify_report.json", [r.to_json_dict() for r in reports])
    for report in reports:
        print(f"verify: {report.check}: {'pass' if report.passed else 'FAIL'}")
    return 0 if all(r.passed for r in reports) else 1


def _build_vector(config: RunConfig) -> AssembledVector:
    params = config.params()
    op = config.operator()
    budgets = build_level_budgets(op, config.smax)
    return AssembledVector(params, op, budgets, config.blocks(budgets))


def cmd_vector(config: RunConfig) -> int:
    """Build the family and check its per-level quantities."""
    av = _build_vector(config)
    out = _out_dir(config)
    rng = random.Random(config.seed)
    hit_counts = av.hit_counts()
    hit_failures = []
    for level in hit_counts:
        try:
            site_hit_count(av, level, verify=True)
        except RuntimeError:
            hit_failures.append(level)
    lower, upper = vec.predicted_density_limits(av)

    approach = []
    for level in range(1, min(config.smax, 4) + 1):
        # past the level's first site, so no level passes on zero samples
        horizon = max(2 ** 16, dyadic.first_site_bound(av.params, level))
        members = dyadic.site_members(av.params, level, horizon)
        picks = rng.sample(members, min(5, len(members)))
        try:
            passed = all(verify_orbit_approach(av, level, n) for n in picks)
        except ValueError:  # a strip-route site the modular route rejects
            passed = False
        approach.append({"level": level, "samples": sorted(picks), "pass": passed})

    payload = {
        "family": config.family,
        "omega": str(av.op.weight),
        "space_exponent": "sup" if math.isinf(av.op.space_exponent) else av.op.space_exponent,
        "r_values": {str(level): count for level, count in hit_counts.items()},
        "predicted_lower": vec.fraction_json(lower),
        "predicted_upper": vec.fraction_json(upper),
        "tail_constants": {str(s): eps
                           for s, eps in enumerate(av.budgets.tail_constants, 1)},
        "budget_partials": list(av.budgets.weighted_partials),
        "approach_checks": approach,
    }
    _write_json(out / "vector_report.json", payload)
    ok = all(entry["pass"] for entry in approach)
    print(f"vector: family={config.family} r={hit_counts} "
          f"approach={'pass' if ok else 'FAIL'} "
          f"hits={f'FAIL at levels {hit_failures}' if hit_failures else 'pass'}")
    return 0 if ok and not hit_failures else 1


def cmd_orbit(config: RunConfig) -> int:
    """Density experiment, exact cross-check, and decomposition identity."""
    av = _build_vector(config)
    out = _out_dir(config)
    schedule = checkpoint_schedule(av.params, config.checkpoints)

    experiment = density_experiment(av, schedule)
    _write_csv(out / "orbit_density.csv", experiment.CSV_HEADER, experiment.csv_rows())
    _write_json(out / "orbit_summary.json",
                {"family": config.family, **experiment.to_json_dict()})

    oracle = SeriesOracle(av, config.series_horizon)
    disagreements = sign_cross_check(av, oracle, config.series_horizon)

    # one scan to the largest checkpoint up to 2^18 (at least the first); bisect
    # counts its members at each scanned checkpoint against the published rows
    cap = max(schedule.horizons[0], 2 ** 18)
    scanned = [row for row in experiment.rows if row.horizon <= cap]
    members = return_set(av, scanned[-1].horizon, method="scan").members
    identity_ok = all(bisect_right(members, row.horizon) == row.count for row in scanned)

    ok = (not disagreements) and identity_ok and experiment.separation_flag
    print(f"orbit: separation={experiment.separation_flag} "
          f"disagreements={len(disagreements)} identity={'pass' if identity_ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_all(config: RunConfig) -> int:
    _build_vector(config)  # a bad vector config exits 2 before any stage writes
    return max(cmd_fact0(config), cmd_sets(config), cmd_verify(config),
               cmd_vector(config), cmd_orbit(config))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main prints it as its one error: line
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    """One parser: the command, --config, and one --<name> flag per
    RunConfig field, parsed later by _coerce like a file or environment value."""
    parser = _Parser(prog="orbitdensity", allow_abbrev=False,
                     description="Exact return-time density experiments for "
                                 "weighted shift orbits.")
    parser.add_argument("command",
                        choices=("fact0", "sets", "verify", "vector", "orbit", "all"))
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), help=f"default: {f.default}")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        # looked up at call time, so a rebound cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](build_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
