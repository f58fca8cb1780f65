"""Batch front-end: seeded verification runs emitting JSON audit reports.

Every command reads an optional JSON config, pulls all randomness from
one seed through numpy's PCG64, and writes a versioned report whose
body is byte-identical across reruns (the timestamp lives in a header
block excluded from that guarantee).  Exit codes: 0 all checks passed,
2 at least one non-advisory inequality violated, 1 usage or input
error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator, NoReturn

import numpy as np

from . import __version__
from .bounds import (
    BoundReport,
    identity_reports,
    reports_to_csv,
    stacked_identity_reports,
    stacked_trade_off_reports,
)
from .cnot import (
    SearchConfig,
    gate_fidelity,
    implementation_from_json,
    measurement_view,
    noise_fidelity_link,
    pauli,
)
from .conservation import ConservationLaw, commutant_basis, conservation_residual
from .measurement import IndirectMeasurementModel, is_nondisturbing, is_precise
from .operators import CHUNK_ENTRIES, HilbertSpec, Operator
from .sampling import (
    DEFAULT_STRENGTH,
    random_conserving_implementation,
    random_conserving_models,
    random_state,
)
from .scenarios import (
    CEILING_TOL,
    TAIL_TOL,
    CeilingViolation,
    OptimizeConfig,
    boson_reports,
    build_boson,
    build_spin,
    optimize_fidelity,
    way_positive_control,
)
from .serialize import digest, law_from_json, model_from_json, state_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

DEFAULT_TOL = 1e-9
# numpy's standard normals stay below 16 in magnitude (its ziggurat's tail ends
# near 13.7), so a strength of at most this keeps every sampled coefficient finite.
MAX_STRENGTH = sys.float_info.max / 16

# The randomized commands sample their models this many cases at a time,
# so that numpy's per-call cost is paid once per chunk rather than once
# per case.  A chunk's stacks of total-space matrices hold at most
# CHUNK_ENTRIES entries (1 MiB of complex128) unless one case's matrix
# alone holds more, so the chunk's models fit in a few MiB.
CASES_PER_CHUNK = 64
# The most cases a randomized command runs: every report stays in memory until
# the last case, about 8 KiB of RSS a check-bounds case, so 0.5 GiB at the cap.
MAX_CASES = 2**16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # a usage error, not argparse's exit 2, which here means a violated bound
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _read_json(path: str, label: str) -> Any:
    """Parse the JSON document at ``path``; ``label`` names it in the read error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {label}{path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"malformed JSON in {label}{path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


# A config reader takes a key's name and given value and returns the value
# checked, not converted, or raises a usage error that names the key.
_Reader = Callable[[str, Any], Any]
_ABSENT = object()  # the default of a key that has none: left out unless given


def _integer(name: str, value: Any) -> int:
    """A count, seed or size: a bool is not an int, a float is not truncated, a string is not parsed."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:  # numpy refuses a negative seed
        raise _UsageError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _cases(name: str, value: Any) -> int:
    """A randomized command's number of cases: a count of at most ``MAX_CASES``."""
    if _integer(name, value) > MAX_CASES:
        raise _UsageError(f"{name} must be at most {MAX_CASES}, got {value}")
    return value


def _number(name: str, value: Any) -> float:
    """A real: a bool is not a number, a string is not parsed, an integer past the largest double is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _UsageError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise _UsageError(f"{name} must be a number within the range of a double")
    return float(value)


def _tolerance(name: str, value: Any) -> float:
    """Finite and nonnegative: a NaN fails every record and stops no descent early, an infinity passes all."""
    if not 0.0 <= (number := _number(name, value)) < math.inf:
        raise _UsageError(f"{name} must be finite and nonnegative, got {number!r}")
    return number


def _strength(name: str, value: Any) -> float:
    """At most ``MAX_STRENGTH`` in magnitude, so that no draw overflows; a negative one is a valid draw."""
    if not abs(number := _number(name, value)) <= MAX_STRENGTH:
        raise _UsageError(f"{name} must be finite and at most {MAX_STRENGTH:.6g} in magnitude, got {number!r}")
    return number


def _finite(name: str, value: Any) -> int | float:
    """A number kept as given, so finite: an infinity would reach the header."""
    if not math.isfinite(_number(name, value)):
        raise _UsageError(f"{name} must be finite, got {value!r}")
    return value


def _string(name: str, value: Any) -> str:
    """A name: ``str`` would read null as "None" and a list as its repr."""
    if not isinstance(value, str):
        raise _UsageError(f"{name} must be a string, got {type(value).__name__}")
    return value


def _list_of(entry: _Reader) -> _Reader:
    """The reader of a JSON list whose entries, named "<key> entry" at any depth, ``entry`` reads."""
    def read(name: str, value: Any) -> list[Any]:
        if not isinstance(value, list):  # iterating null or a number fails without naming the key
            raise _UsageError(f"{name} must be a list, got {type(value).__name__}")
        return [entry(f"{name.removesuffix(' entry')} entry", x) for x in value]
    return read


def _factor_dims(name: str, value: Any) -> list[HilbertSpec]:
    """Factor layouts of two or more entries (object and probe at least), each entry at least 1."""
    rows = _list_of(_list_of(_integer))(name, value)
    if not rows or any(len(row) < 2 or min(row) < 1 for row in rows):
        raise _UsageError(f"{name} must list factorizations of two or more entries >= 1, got {value!r}")
    return [HilbertSpec(tuple(row)) for row in rows]


def _document(decode: Callable[[Any], Any]) -> _Reader:
    """The reader of a wire-format document, inline or a path string to load, that ``decode`` reads."""
    def read(name: str, value: Any) -> Any:
        try:
            return decode(_read_json(value, f"{name} ") if isinstance(value, str) else value)
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise _UsageError(f"{name} is not a valid document: {detail}") from exc
    return read


def _read_keys(defaults: dict[str, Any], given: dict[str, Any], owner: str, prefix: str = "") -> dict[str, Any]:
    """Each declared key's given value through the key's reader, else its default; any other key is refused."""
    if unknown := [key for key in given if key not in defaults]:
        raise _UsageError(f"{prefix}{unknown[0]} is not read by {owner}")
    return {
        key: _READERS[key](prefix + key, given[key]) if key in given else default
        for key, default in defaults.items()
        if key in given or default is not _ABSENT
    }


def _search(name: str, value: Any) -> dict[str, Any]:
    """A search block: a JSON object, since ``dict`` would read an array of pairs as one."""
    if not isinstance(value, dict):
        raise _UsageError(f"{name} must be a JSON object, got {type(value).__name__}")
    return _read_keys(_SEARCH_KEYS, value, "the worst-case search", f"{name} ")


class _Config(dict):
    """A command's config values: reading a key that has no default and was not given is a usage error."""

    def __missing__(self, key: str) -> NoReturn:
        raise _UsageError(f'this command needs "{key}" in the config' + (f" or --{key}" if key in _FLAGS else ""))


def _read_config(command: str, args: argparse.Namespace, config: Any) -> _Config:
    """The config with the given flags laid over it, read by the keys the command (and its kind) declares."""
    if not isinstance(config, dict):
        raise _UsageError(f"config root must be a JSON object, got {type(config).__name__}")
    keys, owner = _COMMANDS[command][1], command
    given = dict(config)
    for flag in (f for f in _FLAGS if getattr(args, f) is not None):
        if flag in keys:
            given[flag] = getattr(args, flag)
        elif flag == "restarts" and "search" in keys:  # the worst-case search's restarts
            block = given.get("search", {})
            given["search"] = {**block, flag: args.restarts} if isinstance(block, dict) else block
        else:
            raise _UsageError(f"{command} does not read --{flag}")
    if "kind" in keys:  # optimize reads its scenario kind's keys too
        if (kind := _READERS["kind"]("kind", given.get("kind", keys["kind"]))) not in _OPTIMIZE_KINDS:
            raise _UsageError(f"unknown scenario kind {kind!r} (expected \"spin\" or \"boson\")")
        keys, owner = {**keys, **_OPTIMIZE_KINDS[kind]}, f"optimize of kind {kind!r}"
    return _Config(_read_keys(keys, given, owner))


def _record(report: BoundReport, tol: float, advisory: bool = False) -> dict[str, Any]:
    rec = report.to_json_dict()
    rec["passed"] = report.passed(tol)
    if advisory:
        rec["advisory"] = True
    return rec


def _finish(
    args: argparse.Namespace,
    command: str,
    seed: int | None,
    config_used: dict[str, Any],
    records: list[dict[str, Any]],
    extra_summary: dict[str, Any] | None = None,
    csv_text: str | None = None,
) -> int:
    records = sorted(records, key=lambda r: (str(r.get("digest", "")), str(r.get("relation", ""))))
    failed = [r for r in records if not r.get("passed", True) and not r.get("advisory")]
    advisory_failed = [r for r in records if not r.get("passed", True) and r.get("advisory")]
    exit_code = EXIT_VIOLATION if failed else EXIT_OK
    summary: dict[str, Any] = {
        "records": len(records),
        "passed": sum(1 for r in records if r.get("passed", True)),
        "failed": len(failed),
        "advisory_failed": len(advisory_failed),
        "exit_code": exit_code,
    }
    slacks = [r["slack"] for r in records if "slack" in r]
    if slacks:
        summary["worst_slack"] = min(slacks)
    if extra_summary:
        summary.update(extra_summary)

    report = {
        "schema": 2,
        "header": {
            "command": command,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "package": "waylab",
            "version": __version__,
            "prng": "numpy PCG64",
            "numpy_version": np.__version__,
            "seed": seed,
            "config": config_used,
        },
        "summary": summary,
        "records": records,
    }
    out_path = Path(args.out) if args.out else Path(f"waylab-{command}-report.json")
    out_path.write_text(json.dumps(report) + "\n")
    if csv_text is not None:
        out_path.with_suffix(".csv").write_text(csv_text)
    if not args.quiet:
        verdict = "PASS" if exit_code == EXIT_OK else "FAIL"
        print(
            f"[waylab] {command}: {summary['passed']}/{summary['records']} records passed"
            + (f", {summary['advisory_failed']} advisory findings" if advisory_failed else "")
            + f" -> {verdict}"
        )
        for r in failed[:10]:
            print(
                f"[waylab]   violation: {r.get('relation')} slack={r.get('slack'):.3e} "
                f"digest={r.get('digest')}"
            )
        print(f"[waylab] report written to {out_path}")
    return exit_code


def _case_seeds(seed: int | np.random.SeedSequence, count: int) -> Iterator[int]:
    """The ``count`` case seeds, each drawn only when its case is reached
    (for the sampled models, when its chunk is): single draws give the
    seeds of one batched draw, so chunking moves no seed."""
    rng = np.random.default_rng(seed)
    return (int(rng.integers(0, 2**62)) for _ in range(count))


def _chunk_cases(total_dim: int) -> int:
    """How many cases the randomized commands sample together when the
    largest layout has ``total_dim``: ``CASES_PER_CHUNK``, fewer where a
    stack of that many total-space matrices would hold more than
    ``CHUNK_ENTRIES`` entries, and at least one.  So no stacked array
    is larger than the largest one-case matrix or ``CHUNK_ENTRIES``."""
    return max(1, min(CASES_PER_CHUNK, CHUNK_ENTRIES // total_dim**2))


def _random_cases(
    values: _Config,
) -> tuple[dict[str, Any], Iterator[list[tuple[int, IndirectMeasurementModel, ConservationLaw]]]]:
    """A randomized command's config record and its cases: one
    ``(case_seed, model, law)`` per case seed, cycling through the factor
    layouts, in seed order, a chunk of :func:`_chunk_cases` cases at a
    time.  Each chunk, seeds included, is drawn and sampled only when the
    loop reaches it, and its bounds are then evaluated as one stack."""
    seed, count, specs = values["seed"], values["count"], values["factor_dims"]
    used = {"count": count, "tol": values["tol"], "factor_dims": [list(s.factor_dims) for s in specs]}
    chunk = _chunk_cases(max(s.total_dim for s in specs))
    pending = zip(_case_seeds(seed, count), itertools.cycle(specs))

    def chunks() -> Iterator[list[tuple[int, IndirectMeasurementModel, ConservationLaw]]]:
        while batch := list(itertools.islice(pending, chunk)):
            case_seeds, case_specs = zip(*batch)
            models = random_conserving_models(case_seeds, case_specs)
            yield [(case_seed, model, law) for case_seed, (model, law) in zip(case_seeds, models)]

    return used, chunks()


def _cmd_verify_identities(args: argparse.Namespace, values: _Config) -> int:
    tol = values["tol"]
    if "model" in values or "law" in values:
        if not ("model" in values and "law" in values):
            raise _UsageError("verify-identities needs both \"model\" and \"law\" when either is given")
        reports = identity_reports(values["model"], values["law"])  # raises ConservationError when not conserving
        used = {"tol": tol, "source": "explicit model"}
        return _finish(args, "verify-identities", values.get("seed"), used, [_record(r, tol) for r in reports])

    used, chunks = _random_cases(values)
    records = [
        _record(rep, tol)
        for cases in chunks
        for reports in stacked_identity_reports([(model, law) for _, model, law in cases])
        for rep in reports
    ]
    return _finish(args, "verify-identities", values["seed"], used, records)


def _cmd_check_bounds(args: argparse.Namespace, values: _Config) -> int:
    tol = values["tol"]
    used, chunks = _random_cases(values)
    reports: list[BoundReport] = []
    for cases in chunks:
        stack = [
            (model, law, random_state(np.random.default_rng(case_seed + 1), model.spec.object_dim))
            for case_seed, model, law in cases
        ]
        for case_reports in stacked_trade_off_reports(stack):
            reports.extend(case_reports)
    records = [_record(r, tol) for r in reports]
    return _finish(args, "check-bounds", values["seed"], used, records, csv_text=reports_to_csv(reports))


def _cmd_eval_impl(args: argparse.Namespace, values: _Config) -> int:
    impl, tol, seed = values["implementation"], values["tol"], values["seed"]
    search = replace(SearchConfig(), **{"seed": seed, **values["search"]})
    result = gate_fidelity(impl, search)

    view = measurement_view(impl)
    precise = is_precise(view)
    nondisturbing = is_nondisturbing(view)
    info: dict[str, Any] = {
        "gate_fidelity": result.fidelity,
        "fidelity_sq": result.fidelity_sq,
        "fidelity_sq_lower": result.fidelity_sq_lower,
        "error_probability": result.error_probability,
        "worst_state": state_to_json(result.worst_state),
        "search_evaluations": result.evaluations,
        "precision_worst_eps": precise.worst_value,
        "disturbance_worst_eta": nondisturbing.worst_value,
    }

    records: list[dict[str, Any]] = []
    if "law" in values:
        records.extend(_record(r, tol) for r in noise_fidelity_link(impl, values["law"], fidelity=result))
    used = {"tol": tol, "search": asdict(search)}
    return _finish(args, "eval-impl", seed, used, records, extra_summary=info)


def _cmd_optimize(args: argparse.Namespace, values: _Config) -> int:
    seed, kind = values["seed"], values["kind"]
    opt = OptimizeConfig(
        restarts=values["restarts"],
        max_iter=values["max_iter"],
        seed=seed,
        inner=replace(OptimizeConfig().inner, **{"seed": seed, **values["search"]}),
        initial_points=tuple(map(tuple, values["initial_points"])),
    )
    params = {key: values[key] for key in _OPTIMIZE_KINDS[kind]}
    scenario = (build_spin if kind == "spin" else build_boson)(**params)

    used = {"kind": kind, **asdict(opt), **params}
    extra: dict[str, Any] = {"scenario": scenario.label, "ceiling_fsq": scenario.ceiling_fsq}
    try:
        run = optimize_fidelity(scenario, opt)
    except CeilingViolation as exc:
        witness = {
            "relation": "ceiling",
            "scenario": exc.scenario,
            "ceiling_fsq": exc.ceiling_fsq,
            "fidelity_sq": exc.fidelity_sq,
            "coefficients": list(exc.coefficients),
            "slack": exc.ceiling_fsq - exc.fidelity_sq,
            "passed": False,
        }
        return _finish(args, "optimize", seed, used, [witness], extra_summary=extra)
    record = run.to_json_dict()
    record["passed"] = run.min_gap_evaluated >= -CEILING_TOL  # as optimize_fidelity judged it
    record["relation"] = "ceiling"
    record["slack"] = run.min_gap_evaluated

    columns = ("scenario", "ceiling_fsq", "best_fidelity_sq", "gap", "min_gap_evaluated", "evaluations")
    rows = (columns, [record[c] for c in columns])  # str of a float is its repr
    csv_text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    extra.update(best_fidelity_sq=run.best_fidelity_sq, gap=run.gap)
    return _finish(args, "optimize", seed, used, [record], extra_summary=extra, csv_text=csv_text)


def _cmd_boson_check(args: argparse.Namespace, values: _Config) -> int:
    seed, nbars, samples = values["seed"], values["nbars"], values["samples_per"]
    # each nbar builds its scenario and commutant basis, so it counts as at least one case
    if len(nbars) * max(samples, 1) > MAX_CASES:
        raise _UsageError(
            f"nbars ({len(nbars)} entries) times samples_per ({samples}) must be at most {MAX_CASES} cases"
        )
    tol, strength, tail_tol = values["tol"], values["strength"], values["tail_tol"]
    search = replace(OptimizeConfig().inner, **{"seed": seed, **values["search"]})

    records: list[dict[str, Any]] = []
    reports: list[BoundReport] = []
    # One independent child stream per nbar, so nearby nbars and nearby
    # seeds never share implementations.
    streams = np.random.SeedSequence(seed).spawn(len(nbars))
    for nbar, stream in zip(nbars, streams):
        scenario = build_boson(nbar, tail_tol)
        basis = commutant_basis(scenario.law)
        for case_seed in _case_seeds(stream, samples):
            impl = random_conserving_implementation(
                case_seed, scenario.law, basis=basis,
                strength=strength, ancilla_state=scenario.ancilla_state,
            )
            fidelity = gate_fidelity(impl, search)
            ceiling, *approximate = boson_reports(impl, scenario, fidelity)
            reports += [ceiling, *approximate]
            # the sigma-l3 cap and the nbar-form ceiling are findings, not violations
            records += [_record(ceiling, tol), *(_record(r, tol, advisory=True) for r in approximate)]
    used = {
        "nbars": nbars, "samples_per": samples, "strength": strength,
        "tail_tol": tail_tol, "tol": tol, "search": asdict(search),
    }
    return _finish(args, "boson-check", seed, used, records, csv_text=reports_to_csv(reports))


def _cmd_positive_control(args: argparse.Namespace, values: _Config) -> int:
    tol, basis_name = values["tol"], values["basis"]
    spec = HilbertSpec((2, 2, 2))
    if basis_name in ("x", "z"):
        charge = pauli(basis_name.upper())
        observable = charge
    elif basis_name == "scalar":
        charge = pauli("X")
        observable = Operator(np.eye(2), hermitian=True)
    else:
        raise _UsageError(f"unknown basis {basis_name!r} (expected \"x\", \"z\", or \"scalar\")")
    law = ConservationLaw(spec, charge, charge, charge)
    model = way_positive_control(observable, law)

    residual = conservation_residual(model.interaction, law)
    precise = is_precise(model)
    nondisturbing = is_nondisturbing(model)
    tag = digest(law=law, basis=basis_name)
    records = [
        _record(BoundReport(relation, "identity", value, 0.0, tag), tol)
        for relation, value in (
            ("conservation-residual", residual),
            ("precision", precise.worst_value),
            ("non-disturbance", nondisturbing.worst_value),
        )
    ]
    used = {"basis": basis_name, "tol": tol}
    return _finish(args, "positive-control", None, used, records)


# The reader of each config key, whichever command reads it.
_READERS: dict[str, _Reader] = {
    "seed": _integer, "tol": _tolerance, "count": _cases, "samples_per": _cases, "factor_dims": _factor_dims,
    "implementation": _document(implementation_from_json),
    "model": _document(model_from_json), "law": _document(law_from_json), "search": _search,
    "kind": _string, "restarts": _integer, "max_iter": _integer, "initial_points": _list_of(_list_of(_finite)),
    "n": _integer, "nbar": _number, "tail_tol": _number, "nbars": _list_of(_number), "strength": _strength,
    "basis": lambda name, value: _string(name, value).lower(),
    "polish_steps": lambda name, value: None,
}
# Each command's keys with their defaults (_ABSENT for none, as for the
# randomized commands' seed); any other key is a usage error.  A flag sets
# the key of its name, and a command reads only the flags of its keys
# (--restarts sets the search block's where the command has no restarts).
_SPECS = [HilbertSpec(dims) for dims in ((2, 2), (2, 2, 2), (2, 2, 2, 2))]  # the layouts cycled through
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace, _Config], int], dict[str, Any]]] = {
    "verify-identities": (_cmd_verify_identities, {
        "seed": _ABSENT, "tol": DEFAULT_TOL, "count": 100, "factor_dims": _SPECS, "model": _ABSENT, "law": _ABSENT,
    }),
    "check-bounds": (_cmd_check_bounds, {"seed": _ABSENT, "tol": DEFAULT_TOL, "count": 250, "factor_dims": _SPECS}),
    "eval-impl": (_cmd_eval_impl, {
        "implementation": _ABSENT, "law": _ABSENT, "seed": 0, "tol": DEFAULT_TOL, "search": {},
    }),
    "optimize": (_cmd_optimize, {
        "seed": _ABSENT, "kind": "spin", "restarts": OptimizeConfig.restarts, "max_iter": OptimizeConfig.max_iter,
        "initial_points": (), "search": {},
        # retired with the compass polish, and read as nothing: perfbench's MAXIMIN
        # still sends it (ROADMAP item 10 part a drops it there, and then this row)
        "polish_steps": _ABSENT,
    }),
    "boson-check": (_cmd_boson_check, {
        "seed": _ABSENT, "tol": DEFAULT_TOL, "nbars": (1.0, 2.0, 4.0), "samples_per": 3,
        "strength": DEFAULT_STRENGTH, "tail_tol": TAIL_TOL, "search": {},
    }),
    "positive-control": (_cmd_positive_control, {"tol": DEFAULT_TOL, "basis": "x"}),
}
_OPTIMIZE_KINDS = {"spin": {"n": 2}, "boson": {"nbar": 1.0, "tail_tol": TAIL_TOL}}
_SEARCH_KEYS = dict.fromkeys(("tol", "restarts", "max_iter", "seed"), _ABSENT)  # over the command's SearchConfig
_FLAGS: dict[str, tuple[type, str]] = {
    "seed": (int, "PRNG seed (required for randomized commands)"),
    "tol": (float, "slack tolerance override (default 1e-9)"),
    "restarts": (int, "outer starts in optimize; worst-case search restarts in eval-impl and boson-check"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="waylab",
        description="Conservation-law limits on measurement and CNOT fidelity: "
        "verification runs with JSON audit reports.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="what to run")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="report path (default waylab-<command>-report.json)")
    for flag, (kind, text) in _FLAGS.items():
        parser.add_argument(f"--{flag}", type=kind, help=text)
    parser.add_argument("--quiet", action="store_true", help="suppress stdout summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = {} if args.config is None else _read_json(args.config, "config ")
        return _COMMANDS[args.command][0](args, _read_config(args.command, args, config))
    except _UsageError as exc:
        print(f"[waylab] usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, TypeError) as exc:
        print(f"[waylab] input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
