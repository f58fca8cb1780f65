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
from dataclasses import asdict, fields, replace
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

# Factor layouts cycled through by the randomized commands.
DEFAULT_FACTOR_DIMS: tuple[tuple[int, ...], ...] = ((2, 2), (2, 2, 2), (2, 2, 2, 2))
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
            f"malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    data = _read_json(path, "config ")
    if not isinstance(data, dict):
        raise _UsageError(f"config root must be a JSON object, got {type(data).__name__}")
    return data


def _bundle(config: dict[str, Any], key: str, decode: Callable[[Any], Any]) -> Any:
    """The config's ``key`` document, inline or a path string to load,
    decoded: one the decoder cannot read is a usage error naming ``key``."""
    value = config[key]
    try:
        return decode(_read_json(value, "") if isinstance(value, str) else value)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise _UsageError(f"{key} is not a valid document: {detail}") from exc


def _pick(args: argparse.Namespace, config: dict[str, Any], key: str, default: Any) -> Any:
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _require_seed(args: argparse.Namespace, config: dict[str, Any]) -> int:
    seed = _pick(args, config, "seed", None)
    if seed is None:
        raise _UsageError(
            "this command is randomized; pass --seed or put \"seed\" in the config "
            "(reproducibility is mandatory)"
        )
    return _nonnegative_int("seed", seed)


def _finite_nonnegative(name: str, value: Any) -> float:
    number = _real(name, value)
    if not 0.0 <= number < math.inf:
        raise _UsageError(f"{name} must be finite and nonnegative, got {number!r}")
    return number


def _tol(args: argparse.Namespace, config: dict[str, Any]) -> float:
    """The slack tolerance records are judged with: finite and nonnegative.
    A NaN would fail every record and an infinity pass every one."""
    return _finite_nonnegative("tol", _pick(args, config, "tol", DEFAULT_TOL))


def _nonnegative_int(name: str, value: Any) -> int:
    """A count, seed or size from the config, checked rather than
    converted: ``int`` would quietly take a bool, truncate a float and
    parse a string.  No such value is negative (numpy refuses a negative
    seed)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise _UsageError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _case_count(name: str, value: Any) -> int:
    """A randomized command's number of cases: a count of at most ``MAX_CASES``."""
    if _nonnegative_int(name, value) > MAX_CASES:
        raise _UsageError(f"{name} must be at most {MAX_CASES}, got {value}")
    return value


def _real(name: str, value: Any) -> float:
    """A real number from the config, checked rather than converted:
    ``float`` would quietly take a bool and parse a string, and raises
    ``OverflowError`` for an integer past the largest double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _UsageError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise _UsageError(f"{name} must be a number within the range of a double")
    return float(value)


def _typed(name: str, value: Any, kind: type | tuple[type, ...]) -> Any:
    """A config object or list (a default may be a tuple), checked rather
    than converted: ``dict`` would read an array of pairs as an object,
    and iterating null or a number fails with an error that does not name
    the key."""
    if not isinstance(value, kind):
        what = "a JSON object" if kind is dict else "a list"
        raise _UsageError(f"{name} must be {what}, got {type(value).__name__}")
    return value


def _search_config(
    config: dict[str, Any], base: SearchConfig, restarts_flag: int | None = None
) -> SearchConfig:
    """The config's ``search`` block over ``base``, then the
    ``--restarts`` flag when given.  A NaN search ``tol`` would never stop
    the descent early and a negative ``max_iter`` would run no step, so
    both are refused, as is a count or ``seed`` that is not a nonnegative
    integer and any key ``SearchConfig`` lacks."""
    raw = {**asdict(base), **_typed("search", config.get("search", {}), dict)}
    if restarts_flag is not None:
        raw["restarts"] = restarts_flag
    unknown = set(raw) - {f.name for f in fields(SearchConfig)}
    if unknown:
        raise _UsageError(f"search {min(unknown)} is not a search setting")
    raw["tol"] = _finite_nonnegative("search tol", raw["tol"])
    for key in ("restarts", "max_iter", "seed"):
        _nonnegative_int(f"search {key}", raw[key])
    return SearchConfig(**raw)


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


def _factor_specs(config: dict[str, Any]) -> list[HilbertSpec]:
    """The config's factor layouts, of two or more entries each, checked as counts are and at least 1."""
    dims = _typed("factor_dims", config.get("factor_dims", DEFAULT_FACTOR_DIMS), (list, tuple))
    rows = (_typed("factor_dims entry", row, (list, tuple)) for row in dims)
    if not dims or any(len(row) < 2 or min(_nonnegative_int("factor_dims entry", x) for x in row) < 1 for row in rows):
        raise _UsageError(f"factor_dims must list factorizations of two or more entries >= 1, got {dims!r}")
    return [HilbertSpec(tuple(row)) for row in dims]


def _random_cases(
    args: argparse.Namespace, config: dict[str, Any], tol: float, default_count: int
) -> tuple[int, dict[str, Any], Iterator[list[tuple[int, IndirectMeasurementModel, ConservationLaw]]]]:
    """A randomized command's seed, its config record and its cases: one
    ``(case_seed, model, law)`` per case seed, cycling through the factor
    layouts, in seed order, a chunk of :func:`_chunk_cases` cases at a
    time.  Each chunk, seeds included, is drawn and sampled only when the
    loop reaches it, and its bounds are then evaluated as one stack."""
    seed = _require_seed(args, config)
    count = _case_count("count", _pick(args, config, "count", default_count))
    specs = _factor_specs(config)
    used = {"count": count, "tol": tol, "factor_dims": [list(s.factor_dims) for s in specs]}
    chunk = _chunk_cases(max(s.total_dim for s in specs))
    pending = zip(_case_seeds(seed, count), itertools.cycle(specs))

    def chunks() -> Iterator[list[tuple[int, IndirectMeasurementModel, ConservationLaw]]]:
        while batch := list(itertools.islice(pending, chunk)):
            case_seeds, case_specs = zip(*batch)
            models = random_conserving_models(case_seeds, case_specs)
            yield [(case_seed, model, law) for case_seed, (model, law) in zip(case_seeds, models)]

    return seed, used, chunks()


def _cmd_verify_identities(args: argparse.Namespace, config: dict[str, Any]) -> int:
    tol = _tol(args, config)
    if "model" in config or "law" in config:
        if not ("model" in config and "law" in config):
            raise _UsageError("verify-identities needs both \"model\" and \"law\" when either is given")
        model = _bundle(config, "model", model_from_json)
        law = _bundle(config, "law", law_from_json)
        seed = _pick(args, config, "seed", None)
        if seed is not None:
            _nonnegative_int("seed", seed)
        reports = identity_reports(model, law)  # raises ConservationError when not conserving
        records = [_record(r, tol) for r in reports]
        used = {"tol": tol, "source": "explicit model"}
        return _finish(args, "verify-identities", seed, used, records)

    seed, used, chunks = _random_cases(args, config, tol, 100)
    records = [
        _record(rep, tol)
        for cases in chunks
        for reports in stacked_identity_reports([(model, law) for _, model, law in cases])
        for rep in reports
    ]
    return _finish(args, "verify-identities", seed, used, records)


def _cmd_check_bounds(args: argparse.Namespace, config: dict[str, Any]) -> int:
    tol = _tol(args, config)
    seed, used, chunks = _random_cases(args, config, tol, 250)
    reports: list[BoundReport] = []
    for cases in chunks:
        stack = [
            (model, law, random_state(np.random.default_rng(case_seed + 1), model.spec.object_dim))
            for case_seed, model, law in cases
        ]
        for case_reports in stacked_trade_off_reports(stack):
            reports.extend(case_reports)
    records = [_record(r, tol) for r in reports]
    return _finish(args, "check-bounds", seed, used, records, csv_text=reports_to_csv(reports))


def _cmd_eval_impl(args: argparse.Namespace, config: dict[str, Any]) -> int:
    if "implementation" not in config:
        raise _UsageError("eval-impl needs \"implementation\" in the config (bundle or path)")
    impl = _bundle(config, "implementation", implementation_from_json)
    tol = _tol(args, config)
    seed = _nonnegative_int("seed", _pick(args, config, "seed", 0))
    search = _search_config(config, SearchConfig(seed=seed), args.restarts)
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
    if "law" in config:
        law = _bundle(config, "law", law_from_json)
        records.extend(_record(r, tol) for r in noise_fidelity_link(impl, law, fidelity=result))
    used = {"tol": tol, "search": asdict(search)}
    return _finish(args, "eval-impl", seed, used, records, extra_summary=info)


def _cmd_optimize(args: argparse.Namespace, config: dict[str, Any]) -> int:
    seed = _require_seed(args, config)
    kind = str(_pick(args, config, "kind", "spin"))
    defaults = OptimizeConfig()
    # kept as given: an infinity would reach the header
    points = _typed("initial_points", config.get("initial_points", []), list)
    for x in itertools.chain.from_iterable(_typed("initial_points entry", p, list) for p in points):
        if not math.isfinite(_real("initial_points entry", x)):
            raise _UsageError(f"initial_points entries must be finite, got {x!r}")
    opt = OptimizeConfig(
        restarts=_nonnegative_int("restarts", _pick(args, config, "restarts", defaults.restarts)),
        max_iter=_nonnegative_int("max_iter", _pick(args, config, "max_iter", defaults.max_iter)),
        seed=seed,
        inner=_search_config(config, replace(defaults.inner, seed=seed)),
        initial_points=tuple(tuple(p) for p in points),
    )
    if kind == "spin":
        params = {"n": _nonnegative_int("n", _pick(args, config, "n", 2))}
        scenario = build_spin(**params)
    elif kind == "boson":
        params = {
            "nbar": _real("nbar", _pick(args, config, "nbar", 1.0)),
            "tail_tol": _real("tail_tol", _pick(args, config, "tail_tol", TAIL_TOL)),
        }
        scenario = build_boson(**params)
    else:
        raise _UsageError(f"unknown scenario kind {kind!r} (expected \"spin\" or \"boson\")")

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


def _cmd_boson_check(args: argparse.Namespace, config: dict[str, Any]) -> int:
    seed = _require_seed(args, config)
    tol = _tol(args, config)
    nbars = [_real("nbars entry", x) for x in _typed("nbars", config.get("nbars", [1.0, 2.0, 4.0]), list)]
    samples = _case_count("samples_per", _pick(args, config, "samples_per", 3))
    # each nbar builds its scenario and commutant basis, so it counts as at least one case
    if len(nbars) * max(samples, 1) > MAX_CASES:
        raise _UsageError(
            f"nbars ({len(nbars)} entries) times samples_per ({samples}) must be at most {MAX_CASES} cases"
        )
    strength = _real("strength", _pick(args, config, "strength", DEFAULT_STRENGTH))
    if not abs(strength) <= MAX_STRENGTH:  # a negative strength is a valid draw
        raise _UsageError(f"strength must be finite and at most {MAX_STRENGTH:.6g} in magnitude, got {strength!r}")
    tail_tol = _real("tail_tol", _pick(args, config, "tail_tol", TAIL_TOL))
    search = _search_config(config, replace(OptimizeConfig().inner, seed=seed), args.restarts)

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
        "nbars": nbars,
        "samples_per": samples,
        "strength": strength,
        "tail_tol": tail_tol,
        "tol": tol,
        "search": asdict(search),
    }
    return _finish(args, "boson-check", seed, used, records, csv_text=reports_to_csv(reports))


def _cmd_positive_control(args: argparse.Namespace, config: dict[str, Any]) -> int:
    tol = _tol(args, config)
    basis_name = str(_pick(args, config, "basis", "x")).lower()
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


# Each command with the flags it reads besides --config, --out and --quiet; any other is a usage error.
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace, dict[str, Any]], int], tuple[str, ...]]] = {
    "verify-identities": (_cmd_verify_identities, ("seed", "tol")),
    "check-bounds": (_cmd_check_bounds, ("seed", "tol")),
    "eval-impl": (_cmd_eval_impl, ("seed", "tol", "restarts")),
    "optimize": (_cmd_optimize, ("seed", "restarts")),
    "boson-check": (_cmd_boson_check, ("seed", "tol", "restarts")),
    "positive-control": (_cmd_positive_control, ("tol",)),
}
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
        run, reads = _COMMANDS[args.command]
        unread = [f for f in _FLAGS if f not in reads and getattr(args, f) is not None]
        if unread:
            raise _UsageError(f"{args.command} does not read --{unread[0]}")
        return run(args, _load_config(args.config))
    except _UsageError as exc:
        print(f"[waylab] usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, TypeError) as exc:
        print(f"[waylab] input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
