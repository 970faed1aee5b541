"""Command-line surface: dataset analysis, simulation experiments, reports.

Three subcommands:

* ``analyze``  - per-rank interval fan, plausibility weights and combined
  interval (plus any extra requested methods) for a CSV dataset.
* ``simulate`` - coverage/width experiment on a built-in simulation design.
* ``report``   - copy a result bundle's tables under plot-ready names.

All outputs are deterministic given (input, configuration, seed): no
timestamps, stable row order, 17-significant-digit serialization, and every
file carries the hash of the configuration that produced it.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from . import bootstrap as bt
from ._memory import pin_allocator
from .errors import ConfigError, DataError, EstimationError, WimpvarError, check_weight_constants
from .montecarlo import ExperimentConfig, make_dgp, run_experiment
from .timeseries import DetrendMode, TimeSeriesData
from .vecm import IrfQuery, REDUCED_FORM, STRUCTURAL_CHOLESKY

SCHEMA_VERSION = 1

_ANALYZE_EXTRAS = (
    "ols",
    "bers_aic",
    "bers_bic",
    "ma",
    "ma_fixed",
    "fdbb_aic",
    "fdbb_bic",
    "lavar",
    "wimp",
)


def _row_format(row) -> str:
    """One %-format for rows typed like ``row``: strings as they are, integers
    (bools included) in decimal, any other number with 17 significant digits."""
    return ",".join(
        "%s" if isinstance(cell, str) else "%d" if isinstance(cell, (int, np.integer)) else "%.17g"
        for cell in row
    )


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temporary file, which
    is removed if the write fails."""
    tmp = f"{path}.tmp-{os.getpid()}"
    handle = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
    except BaseException as exc:
        os.remove(tmp)
        if isinstance(exc, UnicodeEncodeError):
            bad = exc.object[exc.start:exc.end]
            raise DataError(f"{path}: cannot write {bad!r} as UTF-8") from None
        raise
    os.replace(tmp, path)


def _write_csv(path: str, header, rows) -> None:
    """Write a table whose columns keep one type each: every row is formatted
    with the first row's format."""
    lines = [",".join(header)]
    if rows:
        row_format = _row_format(rows[0])
        lines.extend(row_format % tuple(row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def ingest_csv(path: str) -> TimeSeriesData:
    """Read a comma-separated, headered, decimal-point UTF-8 matrix.

    Rejects ragged rows, non-numeric cells and duplicate names, naming the
    offending (row, column) coordinates.
    """
    if not os.path.exists(path):
        raise DataError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        names = [name.strip() for name in header]
        if any(not name for name in names):
            raise DataError(f"{path}: empty column name in header")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"{path}: duplicate column names: {', '.join(dupes)}")
        rows = []
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(names):
                raise DataError(
                    f"{path}: row {row_number} has {len(row)} fields, expected {len(names)}"
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at row {row_number}, "
                        f"column {names[col]!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return TimeSeriesData(np.array(rows), tuple(names))


def emit_csv_matrix(path: str, data: TimeSeriesData) -> None:
    """Write a TimeSeriesData matrix; round-trips through ingest_csv exactly."""
    _write_csv(path, data.names, data.values.tolist())


# ---------------------------------------------------------------------------
# configuration


def _parse_flag(value: str) -> bool:
    """A config-file boolean: 1/true/yes/on or 0/false/no/off, in any case."""
    word = value.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _parse_methods(value: str) -> tuple:
    """A comma list of method names; blanks and repeats are dropped."""
    return tuple(dict.fromkeys(v.strip() for v in value.split(",") if v.strip()))


_COMMANDS = {
    "analyze": "per-rank fan, weights and combined interval for a CSV dataset",
    "simulate": "coverage/width experiment on a simulation design",
    "report": "copy a result bundle's tables under plot-ready names",
}
_BOTH = ("analyze", "simulate")  # the commands that take a --config file
_AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")


@dataclass(frozen=True)
class _Option:
    """How a RunConfig field is set: its flag, its config-file key (None:
    flag only), the parser of its text, the commands that read it, its
    default and the checks on its value."""

    flag: str
    key: str | None
    parse: Callable[[str], object]
    commands: tuple
    default: object = None
    simulate: object = None  # simulate's default; None: ``default``
    required: bool = False
    choices: tuple = ()
    check: tuple | None = None  # (predicate, rule): the value must satisfy the predicate
    help: str = ""

    def default_for(self, command: str):
        return self.simulate if command == "simulate" and self.simulate is not None else self.default


def _option(*args, **kwargs):
    """A RunConfig field carrying ``_Option(*args, **kwargs)``."""
    option = _Option(*args, **kwargs)
    return field(default=option.default, metadata={"option": option})


@dataclass
class RunConfig:
    """One run's settings; every field but ``command`` is an option."""

    command: str
    input: str | None = _option("--input", "input", str, ("analyze",), required=True,
                                help="CSV file with a header row")
    out: str = _option("--out", "out", str, tuple(_COMMANDS), ".", required=True,
                       help="output directory")
    p: int = _option("--p", "p", int, ("analyze",), 1, check=_AT_LEAST_1,
                     help="lag order of the levels VAR")
    gamma: float = _option("--gamma", "gamma", float, _BOTH, 0.05,
                           check=(lambda v: 0 < v < 1, "lie in (0, 1)"),
                           help="miscoverage; 0.32 is the 68%-band preset")
    n_boot: int = _option("--B", "B", int, _BOTH, 399, simulate=199,
                          help="bootstrap draws (simulate --paper-scale: 399)")
    methods: tuple = _option("--methods", "methods", _parse_methods, _BOTH, (),
                             simulate=("ols", "true_rank", "wimp"),
                             help="comma list of methods (analyze: extras to the fan and wimp)")
    detrend: str = _option("--detrend", "detrend", str, ("analyze",), "constant_and_trend",
                           simulate=DetrendMode.NONE.value,
                           choices=tuple(m.value for m in DetrendMode),
                           help="deterministic terms removed by OLS before estimation")
    kind: str = _option("--kind", "kind", str, ("analyze",), STRUCTURAL_CHOLESKY,
                        simulate=REDUCED_FORM, choices=(REDUCED_FORM, STRUCTURAL_CHOLESKY),
                        help="reduced-form or Cholesky-identified structural responses")
    h_max: int = _option("--h-max", "h_max", int, _BOTH, 20, simulate=60, check=_AT_LEAST_1,
                         help="largest horizon")
    queries: str = _option("--queries", "queries", str, ("analyze",), "grid",
                           help="'grid' or ';'-separated element:a,b,j / max:a,b items")
    c1: float = _option("--c1", "c1", float, _BOTH, 1.0, help="weight constant, > 0")
    c2: float = _option("--c2", "c2", float, _BOTH, 0.5, help="weight constant, in (0, 1)")
    seed: int = _option("--seed", "seed", int, _BOTH, 0, check=(lambda v: v >= 0, "be >= 0"),
                        help="random seed")
    dgp: str = _option("--dgp", "dgp", str, ("simulate",), "dgp1", choices=("dgp1", "dgp2"),
                       help="weak (dgp1) or strong (dgp2) cointegration design")
    T: int = _option("--T", "T", int, ("simulate",), 100, help="length of each simulated path")
    n_mc: int = _option("--n-mc", "n_mc", int, ("simulate",), 300,
                        help="Monte Carlo replications (--paper-scale: 1000)")
    workers: int | None = _option("--workers", "workers", int, ("simulate",),
                                  help="worker processes (none: WIMPVAR_WORKERS, else 1)")
    paper_sample_convention: bool = _option("--paper-sample-convention", "paper_sample_convention",
                                            _parse_flag, ("analyze",), False,
                                            help="estimate on t = p+2..T, not t = p+1..T")
    bundle: str | None = _option("--bundle", None, str, ("report",), required=True,
                                 help="result bundle to report on")

    def hash(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k not in ("out", "bundle", "workers")}
        payload["methods"] = list(self.methods)
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return digest[:16]


# RunConfig field -> its option, in field order; config-file key -> field
_OPTIONS = {f.name: f.metadata["option"] for f in fields(RunConfig) if f.metadata}
_KEYS = {option.key: name for name, option in _OPTIONS.items() if option.key}


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment.  A key given twice is
    a ConfigError naming both lines."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values, lines = {}, {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in lines:
                raise ConfigError(
                    f"{path}:{lineno}: config key {key!r} given twice, "
                    f"on lines {lines[key]} and {lineno}"
                )
            values[key], lines[key] = value.strip(), lineno
    return values


def _build_parser() -> argparse.ArgumentParser:
    # No abbreviations: --p would otherwise be simulate's --paper-scale.
    parser = argparse.ArgumentParser(
        prog="wimpvar", allow_abbrev=False,
        description="Bootstrap impulse-response intervals under cointegration-rank uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        commands = sub.add_parser(command, help=summary, allow_abbrev=False)
        if command in _BOTH:
            commands.add_argument("--config", help="flat key=value config file (flags override)")
        for name, option in _OPTIONS.items():
            if command not in option.commands:
                continue
            # An absent flag sets no attribute, so the merge sees only the flags given.
            spec = {"dest": name, "default": argparse.SUPPRESS, "help": option.help.replace("%", "%%")}
            if option.parse is _parse_flag:
                spec["action"] = "store_true"
            else:
                spec.update(type=option.parse, choices=option.choices or None)
            commands.add_argument(option.flag, **spec)
        if command == "simulate":
            commands.add_argument(
                "--paper-scale", action="store_true",
                help="use 1000 replications x 399 bootstrap draws instead of the 300 x 199 default",
            )
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The command's defaults, overridden by the config file's values, then
    by the flags given; each value is checked."""
    command = args.command
    values = {name: option.default_for(command) for name, option in _OPTIONS.items()}
    if getattr(args, "paper_scale", False):
        values.update(n_mc=1000, n_boot=399)
    given = {}
    if getattr(args, "config", None):
        for key, text in _read_config_file(args.config).items():
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            option = _OPTIONS[_KEYS[key]]
            if command not in option.commands:
                raise ConfigError(f"config key {key!r} does not apply to the {command} command")
            try:
                given[_KEYS[key]] = option.parse(text)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from None
    given.update((name, value) for name, value in vars(args).items() if name in _OPTIONS)
    for name, option in _OPTIONS.items():
        if option.required and command in option.commands and name not in given:
            also = f" or config key {option.key!r}" if command in _BOTH else ""
            raise ConfigError(f"the {command} command needs {option.flag}{also}")
    cfg = RunConfig(command=command, **{**values, **given})
    for name, option in _OPTIONS.items():
        value = getattr(cfg, name)
        if option.choices and value not in option.choices:
            raise ConfigError(f"{name} must be one of {', '.join(option.choices)}, got {value!r}")
        if option.check and not option.check[0](value):
            raise ConfigError(f"{name} must {option.check[1]}, got {value}")
    check_weight_constants(cfg.c1, cfg.c2)
    if cfg.command == "analyze":
        unknown = [m for m in cfg.methods if m not in _ANALYZE_EXTRAS]
        if unknown:
            raise ConfigError(
                f"unknown analyze methods: {', '.join(unknown)}; "
                f"choose from {', '.join(_ANALYZE_EXTRAS)}"
            )
    return cfg


def _parse_queries(cfg: RunConfig, n_vars: int):
    if cfg.queries == "grid":
        return tuple(
            IrfQuery(a=a, b=b, horizon=j, h_max=cfg.h_max, kind=cfg.kind)
            for a in range(1, n_vars + 1)
            for b in range(1, n_vars + 1)
            for j in range(0, cfg.h_max + 1)
        )
    queries = []
    for item in cfg.queries.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            tag, _, coords = item.partition(":")
            parts = [int(v) for v in coords.split(",")]
            if tag == "element":
                a, b, j = parts
                queries.append(IrfQuery(a=a, b=b, horizon=j, h_max=cfg.h_max, kind=cfg.kind))
            elif tag == "max":
                a, b = parts
                queries.append(
                    IrfQuery(a=a, b=b, h_max=cfg.h_max, functional="max_over_horizons", kind=cfg.kind)
                )
            else:
                raise ValueError(tag)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"cannot parse query item {item!r}: {exc}") from exc
    if not queries:
        raise ConfigError("query specification produced no queries")
    return tuple(queries)


# ---------------------------------------------------------------------------
# analyze


def _query_row(query: IrfQuery):
    horizon = query.horizon if query.functional == "element" else f"max0-{query.h_max}"
    return [query.kind, query.functional, query.a, query.b, str(horizon)]


_INTERVAL_HEADER = [
    "method", "rank", "kind", "functional", "response", "shock", "horizon",
    "lower", "upper", "point", "config_hash",
]


def _interval_rows(result: bt.IntervalSet, config_hash: str):
    rank = "" if result.rank is None else str(result.rank)
    rows = []
    for query, lower, upper, point in zip(
        result.queries, result.lower.tolist(), result.upper.tolist(), result.point.tolist()
    ):
        rows.append(
            [result.method, rank, *_query_row(query), lower, upper, point, config_hash]
        )
    return rows


def analyze(cfg: RunConfig) -> dict:
    """Run the analyze pipeline and write the result bundle.

    Returns the metadata dictionary (also written to ``metadata.json``).
    """
    data = ingest_csv(cfg.input)
    queries = _parse_queries(cfg, data.n_vars)
    bcfg = bt.BootstrapConfig(
        n_boot=cfg.n_boot,
        gamma=cfg.gamma,
        seed=cfg.seed,
        paper_sample_convention=cfg.paper_sample_convention,
    )
    config_hash = cfg.hash()

    prep = bt._prepare(data, cfg.p, queries, bcfg, cfg.detrend, c1=cfg.c1, c2=cfg.c2)
    names = tuple(dict.fromkeys(("wimp", *cfg.methods)))
    outcome = bt.run_methods(prep, names)
    # The first failure is reported in the order the results are written:
    # the fan by rank, the combined interval, then the extras.
    results = [prep.fan(rank) for rank in range(data.n_vars + 1)]
    censuses = {f"fixed_rank_{result.rank}": result.n_failed for result in results}
    for name in names:
        if isinstance(outcome[name], Exception):
            raise outcome[name]
        results.append(outcome[name])
        censuses[name] = outcome[name].n_failed
    weights = prep.weights()

    os.makedirs(cfg.out, exist_ok=True)
    interval_rows = []
    for result in results:
        interval_rows.extend(_interval_rows(result, config_hash))
    _write_csv(os.path.join(cfg.out, "intervals.csv"), _INTERVAL_HEADER, interval_rows)

    weight_rows = [
        [rank, weights.raw[rank], weights.normalized[rank], weights.trace_stats[rank],
         int(rank == weights.reference_rank), config_hash]
        for rank in range(weights.raw.size)
    ]
    _write_csv(
        os.path.join(cfg.out, "weights.csv"),
        ["rank", "raw_weight", "weight", "trace_stat", "is_reference", "config_hash"],
        weight_rows,
    )

    metadata = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "package_version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()},
        "config_hash": config_hash,
        "n_obs": data.n_obs,
        "variables": list(data.names),
        "reference_rank": weights.reference_rank,
        "failure_census": censuses,
        "notes": {
            "sigma_divisor": "effective sample size (no degrees-of-freedom correction)",
            "weight_sample_size": "effective sample size used in the weight exponent",
            "sample_convention": "paper" if cfg.paper_sample_convention else "minimal",
            "wimp_point": "weighted average of the fixed-rank estimates (companion estimator)",
        },
    }
    _atomic_write(
        os.path.join(cfg.out, "metadata.json"),
        json.dumps(metadata, indent=2, sort_keys=True) + "\n",
    )
    return metadata


# ---------------------------------------------------------------------------
# simulate


def simulate(cfg: RunConfig) -> dict:
    dgp = make_dgp(cfg.dgp, cfg.T)
    exp = ExperimentConfig(
        dgp=dgp,
        n_mc=cfg.n_mc,
        n_boot=cfg.n_boot,
        gamma=cfg.gamma,
        h_max=cfg.h_max,
        methods=cfg.methods,
        seed=cfg.seed,
        p=1,
        mode=DetrendMode.NONE,
        c1=cfg.c1,
        c2=cfg.c2,
    )
    table = run_experiment(exp, workers=cfg.workers)
    config_hash = cfg.hash()
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out, "coverage.csv"),
        ["method", "response", "shock", "horizon", "coverage", "mean_width",
         "n_covered", "n_success", "n_fail", "config_hash"],
        [row + [config_hash] for row in table.coverage_rows()],
    )
    _write_csv(
        os.path.join(cfg.out, "summary.csv"),
        ["method", "horizon", "median_cp", "min_cp", "mean_width", "config_hash"],
        [row + [config_hash] for row in table.summary_rows()],
    )
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "package_version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()},
        "config_hash": config_hash,
        "true_rank": dgp.true_rank,
        "failure_census": {m: table.n_failed(m) for m in table.methods},
        "notes": {
            "initialization": "paths start at zero with no burn-in",
            "detrending": "none inside the simulation harness",
        },
    }
    _atomic_write(
        os.path.join(cfg.out, "metadata.json"),
        json.dumps(metadata, indent=2, sort_keys=True) + "\n",
    )
    return metadata


# ---------------------------------------------------------------------------
# report


# bundle table -> report table, per command; copied byte for byte
_REPORT_TABLES = {
    "analyze": {"intervals.csv": "interval_table.csv", "weights.csv": "weight_bars.csv"},
    "simulate": {"coverage.csv": "coverage_table.csv", "summary.csv": "summary_table.csv"},
}


def report(bundle: str, out: str) -> None:
    """Copy a bundle's tables under their plot-ready names into ``out``."""
    meta_path = os.path.join(bundle, "metadata.json")
    if not os.path.exists(meta_path):
        raise DataError(f"not a result bundle (missing metadata.json): {bundle}")
    with open(meta_path, "r", encoding="utf-8") as handle:
        metadata = json.load(handle)
    if metadata.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"bundle schema version {metadata.get('schema_version')!r} is not "
            f"supported (expected {SCHEMA_VERSION})"
        )
    tables = _REPORT_TABLES.get(metadata.get("command"))
    if tables is None:
        raise DataError(f"bundle command {metadata.get('command')!r} has no report tables")
    os.makedirs(out, exist_ok=True)
    for source, target in tables.items():
        try:
            shutil.copyfile(os.path.join(bundle, source), os.path.join(out, target))
        except FileNotFoundError:
            raise DataError(f"bundle {bundle} has no {source}") from None


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    pin_allocator()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "report":
            report(cfg.bundle, cfg.out)
        else:
            metadata = analyze(cfg) if args.command == "analyze" else simulate(cfg)
            print(f"wrote bundle {cfg.out} (config hash {metadata['config_hash']})")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return 4
    except WimpvarError as exc:  # fallback for any other package error
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
