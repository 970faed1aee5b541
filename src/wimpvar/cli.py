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
from dataclasses import asdict, dataclass

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


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    out: str = "."
    p: int = 1
    gamma: float = 0.05
    n_boot: int = 399
    methods: tuple = ()
    detrend: str = "constant_and_trend"
    kind: str = STRUCTURAL_CHOLESKY
    h_max: int = 20
    queries: str = "grid"
    c1: float = 1.0
    c2: float = 0.5
    seed: int = 0
    dgp: str = "dgp1"
    T: int = 100
    n_mc: int = 300
    workers: int | None = None
    paper_sample_convention: bool = False
    bundle: str | None = None

    def hash(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k not in ("out", "bundle", "workers")}
        payload["methods"] = list(self.methods)
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return digest[:16]


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def _parse_flag(value: str) -> bool:
    """A config-file boolean: 1/true/yes/on or 0/false/no/off, in any case."""
    word = value.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


_CONFIG_KEYS = {
    "input": str,
    "out": str,
    "p": int,
    "gamma": float,
    "B": int,
    "methods": str,
    "detrend": str,
    "kind": str,
    "h_max": int,
    "queries": str,
    "c1": float,
    "c2": float,
    "seed": int,
    "dgp": str,
    "T": int,
    "n_mc": int,
    "workers": int,
    "paper_sample_convention": _parse_flag,
}
# config-file keys a command does not read; giving one is an error
_IGNORED_KEYS = {
    "analyze": ("dgp", "T", "n_mc", "workers"),
    "simulate": ("input", "p", "detrend", "kind", "queries", "paper_sample_convention"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wimpvar",
        description="Bootstrap impulse-response intervals under cointegration-rank uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="per-rank fan, weights and combined interval for a CSV dataset")
    analyze.add_argument("--input", required=True, help="CSV file with a header row")
    analyze.add_argument("--out", required=True, help="output bundle directory")
    analyze.add_argument("--config", help="flat key=value config file (flags override)")
    analyze.add_argument("--p", type=int)
    analyze.add_argument("--gamma", type=float, help="miscoverage; 0.32 is the 68%%-band preset")
    analyze.add_argument("--B", type=int, dest="n_boot")
    analyze.add_argument("--methods", help="comma list of extra methods")
    analyze.add_argument("--detrend", choices=[m.value for m in DetrendMode])
    analyze.add_argument("--kind", choices=[REDUCED_FORM, STRUCTURAL_CHOLESKY])
    analyze.add_argument("--h-max", type=int, dest="h_max")
    analyze.add_argument("--queries", help="'grid' or ';'-separated element:a,b,j / max:a,b items")
    analyze.add_argument("--c1", type=float)
    analyze.add_argument("--c2", type=float)
    analyze.add_argument("--seed", type=int)
    analyze.add_argument("--paper-sample-convention", action="store_true", default=None,
                         dest="paper_sample_convention")

    simulate = sub.add_parser("simulate", help="coverage/width experiment on a simulation design")
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--config", help="flat key=value config file (flags override)")
    simulate.add_argument("--dgp", choices=["dgp1", "dgp2"])
    simulate.add_argument("--T", type=int, dest="T")
    simulate.add_argument("--n-mc", type=int, dest="n_mc")
    simulate.add_argument("--B", type=int, dest="n_boot")
    simulate.add_argument("--gamma", type=float)
    simulate.add_argument("--h-max", type=int, dest="h_max")
    simulate.add_argument("--methods")
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--workers", type=int)
    simulate.add_argument(
        "--paper-scale", action="store_true",
        help="use 1000 replications x 399 bootstrap draws instead of the 300 x 199 default",
    )

    report = sub.add_parser("report", help="copy a result bundle's tables under plot-ready names")
    report.add_argument("--bundle", required=True)
    report.add_argument("--out", required=True)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.command == "simulate":
        cfg.detrend = DetrendMode.NONE.value
        cfg.kind = REDUCED_FORM
        cfg.h_max = 60
        cfg.methods = ("ols", "true_rank", "wimp")
        if getattr(args, "paper_scale", False):
            cfg.n_mc, cfg.n_boot = 1000, 399
        else:
            cfg.n_mc, cfg.n_boot = 300, 199
    file_values = {}
    if getattr(args, "config", None):
        raw = _read_config_file(args.config)
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if key in _IGNORED_KEYS[args.command]:
                raise ConfigError(
                    f"config key {key!r} does not apply to the {args.command} command"
                )
            try:
                file_values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from None
    for key, value in file_values.items():
        attr = "n_boot" if key == "B" else key
        if attr == "methods":
            cfg.methods = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            setattr(cfg, attr, value)
    for attr in (
        "input", "out", "p", "gamma", "n_boot", "detrend", "kind", "h_max",
        "queries", "c1", "c2", "seed", "dgp", "T", "n_mc", "workers",
        "paper_sample_convention", "bundle",
    ):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "methods", None) is not None:
        cfg.methods = tuple(v.strip() for v in args.methods.split(",") if v.strip())
    cfg.methods = tuple(dict.fromkeys(cfg.methods))  # dedupe, keep order
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if not 0 < cfg.gamma < 1:
        raise ConfigError(f"gamma must lie in (0, 1), got {cfg.gamma}")
    if cfg.p < 1:
        raise ConfigError(f"p must be >= 1, got {cfg.p}")
    if cfg.h_max < 1:
        raise ConfigError(f"h_max must be >= 1, got {cfg.h_max}")
    check_weight_constants(cfg.c1, cfg.c2)
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    detrend_modes = [m.value for m in DetrendMode]
    if cfg.detrend not in detrend_modes:
        raise ConfigError(f"detrend must be one of {', '.join(detrend_modes)}, got {cfg.detrend!r}")
    if cfg.command == "analyze":
        unknown = [m for m in cfg.methods if m not in _ANALYZE_EXTRAS]
        if unknown:
            raise ConfigError(
                f"unknown analyze methods: {', '.join(unknown)}; "
                f"choose from {', '.join(_ANALYZE_EXTRAS)}"
            )


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
        if args.command == "report":
            report(args.bundle, args.out)
        else:
            cfg = _merge_config(args)
            if args.command == "analyze":
                metadata = analyze(cfg)
            else:
                metadata = simulate(cfg)
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
