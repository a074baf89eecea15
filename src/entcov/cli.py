"""Command-line surface: sweep experiments to CSV curve data, correlation
file ingestion, the randomized property battery, and single witness runs.

CSV files carry a '#'-prefixed header embedding the full configuration, so
every output is reproducible from the file alone.  A spin-ensemble sweep
evolves its t grid in blocks of at most states.GRID_CHUNK_BYTES of
amplitudes (szsz_evolve_blocks, the one evolution route) and reduces each
block at once to what its columns need, a CriterionGrid and a PptGrid, so
only arrays of order n_t N^2 outlive a block.  cm and ds alike read one
criterion grid of the spin sextet: the ds matrices are its quadrature
block divided by 2M.
werner-bell eigensolves the stack of its criterion matrices in one detect
call.  Every command hands its CSV
columns, named 1-D arrays, to the one writer _write_csv.  Verdict flips
along a sweep axis are reported as the midpoint of the bracketing grid
cells.  Exit codes: 0 success, 1 usage error, 2 input-validation error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .criterion import (
    DEFAULT_VERDICT_TOL,
    ENTANGLED,
    CorrelationData,
    CriterionGrid,
    CriterionReport,
    DataValidationError,
    criterion_matrix,
    criterion_matrix_from_data,
    detect,
    require_tolerance,
)
from .linalg import HermiticityError
from .observables import (collective_spin_set, hp_quadrature_block, pauli_product_set,
                          rotate_so3)
from .reference import AnnealParams, PptGrid, witness_optimize
from .states import (WernerState, bell_state, product_state, spin_coherent_x,
                     spin_ensemble_state, szsz_evolve_blocks, werner_mix)
from .suite import DEFAULT_MAX_N, DEFAULT_TRIALS, run_property_battery

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

EW_DIM_CAP = 36

CRITERIA = ("cm", "ds", "ppt", "ew")


def _check_grid(name: str, grid: tuple[float, float, int]):
    lo, hi, steps = grid
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} grid bounds must be finite, got min {lo} and max {hi}")
    if steps < 1:
        raise ValueError(f"{name} grid needs at least 1 step")
    if lo > hi:
        raise ValueError(f"{name} grid has min {lo} > max {hi}")


@dataclass(frozen=True)
class SweepConfig:
    """Everything a mu sweep depends on; embedded verbatim in the CSV."""

    experiment: str
    mu_grid: tuple[float, float, int]
    tolerance: float
    out: str | None

    def __post_init__(self):
        _check_grid("mu", self.mu_grid)
        lo, hi, _ = self.mu_grid
        if lo < 0.0 or hi > 1.0:
            raise ValueError("mu grid must stay inside [0, 1]")
        require_tolerance(self.tolerance)


# each witness setting of a spin-ensemble sweep and the AnnealParams field it sets
EW_SETTINGS = {"ew_t0": "t0", "ew_decay": "decay", "ew_sweeps": "sweeps", "ew_box": "box_scale"}


@dataclass(frozen=True)
class EnsembleConfig(SweepConfig):
    """A (mu, t) sweep of two spin ensembles, its criteria and witness settings."""

    m: int
    t_grid: tuple[float, float, int]
    criteria: tuple[str, ...]
    seed: int
    rotate: tuple[float, ...] | None
    jobs: int
    ew_sweeps: int
    ew_t0: float
    ew_decay: float
    ew_box: float

    def __post_init__(self):
        super().__post_init__()
        _check_grid("t", self.t_grid)
        for i, c in enumerate(self.criteria):
            if c not in CRITERIA:
                raise ValueError(f"unknown criterion {c!r}; choose from {','.join(CRITERIA)}")
            if c in self.criteria[:i]:
                raise ValueError(f"criterion {c!r} is repeated")
        if not self.criteria:
            raise ValueError("at least one criterion is required")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        _check_seed(self.seed)
        # whatever the criteria: every setting lands in the CSV's config line
        for name, field in EW_SETTINGS.items():
            try:
                AnnealParams(**{field: getattr(self, name)})
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

    @property
    def anneal(self) -> AnnealParams:
        return AnnealParams(**{field: getattr(self, name) for name, field in EW_SETTINGS.items()})


FLOAT_SPEC = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_SPEC)


def _flip_midpoints(xs, flags) -> list[float]:
    """Midpoint of each pair of neighbouring cells whose flags differ, the
    pairs found by one array comparison."""
    flags = np.asarray(flags)
    return [0.5 * (xs[i - 1] + xs[i]) for i in np.flatnonzero(flags[1:] != flags[:-1]) + 1]


def _check_seed(seed: int):
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([int(master), int(index)]).generate_state(1)[0])


def _write_csv(out, config: dict, comments, columns: dict):
    """The one CSV writer: the header, config and comment lines, then a row
    per entry of the named 1-D columns, strings (verdicts) as they are and
    numbers as _fmt gives them.  Each row is one % over a template of "%s"
    and "%" FLOAT_SPEC cells, which formats a float to the bytes of
    format(x, FLOAT_SPEC).  The comments are then printed."""
    arrays = list(map(np.asarray, columns.values()))
    template = ",".join("%s" if col.dtype.kind == "U" else "%" + FLOAT_SPEC for col in arrays)
    cells = [col.tolist() if col.dtype.kind == "U" else col.astype(float).tolist()
             for col in arrays]
    rows = [template % row for row in zip(*cells)]
    lines = ["# entcov " + config["experiment"].lower().replace("_", "-") + " output"]
    lines.append("# config: " + json.dumps(config, sort_keys=True))
    lines.extend("# " + c for c in comments)
    lines.append(",".join(columns))
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        print(f"wrote {out} ({len(rows)} rows)")
    for c in comments:
        print(c)


def _report_columns(prefix: str, report: CriterionReport, every_eigenvalue: bool) -> dict:
    """A stacked report's CSV columns, each name led by prefix: every
    eigenvalue or only the minimum, then the determinant and the verdict."""
    if every_eigenvalue:
        columns = {f"{prefix}eig_{i + 1}": e for i, e in enumerate(report.eigenvalues.T)}
    else:
        columns = {f"{prefix}min_eig": report.min_eigenvalue}
    columns[f"{prefix}det"] = report.determinant
    columns[f"{prefix}verdict"] = report.verdict
    return columns


def run_werner_bell(cfg: SweepConfig) -> int:
    """Eigenvalue sweep of the two-qubit Werner mixture of the Bell state;
    the criterion matrices of every mu are eigensolved in one detect call."""
    obs_set = pauli_product_set()
    bell = bell_state()
    mus = np.linspace(*cfg.mu_grid)
    matrices = np.array([criterion_matrix(werner_mix(bell, mu), obs_set) for mu in mus])
    report = detect(matrices, cfg.tolerance)
    flags = report.verdict == ENTANGLED
    comments = [f"verdict flip at mu = {_fmt(x)}" for x in _flip_midpoints(mus, flags)]
    _write_csv(cfg.out, asdict(cfg), comments, {"mu": mus, **_report_columns("", report, True)})
    return EXIT_OK


def _require_witness_dim(m: int):
    # before the square, which a negative m would pass off as large
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    if (m + 1) ** 2 > EW_DIM_CAP:
        raise ValueError(
            f"witness runs are capped at joint dimension {EW_DIM_CAP} "
            f"(m <= {int(np.sqrt(EW_DIM_CAP)) - 1}): the constrained annealing cost "
            "grows with the Hilbert space dimension, not the operator count"
        )


def _detect_rows(grid: np.ndarray, tol: float) -> CriterionReport:
    """One stacked report of a (n_mu, n_t, N, N) grid, row order mu major,
    from one detect call per mu: the Hermiticity check of the whole grid at
    once would hold several temporaries of the grid's size."""
    return CriterionReport(np.concatenate([detect(row, tol).eigenvalues for row in grid]), tol)


def _ensemble_columns(cfg: EnsembleConfig, spin, mus, ts):
    """The CSV columns by name, in CSV order, over the (mu, t) grid in row
    order (mu major), and the stacked cm and ds reports whose verdict flips
    are reported.

    psi is evolved from a t-free start built once, in blocks of at most
    states.GRID_CHUNK_BYTES of amplitudes (szsz_evolve_blocks), and each
    block is handed at once to every reduction its columns need, so a sweep
    holds one block at a time.  cm and ds both read one CriterionGrid of the spin
    sextet, which keeps each psi's p and Gram matrix, formed once for all mu
    and both criteria: the ds matrices are its quadrature block divided by
    2M (hp_quadrature_block).  The PPT column keeps each psi's two largest
    Schmidt coefficients, from one SVD per block (PptGrid).  The witness,
    capped at D <= EW_DIM_CAP, keeps every psi and is the only column that
    forms a D x D state.
    """
    coherent = spin_coherent_x(cfg.m)
    gram = CriterionGrid(spin) if "cm" in cfg.criteria or "ds" in cfg.criteria else None
    ppt = PptGrid() if "ppt" in cfg.criteria else None
    psis = [] if "ew" in cfg.criteria else None
    for block in szsz_evolve_blocks(product_state(coherent, coherent), ts):
        if gram is not None:
            gram.add(block)
        if ppt is not None:
            ppt.add(block)
        if psis is not None:
            psis.extend(block)
    columns = {"mu": np.repeat(mus, len(ts)), "t": np.tile(ts, len(mus))}
    reports = {}
    if gram is not None:
        grid = gram.matrices(mus)
        if "cm" in cfg.criteria:
            reports["cm"] = _detect_rows(grid, cfg.tolerance)
            columns.update(_report_columns("cm_", reports["cm"], True))
        if "ds" in cfg.criteria:
            reports["ds"] = _detect_rows(hp_quadrature_block(grid, cfg.m), cfg.tolerance)
            columns.update(_report_columns("ds_", reports["ds"], False))
    if ppt is not None:
        columns["ppt_min_eig"] = ppt.min_eigenvalues(mus).ravel()
    if psis is not None:
        params = cfg.anneal
        points = [WernerState(psi, mu) for mu in mus for psi in psis]
        tasks = [(p, cfg.m, params, _point_seed(cfg.seed, i)) for i, p in enumerate(points)]
        # the pool forks all of its workers at the first submit; it is loaded
        # only here, the one place that runs it
        workers = min(cfg.jobs, len(tasks))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(witness_optimize, *zip(*tasks)))
        else:
            results = [witness_optimize(*task) for task in tasks]
        columns["ew_min_expectation"] = [r.min_expectation for r in results]
        columns["ew_residual"] = [r.feasibility_residual for r in results]
    return columns, reports


def run_spin_ensemble(cfg: EnsembleConfig) -> int:
    """Criteria comparison over the (mu, t) grid of two evolved ensembles."""
    if "ew" in cfg.criteria:
        _require_witness_dim(cfg.m)
    spin = collective_spin_set(cfg.m)
    if cfg.rotate is not None:
        spin = rotate_so3(spin, np.asarray(cfg.rotate, dtype=float).reshape(3, 3))

    mus = np.linspace(*cfg.mu_grid)
    ts = np.linspace(*cfg.t_grid)
    columns, reports = _ensemble_columns(cfg, spin, mus, ts)
    comments = [f"{name} verdict flip at t = {_fmt(x)} for mu = {_fmt(mu)}"
                for name, report in reports.items()
                for mu, flags in zip(mus, (report.verdict == ENTANGLED).reshape(len(mus), -1))
                for x in _flip_midpoints(ts, flags)]
    _write_csv(cfg.out, asdict(cfg), comments, columns)
    return EXIT_OK


def run_from_data(path: str, tol: float) -> int:
    """Verdict for an externally measured correlation record."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    data = CorrelationData.from_dict(payload)
    report = detect(criterion_matrix_from_data(data), tol)
    print(f"operators: {len(data.labels)} ({', '.join(data.labels)})")
    print("eigenvalues: " + " ".join(_fmt(e) for e in report.eigenvalues))
    print(f"min_eigenvalue: {_fmt(report.min_eigenvalue)}")
    print(f"determinant: {_fmt(report.determinant)}")
    print(f"verdict: {report.verdict}")
    return EXIT_OK


def run_uncertainty_suite(trials: int, max_n: int, seed: int) -> int:
    _check_seed(seed)
    results = run_property_battery(trials=trials, max_n=max_n, seed=seed)
    all_passed = True
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        all_passed &= r.passed
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def run_witness(args) -> int:
    _require_witness_dim(args.m)
    _check_seed(args.seed)
    params = AnnealParams(
        t0=args.t0, decay=args.decay, sweeps=args.sweeps, box_scale=args.box
    )
    if not np.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    state = WernerState(spin_ensemble_state(args.m, args.t), args.mu)
    result = witness_optimize(state, args.m, params, args.seed)
    print(f"min_expectation: {_fmt(result.min_expectation)}")
    print(f"feasibility_residual: {_fmt(result.feasibility_residual)}")
    print(f"iterations: {result.iterations}")
    print(f"verdict: {result.verdict}")
    if args.out is not None:
        config = {
            "experiment": "WITNESS",
            "m": args.m, "mu": args.mu, "t": args.t, "seed": args.seed,
            "sweeps": args.sweeps, "t0": args.t0, "decay": args.decay, "box": args.box,
        }
        names = ["min_expectation", "feasibility_residual", "iterations"]
        names += [f"c_{i}{j}" for i in range(4) for j in range(4)]
        row = [result.min_expectation, result.feasibility_residual, result.iterations,
               *result.coefficients.ravel()]
        _write_csv(args.out, config, [], {name: [x] for name, x in zip(names, row)})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _sweep_config(args, experiment: str) -> SweepConfig:
    return SweepConfig(experiment, (args.mu_min, args.mu_max, args.mu_steps), args.tol, args.out)


def _ensemble_config(args) -> EnsembleConfig:
    return EnsembleConfig(
        **asdict(_sweep_config(args, "SPIN_ENSEMBLE")), m=args.m,
        t_grid=(args.t_min, args.t_max, args.t_steps), criteria=tuple(args.criteria.split(",")),
        seed=args.seed, rotate=tuple(args.rotate) if args.rotate else None, jobs=args.jobs,
        ew_sweeps=args.ew_sweeps, ew_t0=args.ew_t0, ew_decay=args.ew_decay, ew_box=args.ew_box,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parse_args fills
    a fresh namespace on every call, so no option carries over."""
    parser = _Parser(
        prog="entcov",
        description="Entanglement detection from covariance and commutation matrices",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    anneal = AnnealParams()

    p = sub.add_parser("werner-bell", help="two-qubit Werner-Bell eigenvalue sweep")
    p.add_argument("--mu-min", type=float, default=0.0)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--mu-steps", type=int, default=201)
    p.add_argument("--tol", type=float, default=DEFAULT_VERDICT_TOL)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=lambda a: run_werner_bell(_sweep_config(a, "WERNER_BELL")))

    p = sub.add_parser("spin-ensemble", help="two-ensemble (mu, t) criteria sweep")
    p.add_argument("--m", type=int, required=True, help="qubits per ensemble")
    p.add_argument("--mu-min", type=float, default=1.0)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--mu-steps", type=int, default=1)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=0.5)
    p.add_argument("--t-steps", type=int, default=200)
    p.add_argument("--criteria", default="cm", help="comma list from cm,ds,ppt,ew")
    p.add_argument("--rotate", type=float, nargs=9, default=None,
                   help="row-major 3x3 rotation applied to both spin triples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_VERDICT_TOL)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for witness points")
    p.add_argument("--ew-sweeps", type=int, default=anneal.sweeps, help="witness annealing sweeps")
    p.add_argument("--ew-t0", type=float, default=anneal.t0, help="witness starting temperature")
    p.add_argument("--ew-decay", type=float, default=anneal.decay,
                   help="witness temperature decay")
    p.add_argument("--ew-box", type=float, default=anneal.box_scale,
                   help="witness coefficient box scale")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=lambda a: run_spin_ensemble(_ensemble_config(a)))

    p = sub.add_parser("from-data", help="verdict for a measured correlation file")
    p.add_argument("--input", required=True, help="JSON correlation record")
    p.add_argument("--tol", type=float, default=DEFAULT_VERDICT_TOL)
    p.set_defaults(func=lambda a: run_from_data(a.input, a.tol))

    p = sub.add_parser("uncertainty-suite", help="randomized property battery")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=lambda a: run_uncertainty_suite(a.trials, a.max_n, a.seed))

    p = sub.add_parser("witness", help="single witness optimization run")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweeps", type=int, default=anneal.sweeps)
    p.add_argument("--t0", type=float, default=anneal.t0)
    p.add_argument("--decay", type=float, default=anneal.decay)
    p.add_argument("--box", type=float, default=anneal.box_scale)
    p.add_argument("--out", default=None, help="CSV path for the result row")
    p.set_defaults(func=lambda a: run_witness(a))

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  The parser is built once
    per process (build_parser), so repeated in-process calls only parse."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (HermiticityError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataValidationError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
