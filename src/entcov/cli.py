"""Command-line surface: sweep experiments to CSV curve data, correlation
file ingestion, the randomized property battery, and single witness runs.

CSV files carry a '#'-prefixed header embedding the full configuration, so
every output is reproducible from the file alone.  Verdict flips along a
sweep axis are reported as the midpoint of the bracketing grid cells.  Exit
codes: 0 success, 1 usage error, 2 input-validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .criterion import (
    DEFAULT_VERDICT_TOL,
    ENTANGLED,
    UNDETECTED,
    CorrelationData,
    DataValidationError,
    criterion_grid,
    criterion_matrix,
    criterion_matrix_from_data,
    detect,
    require_tolerance,
)
from .linalg import HermiticityError
from .observables import collective_spin_set, hp_quadrature_set, pauli_product_set, rotate_so3
from .reference import (WITNESS_VERDICT_TOL, AnnealParams, ppt_min_eigenvalue_grid,
                        witness_optimize)
from .states import (WernerState, bell_state, product_state, spin_coherent_x,
                     spin_ensemble_state, szsz_evolve_grid, werner_mix)
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
        for c in self.criteria:
            if c not in CRITERIA:
                raise ValueError(f"unknown criterion {c!r}; choose from {','.join(CRITERIA)}")
        if not self.criteria:
            raise ValueError("at least one criterion is required")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _flip_midpoints(xs, flags) -> list[float]:
    return [
        0.5 * (xs[i - 1] + xs[i])
        for i in range(1, len(xs))
        if flags[i] != flags[i - 1]
    ]


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([int(master), int(index)]).generate_state(1)[0])


def _write_csv(out, config: dict, comments, columns, rows):
    lines = ["# entcov " + config["experiment"].lower().replace("_", "-") + " output"]
    lines.append("# config: " + json.dumps(config, sort_keys=True))
    lines.extend("# " + c for c in comments)
    lines.append(",".join(columns))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        print(f"wrote {out} ({len(rows)} rows)")


def run_werner_bell(cfg: SweepConfig) -> int:
    """Eigenvalue sweep of the two-qubit Werner mixture of the Bell state."""
    obs_set = pauli_product_set()
    bell = bell_state()
    mus = np.linspace(*cfg.mu_grid)
    columns = ["mu", "eig_1", "eig_2", "eig_3", "det", "verdict"]
    rows = []
    flags = []
    for mu in mus:
        report = detect(criterion_matrix(werner_mix(bell, mu), obs_set), cfg.tolerance)
        rows.append(
            [_fmt(mu), *(_fmt(e) for e in report.eigenvalues),
             _fmt(report.determinant), report.verdict]
        )
        flags.append(report.verdict == ENTANGLED)
    comments = [f"verdict flip at mu = {_fmt(x)}" for x in _flip_midpoints(mus, flags)]
    _write_csv(cfg.out, asdict(cfg), comments, columns, rows)
    for c in comments:
        print(c)
    return EXIT_OK


def _require_witness_dim(m: int):
    if (m + 1) ** 2 > EW_DIM_CAP:
        raise ValueError(
            f"witness runs are capped at joint dimension {EW_DIM_CAP} "
            f"(m <= {int(np.sqrt(EW_DIM_CAP)) - 1}): the constrained annealing cost "
            "grows with the Hilbert space dimension, not the operator count"
        )


def _ensemble_grid(cfg: EnsembleConfig, obs_sets: dict, mus, ts):
    """Reports per criterion, PPT minima and witness results over the
    (mu, t) grid, each in row order (mu major).

    psi is evolved for every t in one array from a t-free start built once.
    Each criterion takes the whole grid in one call, so a psi's Gram matrix
    is formed once for all mu, and detect takes one mu row of matrices at a
    time; the PPT column reads every psi's Schmidt coefficients from one
    stacked SVD.  Only the witness forms a D x D state.  The states go out
    of scope on return, before the rows are formatted.
    """
    coherent = spin_coherent_x(cfg.m)
    states = szsz_evolve_grid(product_state(coherent, coherent), ts)
    ppt = ppt_min_eigenvalue_grid(states, mus).ravel() if "ppt" in cfg.criteria else None
    reports = {
        name: [r for row in criterion_grid(states, mus, obs_set)
               for r in detect(row, cfg.tolerance)]
        for name, obs_set in obs_sets.items()
    }
    ew_results = None
    if "ew" in cfg.criteria:
        params = AnnealParams(
            t0=cfg.ew_t0, decay=cfg.ew_decay, sweeps=cfg.ew_sweeps, box_scale=cfg.ew_box
        )
        points = [WernerState(psi, mu) for mu in mus for psi in states]
        tasks = [(p, cfg.m, params, _point_seed(cfg.seed, i)) for i, p in enumerate(points)]
        # the pool forks all of its workers at the first submit
        workers = min(cfg.jobs, len(tasks))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                ew_results = list(pool.map(witness_optimize, *zip(*tasks)))
        else:
            ew_results = [witness_optimize(*task) for task in tasks]
    return reports, ppt, ew_results


def run_spin_ensemble(cfg: EnsembleConfig) -> int:
    """Criteria comparison over the (mu, t) grid of two evolved ensembles."""
    if cfg.m < 1:
        raise ValueError("ensemble size m must be >= 1")
    if "ew" in cfg.criteria:
        _require_witness_dim(cfg.m)
    spin = collective_spin_set(cfg.m)
    if cfg.rotate is not None:
        spin = rotate_so3(spin, np.asarray(cfg.rotate, dtype=float).reshape(3, 3))
    obs_sets = {}
    if "cm" in cfg.criteria:
        obs_sets["cm"] = spin
    if "ds" in cfg.criteria:
        obs_sets["ds"] = hp_quadrature_set(cfg.m, spin_set=spin)

    mus = np.linspace(*cfg.mu_grid)
    ts = np.linspace(*cfg.t_grid)
    columns = ["mu", "t"]
    if "cm" in cfg.criteria:
        columns += [f"cm_eig_{i + 1}" for i in range(6)] + ["cm_det", "cm_verdict"]
    if "ds" in cfg.criteria:
        columns += ["ds_min_eig", "ds_det", "ds_verdict"]
    if "ppt" in cfg.criteria:
        columns += ["ppt_min_eig"]
    if "ew" in cfg.criteria:
        columns += ["ew_min_expectation", "ew_residual"]

    reports, ppt, ew_results = _ensemble_grid(cfg, obs_sets, mus, ts)
    rows = []
    for index, (mu, t) in enumerate(itertools.product(mus, ts)):
        row = [_fmt(mu), _fmt(t)]
        if "cm" in reports:
            report = reports["cm"][index]
            row += [_fmt(e) for e in report.eigenvalues]
            row += [_fmt(report.determinant), report.verdict]
        if "ds" in reports:
            report = reports["ds"][index]
            row += [_fmt(report.min_eigenvalue), _fmt(report.determinant), report.verdict]
        if ppt is not None:
            row.append(_fmt(ppt[index]))
        if ew_results is not None:
            result = ew_results[index]
            row += [_fmt(result.min_expectation), _fmt(result.feasibility_residual)]
        rows.append(row)

    comments = []
    for name, named in reports.items():
        for i_mu, mu in enumerate(mus):
            flags = [r.verdict == ENTANGLED for r in named[i_mu * len(ts):(i_mu + 1) * len(ts)]]
            for x in _flip_midpoints(ts, flags):
                comments.append(f"{name} verdict flip at t = {_fmt(x)} for mu = {_fmt(mu)}")
    _write_csv(cfg.out, asdict(cfg), comments, columns, rows)
    for c in comments:
        print(c)
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
    results = run_property_battery(trials=trials, max_n=max_n, seed=seed)
    all_passed = True
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        all_passed &= r.passed
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def run_witness(args) -> int:
    _require_witness_dim(args.m)
    params = AnnealParams(
        t0=args.t0, decay=args.decay, sweeps=args.sweeps, box_scale=args.box
    )
    state = WernerState(spin_ensemble_state(args.m, args.t), args.mu)
    result = witness_optimize(state, args.m, params, args.seed)
    print(f"min_expectation: {_fmt(result.min_expectation)}")
    print(f"feasibility_residual: {_fmt(result.feasibility_residual)}")
    print(f"iterations: {result.iterations}")
    detected = result.min_expectation < -WITNESS_VERDICT_TOL
    print("verdict: " + (ENTANGLED if detected else UNDETECTED))
    if args.out is not None:
        config = {
            "experiment": "WITNESS",
            "m": args.m, "mu": args.mu, "t": args.t, "seed": args.seed,
            "sweeps": args.sweeps, "t0": args.t0, "decay": args.decay, "box": args.box,
        }
        columns = ["min_expectation", "feasibility_residual", "iterations"]
        columns += [f"c_{i}{j}" for i in range(4) for j in range(4)]
        row = [_fmt(result.min_expectation), _fmt(result.feasibility_residual),
               str(result.iterations)]
        row += [_fmt(c) for c in result.coefficients.ravel()]
        _write_csv(args.out, config, [], columns, [row])
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


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=run_witness)

    return parser


def main(argv=None) -> int:
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
