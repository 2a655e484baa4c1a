"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Evolve a named problem on a uniform grid, report the summary, and
    optionally write a snapshot or checkpoint.
``amr``
    Evolve a named problem on the adaptive block forest, optionally
    distributed over simulated ranks or real worker processes with
    dynamic Morton-curve rebalancing.
``experiment``
    Regenerate one table/figure of the evaluation by id (E1..E14, A1..A4).
``info``
    List available problems, schemes, solvers, and experiments.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import relative_l1_error
from .boundary import make_boundaries
from .core import Solver, SolverConfig
from .eos import IdealGasEOS
from .mesh.amr.partition import PARTITIONERS
from .mesh.grid import Grid
from .physics.initial_data import (
    SHOCK_TUBES,
    blast_wave_2d,
    kelvin_helmholtz_2d,
    shock_tube,
)
from .physics.srhd import SRHDSystem
from .reconstruct import SCHEMES
from .riemann import SOLVERS
from .utils.errors import ReproError

#: named problems runnable from the CLI: name -> (ndim, default t_final)
PROBLEMS = {
    "rp1": (1, 0.4),
    "rp2": (1, 0.35),
    "blast2d": (2, 0.2),
    "kh": (2, 2.0),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable relativistic HRSC for heterogeneous computing "
        "(reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve a named problem")
    run.add_argument("problem", choices=sorted(PROBLEMS))
    run.add_argument("--n", type=int, default=200, help="cells per axis")
    run.add_argument("--t-final", type=float, default=None)
    run.add_argument("--cfl", type=float, default=0.4)
    run.add_argument("--reconstruction", choices=SCHEMES, default="mc")
    run.add_argument("--riemann", choices=sorted(SOLVERS), default="hllc")
    run.add_argument("--snapshot", metavar="PATH", help="write final .npz snapshot")
    run.add_argument("--checkpoint", metavar="PATH", help="write final checkpoint")
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="stream per-step structured metrics (JSONL) to PATH and print "
        "the aggregated summary table",
    )
    run.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="chaos-test the run against a seeded FaultPlan JSON file "
        "(see repro.resilience)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint every N steps to the --checkpoint path during the "
        "run (0 disables; the final checkpoint is written either way)",
    )
    run.add_argument(
        "--failsafe-frac",
        type=float,
        default=0.0,
        metavar="F",
        help="max fraction of cells per con2prim sweep that may be "
        "atmosphere-reset instead of aborting the run (0 disables)",
    )
    run.add_argument(
        "--ranks",
        type=int,
        default=0,
        metavar="P",
        help="run on the distributed solver with P ranks (near-cubic "
        "process grid; 0 = single-grid solver), simulated in one process or, "
        "with --executor process, one worker process each",
    )
    run.add_argument(
        "--overlap",
        action="store_true",
        help="with --ranks: overlap halo exchanges with interior compute "
        "(bit-identical to blocking; prints the comm.overlap.* summary)",
    )
    run.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="distributed execution backend: 'serial' simulates all --ranks "
        "in one process, 'process' runs each rank as a worker process over "
        "shared memory (bit-identical results, real parallel wall-clock)",
    )
    run.add_argument(
        "--max-rank-restarts",
        type=int,
        default=None,
        metavar="N",
        help="with --executor process: supervise the workers and respawn "
        "crashed or hung ranks in-run, up to N respawns (bit-identical "
        "recovery from the last consistent step snapshot)",
    )
    run.add_argument(
        "--degrade",
        action="store_true",
        help="with --max-rank-restarts: when the respawn budget is "
        "exhausted, degrade gracefully to the serial executor from the "
        "last snapshot instead of failing the run",
    )
    run.add_argument(
        "--kernel-target",
        choices=("numpy", "flat", "cext"),
        default="numpy",
        help="codegen target for the hot kernels: 'numpy' handwritten "
        "reference (default), 'flat' SymPy-generated SoA kernels, 'cext' "
        "cffi-compiled C kernels (falls back to 'flat' with a warning when "
        "no C toolchain is available)",
    )

    run.set_defaults(_subparser=run)

    amr = sub.add_parser(
        "amr",
        help="evolve a named problem on the adaptive (AMR) block forest",
    )
    amr.add_argument("problem", choices=("blast2d", "rp1", "rp2"))
    amr.add_argument("--n", type=int, default=64, help="root cells per axis")
    amr.add_argument("--t-final", type=float, default=None)
    amr.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="stop after N coarse steps even if --t-final is not reached",
    )
    amr.add_argument("--cfl", type=float, default=0.4)
    amr.add_argument(
        "--block-size", type=int, default=None, metavar="B",
        help="cells per block per axis (AMRConfig default when omitted)",
    )
    amr.add_argument("--max-levels", type=int, default=None, metavar="L")
    amr.add_argument("--refine-threshold", type=float, default=None)
    amr.add_argument("--coarsen-threshold", type=float, default=None)
    amr.add_argument("--regrid-interval", type=int, default=None, metavar="N")
    amr.add_argument(
        "--rebalance-threshold", type=float, default=None, metavar="R",
        help="recut the Morton curve and migrate blocks when the measured "
        "rank imbalance (max/mean work) exceeds R after a regrid",
    )
    amr.add_argument(
        "--partitioner", choices=sorted(PARTITIONERS), default=None,
        help="leaf-to-rank partitioner used for the initial cut and every "
        "rebalance recut",
    )
    amr.add_argument(
        "--ranks", type=int, default=1, metavar="P",
        help="partition the forest over P ranks along the Morton curve "
        "(default 1), simulated in one process or, with --executor process, "
        "one worker process each",
    )
    amr.add_argument(
        "--executor", choices=("serial", "process"), default="serial",
        help="distributed execution backend: 'serial' simulates all --ranks "
        "in one process, 'process' runs one worker process per rank over "
        "shared memory (bit-identical forests, real parallel wall-clock)",
    )
    amr.add_argument(
        "--max-rank-restarts", type=int, default=None, metavar="N",
        help="with --executor process: supervise the workers and respawn "
        "crashed or hung ranks in-run, up to N respawns",
    )
    amr.add_argument(
        "--metrics-out", metavar="PATH",
        help="stream per-step structured metrics (JSONL) to PATH and print "
        "the aggregated summary table",
    )
    amr.set_defaults(_subparser=amr)

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument("id", metavar="EID", help="experiment id, e.g. E2")

    sub.add_parser("info", help="list problems, schemes, and experiments")

    serve = sub.add_parser(
        "serve",
        help="run a batch of scenario requests from a file through the "
        "admission-queue service",
    )
    serve.add_argument(
        "requests",
        metavar="REQUESTS.json",
        help="JSON array (or JSONL stream) of scenario spec dicts; see "
        "repro.serve.ScenarioSpec for the schema",
    )
    serve.add_argument(
        "--max-queue", type=int, default=1024, metavar="N",
        help="admission-queue depth; requests beyond it are rejected",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="largest number of compatible scenarios per batched solve",
    )
    serve.add_argument(
        "--out", metavar="PATH", help="write per-request results JSON to PATH"
    )
    serve.add_argument(
        "--metrics-out", metavar="PATH",
        help="stream per-request/per-batch service events (JSONL) to PATH",
    )
    serve.set_defaults(_subparser=serve)

    sweep = sub.add_parser(
        "sweep",
        help="generate and serve a parametric family of shock-tube scenarios",
    )
    sweep.add_argument("problem", choices=("rp1", "rp2"))
    sweep.add_argument(
        "--count", type=int, default=8, metavar="N",
        help="number of scenarios in the family",
    )
    sweep.add_argument("--n", type=int, default=128, help="cells per scenario")
    sweep.add_argument("--t-final", type=float, default=None)
    sweep.add_argument(
        "--vary", metavar="SIDE.FIELD:LO:HI",
        help="vary one diaphragm-state field linearly across the family, "
        "e.g. left.p:5:20 (SIDE in {left,right}, FIELD in {rho,v,p})",
    )
    sweep.add_argument(
        "--kernel-target", choices=("numpy", "flat", "cext"), default="numpy",
        help="codegen target for the batched kernels",
    )
    sweep.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="largest number of scenarios per batched solve",
    )
    sweep.add_argument(
        "--out", metavar="PATH", help="write per-request results JSON to PATH"
    )
    sweep.add_argument(
        "--metrics-out", metavar="PATH",
        help="stream per-request/per-batch service events (JSONL) to PATH",
    )
    sweep.set_defaults(_subparser=sweep)

    cache = sub.add_parser(
        "cache",
        help="inspect (and optionally prune) the compiled-kernel artifact "
        "cache ($REPRO_CEXT_CACHE)",
    )
    cache.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="prune least-recently-used artifacts until the cache fits in "
        "SIZE bytes (suffixes K/M/G accepted, e.g. 64M); without it the "
        "command only reports",
    )
    cache.add_argument(
        "--json", action="store_true",
        help="emit the report (and any pruned artifact names) as JSON",
    )
    cache.set_defaults(_subparser=cache)
    return parser


_SIZE_SUFFIXES = {"K": 1024, "M": 1024**2, "G": 1024**3}


def _parse_size(text: str):
    """``'64M'`` -> 67108864; returns None on malformed input."""
    s = text.strip().upper().removesuffix("B")
    scale = 1
    if s and s[-1] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[s[-1]]
        s = s[:-1]
    try:
        value = float(s)
    except ValueError:
        return None
    if value < 0:
        return None
    return int(value * scale)


def _cmd_cache(args) -> int:
    import json

    from .codegen import cache_report, prune_cache

    removed: list[str] = []
    if args.max_bytes is not None:
        bound = _parse_size(args.max_bytes)
        if bound is None:
            args._subparser.error(
                f"--max-bytes wants a non-negative size like 512K or 64M, "
                f"got {args.max_bytes!r}"
            )
        removed = prune_cache(bound)
    report = cache_report()
    if args.json:
        report["pruned"] = removed
        print(json.dumps(report, indent=2))
        return 0
    print(f"cache dir : {report['dir']}")
    print(f"artifacts : {report['n_artifacts']} "
          f"({report['total_bytes'] / 1024:.1f} KiB)")
    for art in report["artifacts"]:  # oldest (least recently served) first
        print(f"  {art['bytes']:>10d}  {art['name']}")
    if args.max_bytes is not None:
        print(f"pruned    : {len(removed)} artifact(s)")
        for name in removed:
            print(f"  - {name}")
    return 0


def _validate_run_args(args) -> None:
    """Fail fast on flag combinations that would silently ignore each other.

    Every rejected combination names *both* flags involved, through the
    ``run`` subparser's own ``error`` (usage + message, exit code 2) —
    running something other than what was asked is never an option.
    """
    err = args._subparser.error
    if args.ranks < 0:
        err(f"--ranks must be >= 0 (0: the single-grid solver), got {args.ranks}")
    if args.checkpoint_every and not args.checkpoint:
        err("--checkpoint-every requires --checkpoint")
    if args.executor == "process" and args.ranks < 1:
        err("--executor process requires --ranks >= 1 (one worker process "
            "per rank)")
    if args.overlap and not args.ranks:
        err("--overlap requires --ranks; the single-grid solver would "
            "ignore --overlap")
    if args.max_rank_restarts is not None and args.executor != "process":
        err("--max-rank-restarts requires --executor process")
    if args.degrade and args.max_rank_restarts is None:
        err("--degrade requires --max-rank-restarts")


def _cmd_run(args) -> int:
    ndim, default_t = PROBLEMS[args.problem]
    t_final = args.t_final if args.t_final is not None else default_t
    eos_gamma = SHOCK_TUBES[args.problem.upper()].gamma if args.problem in (
        "rp1",
        "rp2",
    ) else 5.0 / 3.0
    system = SRHDSystem(IdealGasEOS(gamma=eos_gamma), ndim=ndim)
    shape = (args.n,) * ndim
    grid = Grid(shape, tuple((0.0, 1.0) for _ in shape))
    config = SolverConfig(
        cfl=args.cfl,
        reconstruction=args.reconstruction,
        riemann=args.riemann,
        failsafe_frac=args.failsafe_frac,
        overlap_exchange=bool(args.overlap),
        executor=args.executor,
        kernel_target=args.kernel_target,
    )
    _validate_run_args(args)
    if args.problem in ("rp1", "rp2"):
        prim0 = shock_tube(system, grid, SHOCK_TUBES[args.problem.upper()])
        bcs = make_boundaries("outflow")
    elif args.problem == "blast2d":
        prim0 = blast_wave_2d(system, grid, p_in=100.0, radius=0.1, smoothing=0.02)
        bcs = make_boundaries("outflow")
    else:  # kh
        prim0 = kelvin_helmholtz_2d(system, grid)
        bcs = make_boundaries("periodic")

    recorder = None
    if args.metrics_out:
        from .obs import JsonlEventSink, StepRecorder

        recorder = StepRecorder(
            JsonlEventSink(args.metrics_out),
            meta={
                "problem": args.problem,
                "n": args.n,
                "ndim": ndim,
                "t_final": t_final,
                "cfl": args.cfl,
                "reconstruction": args.reconstruction,
                "riemann": args.riemann,
                "ranks": args.ranks,
                "overlap": bool(args.overlap),
                "executor": args.executor,
                "kernel_target": args.kernel_target,
            },
        )

    fault_injector = None
    if args.faults:
        from .resilience import FaultInjector, FaultPlan

        fault_injector = FaultInjector(FaultPlan.load(args.faults))

    if args.ranks:
        from .core.parallel import make_distributed_solver
        from .mesh.decomposition import choose_dims

        halo_policy = None
        if args.faults:
            # Chaos runs over the distributed solver need the resilient
            # exchange, or the first dropped halo message kills the run.
            from .resilience import HaloRetryPolicy

            halo_policy = HaloRetryPolicy()
        supervision = None
        if args.max_rank_restarts is not None:
            from .resilience import SupervisionPolicy

            supervision = SupervisionPolicy(
                max_rank_restarts=args.max_rank_restarts,
                degrade=bool(args.degrade),
            )
        solver = make_distributed_solver(
            system, grid, prim0, choose_dims(args.ranks, ndim),
            config=config, boundaries=bcs, recorder=recorder,
            fault_injector=fault_injector, halo_policy=halo_policy,
            supervision=supervision,
        )
        sup_info = None
        if supervision is not None and config.executor == "process":
            from .core.parallel import run_supervised

            solver, sup_info = run_supervised(
                solver, t_final,
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=(
                    args.checkpoint if args.checkpoint_every else None
                ),
            )
        else:
            solver.run(
                t_final=t_final,
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=(
                    args.checkpoint if args.checkpoint_every else None
                ),
            )
        if recorder is not None:
            recorder.finish(t_end=solver.t)
            recorder.close()
        prim = solver.gather_primitives()
        steps = solver.steps
        mode = "overlapped" if args.overlap else "blocking"
        print(f"{args.problem}: t = {solver.t:.4f}, steps = {steps}")
        print(f"  ranks     : {args.ranks} (dims {solver.decomp.dims}, "
              f"{mode} exchange, {args.executor} executor)")
        if sup_info is not None:
            state = "degraded to serial" if sup_info["degraded"] else "held"
            print(f"  supervise : {state}, "
                  f"{sup_info['worker_restarts']} rank respawn(s)")
    else:
        solver = Solver(
            system, grid, prim0, config, bcs,
            recorder=recorder, fault_injector=fault_injector,
        )
        summary = solver.run(
            t_final=t_final,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint if args.checkpoint_every else None,
        )
        if recorder is not None:
            recorder.finish(
                t_end=solver.t, conservation_drift=summary.conservation_drift
            )
            recorder.close()
        prim = solver.interior_primitives()
        print(f"{args.problem}: t = {solver.t:.4f}, steps = {summary.steps}")
    print(f"  rho range : [{prim[system.RHO].min():.4g}, {prim[system.RHO].max():.4g}]")
    print(f"  max |v|   : {max(np.abs(prim[system.V(ax)]).max() for ax in range(ndim)):.4f}")
    if not args.ranks:
        drift = summary.conservation_drift
        print(f"  mass drift: {drift['mass']:.2e}")
    if args.overlap:
        snap = solver.metrics.snapshot()["counters"]
        modeled = snap.get("comm.overlap.modeled_comm_s", 0.0)
        hidden = snap.get("comm.overlap.hidden_s", 0.0)
        frac = hidden / modeled if modeled > 0 else 1.0
        print(f"  overlap   : hidden {frac:.1%} of modeled comm "
              f"({snap.get('comm.overlap.exchanges', 0):g} exchanges)")
        for name in sorted(snap):
            if name.startswith("comm.overlap."):
                print(f"    {name}: {snap[name]:g}")
    if args.faults:
        snap = solver.metrics.snapshot()["counters"]
        resilience = {k: v for k, v in sorted(snap.items()) if k.startswith("resilience.")}
        print(f"  faults    : {args.faults}")
        for name, value in resilience.items():
            print(f"    {name}: {value:g}")
    if args.problem in ("rp1", "rp2"):
        from .physics.exact_riemann import ExactRiemannSolver

        prob = SHOCK_TUBES[args.problem.upper()]
        exact = ExactRiemannSolver(prob.left, prob.right, prob.gamma)
        rho_e, _, _ = exact.solution_on_grid(grid.coords(0), solver.t, prob.x0)
        print(f"  rel L1(rho) vs exact: {relative_l1_error(prim[0], rho_e):.5f}")
    if args.snapshot:
        from .io import save_solution

        names = ["rho"] + [f"v{i}" for i in range(ndim)] + ["p"]
        save_solution(args.snapshot, grid, prim, solver.t, names)
        print(f"  snapshot  : {args.snapshot}")
    if args.checkpoint:
        solver.write_checkpoint(args.checkpoint)
        print(f"  checkpoint: {args.checkpoint}")
    if args.executor == "process" and hasattr(solver, "close"):
        # Workers must stay up through the final checkpoint gather above.
        # (After a degraded run the solver is serial and has no workers.)
        solver.close()  # shut workers down, release shared memory
    if args.metrics_out:
        from .harness.report import Report
        from .obs import read_events

        print(f"  metrics   : {args.metrics_out}")
        print(Report.from_metrics(read_events(args.metrics_out)))
    return 0


def _validate_amr_args(args) -> None:
    """Fail fast on amr flag combos that would silently ignore each other."""
    err = args._subparser.error
    if args.ranks < 1:
        err("--ranks must be >= 1 (one rank is the whole forest in one piece)")
    if args.max_rank_restarts is not None and args.executor != "process":
        err("--max-rank-restarts requires --executor process")


def _cmd_amr(args) -> int:
    from .core.amr_parallel import make_distributed_amr_solver
    from .core.amr_solver import AMRConfig

    _validate_amr_args(args)
    ndim, default_t = PROBLEMS[args.problem]
    t_final = args.t_final if args.t_final is not None else default_t
    eos_gamma = (
        SHOCK_TUBES[args.problem.upper()].gamma
        if args.problem in ("rp1", "rp2")
        else 5.0 / 3.0
    )
    system = SRHDSystem(IdealGasEOS(gamma=eos_gamma), ndim=ndim)
    grid = Grid((args.n,) * ndim, tuple((0.0, 1.0) for _ in range(ndim)))
    config = SolverConfig(cfl=args.cfl, executor=args.executor)
    # Omitted knobs fall through to the AMRConfig defaults.
    amr_cfg = AMRConfig(**{
        name: value
        for name, value in dict(
            block_size=args.block_size,
            max_levels=args.max_levels,
            refine_threshold=args.refine_threshold,
            coarsen_threshold=args.coarsen_threshold,
            regrid_interval=args.regrid_interval,
            rebalance_threshold=args.rebalance_threshold,
            partitioner=args.partitioner,
        ).items()
        if value is not None
    })
    if args.problem in ("rp1", "rp2"):
        prob = SHOCK_TUBES[args.problem.upper()]
        init = lambda sys_, g: shock_tube(sys_, g, prob)  # noqa: E731
    else:
        init = lambda sys_, g: blast_wave_2d(  # noqa: E731
            sys_, g, p_in=100.0, radius=0.1, smoothing=0.02
        )

    recorder = None
    if args.metrics_out:
        from .obs import JsonlEventSink, StepRecorder

        recorder = StepRecorder(
            JsonlEventSink(args.metrics_out),
            meta={
                "problem": f"{args.problem}-amr",
                "n": args.n,
                "ndim": ndim,
                "cfl": args.cfl,
                "ranks": args.ranks,
                "executor": args.executor,
            },
        )

    supervision = None
    if args.max_rank_restarts is not None:
        from .resilience import SupervisionPolicy

        supervision = SupervisionPolicy(max_rank_restarts=args.max_rank_restarts)
    solver = make_distributed_amr_solver(
        system, grid, init, config=config, amr=amr_cfg,
        n_ranks=args.ranks, recorder=recorder, supervision=supervision,
    )
    try:
        solver.run(t_final, max_steps=args.max_steps)
        if recorder is not None:
            recorder.finish(t_end=solver.t)
            recorder.close()
        if args.executor == "process":
            prims = solver.gather_block_primitives()
            levels: dict[int, int] = {}
            for key in prims:
                levels[key.level] = levels.get(key.level, 0) + 1
            rho_min = min(p[system.RHO].min() for p in prims.values())
            rho_max = max(p[system.RHO].max() for p in prims.values())
        else:
            levels = solver.leaf_count_by_level()
            _, prim = solver.composite_primitives()
            rho_min = prim[system.RHO].min()
            rho_max = prim[system.RHO].max()
    finally:
        if args.executor == "process":
            solver.close()  # workers stay up through the gathers above

    print(f"{args.problem} [amr]: t = {solver.t:.4f}, steps = {solver.steps}")
    by_level = " ".join(f"{lvl}:{n}" for lvl, n in sorted(levels.items()))
    n_leaves = sum(levels.values())
    regrids = getattr(solver, "regrids", None)
    forest_line = f"  forest    : {n_leaves} leaves (level {by_level})"
    if regrids is not None:
        forest_line += f", {regrids} regrids"
    print(forest_line)
    if args.ranks > 1 or args.executor == "process":
        print(f"  ranks     : {args.ranks} ({args.executor} executor, "
              f"{amr_cfg.partitioner} partitioner)")
        print(f"  balance   : imbalance {solver.imbalance:.3f}, "
              f"{solver.repartitions} repartition(s), "
              f"{solver.migrated_blocks} block(s) migrated")
        if args.max_rank_restarts is not None:
            print(f"  supervise : {solver.restarts_used} rank respawn(s) "
                  f"of {args.max_rank_restarts} allowed")
    print(f"  rho range : [{rho_min:.4g}, {rho_max:.4g}]")
    if args.metrics_out:
        from .harness.report import Report
        from .obs import read_events

        print(f"  metrics   : {args.metrics_out}")
        print(Report.from_metrics(read_events(args.metrics_out)))
    return 0


def _cmd_experiment(args) -> int:
    from .harness import EXPERIMENTS

    eid = args.id.upper()
    if eid not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; choose from {list(EXPERIMENTS)}")
        return 2
    print(EXPERIMENTS[eid]())
    return 0


def _service_report(svc, requests, extra_rejected=0) -> None:
    """Print the service-side outcome summary shared by serve and sweep."""
    snap = svc.metrics.snapshot()
    counters = snap["counters"]
    hists = snap["histograms"]
    n_ok = sum(1 for r in requests if r.status == "ok")
    n_failed = sum(1 for r in requests if r.status == "failed")
    print(f"requests  : {len(requests) + extra_rejected} "
          f"(ok {n_ok}, failed {n_failed}, rejected {extra_rejected})")
    print(f"batches   : {counters.get('serve.batches', 0):g} "
          f"(kernel cache: {counters.get('serve.kernel_cache.hits', 0):g} hits, "
          f"{counters.get('serve.kernel_cache.misses', 0):g} misses)")
    lat = hists.get("serve.request_latency_s")
    if lat and lat["count"]:
        print(f"latency   : p50 {lat['p50'] * 1e3:.2f} ms, "
              f"p99 {lat['p99'] * 1e3:.2f} ms")
    sps = hists.get("serve.scenarios_per_sec")
    if sps and sps["count"]:
        print(f"throughput: {sps['mean']:.1f} scenarios/sec "
              f"(best batch {sps['max']:.1f})")


def _write_service_results(path, requests, rejected) -> None:
    import json

    payload = {
        "results": [r.summary() for r in requests],
        "rejected": rejected,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"results   : {path}")


def _make_service(args, meta: dict, max_queue: int | None = None):
    from .serve import BatchService

    recorder = None
    if args.metrics_out:
        from .obs import JsonlEventSink, StepRecorder

        recorder = StepRecorder(JsonlEventSink(args.metrics_out), meta=meta)
    return BatchService(
        max_queue_depth=max_queue if max_queue is not None else 1024,
        max_batch=args.max_batch,
        recorder=recorder,
    ), recorder


def _cmd_serve(args) -> int:
    import json

    from .utils.errors import AdmissionError

    with open(args.requests, encoding="utf-8") as fh:
        text = fh.read()
    try:
        payloads = json.loads(text)
        if not isinstance(payloads, list):
            raise ValueError("top level must be a JSON array")
    except ValueError:
        # JSONL fallback: one spec dict per non-empty line.
        payloads = [json.loads(line) for line in text.splitlines() if line.strip()]

    svc, recorder = _make_service(
        args, {"mode": "serve", "requests": args.requests},
        max_queue=args.max_queue,
    )
    rejected = []
    for i, payload in enumerate(payloads):
        try:
            svc.submit(payload)
        except AdmissionError as exc:
            rejected.append({"index": i, "status": "rejected", "error": str(exc)})
    requests = svc.drain()
    _service_report(svc, requests, extra_rejected=len(rejected))
    if args.out:
        _write_service_results(args.out, requests, rejected)
    if recorder is not None:
        recorder.close()
        print(f"metrics   : {args.metrics_out}")
    return 0 if all(r.status == "ok" for r in requests) and not rejected else 1


_SWEEP_FIELDS = ("rho", "v", "p")


def _parse_vary(args) -> tuple[str, str, float, float]:
    spec = args.vary
    err = args._subparser.error
    head, sep, rest = spec.partition(":")
    side, dot, field = head.partition(".")
    if not sep or not dot or side not in ("left", "right") or field not in _SWEEP_FIELDS:
        err(f"--vary must look like SIDE.FIELD:LO:HI with SIDE in "
            f"{{left,right}} and FIELD in {{rho,v,p}}, got {spec!r}")
    lo_s, sep2, hi_s = rest.partition(":")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        sep2 = ""
    if not sep2:
        err(f"--vary needs numeric LO:HI bounds, got {spec!r}")
    return side, field, lo, hi


def _cmd_sweep(args) -> int:
    import dataclasses

    from .physics.initial_data import SHOCK_TUBES
    from .serve import ScenarioSpec

    if args.count < 1:
        args._subparser.error(f"--count must be >= 1, got {args.count}")
    problem = SHOCK_TUBES[args.problem.upper()]
    t_final = args.t_final if args.t_final is not None else problem.t_final
    base = dict(
        kind="shock_tube", problem=problem.name, nx=args.n, t_final=t_final,
        gamma=problem.gamma, kernel_target=args.kernel_target,
    )
    specs = []
    if args.vary:
        side, field, lo, hi = _parse_vary(args)
        values = np.linspace(lo, hi, args.count)
        for value in values:
            state = dataclasses.replace(
                getattr(problem, side), **{field: float(value)}
            )
            specs.append(ScenarioSpec(**base, **{side: state}))
        print(f"sweep     : {args.problem} x{args.count}, "
              f"{side}.{field} in [{lo:g}, {hi:g}]")
    else:
        specs = [ScenarioSpec(**base) for _ in range(args.count)]
        print(f"sweep     : {args.problem} x{args.count}")

    svc, recorder = _make_service(
        args,
        {"mode": "sweep", "problem": args.problem, "count": args.count,
         "n": args.n, "t_final": t_final, "vary": args.vary,
         "kernel_target": args.kernel_target},
    )
    requests = svc.sweep(specs)
    _service_report(svc, requests)
    if args.out:
        _write_service_results(args.out, requests, [])
    if recorder is not None:
        recorder.close()
        print(f"metrics   : {args.metrics_out}")
    return 0 if all(r.status == "ok" for r in requests) else 1


def _cmd_info(_args) -> int:
    from .harness import EXPERIMENTS

    print("problems      :", ", ".join(sorted(PROBLEMS)))
    print("reconstruction:", ", ".join(SCHEMES))
    print("riemann       :", ", ".join(sorted(SOLVERS)))
    print("experiments   :", ", ".join(EXPERIMENTS))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "amr":
            return _cmd_amr(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "cache":
            return _cmd_cache(args)
        return _cmd_info(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
