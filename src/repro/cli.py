"""Command-line interface: ``python -m repro <command>``.

Commands

* ``inventory`` — print the operation inventory of the case-study
  accelerators (Table 1).
* ``generate-library`` — build and characterise a component library
  through the parallel construction pipeline (``--workers`` processes,
  per-component memoisation with ``--store``, per-chunk progress lines
  on stderr) and save it as JSON (``--out``) and/or into the store.
* ``profile`` — profile an accelerator on the synthetic benchmark set and
  print per-operation operand statistics (Fig. 3 numbers).
* ``run`` — execute the full autoAx pipeline and print (optionally save)
  the final Pareto front.
* ``workloads`` — ``list`` the registered workloads or ``run <name>``:
  the full pipeline on any registry entry, with a library generated (and
  cached) to cover exactly that workload's operation signatures.
* ``search`` — budget-exact parallel portfolio design-space search:
  strategy islands (hill climber, NSGA-II, random sampling, capped
  exhaustive) over a workload's configuration space, with periodic
  front merging and (with ``--store``) per-round checkpoints that
  ``runs resume`` continues.
* ``runs`` — the persistent experiment store's run ledger: ``list`` and
  ``show`` recorded pipeline runs, ``resume`` one against the warm
  store (including interrupted ``search`` runs), ``gc`` artifacts no
  manifest references.
* ``export-verilog`` — lower an accelerator with exact components and
  write structural Verilog.
* ``serve`` — approximation-as-a-service: a stdlib HTTP server where
  clients submit (workload, quality-target, budget) jobs; concurrent
  identical requests coalesce into one pipeline pass, warm queries are
  answered from the store, and every job is metered per API key and
  recorded in the run ledger (``repro runs list --kind serve-job``).

Store-aware commands accept ``--store [PATH]``/``--no-store`` to enable
the persistent stage cache (default: on when ``REPRO_STORE_DIR`` is
set); the optional PATH is the store directory.  ``run``,
``workloads run``, ``search`` and every ``runs`` command accept
``--json`` for machine-readable output (stable key order, ``version``
field).  With ``--json``, stdout carries the JSON document and nothing
else — progress and diagnostics go to stderr.

A deliberate library error (a :class:`~repro.errors.ReproError`: an
unknown run id, a missing store, an invalid knob) ends the command with
one ``error: <message>`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Dict, List, Optional

from repro.accelerators.gaussian_fixed import FixedGaussianFilter
from repro.accelerators.gaussian_generic import GenericGaussianFilter
from repro.accelerators.sobel import SobelEdgeDetector
from repro.telemetry import get_logger, setup_logging
from repro.utils.tabulate import format_table

ACCELERATORS = {
    "sobel": SobelEdgeDetector,
    "fixed_gf": FixedGaussianFilter,
    "generic_gf": GenericGaussianFilter,
}

#: Version of every ``--json`` document this CLI emits.
JSON_VERSION = 1


def _emit_json(doc: Dict) -> None:
    """Print a machine-readable result (sorted keys, version field)."""
    doc = {"version": JSON_VERSION, **doc}
    print(json.dumps(doc, sort_keys=True, indent=2))


@contextlib.contextmanager
def _tracing(command: str, trace_path: Optional[str]):
    """Span-trace one CLI command when ``--trace``/``REPRO_TRACE`` asks.

    Installs a process-wide :class:`~repro.telemetry.tracing.Tracer`,
    wraps the whole command in one top-level ``cli.<command>`` span
    (worker spans parent under it through the runtime piggyback), and
    writes the Chrome trace-event JSON on the way out — including when
    the command raises, so a failed run still leaves its timeline.
    """
    import os

    from repro.telemetry import TRACE_ENV, Tracer, install_tracer
    from repro.telemetry import uninstall_tracer

    if trace_path is None:
        raw = os.environ.get(TRACE_ENV)
        if raw is not None:
            if not raw.strip():
                from repro.errors import ValidationError

                raise ValidationError(
                    f"{TRACE_ENV} must name a trace output file, "
                    f"got {raw!r}"
                )
            trace_path = raw.strip()
    if trace_path is None:
        yield
        return
    tracer = Tracer()
    install_tracer(tracer)
    try:
        with tracer.span(f"cli.{command}", cat="cli"):
            yield
    finally:
        uninstall_tracer()
        tracer.write(trace_path)
        get_logger("cli").info(
            "trace written", extra={"data": {"file": trace_path}}
        )


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON timeline of this "
             "command (default: REPRO_TRACE env, else off)",
    )


def _workers_arg(text: str) -> int:
    """argparse type for ``--workers``: clear error on bad values.

    The validated value is passed through verbatim — an explicit
    ``--workers 1`` must reach the engine as 1 (forcing in-process
    evaluation) rather than collapsing to the ``REPRO_WORKERS``
    fallback.
    """
    from repro.core.engine import validate_workers

    try:
        validate_workers(text, source="--workers")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


def _count_arg(minimum: int):
    """argparse type for a count option: an integer ``>= minimum``.

    A bad ``--images``/``--evals``/``--train`` value then ends in a
    one-line usage error (exit 2) instead of a traceback from deep in
    the pipeline.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


#: ``--images`` and ``--evals`` need at least one; a model fit needs two
#: training configurations.
_positive_arg = _count_arg(1)
_train_arg = _count_arg(2)


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_workers_arg, default=None,
        help="worker processes for real evaluation "
             "(default: REPRO_WORKERS env or in-process)",
    )


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", nargs="?", const=True, default=None, metavar="PATH",
        help="persist/reuse pipeline stages in the experiment store; "
             "optionally the store directory "
             "(default: enabled when REPRO_STORE_DIR is set)",
    )
    parser.add_argument(
        "--no-store", action="store_const", const=False, dest="store",
        help="disable the experiment store",
    )


def _add_accelerator_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--accelerator",
        choices=sorted(ACCELERATORS),
        default="sobel",
        help="target accelerator (default: sobel)",
    )


def _resolve_store(flag):
    """Map ``--store [PATH]`` / ``--no-store`` to a store (or None).

    ``None`` (unset) enables the store iff ``REPRO_STORE_DIR`` is set;
    ``True``/``False`` force it on/off; a string is the store path.
    """
    import os

    from repro.store import STORE_ENV, open_store

    if isinstance(flag, str):
        return open_store(flag)
    if flag is None:
        flag = os.environ.get(STORE_ENV) is not None
    return open_store() if flag else None


def _cmd_inventory(args: argparse.Namespace) -> int:
    from repro.experiments.table1_operations import (
        TABLE1_COLUMNS,
        table1_rows,
    )

    rows = table1_rows()
    headers = ["Problem"] + [
        f"{kind}{width}" for kind, width in TABLE1_COLUMNS
    ] + ["Total"]
    print(
        format_table(
            headers,
            [[r["problem"], *r["counts"], r["total"]] for r in rows],
        )
    )
    return 0


def _cmd_generate_library(args: argparse.Namespace) -> int:
    from repro.experiments.setup import default_library_key
    from repro.library.generation import scaled_plan
    from repro.library.io import save_library
    from repro.library.pipeline import build_library

    log = get_logger("library")
    store = _resolve_store(args.store)
    if not args.out and store is None:
        log.error("generate-library needs --out and/or --store")
        return 2
    plan = scaled_plan(args.scale, seed=args.seed)
    log.info(
        "generating components",
        extra={"data": {
            "components": plan.total(),
            "store": store.uri if store else None,
        }},
    )
    result = build_library(
        plan,
        workers=args.workers,
        store=store,
        progress=log.info,
    )
    library, stats = result.library, result.stats
    if store is not None:
        # Whole-library blob under the shared experiment-setup key, so
        # `repro run --store` and default_setup() get a one-read hit.
        store.put(
            "library",
            default_library_key(plan, args.scale),
            library,
            meta={"components": len(library)},
        )
    if args.out:
        save_library(library, args.out)
    if args.json:
        _emit_json(
            {
                "generate_library": {
                    "components": len(library),
                    "scale": args.scale,
                    "seed": args.seed,
                    "summary": {
                        f"{kind}{width}": count
                        for (kind, width), count
                        in library.summary().items()
                    },
                    "stats": stats.as_dict(),
                    "out": args.out,
                    "store": store.uri if store else None,
                    "run_id": result.run_id,
                }
            }
        )
    else:
        where = args.out or f"store {store.uri}"
        print(
            f"wrote {len(library)} components to {where} "
            f"({stats.store_hits} cached, "
            f"{stats.characterized} characterised, "
            f"{stats.seconds:.1f}s, "
            f"workers={stats.workers})"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.accelerators.profiler import profile_accelerator
    from repro.imaging.datasets import benchmark_images

    accelerator = ACCELERATORS[args.accelerator]()
    images = benchmark_images(args.images)
    profiles = profile_accelerator(accelerator, images, rng=args.seed)
    rows = []
    for name, profile in profiles.items():
        rows.append(
            [
                name,
                f"{profile.signature[0]}{profile.signature[1]}",
                profile.total_count,
                "dense" if profile.pmf is not None else "sampled",
                profile.sample_a.size,
            ]
        )
    print(
        format_table(
            ["op", "signature", "operand pairs", "PMF", "samples"],
            rows,
        )
    )
    return 0


def _result_doc(result, label_key: str, label: str) -> Dict:
    """The ``--json`` document of one pipeline run."""
    order = result.final_points[:, 1].argsort()
    return {
        label_key: label,
        "run_id": result.run_id,
        "space": result.summary_row(),
        "models": {
            "qor": {
                "name": result.qor_model.name,
                "fidelity_test": result.qor_model.fidelity_test,
            },
            "hw": {
                "name": result.hw_model.name,
                "fidelity_test": result.hw_model.fidelity_test,
            },
        },
        "stage_cache": result.stage_cache,
        "timings": result.timings,
        "engine_stats": result.engine_stats,
        "front": [
            [float(s), float(a)] for s, a in result.final_points[order]
        ],
    }


def _write_front_csv(result, out: str) -> None:
    """Write the final Pareto front as ``ssim,area`` CSV rows."""
    order = result.final_points[:, 1].argsort()
    with open(out, "w") as handle:
        handle.write("ssim,area\n")
        for s, a in result.final_points[order]:
            handle.write(f"{s},{a}\n")


def _emit_pipeline_json(result, doc: Dict, out: Optional[str]) -> None:
    """``--json`` output of a pipeline run: pure JSON on stdout.

    ``--out`` still writes the CSV front; the confirmation goes to
    stderr so stdout stays machine-parseable.
    """
    if out:
        _write_front_csv(result, out)
        get_logger("cli").info(
            "front written", extra={"data": {"file": out}}
        )
    _emit_json(doc)


def _print_pipeline_result(result, out: Optional[str]) -> None:
    """Shared result reporting of the ``run`` commands."""
    sizes = result.summary_row()
    print(
        f"space: {sizes['all_possible']:.3g} -> "
        f"{sizes['after_preprocessing']:.3g} -> "
        f"{int(sizes['pseudo_pareto'])} pseudo -> "
        f"{int(sizes['final_pareto'])} final"
    )
    print(
        f"models: QoR={result.qor_model.name} "
        f"({result.qor_model.fidelity_test:.1%}), "
        f"HW={result.hw_model.name} "
        f"({result.hw_model.fidelity_test:.1%})"
    )
    if result.run_id is not None:
        hits = sum(
            1 for v in result.stage_cache.values() if v == "hit"
        )
        print(
            f"run {result.run_id}: {hits}/{len(result.stage_cache)} "
            f"stages from cache"
        )
    order = result.final_points[:, 1].argsort()
    print(format_table(
        ["SSIM", "area (um^2)"],
        [[f"{s:.4f}", f"{a:.1f}"]
         for s, a in result.final_points[order]],
    ))
    if out:
        _write_front_csv(result, out)
        print(f"front written to {out}")


def _run_accelerator_pipeline(
    accelerator_name: str,
    library_path: Optional[str],
    scale: float,
    n_images: int,
    train: int,
    evals: int,
    seed: int,
    workers: Optional[int],
    store,
    out: Optional[str] = None,
):
    from repro.core.pipeline import AutoAx, AutoAxConfig
    from repro.experiments.setup import scaled_library
    from repro.imaging.datasets import benchmark_images
    from repro.library.io import load_library

    if library_path:
        library = load_library(library_path)
    else:
        library = scaled_library(scale, seed=seed, store=store)
    accelerator = ACCELERATORS[accelerator_name]()
    images = benchmark_images(n_images)
    config = AutoAxConfig(
        n_train=train,
        n_test=max(2, train // 2),
        max_evaluations=evals,
        seed=seed,
        workers=workers,
    )
    pipeline = AutoAx(
        accelerator, library, images, config=config, store=store,
        run_kind="run", run_label=accelerator_name,
        run_params={
            "command": "run",
            "accelerator": accelerator_name,
            "library": library_path,
            "scale": scale,
            "images": n_images,
            "train": train,
            "evals": evals,
            "seed": seed,
            "out": out,
        },
    )
    return pipeline.run()


def _cmd_run(args: argparse.Namespace) -> int:
    result = _run_accelerator_pipeline(
        args.accelerator, args.library, args.scale, args.images,
        args.train, args.evals, args.seed, args.workers,
        _resolve_store(args.store), out=args.out,
    )
    if args.json:
        _emit_pipeline_json(
            result,
            _result_doc(result, "accelerator", args.accelerator),
            args.out,
        )
    else:
        _print_pipeline_result(result, args.out)
    return 0


def _run_workload_pipeline(
    name: str,
    scale: Optional[float],
    n_images: int,
    train: int,
    evals: int,
    seed: int,
    workers: Optional[int],
    store,
    out: Optional[str] = None,
):
    # Shared with `runs resume` and the serving layer: one entry point
    # guarantees byte-identical results and common stage-cache keys.
    from repro.experiments.setup import run_workload_pipeline

    return run_workload_pipeline(
        name, scale=scale, n_images=n_images, train=train, evals=evals,
        seed=seed, workers=workers, store=store, out=out,
    )


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import WORKLOADS

    if args.workloads_command == "list":
        rows = []
        for workload in WORKLOADS:
            accelerator = workload.build_accelerator()
            scenarios = workload.build_scenarios()
            rows.append(
                [
                    workload.name,
                    f"{accelerator.window}x{accelerator.window}",
                    len(accelerator.op_slots()),
                    len(scenarios) if scenarios else 1,
                    ",".join(workload.tags),
                    workload.description,
                ]
            )
        print(
            format_table(
                ["workload", "window", "op slots", "scenarios",
                 "tags", "description"],
                rows,
            )
        )
        return 0

    # workloads run <name>
    setup, result = _run_workload_pipeline(
        args.name, args.scale, args.images, args.train, args.evals,
        args.seed, args.workers, _resolve_store(args.store),
        out=args.out,
    )
    if args.json:
        doc = _result_doc(result, "workload", args.name)
        doc["runs_per_config"] = setup.bundle.run_count
        _emit_pipeline_json(result, doc, args.out)
    else:
        print(
            f"workload {args.name}: {setup.bundle.run_count} "
            f"runs/config ({len(setup.images)} images x "
            f"{len(setup.scenarios or [None])} scenarios)"
        )
        _print_pipeline_result(result, args.out)
    return 0


def _run_search(
    workload: str,
    scale: Optional[float],
    n_images: int,
    train: int,
    test: int,
    budget: int,
    strategies: List[str],
    rounds: int,
    seed: int,
    engines: List[str],
    workers: Optional[int],
    store,
    resume_from: Optional[str] = None,
):
    """Fit estimation models for a workload and run the portfolio."""
    from repro.accelerators.profiler import profile_accelerator
    from repro.core.preprocessing import reduce_library
    from repro.experiments.setup import (
        build_workload_engine,
        fit_search_models,
        workload_setup,
    )
    from repro.search import PortfolioRunner

    setup = workload_setup(
        workload, scale=scale, n_images=n_images, seed=seed,
    )
    profiles = profile_accelerator(
        setup.accelerator, setup.images, rng=seed
    )
    space = reduce_library(setup.accelerator, setup.library, profiles)
    engine = build_workload_engine(setup, workers=workers)
    qor_model, hw_model = fit_search_models(
        space, engine, train, test, engines=engines, seed=seed,
        workers=workers,
    )
    runner = PortfolioRunner(
        space,
        qor_model,
        hw_model,
        strategies=strategies,
        rounds=rounds,
        seed=seed,
        workers=workers,
        store=store,
        label=f"search:{workload}",
        run_params={
            "command": "search",
            "workload": workload,
            "scale": scale,
            "images": n_images,
            "train": train,
            "test": test,
            "budget": budget,
            "strategies": list(strategies),
            "rounds": rounds,
            "seed": seed,
            "engines": list(engines),
        },
    )
    return runner.run(budget, resume_from=resume_from)


def _search_doc(result, workload: str) -> Dict:
    return {
        "workload": workload,
        "run_id": result.run_id,
        "resumed_from": result.resumed_from,
        "evaluations": result.evaluations,
        "max_evaluations": result.max_evaluations,
        "rounds": result.rounds,
        "front_size": len(result),
        "front": {
            "configs": [list(c) for c in result.configs],
            "points": [
                [float(p[0]), float(p[1])] for p in result.points
            ],
        },
        "islands": [
            {
                "round": r.round,
                "island": r.island,
                "strategy": r.strategy,
                "evaluations": r.evaluations,
                "front_size": r.front_size,
                "seconds": round(r.seconds, 6),
            }
            for r in result.islands
        ],
    }


def _print_search_result(result, workload: str) -> None:
    print(
        f"portfolio search on {workload}: {result.evaluations} "
        f"model evaluations (budget {result.max_evaluations}), "
        f"{len(result)} front members"
        + (f", run {result.run_id}" if result.run_id else "")
    )
    rows = [
        [
            r.round,
            r.island,
            r.strategy,
            r.evaluations,
            r.front_size,
            f"{r.seconds:.3f}",
        ]
        for r in result.islands
    ]
    print(
        format_table(
            ["round", "island", "strategy", "evals", "front",
             "seconds"],
            rows,
        )
    )


def _cmd_search(args: argparse.Namespace) -> int:
    strategies = [
        s.strip() for s in args.strategies.split(",") if s.strip()
    ]
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    result = _run_search(
        args.workload, args.scale, args.images, args.train,
        args.test, args.budget, strategies, args.rounds, args.seed,
        engines, args.workers, _resolve_store(args.store),
    )
    if args.json:
        _emit_json({"search": _search_doc(result, args.workload)})
    else:
        _print_search_result(result, args.workload)
    return 0


def _restore_sigint() -> None:
    """Make Ctrl-C / ``kill -INT`` work even when launched as ``cmd &``.

    Shells start background jobs with SIGINT set to ignore, and Python
    keeps an inherited ignore — so a long-running server would be
    unstoppable by SIGINT.  ``serve`` relies on ``KeyboardInterrupt``
    for graceful shutdown, so restore the default handler explicitly.
    """
    import signal

    if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)


# -- runs (experiment-store ledger) -----------------------------------------


def _runs_ledger(args: argparse.Namespace):
    from repro.store import RunLedger, require_store

    store = require_store(args.store_dir)
    return store, RunLedger(store)


def _stage_hits(manifest: Dict) -> str:
    stages = manifest.get("stages", [])
    hits = sum(1 for s in stages if s.get("cache") == "hit")
    return f"{hits}/{len(stages)}"


def _cmd_runs_list(args: argparse.Namespace) -> int:
    _, ledger = _runs_ledger(args)
    manifests = ledger.runs(kind=args.kind)
    if args.json:
        _emit_json({"runs": manifests})
        return 0
    rows = [
        [
            m.get("run_id", "?"),
            m.get("kind", "?"),
            m.get("label", ""),
            m.get("status", "?"),
            _stage_hits(m),
            f"{m.get('total_seconds', 0.0):.2f}",
            m.get("created_at", ""),
        ]
        for m in manifests
    ]
    print(
        format_table(
            ["run", "kind", "label", "status", "cache", "seconds",
             "created (UTC)"],
            rows,
        )
    )
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    _, ledger = _runs_ledger(args)
    manifest = ledger.get(args.run_id)
    if args.json:
        _emit_json({"run": manifest})
        return 0
    for key in ("run_id", "kind", "label", "status", "created_at",
                "seed", "config_hash", "total_seconds"):
        print(f"{key}: {manifest.get(key)}")
    print(f"params: {json.dumps(manifest.get('params', {}), sort_keys=True)}")
    stages = manifest.get("stages", [])
    total = sum(s.get("seconds", 0.0) for s in stages) or 1.0
    rows = [
        [
            stage.get("name", "?"),
            stage.get("cache", "?"),
            f"{stage.get('seconds', 0.0):.3f}",
            f"{100.0 * stage.get('seconds', 0.0) / total:.1f}%",
            ", ".join(
                f"{a['kind']}:{a['key'][:12]}"
                for a in stage.get("artifacts", [])
            ),
        ]
        for stage in stages
    ]
    print(format_table(
        ["stage", "cache", "seconds", "% of total", "artifacts"], rows
    ))
    hits = sum(1 for s in stages if s.get("cache") == "hit")
    print(f"cache: {hits}/{len(stages)} stages hit")
    extra = manifest.get("extra") or {}
    engine_stats = extra.get("engine_stats")
    if engine_stats:
        print(
            "engine: "
            + " ".join(
                f"{key}={value}"
                for key, value in sorted(engine_stats.items())
            )
        )
    metrics = extra.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        print(format_table(
            ["metric", "count"],
            [[name, counters[name]] for name in sorted(counters)],
        ))
    histograms = metrics.get("histograms") or {}
    if histograms:
        print(format_table(
            ["histogram", "count", "p50", "p95", "p99"],
            [
                [
                    name,
                    h.get("count", 0),
                    f"{h.get('p50') or 0.0:.4g}",
                    f"{h.get('p95') or 0.0:.4g}",
                    f"{h.get('p99') or 0.0:.4g}",
                ]
                for name, h in sorted(histograms.items())
            ],
        ))
    return 0


def _cmd_runs_resume(args: argparse.Namespace) -> int:
    from repro.errors import StoreError

    store, ledger = _runs_ledger(args)
    manifest = ledger.get(args.run_id)
    params = manifest.get("params") or {}
    command = params.get("command")
    if command == "workloads":
        _, result = _run_workload_pipeline(
            params["name"], params.get("scale"), params["images"],
            params["train"], params["evals"], params["seed"],
            args.workers, store, out=params.get("out"),
        )
        label_key, label = "workload", params["name"]
    elif command == "run":
        result = _run_accelerator_pipeline(
            params["accelerator"], params.get("library"),
            params["scale"], params["images"], params["train"],
            params["evals"], params["seed"], args.workers, store,
            out=params.get("out"),
        )
        label_key, label = "accelerator", params["accelerator"]
    elif command == "search":
        result = _run_search(
            params["workload"], params.get("scale"), params["images"],
            params["train"], params["test"], params["budget"],
            list(params["strategies"]), params["rounds"],
            params["seed"], list(params["engines"]), args.workers,
            store, resume_from=args.run_id,
        )
        if args.json:
            doc = _search_doc(result, params["workload"])
            doc["resumed_from"] = args.run_id
            _emit_json({"search": doc})
        else:
            print(f"resumed {args.run_id} -> {result.run_id}")
            _print_search_result(result, params["workload"])
        return 0
    else:
        raise StoreError(
            f"run {args.run_id!r} has no resumable params "
            f"(command={command!r})"
        )
    if args.json:
        doc = _result_doc(result, label_key, label)
        doc["resumed_from"] = args.run_id
        _emit_json(doc)
    else:
        print(f"resumed {args.run_id} -> {result.run_id}")
        _print_pipeline_result(result, None)
    return 0


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    from repro.errors import StoreError

    try:
        store, ledger = _runs_ledger(args)
        keep_kinds = () if args.all else None
        stats = store.gc(
            ledger.referenced_artifacts(),
            keep_kinds=keep_kinds,
            dry_run=args.dry_run,
        )
    except StoreError as exc:
        print(f"gc failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json({"gc": stats, "store": store.uri})
        return 0
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"gc {store.uri}: {verb} {stats['removed']} artifacts "
        f"({stats['freed_bytes']} bytes), kept {stats['kept']}"
    )
    by_kind = stats.get("by_kind") or {}
    if by_kind:
        print(format_table(
            ["kind", "artifacts", "bytes"],
            [
                [kind, entry["count"], entry["bytes"]]
                for kind, entry in sorted(by_kind.items())
            ],
        ))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    return {
        "list": _cmd_runs_list,
        "show": _cmd_runs_show,
        "resume": _cmd_runs_resume,
        "gc": _cmd_runs_gc,
    }[args.runs_command](args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.serve import (
        SERVE_KEYS_ENV,
        ApiKeyRegistry,
        Coordinator,
        ServeApp,
        default_port,
        serve_forever,
    )

    keys = ApiKeyRegistry(
        args.keys if args.keys is not None
        else os.environ.get(SERVE_KEYS_ENV)
    )
    coordinator = Coordinator(
        store=_resolve_store(args.store),
        workers=args.workers,
        parallel_jobs=args.parallel_jobs,
    )
    app = ServeApp(coordinator, keys)
    port = args.port if args.port is not None else default_port()

    log = get_logger("serve")

    def ready(actual_port: int) -> None:
        mode = (
            f"{len(keys.accounts)} API key(s)" if keys.enabled
            else "open (no API keys)"
        )
        where = (
            coordinator.store.uri if coordinator.store else "none"
        )
        log.info(
            f"repro serve on http://{args.host}:{actual_port} "
            f"[auth: {mode}, store: {where}]"
        )

    try:
        _restore_sigint()
        asyncio.run(
            serve_forever(app, host=args.host, port=port, ready=ready)
        )
    except KeyboardInterrupt:
        log.info("repro serve: shutting down")
    return 0


def _cmd_export_verilog(args: argparse.Namespace) -> int:
    from repro.circuits.base import (
        ExactAdder,
        ExactMultiplier,
        ExactSubtractor,
    )
    from repro.library.component import record_from_circuit
    from repro.netlist.verilog import to_verilog
    from repro.synthesis.synthesizer import optimize

    accelerator = ACCELERATORS[args.accelerator]()
    records = {}
    for slot in accelerator.op_slots():
        kind, width = slot.signature
        klass = {
            "add": ExactAdder,
            "sub": ExactSubtractor,
            "mul": ExactMultiplier,
        }[kind]
        records[slot.name] = record_from_circuit(
            klass(width), sample_size=1 << 8
        )
    netlist = accelerator.to_netlist(records)
    if args.optimize:
        optimize(netlist)
    text = to_verilog(netlist, module_name=args.accelerator)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({netlist.gate_count()} gates)")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="autoAx (DAC 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("inventory", help="Table 1 operation inventory")

    gen = sub.add_parser("generate-library",
                         help="build a characterised library")
    gen.add_argument("--scale", type=float, default=0.02)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out",
                     help="library JSON file (optional with --store)")
    _add_workers_arg(gen)
    _add_store_arg(gen)
    gen.add_argument("--json", action="store_true",
                     help="machine-readable result document")

    prof = sub.add_parser("profile", help="operand profiling stats")
    _add_accelerator_arg(prof)
    prof.add_argument("--images", type=_positive_arg, default=4)
    prof.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="full autoAx pipeline")
    _add_accelerator_arg(run)
    run.add_argument("--library", help="library JSON (else generated)")
    run.add_argument("--scale", type=float, default=0.01)
    run.add_argument("--images", type=_positive_arg, default=4)
    run.add_argument("--train", type=_train_arg, default=150)
    run.add_argument("--evals", type=_positive_arg, default=10_000)
    run.add_argument("--seed", type=int, default=0)
    _add_workers_arg(run)
    _add_store_arg(run)
    _add_trace_arg(run)
    run.add_argument("--json", action="store_true",
                     help="machine-readable result document")
    run.add_argument("--out", help="CSV file for the final front")

    workloads = sub.add_parser("workloads",
                               help="workload registry operations")
    wl_sub = workloads.add_subparsers(dest="workloads_command",
                                      required=True)
    wl_sub.add_parser("list", help="print the registered workloads")
    wl_run = wl_sub.add_parser(
        "run", help="full autoAx pipeline on a registered workload"
    )
    wl_run.add_argument("name", help="workload name (see 'list')")
    wl_run.add_argument("--scale", type=float, default=None,
                        help="library scale (default: REPRO_SCALE)")
    wl_run.add_argument("--images", type=_positive_arg, default=4)
    wl_run.add_argument("--train", type=_train_arg, default=150)
    wl_run.add_argument("--evals", type=_positive_arg, default=10_000)
    wl_run.add_argument("--seed", type=int, default=0)
    _add_workers_arg(wl_run)
    _add_store_arg(wl_run)
    _add_trace_arg(wl_run)
    wl_run.add_argument("--json", action="store_true",
                        help="machine-readable result document")
    wl_run.add_argument("--out", help="CSV file for the final front")

    search = sub.add_parser(
        "search", help="parallel portfolio design-space search"
    )
    search.add_argument("--workload", default="sobel",
                        help="workload name (see 'workloads list')")
    search.add_argument("--budget", type=int, default=2_000,
                        help="exact model-evaluation budget")
    search.add_argument(
        "--strategies", default="hill,nsga2,random",
        help="comma-separated islands: hill, nsga2, random, "
             "exhaustive (each may take args, e.g. "
             "'nsga2:population_size=24')",
    )
    search.add_argument("--rounds", type=int, default=2,
                        help="merge/migrate rounds")
    search.add_argument("--scale", type=float, default=None,
                        help="library scale (default: REPRO_SCALE)")
    search.add_argument("--images", type=_positive_arg, default=2)
    search.add_argument("--train", type=_train_arg, default=60,
                        help="real-evaluated training configurations")
    search.add_argument("--test", type=int, default=30,
                        help="held-out configurations for fidelity")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--engines", default="K-Neighbors",
                        help="comma-separated learning engines")
    _add_workers_arg(search)
    _add_store_arg(search)
    _add_trace_arg(search)
    search.add_argument("--json", action="store_true",
                        help="machine-readable result document")

    runs = sub.add_parser(
        "runs", help="experiment-store run ledger operations"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    specs = {
        "list": "list recorded pipeline runs",
        "show": "print one run's manifest",
        "resume": "re-execute a recorded run against the warm store",
        "gc": "drop store artifacts no run manifest references",
    }
    for name, help_text in specs.items():
        cmd = runs_sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--store-dir", default=None, metavar="PATH",
            help="store directory (default: REPRO_STORE_DIR / "
                 ".repro-store)",
        )
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output")
        if name == "list":
            cmd.add_argument(
                "--kind", default=None,
                help="only manifests of this kind "
                     "(e.g. workload, search, serve-job)",
            )
        if name in ("show", "resume"):
            cmd.add_argument("run_id", help="ledger run id")
        if name == "resume":
            _add_workers_arg(cmd)
        if name == "gc":
            cmd.add_argument(
                "--all", action="store_true",
                help="also drop unreferenced shared pools "
                     "(synthesis reports, libraries)",
            )
            cmd.add_argument(
                "--dry-run", action="store_true",
                help="report what would be removed (per-kind counts "
                     "and byte totals) without deleting anything",
            )

    serve = sub.add_parser(
        "serve", help="HTTP approximation service (submit/poll jobs)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: REPRO_SERVE_PORT env or 8035; "
             "0 picks a free port)",
    )
    serve.add_argument(
        "--keys", default=None,
        help="comma-separated API keys '[name=]secret[:budget]' "
             "(default: REPRO_SERVE_KEYS env; none => open server)",
    )
    serve.add_argument(
        "--parallel-jobs", type=int, default=1,
        help="concurrent pipeline passes (default: 1; parallelism "
             "lives inside a pass via --workers)",
    )
    _add_workers_arg(serve)
    _add_store_arg(serve)
    _add_trace_arg(serve)

    export = sub.add_parser("export-verilog",
                            help="structural Verilog of an accelerator")
    _add_accelerator_arg(export)
    export.add_argument("--out", help="output .v file (else stdout)")
    export.add_argument("--optimize", action="store_true",
                        help="run synthesis optimisation first")

    return parser


_COMMANDS = {
    "inventory": _cmd_inventory,
    "generate-library": _cmd_generate_library,
    "profile": _cmd_profile,
    "run": _cmd_run,
    "workloads": _cmd_workloads,
    "search": _cmd_search,
    "runs": _cmd_runs,
    "serve": _cmd_serve,
    "export-verilog": _cmd_export_verilog,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    setup_logging()
    try:
        with _tracing(args.command, getattr(args, "trace", None)):
            return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
