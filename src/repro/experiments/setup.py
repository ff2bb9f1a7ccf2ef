"""Shared experiment fixtures: the component library and benchmark images.

Generating and characterising a library takes tens of seconds, so the
default setup caches it in the persistent experiment store
(:mod:`repro.store`) — content-addressed by generation plan, under
``REPRO_STORE_DIR`` (else ``.repro-store``).  ``REPRO_SCALE``
overrides the library scale: 1.0 regenerates the paper-size Table 2
library (tens of thousands of components — expect a long build).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.core.engine import EvaluationEngine
from repro.core.stages import CachedStages
from repro.errors import ValidationError
from repro.imaging.datasets import benchmark_images
from repro.library.generation import (
    PAPER_COUNTS,
    GenerationPlan,
    scaled_plan,
)
from repro.library.library import ComponentLibrary
from repro.store import ArtifactStore, content_hash, open_store
from repro.workloads import WorkloadBundle, WorkloadRegistry, build_bundle

#: Default library scale relative to Table 2 (0.02 => ~800 components).
DEFAULT_SCALE = 0.02

#: Environment knob overriding the default library scale.
SCALE_ENV = "REPRO_SCALE"


def default_scale() -> float:
    """Library scale from ``REPRO_SCALE`` (validated), else the default.

    Blank, non-numeric or non-positive values raise a
    :class:`~repro.errors.ValidationError` naming the knob instead of a
    raw ``float()`` traceback mid-setup.
    """
    raw = os.environ.get(SCALE_ENV)
    if raw is None:
        return DEFAULT_SCALE
    from repro.utils.validation import check_env_float

    scale = check_env_float(raw, source=SCALE_ENV)
    if scale <= 0:
        raise ValidationError(f"{SCALE_ENV} must be > 0, got {scale}")
    return scale

#: Default benchmark image geometry (rows, cols).  The paper uses
#: 384x256 px; benches default to quarter-size for turnaround and accept
#: the paper geometry via ``paper_scale=True``.
DEFAULT_SHAPE = (128, 192)
PAPER_SHAPE = (256, 384)


@dataclass
class ExperimentSetup:
    """Everything the experiment drivers need."""

    library: ComponentLibrary
    images: List[np.ndarray]
    seed: int = 0

    @property
    def image_shape(self) -> Tuple[int, int]:
        return tuple(self.images[0].shape)


#: Per-kind Table 2 reference counts used to scale workload libraries
#: (the largest paper count of each kind, so e.g. any adder signature
#: scales like the 8-bit adder pool).
KIND_REFERENCE = {
    kind: max(
        count for (k, _), count in PAPER_COUNTS.items() if k == kind
    )
    for kind in ("add", "sub", "mul")
}


def experiment_store() -> ArtifactStore:
    """The shared experiment store (env-resolved root)."""
    return open_store()


def _plan_payload(kind: str, plan: GenerationPlan, scale: float) -> Dict:
    """Key payload of a generated library: everything that shapes it."""
    return {
        "kind": kind,
        "counts": [
            [k, w, count]
            for (k, w), count in sorted(plan.counts.items())
        ],
        "seed": plan.seed,
        "sample_size": plan.sample_size,
        "scale": scale,
    }


def default_library_key(plan: GenerationPlan, scale: float) -> str:
    """Store key of the whole-library blob of a default Table 2 plan.

    Public because two CLI surfaces must agree on it: ``repro
    generate-library --store`` writes the blob under this key so
    ``repro run --store`` / :func:`scaled_library` read it back warm.
    """
    return content_hash(_plan_payload("default-library", plan, scale))


def _cached_library(
    store: Optional[ArtifactStore],
    key_payload: Dict,
    plan: GenerationPlan,
    workers: Optional[int] = None,
) -> ComponentLibrary:
    """Load the library blob from the store, else build and store it.

    Builds go through the parallel construction pipeline
    (:func:`repro.library.pipeline.build_library`): ``workers``
    processes and per-component memoisation in ``store``, so even a
    whole-library miss only recomputes components no previous plan
    characterised.  With ``store=None`` (``use_cache=False``) nothing
    is read or written — the library is always regenerated.
    """
    from repro.library.pipeline import build_library

    # record_run=False: this build is a sub-step of the calling
    # pipeline run, which records its own manifest — the ledger lists
    # runs, not stages.
    library, _ = CachedStages(store).cached(
        "library",
        lambda: key_payload,
        lambda: build_library(
            plan, workers=workers, store=store, record_run=False
        ).library,
        meta=lambda library: {"components": len(library)},
    )
    return library


def workload_plan(
    accelerator: ImageAccelerator,
    scale: float,
    seed: int = 0,
    floor: int = 64,
) -> GenerationPlan:
    """A generation plan covering exactly ``accelerator``'s signatures.

    The window family derives operand widths from the arithmetic, so a
    workload may need signatures outside the paper's Table 2 set (e.g.
    14-bit adders); this sizes each one from the per-kind Table 2
    reference count at ``scale``, floored so small signatures stay
    populated enough for per-op Pareto filtering.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    counts = {
        (kind, width): max(floor, int(round(KIND_REFERENCE[kind] * scale)))
        for kind, width in accelerator.op_inventory()
    }
    return GenerationPlan(counts, seed=seed)


@dataclass
class WorkloadSetup:
    """A materialised workload plus the library covering its signatures."""

    bundle: WorkloadBundle
    library: ComponentLibrary
    seed: int = 0

    @property
    def accelerator(self) -> ImageAccelerator:
        return self.bundle.accelerator

    @property
    def images(self) -> List[np.ndarray]:
        return self.bundle.images

    @property
    def scenarios(self):
        return self.bundle.scenarios


def workload_setup(
    name: str,
    scale: Optional[float] = None,
    n_images: int = 4,
    image_shape: Optional[Tuple[int, int]] = None,
    seed: int = 0,
    use_cache: bool = True,
    registry: Optional[WorkloadRegistry] = None,
    workers: Optional[int] = None,
) -> WorkloadSetup:
    """Build (or load from cache) everything a workload DSE run needs.

    The library is cached per *signature set*, so workloads sharing
    operation signatures (e.g. ``gaussian5`` and ``box5``) share one
    characterised library on disk; misses build through the parallel
    pipeline with ``workers`` processes (``None``: ``REPRO_WORKERS``).
    """
    if scale is None:
        scale = default_scale()
    if image_shape is None:
        image_shape = DEFAULT_SHAPE
    bundle = build_bundle(
        name, n_images=n_images, image_shape=image_shape,
        registry=registry,
    )
    plan = workload_plan(bundle.accelerator, scale, seed=seed)
    store = experiment_store() if use_cache else None
    library = _cached_library(
        store,
        _plan_payload("workload-library", plan, scale),
        plan,
        workers=workers,
    )
    return WorkloadSetup(bundle=bundle, library=library, seed=seed)


def run_workload_pipeline(
    name: str,
    scale: Optional[float] = None,
    n_images: int = 4,
    train: int = 150,
    evals: int = 10_000,
    seed: int = 0,
    workers: Optional[int] = None,
    store: Optional[ArtifactStore] = None,
    out: Optional[str] = None,
    command: str = "workloads",
):
    """Run the full autoAx pipeline on a registered workload.

    The one shared entry point of ``repro workloads run``, ``repro runs
    resume`` and the serving layer: all three build the identical
    :class:`~repro.core.pipeline.AutoAxConfig` from the same parameters,
    so their results are byte-identical and they share the same
    store-stage cache keys.  ``command`` only labels the run-ledger
    manifest (``"workloads"`` keeps the run resumable by ``repro runs
    resume``).  Returns ``(setup, result)``.
    """
    from repro.core.pipeline import AutoAx, AutoAxConfig

    # The config validates the request before any library is built.
    config = AutoAxConfig(
        n_train=train,
        n_test=max(2, train // 2),
        max_evaluations=evals,
        seed=seed,
        workers=workers,
    )
    setup = workload_setup(
        name, scale=scale, n_images=n_images, seed=seed,
    )
    pipeline = AutoAx(
        setup.accelerator,
        setup.library,
        setup.images,
        scenarios=setup.scenarios,
        config=config,
        store=store,
        run_kind="workload",
        run_label=name,
        run_params={
            "command": command,
            "name": name,
            "scale": scale,
            "images": n_images,
            "train": train,
            "evals": evals,
            "seed": seed,
            "out": out,
        },
    )
    return setup, pipeline.run()


def build_workload_engine(
    setup: WorkloadSetup, workers: Optional[int] = None
) -> EvaluationEngine:
    """The evaluation engine of a materialised workload setup."""
    return build_engine(
        setup.accelerator,
        setup.images,
        scenarios=setup.scenarios,
        workers=workers,
    )


def fit_search_models(
    space,
    engine: EvaluationEngine,
    n_train: int,
    n_test: int,
    engines: Sequence[str] = ("K-Neighbors",),
    seed: int = 0,
    workers: Optional[int] = None,
):
    """Fit the (QoR, area) estimation models the search layer consumes.

    One shared constructor for the CLI, benchmarks and experiment
    drivers: the training and held-out sets follow the
    ``rng=seed`` / ``seed + 1`` convention, engines are fidelity-ranked
    per target, and the best model of each target is returned as
    ``(qor_model, hw_model)``.
    """
    from repro.core.modeling import (
        build_training_set,
        fit_engines,
        select_best_model,
    )

    train = build_training_set(
        space, engine, n_train, rng=seed, workers=workers
    )
    test = build_training_set(
        space, engine, n_test, rng=seed + 1, workers=workers
    )
    qor_model = select_best_model(
        fit_engines(space, train, test, target="qor",
                    engines=list(engines), seed=seed)
    ).model
    hw_model = select_best_model(
        fit_engines(space, train, test, target="area",
                    engines=list(engines), seed=seed)
    ).model
    return qor_model, hw_model


def build_engine(
    accelerator: ImageAccelerator,
    images: Sequence[np.ndarray],
    scenarios: Optional[Sequence[Dict[str, int]]] = None,
    workers: Optional[int] = None,
) -> EvaluationEngine:
    """The experiment drivers' evaluation engine.

    One shared constructor so every driver (and benchmark) picks up the
    compiled/batched real-evaluation path and the ``REPRO_WORKERS``
    parallelism knob uniformly.
    """
    return EvaluationEngine(
        accelerator, images, scenarios=scenarios, workers=workers
    )


def scaled_library(
    scale: float,
    seed: int = 0,
    store: Optional[ArtifactStore] = None,
    workers: Optional[int] = None,
) -> ComponentLibrary:
    """The Table 2 library at ``scale``, store-cached when asked.

    Shares cache keys with :func:`default_setup`, so the CLI's ``run
    --store`` and the experiment drivers reuse one characterised
    library.
    """
    plan = scaled_plan(scale, seed=seed)
    return _cached_library(
        store,
        _plan_payload("default-library", plan, scale),
        plan,
        workers=workers,
    )


def default_setup(
    scale: Optional[float] = None,
    n_images: int = 8,
    image_shape: Optional[Tuple[int, int]] = None,
    seed: int = 0,
    use_cache: bool = True,
    workers: Optional[int] = None,
) -> ExperimentSetup:
    """Build (or load from the store) the default experiment setup."""
    if scale is None:
        scale = default_scale()
    if image_shape is None:
        image_shape = DEFAULT_SHAPE
    store = experiment_store() if use_cache else None
    library = scaled_library(
        scale, seed=seed, store=store, workers=workers
    )
    images = benchmark_images(n_images, shape=image_shape)
    return ExperimentSetup(library=library, images=images, seed=seed)
