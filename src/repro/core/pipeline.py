"""End-to-end autoAx pipeline (paper Fig. 1) with resumable stages.

``AutoAx.run()`` executes the three methodology steps against one
accelerator + library + benchmark-data triple and returns everything the
paper reports: design-space sizes after each step (Table 5), the chosen
estimation models with their fidelities (Table 3), the pseudo Pareto set,
and the final real-evaluated Pareto fronts in (SSIM, area) and
(SSIM, area, energy) space (Fig. 5).

When constructed with an :class:`~repro.store.ArtifactStore`, the run
decomposes into five cache-aware stages, each run through
:class:`~repro.core.stages.CachedStages` —

    preprocessing  -> training_set -> model_construction
                   -> pseudo_pareto -> final_analysis

— each keyed by the content hash of its exact inputs (accelerator
dataflow graph, library fingerprint, benchmark images, stage
parameters, upstream artifact keys).  A stage whose key is already in
the store is *skipped*: its artifact is decoded instead of recomputed,
so a repeated run with a warm store performs no profiling, no synthesis,
no model fitting and no DSE.  Each stage draws from its own seeded RNG
stream (derived from ``config.seed``), so a resumed run that skips some
stages produces bit-identical downstream results to a cold run.  Every
invocation is recorded in the :class:`~repro.store.RunLedger` as a
manifest (params, config hash, per-stage timing and cache outcome,
artifact refs) — the basis of ``repro runs list|show|resume|gc``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.accelerators.profiler import OperandProfile, profile_accelerator
from repro.core.configuration import (
    HW_FEATURES,
    Configuration,
    ConfigurationSpace,
)
from repro.core.dse import DSEResult, heuristic_pareto_construction
from repro.core.engine import EvaluationEngine, EvaluationResult
from repro.core.modeling import (
    EngineReport,
    TrainingSet,
    build_training_set,
    fit_count,
    fit_engines,
    reports_from_payload,
    reports_to_payload,
    select_best_model,
)
from repro.core.pareto import pareto_front_indices
from repro.core.preprocessing import reduce_library
from repro.core.stages import CachedStages
from repro.errors import ValidationError
from repro.library.component import ComponentRecord
from repro.library.library import ComponentLibrary
from repro.telemetry import get_metrics
from repro.utils.rng import spawn_rngs

#: Ledger stage names, in execution order.  The heavy stages a warm
#: store is expected to skip entirely.
PIPELINE_STAGES = (
    "preprocessing",
    "training_set",
    "model_construction",
    "pseudo_pareto",
    "final_analysis",
)


@dataclass(frozen=True)
class AutoAxConfig:
    """Tunables of the pipeline; defaults are laptop-scale."""

    n_train: int = 400
    n_test: int = 200
    engines: Tuple[str, ...] = ("Random Forest",)
    include_naive: bool = True
    hw_features: Tuple[str, ...] = HW_FEATURES
    max_evaluations: int = 20_000
    stagnation_limit: int = 50
    per_op_cap: Optional[int] = None
    max_samples: int = 1 << 16
    seed: int = 0
    #: worker processes for real evaluation (None: REPRO_WORKERS / serial)
    workers: Optional[int] = None

    def __post_init__(self):
        if self.n_train < 2 or self.n_test < 2:
            raise ValueError("need at least two train and test samples")
        if not self.engines:
            raise ValueError("at least one learning engine is required")
        # Checked here, not where used, so a bad request fails before
        # the library build, the training sets and the model fits.
        for name in ("max_evaluations", "stagnation_limit", "max_samples"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        if self.per_op_cap is not None and self.per_op_cap < 1:
            raise ValidationError(
                f"per_op_cap must be None or >= 1, got {self.per_op_cap!r}"
            )

    def cache_payload(self) -> Dict[str, object]:
        """The hashable identity of this config.

        ``workers`` is excluded: parallelism changes wall time, never
        results, so it must not fragment the cache.
        """
        payload = asdict(self)
        payload.pop("workers", None)
        payload["engines"] = list(self.engines)
        payload["hw_features"] = list(self.hw_features)
        return payload


@dataclass
class AutoAxResult:
    """Everything produced by one pipeline run."""

    space: ConfigurationSpace
    profiles: Dict[str, OperandProfile]
    initial_space_size: float
    reduced_space_size: float
    qor_reports: List[EngineReport]
    hw_reports: List[EngineReport]
    qor_model: EngineReport
    hw_model: EngineReport
    pseudo_pareto: DSEResult
    real_evaluations: List[EvaluationResult]
    final_configs: List[Configuration]
    final_points: np.ndarray  # columns: qor (ssim), area
    final_configs_3d: List[Configuration]
    final_points_3d: np.ndarray  # columns: qor, area, energy
    timings: Dict[str, float] = field(default_factory=dict)
    #: stage name -> "hit" / "miss" / "off" (no store attached)
    stage_cache: Dict[str, str] = field(default_factory=dict)
    #: ledger id of this invocation (None without a ledger)
    run_id: Optional[str] = None
    #: synthesis/fit counters of this run (zeros when fully cached)
    engine_stats: Dict[str, object] = field(default_factory=dict)

    def summary_row(self) -> Dict[str, float]:
        """The Table 5 row of this run."""
        return {
            "all_possible": self.initial_space_size,
            "after_preprocessing": self.reduced_space_size,
            "pseudo_pareto": float(len(self.pseudo_pareto)),
            "final_pareto": float(len(self.final_configs)),
        }


class AutoAx:
    """The autoAx methodology bound to one accelerator instance.

    ``store`` enables persistent stage caching; ``ledger`` (defaulting
    to one at the store root) records the run manifest.  ``run_kind``,
    ``run_label`` and ``run_params`` annotate the manifest so ``repro
    runs resume`` can re-execute the invocation.
    """

    def __init__(
        self,
        accelerator: ImageAccelerator,
        library: ComponentLibrary,
        images: Sequence[np.ndarray],
        scenarios: Optional[Sequence[Dict[str, int]]] = None,
        config: AutoAxConfig = AutoAxConfig(),
        store=None,
        ledger=None,
        run_kind: str = "autoax",
        run_label: Optional[str] = None,
        run_params: Optional[Dict] = None,
    ):
        self.accelerator = accelerator
        self.library = library
        self.images = list(images)
        self.scenarios = scenarios
        self.config = config
        self.store = store
        if ledger is None and store is not None:
            from repro.store import RunLedger

            ledger = RunLedger(store)
        self.ledger = ledger
        self.run_kind = run_kind
        self.run_label = run_label or accelerator.name
        self.run_params = dict(run_params or {})
        self._engine: Optional[EvaluationEngine] = None
        self._acc_hash: Optional[str] = None
        self._inputs: Optional[Dict[str, object]] = None

    # -- individual steps ---------------------------------------------------

    def profile(self) -> Dict[str, OperandProfile]:
        """Step 1a: operand PMFs of every replaceable operation."""
        return profile_accelerator(
            self.accelerator,
            self.images,
            scenarios=self.scenarios,
            max_samples=self.config.max_samples,
            rng=self.config.seed,
        )

    def reduce(
        self, profiles: Dict[str, OperandProfile]
    ) -> ConfigurationSpace:
        """Step 1b: WMED scoring + per-operation Pareto filtering."""
        return reduce_library(
            self.accelerator,
            self.library,
            profiles,
            per_op_cap=self.config.per_op_cap,
        )

    def initial_space_size(self) -> float:
        """|library(op_1)| * ... * |library(op_n)| before filtering."""
        total = 1.0
        for slot in self.accelerator.op_slots():
            total *= self.library.size(slot.signature)
        return total

    # -- engine (lazy: a fully cached run never builds it) ------------------

    def engine(self) -> EvaluationEngine:
        """The real-evaluation engine, built on first use.

        Construction simulates the golden outputs, so a warm run that
        skips every evaluation stage also skips this cost.  With a store
        attached, the engine's synthesis memo is backed by a
        store-persistent cache scoped to this accelerator.
        """
        if self._engine is None:
            synth_cache = None
            if self.store is not None:
                from repro.store import synth_cache_for

                synth_cache = synth_cache_for(
                    self.store, self._accelerator_hash()
                )
            self._engine = EvaluationEngine(
                self.accelerator,
                self.images,
                self.scenarios,
                workers=self.config.workers,
                synth_cache=synth_cache,
            )
        return self._engine

    def _accelerator_hash(self) -> str:
        if self._acc_hash is None:
            from repro.store import accelerator_fingerprint, content_hash

            self._acc_hash = content_hash(
                accelerator_fingerprint(self.accelerator)
            )
        return self._acc_hash

    # -- stage payloads -----------------------------------------------------

    def _space_payload(self, space: ConfigurationSpace) -> Dict:
        return {
            "slots": [
                [slot.name, slot.signature[0], slot.signature[1]]
                for slot in space.slots
            ],
            "choices": [
                [record.to_dict() for record in group]
                for group in space.choices
            ],
            "wmeds": [w.tolist() for w in space.wmeds],
        }

    def _space_from_payload(
        self, payload: Dict
    ) -> Optional[ConfigurationSpace]:
        """Rebuild the reduced space; ``None`` if it no longer matches."""
        slots = self.accelerator.op_slots()
        recorded = [
            (name, (kind, width))
            for name, kind, width in payload.get("slots", [])
        ]
        if [(s.name, s.signature) for s in slots] != recorded:
            return None
        choices = [
            [ComponentRecord.from_dict(d) for d in group]
            for group in payload["choices"]
        ]
        return ConfigurationSpace(slots, choices, payload["wmeds"])

    @staticmethod
    def _training_payload(ts: TrainingSet) -> Dict:
        return {
            "configs": [list(c) for c in ts.configs],
            "qor": ts.qor.tolist(),
            "area": ts.area.tolist(),
            "delay": ts.delay.tolist(),
            "power": ts.power.tolist(),
        }

    @staticmethod
    def _training_from_payload(payload: Dict) -> TrainingSet:
        return TrainingSet(
            configs=[tuple(c) for c in payload["configs"]],
            qor=np.asarray(payload["qor"], dtype=float),
            area=np.asarray(payload["area"], dtype=float),
            delay=np.asarray(payload["delay"], dtype=float),
            power=np.asarray(payload["power"], dtype=float),
        )

    @staticmethod
    def _dse_payload(pseudo: DSEResult) -> Dict:
        return {
            "configs": [list(c) for c in pseudo.configs],
            "points": pseudo.points.tolist(),
            "evaluations": pseudo.evaluations,
            "inserts": pseudo.inserts,
            "restarts": pseudo.restarts,
        }

    @staticmethod
    def _dse_from_payload(payload: Dict) -> DSEResult:
        points = np.asarray(payload["points"], dtype=float)
        return DSEResult(
            configs=[tuple(c) for c in payload["configs"]],
            points=points.reshape(len(payload["configs"]), -1),
            evaluations=payload["evaluations"],
            inserts=payload["inserts"],
            restarts=payload["restarts"],
        )

    def _input_hashes(self) -> Dict[str, object]:
        """Content hashes of the run's inputs, shared by stage keys."""
        if self._inputs is None:
            from repro.store import (
                content_hash, images_fingerprint, library_fingerprint,
            )

            self._inputs = {
                "accelerator": self._accelerator_hash(),
                "library": content_hash(library_fingerprint(self.library)),
                "images": content_hash(images_fingerprint(self.images)),
                "scenarios": (
                    [dict(s) for s in self.scenarios]
                    if self.scenarios else None
                ),
            }
        return self._inputs

    def _evaluation_inputs(self, space_hash: Optional[str]) -> Dict:
        """Key inputs of the stages that real-evaluate in the space."""
        base = self._input_hashes()
        keys = ("accelerator", "images", "scenarios")
        return {"space": space_hash, **{k: base[k] for k in keys}}

    # -- full pipeline ------------------------------------------------------

    def run(self) -> AutoAxResult:
        cfg = self.config
        stages = CachedStages(self.store)
        fits_before = fit_count()
        metrics = get_metrics()
        metrics_mark = metrics.mark()
        metrics.inc("pipeline.runs")

        # Independent per-stage RNG streams: skipping a cached stage
        # must not shift the randomness of the stages that still run.
        rng_train, rng_test, rng_dse = spawn_rngs(cfg.seed, 3)
        config_hash = stages.key(
            lambda: {
                "inputs": self._input_hashes(),
                "config": cfg.cache_payload(),
            }
        )

        # ---- stage 1: characterize + reduce (preprocessing) -------------
        def preprocess():
            profiles = self.profile()
            space = self.reduce(profiles)
            return self._space_payload(space), profiles, space

        def decode_preprocessed(payload, profiles):
            space = self._space_from_payload(payload)
            return None if space is None else (payload, profiles, space)

        with stages.stage("preprocessing"):
            (space_payload, profiles, space), _ = stages.cached(
                ("space", "profiles"),
                lambda: {
                    "stage": "preprocessing",
                    **self._input_hashes(),
                    "max_samples": cfg.max_samples,
                    "per_op_cap": cfg.per_op_cap,
                    "seed": cfg.seed,
                },
                preprocess,
                encode=lambda value: value[:2],
                decode=decode_preprocessed,
            )
        space_hash = stages.key(lambda: {"space": space_payload})

        # ---- stage 2: real-evaluated training/test sets ------------------
        sets, set_keys = {}, {}
        counts = {"train": cfg.n_train, "test": cfg.n_test}
        rngs = {"train": rng_train, "test": rng_test}
        with stages.stage("training_set"):
            for role in ("train", "test"):
                sets[role], set_keys[role] = stages.cached(
                    "training-set",
                    lambda: {
                        "stage": "training-set",
                        "role": role,
                        **self._evaluation_inputs(space_hash),
                        "count": counts[role],
                        "seed": cfg.seed,
                    },
                    lambda: build_training_set(
                        space, self.engine(), counts[role],
                        rng=rngs[role],
                    ),
                    encode=self._training_payload,
                    decode=self._training_from_payload,
                )
        train, test = sets["train"], sets["test"]

        # ---- stage 3: estimation-model construction ----------------------
        def fit(target):
            return fit_engines(
                space, train, test, target=target,
                engines=cfg.engines, include_naive=cfg.include_naive,
                hw_features=cfg.hw_features, seed=cfg.seed,
            )

        with stages.stage("model_construction"):
            (qor_reports, hw_reports), models_key = stages.cached(
                "models",
                lambda: {
                    "stage": "models",
                    "train": set_keys["train"],
                    "test": set_keys["test"],
                    "space": space_hash,
                    "engines": list(cfg.engines),
                    "include_naive": cfg.include_naive,
                    "hw_features": list(cfg.hw_features),
                    "seed": cfg.seed,
                },
                lambda: (fit("qor"), fit("area")),
                encode=lambda reports: {
                    "qor": reports_to_payload(reports[0]),
                    "hw": reports_to_payload(reports[1]),
                },
                decode=lambda payload: (
                    reports_from_payload(payload["qor"], space),
                    reports_from_payload(payload["hw"], space),
                ),
            )
            qor_best = select_best_model(qor_reports)
            hw_best = select_best_model(hw_reports)

        # ---- stage 4: model-driven DSE (pseudo Pareto) -------------------
        with stages.stage("pseudo_pareto"):
            pseudo, _ = stages.cached(
                "dse",
                lambda: {
                    "stage": "dse",
                    "models": models_key,
                    "max_evaluations": cfg.max_evaluations,
                    "stagnation_limit": cfg.stagnation_limit,
                    "seed": cfg.seed,
                },
                lambda: heuristic_pareto_construction(
                    space,
                    qor_best.model,
                    hw_best.model,
                    max_evaluations=cfg.max_evaluations,
                    stagnation_limit=cfg.stagnation_limit,
                    rng=rng_dse,
                ),
                encode=self._dse_payload,
                decode=self._dse_from_payload,
            )

        # ---- stage 5: real evaluation of the pseudo Pareto set -----------
        with stages.stage("final_analysis"):
            real, _ = stages.cached(
                "evaluations",
                lambda: {
                    "stage": "final",
                    **self._evaluation_inputs(space_hash),
                    "configs": [list(c) for c in pseudo.configs],
                },
                lambda: self.engine().evaluate_many(
                    space, pseudo.configs
                ),
                # a stored list of another length is stale
                decode=lambda stored: (
                    stored if len(stored) == len(pseudo.configs)
                    else None
                ),
            )

        # ---- assemble result + manifest ----------------------------------
        qor = np.asarray([r.qor for r in real])
        area = np.asarray([r.area for r in real])
        energy = np.asarray([r.energy for r in real])

        front2 = pareto_front_indices(np.stack([-qor, area], axis=1))
        front3 = pareto_front_indices(
            np.stack([-qor, area, energy], axis=1)
        )

        engine_stats: Dict[str, object] = {
            "engine_built": self._engine is not None,
            "model_fits": fit_count() - fits_before,
            "synth_hits": 0,
            "synth_store_hits": 0,
            "synth_misses": 0,
        }
        if self._engine is not None:
            engine_stats.update(self._engine.synth_stats())

        run_id = None
        if self.ledger is not None:
            run_id = self.ledger.new_run_id()
            self.ledger.record(
                run_id,
                kind=self.run_kind,
                label=self.run_label,
                params=self.run_params,
                config_hash=config_hash or "",
                stages=stages.records,
                seed=cfg.seed,
                extra={
                    "engine_stats": engine_stats,
                    "metrics": metrics.snapshot(since=metrics_mark),
                },
            )

        return AutoAxResult(
            space=space,
            profiles=profiles,
            initial_space_size=self.initial_space_size(),
            reduced_space_size=space.size(),
            qor_reports=qor_reports,
            hw_reports=hw_reports,
            qor_model=qor_best,
            hw_model=hw_best,
            pseudo_pareto=pseudo,
            real_evaluations=real,
            final_configs=[pseudo.configs[i] for i in front2],
            final_points=np.stack([qor[front2], area[front2]], axis=1),
            final_configs_3d=[pseudo.configs[i] for i in front3],
            final_points_3d=np.stack(
                [qor[front3], area[front3], energy[front3]], axis=1
            ),
            timings=stages.timings,
            stage_cache=stages.cache,
            run_id=run_id,
            engine_stats=engine_stats,
        )
