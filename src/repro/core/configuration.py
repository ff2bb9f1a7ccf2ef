"""Configuration space: the reduced libraries RL_1 x ... x RL_n.

A *configuration* assigns one library component to every replaceable
operation; it is represented as a tuple of integer indices into the
per-slot candidate lists.  The space also owns the per-candidate feature
arrays the estimation models consume:

* QoR features — the WMED of the chosen circuit of every slot (paper
  §4.1.2), and
* hardware features — area, power and delay of every chosen circuit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.accelerators.base import OpSlot
from repro.circuits.luts import MAX_LUT_WIDTH
from repro.errors import DSEError
from repro.library.component import ComponentRecord
from repro.utils.bitops import bit_mask
from repro.utils.rng import RngLike, ensure_rng

Configuration = Tuple[int, ...]

#: Hardware feature names per slot, in column order.
HW_FEATURES = ("area", "power", "delay")


class ConfigurationSpace:
    """Candidate components per operation slot plus feature tables."""

    def __init__(
        self,
        slots: Sequence[OpSlot],
        choices: Sequence[Sequence[ComponentRecord]],
        wmeds: Sequence[Sequence[float]],
    ):
        if len(slots) != len(choices) or len(slots) != len(wmeds):
            raise DSEError("slots, choices and wmeds must align")
        if not slots:
            raise DSEError("a configuration space needs at least one slot")
        for slot, group in zip(slots, choices):
            if not group:
                raise DSEError(f"slot {slot.name!r} has no candidates")
            for record in group:
                if record.signature != slot.signature:
                    raise DSEError(
                        f"candidate {record.name!r} has signature "
                        f"{record.signature}, slot {slot.name!r} needs "
                        f"{slot.signature}"
                    )
        self.slots = list(slots)
        self.choices: List[List[ComponentRecord]] = [
            list(group) for group in choices
        ]
        self.wmeds: List[np.ndarray] = [
            np.asarray(w, dtype=np.float64) for w in wmeds
        ]
        for group, w in zip(self.choices, self.wmeds):
            if len(group) != w.shape[0]:
                raise DSEError("wmed table length mismatch")
        self._hw: List[np.ndarray] = []
        for group in self.choices:
            table = np.asarray(
                [
                    (r.hardware.area, r.hardware.power, r.hardware.delay)
                    for r in group
                ],
                dtype=np.float64,
            )
            self._hw.append(table)
        # Compiled feature tables: the per-slot candidate tables laid
        # out flat with per-slot offsets, so a whole (m, n_slots) batch
        # gathers its features in one indexing pass instead of a Python
        # loop over slots.  The gathered values are the same float64
        # entries, so features — and every model predict built on them —
        # stay bit-identical to the per-slot path.
        sizes = np.asarray(self.slot_sizes(), dtype=np.int64)
        self._sizes = sizes
        self._offsets = np.concatenate(
            ([0], np.cumsum(sizes[:-1]))
        ).astype(np.int64)
        self._wmed_flat = np.concatenate(self.wmeds)
        self._hw_flat = np.vstack(self._hw)
        self._stat_flat: Dict[str, np.ndarray] = {}
        # Memoised per-candidate impl closures, rebuilt lazily (and
        # dropped from pickles, see __getstate__).
        self._impl_memo: Dict[Tuple[int, int], Callable] = {}

    def __getstate__(self):
        """Pickle without the lazy impl memo.

        The impl closures are unpicklable (nested functions); they
        rebuild lazily on first use, so workers receiving a space
        through the parallel runtime start from an empty memo.
        """
        state = self.__dict__.copy()
        state["_impl_memo"] = {}
        return state

    # -- basic queries ------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def slot_sizes(self) -> List[int]:
        return [len(group) for group in self.choices]

    def size(self) -> float:
        """Number of configurations (float: may overflow int displays)."""
        total = 1.0
        for group in self.choices:
            total *= len(group)
        return total

    def validate_configuration(self, config: Configuration) -> None:
        if len(config) != self.n_slots:
            raise DSEError(
                f"configuration has {len(config)} genes, space has "
                f"{self.n_slots} slots"
            )
        for k, idx in enumerate(config):
            if not 0 <= idx < len(self.choices[k]):
                raise DSEError(
                    f"gene {k} = {idx} out of range "
                    f"[0, {len(self.choices[k])})"
                )

    # -- sampling ------------------------------------------------------------

    def random_configuration(self, rng: RngLike = None) -> Configuration:
        gen = ensure_rng(rng)
        return tuple(
            int(gen.integers(0, len(group))) for group in self.choices
        )

    def random_configurations(
        self, count: int, rng: RngLike = None, unique: bool = True
    ) -> List[Configuration]:
        """Sample ``count`` configurations (unique when feasible)."""
        gen = ensure_rng(rng)
        if not unique or count >= self.size():
            return [self.random_configuration(gen) for _ in range(count)]
        seen = set()
        out: List[Configuration] = []
        while len(out) < count:
            config = self.random_configuration(gen)
            if config not in seen:
                seen.add(config)
                out.append(config)
        return out

    def neighbor(
        self, config: Configuration, rng: RngLike = None
    ) -> Configuration:
        """Mutate one randomly chosen gene to a different candidate."""
        gen = ensure_rng(rng)
        mutable = [k for k in range(self.n_slots) if len(self.choices[k]) > 1]
        if not mutable:
            return tuple(config)
        k = int(mutable[gen.integers(0, len(mutable))])
        current = config[k]
        new = int(gen.integers(0, len(self.choices[k]) - 1))
        if new >= current:
            new += 1
        out = list(config)
        out[k] = new
        return tuple(out)

    def neighbors(
        self, config: Configuration, count: int, rng: RngLike = None
    ) -> List[Configuration]:
        """``count`` independent one-gene mutations of ``config``.

        Vectorised batch variant of :meth:`neighbor` — one RNG call per
        batch instead of three per candidate — used by the hill
        climber's candidate generation (each candidate mutates the same
        parent, matching the per-call semantics).
        """
        if count < 0:
            raise DSEError("count must be non-negative")
        if count == 0:
            return []
        gen = ensure_rng(rng)
        sizes = np.asarray(self.slot_sizes(), dtype=np.int64)
        mutable = np.nonzero(sizes > 1)[0]
        if mutable.size == 0:
            return [tuple(config) for _ in range(count)]
        base = np.asarray(config, dtype=np.int64)
        slots = mutable[gen.integers(0, mutable.size, size=count)]
        # Draw in [0, size-1) and skip over the current gene so the
        # mutation always changes the slot's candidate.
        draws = (
            gen.random(count) * (sizes[slots] - 1)
        ).astype(np.int64)
        draws += draws >= base[slots]
        out = np.tile(base, (count, 1))
        out[np.arange(count), slots] = draws
        return [tuple(int(g) for g in row) for row in out]

    def enumerate_all(self) -> np.ndarray:
        """All configurations as an (N, n_slots) int array (small spaces)."""
        total = self.size()
        if total > 5e7:
            raise DSEError(
                f"space has {total:.3g} configurations; enumeration refused"
            )
        grids = np.meshgrid(
            *[np.arange(len(g)) for g in self.choices], indexing="ij"
        )
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    # -- features ------------------------------------------------------------

    def _as_matrix(self, configs) -> np.ndarray:
        arr = np.asarray(configs, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[1] != self.n_slots:
            raise DSEError(
                f"configurations have {arr.shape[1]} genes, expected "
                f"{self.n_slots}"
            )
        return arr

    def _flat_indices(self, configs) -> np.ndarray:
        """Genes shifted into the flat candidate tables, bounds-checked.

        The flat layout would silently read a neighbouring slot's entry
        for an out-of-range gene, so the whole batch is range-checked
        first (one vectorised compare — the per-slot path raised an
        ``IndexError`` here instead).
        """
        arr = self._as_matrix(configs)
        if np.any((arr < 0) | (arr >= self._sizes)):
            raise DSEError("configuration gene out of range")
        return arr + self._offsets

    def qor_features(self, configs) -> np.ndarray:
        """(m, n_slots) WMED feature matrix for a batch of configurations."""
        return self._wmed_flat[self._flat_indices(configs)]

    def error_stat_features(self, configs, stat: str) -> np.ndarray:
        """(m, n_slots) matrix of a uniform-input error statistic.

        ``stat`` names an attribute of
        :class:`~repro.circuits.characterization.ErrorStats` (e.g.
        ``error_var``, ``wce``, ``mre``).  Used by feature-set ablations —
        the paper reports that adding the error variance to the WMED
        features does not improve QoR-model fidelity (§4.1.2).
        """
        flat = self._stat_flat.get(stat)
        if flat is None:
            tables = []
            for group in self.choices:
                try:
                    tables.append(
                        np.asarray(
                            [getattr(r.errors, stat) for r in group],
                            dtype=np.float64,
                        )
                    )
                except AttributeError:
                    raise DSEError(f"unknown error statistic {stat!r}")
            flat = np.concatenate(tables)
            self._stat_flat[stat] = flat
        return flat[self._flat_indices(configs)]

    def hw_features(
        self, configs, features: Sequence[str] = HW_FEATURES
    ) -> np.ndarray:
        """(m, n_slots * len(features)) hardware feature matrix."""
        indices = []
        for f in features:
            if f not in HW_FEATURES:
                raise DSEError(f"unknown hardware feature {f!r}")
            indices.append(HW_FEATURES.index(f))
        gathered = self._hw_flat[self._flat_indices(configs)]
        # (m, n_slots, features) -> slot-major columns, same order as
        # the old per-slot loop: slot0 features, slot1 features, ...
        selected = gathered[:, :, indices]
        return np.ascontiguousarray(
            selected.reshape(selected.shape[0], -1)
        )

    def area_columns(
        self, features: Sequence[str] = HW_FEATURES
    ) -> List[int]:
        """Column indices of the per-slot *area* feature in hw_features."""
        if "area" not in features:
            raise DSEError("'area' is not among the selected features")
        stride = len(features)
        offset = list(features).index("area")
        return [k * stride + offset for k in range(self.n_slots)]

    # -- realisation ------------------------------------------------------------

    def records(self, config: Configuration) -> Dict[str, ComponentRecord]:
        """Component assignment (op name -> record) for ``config``."""
        self.validate_configuration(config)
        return {
            slot.name: self.choices[k][config[k]]
            for k, slot in enumerate(self.slots)
        }

    def assignment_callables(
        self, config: Configuration
    ) -> Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
        """Vectorised op implementations for software simulation.

        Impls are memoised per ``(slot, candidate)``: repeated
        evaluations of overlapping configurations reuse the same
        closures (and the LUT views captured inside them) instead of
        re-fetching ``record.lut()`` and allocating a fresh closure per
        slot per call.
        """
        self.validate_configuration(config)
        impls: Dict[str, Callable] = {}
        for k, slot in enumerate(self.slots):
            key = (k, config[k])
            impl = self._impl_memo.get(key)
            if impl is None:
                impl = _make_impl(self.choices[k][config[k]])
                self._impl_memo[key] = impl
            impls[slot.name] = impl
        return impls

    def exact_configuration(self) -> Configuration:
        """The configuration selecting an exact circuit in every slot."""
        genes = []
        for k, group in enumerate(self.choices):
            exact = [i for i, r in enumerate(group) if r.is_exact()]
            if not exact:
                raise DSEError(
                    f"slot {self.slots[k].name!r} has no exact candidate"
                )
            genes.append(exact[0])
        return tuple(genes)


def _make_impl(record: ComponentRecord) -> Callable:
    """LUT-gather implementation for narrow ops, evaluate() for wide ones."""
    width = record.width
    if width <= MAX_LUT_WIDTH:
        lut = record.lut()
        mask = bit_mask(width)

        def impl(a, b, _lut=lut, _m=mask, _w=width):
            return _lut[((a & _m) << _w) | (b & _m)]

        return impl
    circuit = record.circuit

    def impl(a, b, _c=circuit):
        return _c.evaluate(a, b)

    return impl
