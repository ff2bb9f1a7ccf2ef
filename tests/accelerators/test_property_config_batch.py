"""Property layer: ``GraphProgram.execute_batch`` == the per-config loop.

``GraphProgram.execute_batch`` takes the per-configuration LUT tables of
every approximate op and evaluates all ``C`` configurations.  Its
contract is byte-identity: row ``c`` of the batched output must equal
``execute(inputs, assignment_c)`` exactly, for every well-formed graph,
table mix (some ops exact for all configs) and input shape regime.  This
module checks that on ~100 random dataflow DAGs with random config
batches.
"""

import numpy as np
import pytest

from repro.utils.bitops import bit_mask

from tests.accelerators.test_property_random_graphs import (
    random_graph,
    random_inputs,
)

#: Random graphs per shape regime (2 regimes => ~100 graphs).
GRAPHS_PER_REGIME = 50


def config_row(batched, inputs, c):
    """Configuration ``c``'s slice of a batched result.

    The configuration axis, when present, sits above the common input
    rank (``execute_batch`` pads all inputs to it); results that no
    tabled op reached carry no configuration axis and are shared by
    every configuration.
    """
    base_rank = max(
        (np.ndim(v) for v in inputs.values()), default=0
    )
    batched = np.asarray(batched)
    if batched.ndim == base_rank + 1:
        return batched[c]
    return batched


def assert_rows_equal(batched, inputs, assignments, program, g):
    for c, assignment in enumerate(assignments):
        expected = program.execute(inputs, assignment or None)
        row = config_row(batched, inputs, c)
        pair = np.broadcast_arrays(row, np.asarray(expected))
        assert np.array_equal(pair[0], pair[1]), g.name


def random_tables(rng, g, program, n_configs):
    """Random stacked LUTs for a coin-flipped subset of the ops.

    Returns ``(tables, assignments)`` where ``tables`` aligns with
    ``program.op_names`` and ``assignments[c]`` is the equivalent
    per-config impl dict (gathering from config ``c``'s LUT row).
    """
    widths = {n.name: n.width for n in g.approximable_ops()}
    tables = []
    assignments = [dict() for _ in range(n_configs)]
    for name in program.op_names:
        if rng.random() < 0.4:
            tables.append(None)  # exact for every configuration
            continue
        width = widths[name]
        mask = bit_mask(width)
        n_rows = int(rng.integers(1, 5))
        flat = rng.integers(
            -(1 << 32), 1 << 32, size=n_rows * 4**width, dtype=np.int64
        )
        rows = rng.integers(0, n_rows, size=n_configs, dtype=np.int64)
        tables.append((flat, rows, width, mask))
        for c in range(n_configs):
            lut = flat[rows[c] * 4**width:(rows[c] + 1) * 4**width]
            assignments[c][name] = (
                lambda a, b, lut=lut, w=width, m=mask:
                lut[((a & m) << w) | (b & m)]
            )
    return tables, assignments


@pytest.mark.parametrize("regime", ("vector", "batch"))
def test_execute_batch_matches_per_config(regime):
    rng = np.random.default_rng(("vector", "batch").index(regime) + 11)
    for _ in range(GRAPHS_PER_REGIME):
        g = random_graph(rng)
        program = g.compile()
        inputs = random_inputs(rng, g, regime)
        n_configs = int(rng.integers(1, 7))
        tables, assignments = random_tables(rng, g, program, n_configs)

        batched = program.execute_batch(inputs, tables)
        assert_rows_equal(batched, inputs, assignments, program, g)


def test_execute_batch_masks_inputs_unless_assume_masked():
    rng = np.random.default_rng(5)
    g = random_graph(rng)
    program = g.compile()
    raw = random_inputs(rng, g, "vector")
    masked = {
        name: np.asarray(raw[name], dtype=np.int64) & mask
        for (name, _, mask) in program.inputs
    }
    tables, _ = random_tables(rng, g, program, 3)
    a = program.execute_batch(raw, tables)
    b = program.execute_batch(masked, tables, assume_masked=True)
    assert np.array_equal(
        *np.broadcast_arrays(np.asarray(a), np.asarray(b))
    )


def test_execute_batch_rejects_misaligned_tables():
    from repro.errors import AcceleratorError

    rng = np.random.default_rng(6)
    g = random_graph(rng)
    program = g.compile()
    inputs = random_inputs(rng, g, "vector")
    with pytest.raises(AcceleratorError):
        program.execute_batch(
            inputs, [None] * (len(program.op_names) + 1)
        )
