"""Cell identity: canonical serialisation, content keys, picklability."""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.figures import (
    DFSIO_SIZES,
    FIG7_SIZES,
    FIG8_SIZES,
    SHUFFLE_APP_SIZES,
)
from repro.apps import APP_REGISTRY, GREP, TESTDFSIO_WRITE, WORDCOUNT
from repro.core.architectures import (
    hybrid,
    named_architectures,
    out_hdfs,
    out_ofs,
    up_hdfs,
    up_ofs,
)
from repro.core.calibration import DEFAULT_CALIBRATION, Calibration
from repro.errors import ConfigurationError
from repro.faults.plan import default_resilience_plan
from repro.runner.spec import (
    CODE_SALT,
    CellSpec,
    canonical_json,
    isolated_cell,
    replay_cell,
    sweep_experiment,
)
from repro.units import GB

#: Literal keys: a change that moves them turns every warm store cold.
PIN_ISOLATED = "695b4f4a383be38e1fa57970df193074bc0efa49482c0662a042c1a0baa1eb83"
PIN_REPLAY = "f37277b8e7918cc651277eb40717d80e246550685652773f191aedffe698b02e"
#: ``replication=2.0`` compares equal to the default's ``2`` but
#: serialises as ``2.0``, so it has a key of its own.
PIN_REPLICATION_FLOAT = (
    "199266b3d645bbf7182bf55b8ab4ca9bacdbb6caa9c6853b3b7ee3cde8f01f35"
)


def fresh_key(cell: CellSpec) -> str:
    """The reference key: hashed from ``canonical_payload``, no memo."""
    return hashlib.sha256(
        canonical_json(cell.canonical_payload()).encode("utf-8")
    ).hexdigest()


def figure_cells():
    """Every cell of the Figs. 5-9 grids, built as the figure functions
    build them (new architectures per call, shared app and calibration),
    plus replay cells under a fault plan and with profiling."""
    def table1():
        return (out_ofs(), up_ofs(), out_hdfs(), up_hdfs())

    def up_out():
        return (up_ofs(), out_ofs())

    sweeps = [
        (table1(), WORDCOUNT, SHUFFLE_APP_SIZES),      # Fig. 5
        (table1(), GREP, SHUFFLE_APP_SIZES),           # Fig. 6
        (up_out(), WORDCOUNT, FIG7_SIZES),             # Fig. 7
        (up_out(), GREP, FIG7_SIZES),
        (up_out(), TESTDFSIO_WRITE, FIG8_SIZES),       # Fig. 8
        (table1(), TESTDFSIO_WRITE, DFSIO_SIZES),      # Fig. 9
    ]
    cells = [
        cell
        for archs, app, sizes in sweeps
        for cell in sweep_experiment(archs, app, sizes).cells
    ]
    plan = default_resilience_plan(100.0, seed=1)
    for arch in named_architectures().values():
        cells.append(replay_cell(arch, num_jobs=20, fault_plan=plan))
        cells.append(replay_cell(arch, num_jobs=20, profile=True))
    return cells


class TestContentKey:
    def test_key_is_sha256_hex(self):
        key = isolated_cell(up_ofs(), GREP, 1 * GB).content_key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_key_is_stable_across_instances(self):
        a = isolated_cell(up_ofs(), GREP, 1 * GB)
        b = isolated_cell(up_ofs(), GREP, 1 * GB)
        assert a is not b
        assert a.content_key() == b.content_key()

    def test_key_covers_every_simulation_input(self):
        base = isolated_cell(up_ofs(), GREP, 1 * GB)
        variants = [
            isolated_cell(up_hdfs(), GREP, 1 * GB),       # architecture
            isolated_cell(up_ofs(), WORDCOUNT, 1 * GB),   # app profile
            isolated_cell(up_ofs(), GREP, 2 * GB),        # input size
            isolated_cell(up_ofs(), GREP, 1 * GB, seed=7),  # seed
            isolated_cell(                                 # calibration
                up_ofs(), GREP, 1 * GB,
                DEFAULT_CALIBRATION.with_options(shuffle_residual=0.9),
            ),
            isolated_cell(                                 # registration
                up_ofs(), GREP, 1 * GB, register_dataset=False
            ),
        ]
        keys = {c.content_key() for c in variants}
        assert base.content_key() not in keys
        assert len(keys) == len(variants)

    def test_key_embeds_the_code_salt(self):
        cell = isolated_cell(up_ofs(), GREP, 1 * GB)
        assert CODE_SALT in canonical_json(cell.canonical_payload())

    def test_size_strings_parse_to_the_same_key(self):
        assert (
            isolated_cell(up_ofs(), GREP, "2GB").content_key()
            == isolated_cell(up_ofs(), GREP, 2 * GB).content_key()
        )

    def test_replay_keys_distinguish_trace_parameters(self):
        base = replay_cell(hybrid(), num_jobs=50)
        assert base.content_key() != replay_cell(
            hybrid(), num_jobs=60
        ).content_key()
        assert base.content_key() != replay_cell(
            hybrid(), num_jobs=50, seed=1
        ).content_key()
        assert base.content_key() != replay_cell(
            hybrid(), num_jobs=50, shrink_factor=2.0
        ).content_key()


class TestMemoizedKey:
    """The key is computed once per cell, and every part is flattened
    once — and every key stays byte-identical to the unmemoized one."""

    def test_literal_pins(self):
        assert isolated_cell(up_ofs(), GREP, 1 * GB).content_key() == (
            PIN_ISOLATED
        )
        assert replay_cell(hybrid(), num_jobs=20).content_key() == PIN_REPLAY

    def test_figure_grid_keys_equal_fresh_keys(self):
        cells = figure_cells()
        assert len(cells) > 200
        expected = [fresh_key(cell) for cell in cells]
        assert [cell.content_key() for cell in cells] == expected  # first
        assert [cell.content_key() for cell in cells] == expected  # memo
        rebuilt = figure_cells()
        assert [cell.content_key() for cell in rebuilt] == expected
        # Figs. 5-7 share cells; equal cells share a key, others do not.
        assert len(set(expected)) == len(set(cells)) < len(cells)

    def test_memo_is_invisible(self):
        keyed = replay_cell(hybrid(), num_jobs=20)
        keyed.content_key()
        bare = replay_cell(hybrid(), num_jobs=20)
        assert keyed == bare
        assert hash(keyed) == hash(bare)
        assert repr(keyed) == repr(bare)
        assert keyed.canonical_payload() == bare.canonical_payload()
        assert dataclasses.replace(keyed).content_key() == PIN_REPLAY

    def test_replace_yields_a_new_key(self):
        cell = isolated_cell(up_ofs(), GREP, 1 * GB)
        assert cell.content_key() == PIN_ISOLATED
        reseeded = dataclasses.replace(cell, seed=1)
        assert reseeded.content_key() != PIN_ISOLATED
        assert reseeded.content_key() == fresh_key(reseeded)
        assert cell.content_key() == PIN_ISOLATED


class TestIdentityNotValue:
    """Part memos are keyed by identity: equal parts that serialise
    differently keep their own keys."""

    @staticmethod
    def pair():
        """A default and a ``replication=2.0`` cell on fresh calibrations
        (so neither memo is set yet) and one shared architecture."""
        architecture = up_ofs()
        default = isolated_cell(architecture, GREP, 1 * GB, Calibration())
        floated = isolated_cell(
            architecture, GREP, 1 * GB,
            dataclasses.replace(Calibration(), replication=2.0),
        )
        assert floated.calibration == default.calibration
        assert floated == default
        return default, floated

    def test_default_first_then_float(self):
        default, floated = self.pair()
        assert default.content_key() == PIN_ISOLATED
        assert floated.content_key() == PIN_REPLICATION_FLOAT
        assert default.content_key() == PIN_ISOLATED

    def test_float_first_then_default(self):
        default, floated = self.pair()
        assert floated.content_key() == PIN_REPLICATION_FLOAT
        assert default.content_key() == PIN_ISOLATED
        assert floated.content_key() == PIN_REPLICATION_FLOAT

    def test_shared_default_calibration(self):
        floated = isolated_cell(
            up_ofs(), GREP, 1 * GB,
            dataclasses.replace(DEFAULT_CALIBRATION, replication=2.0),
        )
        assert floated.content_key() == PIN_REPLICATION_FLOAT
        assert isolated_cell(up_ofs(), GREP, 1 * GB).content_key() == (
            PIN_ISOLATED
        )

    @given(
        app=st.sampled_from(sorted(APP_REGISTRY.values(), key=lambda a: a.name)),
        arch=st.sampled_from(sorted(named_architectures())),
        size=st.one_of(
            st.integers(min_value=1, max_value=2 ** 50),
            st.floats(min_value=1.0, max_value=1e15),
        ),
        seed=st.integers(min_value=0, max_value=2 ** 31),
        overrides=st.dictionaries(
            st.sampled_from([
                "heap_up", "heap_out", "block_size", "ofs_stream_cap",
                "task_overhead_up", "task_overhead_out", "shuffle_residual",
                "task_jitter", "spill_io_factor", "replication",
            ]),
            st.one_of(
                st.integers(min_value=1, max_value=2 ** 40),
                st.floats(min_value=1e-3, max_value=1e12),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoized_key_equals_fresh_key(
        self, app, arch, size, seed, overrides
    ):
        calibration = dataclasses.replace(DEFAULT_CALIBRATION, **overrides)
        cell = isolated_cell(
            named_architectures()[arch], app, size, calibration, seed
        )
        expected = fresh_key(cell)
        assert cell.content_key() == expected
        assert cell.content_key() == expected
        twin = isolated_cell(
            named_architectures()[arch], app, size,
            dataclasses.replace(DEFAULT_CALIBRATION, **overrides), seed,
        )
        assert twin.content_key() == expected


class TestPicklability:
    """Cells must cross process boundaries intact (pool workers)."""

    @pytest.mark.parametrize("build", [
        pytest.param(
            lambda: isolated_cell(up_ofs(), GREP, 1 * GB, seed=3), id="cell0"
        ),
        pytest.param(lambda: replay_cell(hybrid(), num_jobs=20), id="cell1"),
        pytest.param(lambda: CellSpec(kind="probe", probe="ok"), id="cell2"),
        pytest.param(
            lambda: replay_cell(
                hybrid(), num_jobs=20,
                fault_plan=default_resilience_plan(100.0, seed=1),
            ),
            id="cell3",
        ),
    ])
    def test_pickle_roundtrip_preserves_identity(self, build):
        cell = build()
        cell.content_key()  # the memos travel with the pickle
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        # Compared against a freshly built cell, so a pickled memo
        # cannot make this pass on its own.
        fresh = build()
        assert clone.content_key() == fresh.content_key() == fresh_key(fresh)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            CellSpec(kind="nope")

    def test_isolated_needs_architecture_and_app(self):
        with pytest.raises(ConfigurationError, match="architecture"):
            CellSpec(kind="isolated", app=GREP, input_bytes=1.0)

    def test_isolated_needs_positive_input(self):
        with pytest.raises(ConfigurationError, match="input_bytes"):
            CellSpec(kind="isolated", architecture=up_ofs(), app=GREP)

    def test_replay_needs_jobs(self):
        with pytest.raises(ConfigurationError, match="num_jobs"):
            CellSpec(kind="replay", architecture=hybrid())

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestSweepExperiment:
    def test_row_major_layout(self):
        archs = [up_ofs(), out_ofs()]
        sizes = [1 * GB, 2 * GB, 4 * GB]
        experiment = sweep_experiment(archs, GREP, sizes)
        assert len(experiment) == 6
        # All sizes of the first architecture come first.
        for i, cell in enumerate(experiment.cells):
            assert cell.architecture is archs[i // 3]
            assert cell.input_bytes == sizes[i % 3]

    def test_experiment_key_tracks_cells(self):
        a = sweep_experiment([up_ofs()], GREP, [1 * GB])
        b = sweep_experiment([up_ofs()], GREP, [2 * GB])
        assert a.content_key() != b.content_key()
