"""A lockstep batch is its runs, one by one -- in results and in kernel path.

``VecContext`` stacks independent runs into one combined CSR view.  These
tests pin the two halves of that contract for *mixed* batches (different
threshold tables, different ``max_level``, dynamic members):

* payloads: ``execute_specs_batched`` == ``execute_spec`` == ``reference``;
* path: the batch's view takes the per-node-extremum trigger path exactly
  when every member's own view does -- the condition is row-local, so no
  run is pushed onto the general path by what is stacked next to it.
"""

import itertools

import pytest

from repro.core.aopt_step import MODE_FREE, evaluate_mode_flat
from repro.experiments import execute_spec, execute_specs_batched, registry, scenario
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.experiments.spec import ComponentSpec, ScenarioSpec
from repro.fastsim import get_backend

np = pytest.importorskip("numpy")

from repro.jitsim import provider_available  # noqa: E402
from repro.vecsim import build_batch, kernels  # noqa: E402
from repro.vecsim.engine import VecEngine  # noqa: E402

needs_jit = pytest.mark.skipif(
    not provider_available(),
    reason="no jit kernel (needs a C compiler)",
)
BACKENDS = ["vec", pytest.param("jit", marks=needs_jit)]
PAYLOAD_KEYS = ("summary", "observers", "trace", "meta")


def materialise(spec):
    sc = registry.build_scenario(spec)
    return sc.graph, sc.algorithm_factory, sc.config


def static_trio(duration=12.0, dt=0.05):
    """Grid 8x8 + line 80 + random 8: three tables, ``max_level`` 6 / 7 / 5."""
    return [
        bench_spec(kind, n, duration=duration, dt=dt)
        for kind, n in (("grid", 64), ("line", 80), ("random", 8))
    ]


def insertion_spec(duration=45.0):
    """A staged insertion short enough to finish: levels climb 0 -> top."""
    return ScenarioSpec(
        label="vecsim_batching/insertion",
        topology=ComponentSpec("line", {"n": 5}),
        dynamics=ComponentSpec("end_to_end_insertion", {"insertion_time": 5.0}),
        drift=ComponentSpec("two_group", {"swap_period": 20.0}),
        algorithm=ComponentSpec(
            "aopt", {"global_skew_bound": 10.0, "insertion_scale": 0.001}
        ),
        params={"rho": 0.015, "mu": 0.1},
        edge={"epsilon": 1.0, "tau": 0.5, "delay": 2.0},
        sim={
            "dt": 0.1,
            "duration": duration,
            "sample_interval": 1.0,
            "estimate_strategy": "toward_observer",
        },
    )


def churn_spec(duration=45.0):
    return scenario(
        "grid_periodic_churn", rows=3, cols=3, churn_period=6.0, duration=duration
    )


def static_grid(duration=45.0):
    return bench_spec("grid", 16, duration=duration, dt=0.1)


def eligible(context) -> bool:
    """Whether the context's current view takes the extremum trigger path."""
    return context._combined.row_thresholds is not None


def assert_batch_equals_runs(specs, backend):
    specs = [spec.with_backend(backend) for spec in specs]
    batched = execute_specs_batched(specs)
    for spec, batch in zip(specs, batched):
        single = execute_spec(spec)
        reference = execute_spec(spec.with_backend("reference"))
        for key in PAYLOAD_KEYS:
            assert batch[key] == single[key], (spec.label, key)
            assert batch[key] == reference[key], (spec.label, key)


class TestMixedBatchPayloads:
    def test_the_static_trio_really_is_mixed(self):
        context = build_batch([materialise(spec) for spec in static_trio()])
        context._refresh_structure()
        view = context._combined
        assert sorted(engine.max_level for engine in context.engines) == [5, 6, 7]
        assert len(view.thresholds) == 3
        assert view.row_thresholds.shape == (4, 7, context.node_count)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("trace", ["full", "none"])
    def test_static_trio(self, backend, trace):
        specs = static_trio()
        if trace == "none":
            specs = [
                spec.with_trace("none").with_observers(*BENCH_OBSERVERS)
                for spec in specs
            ]
        assert_batch_equals_runs(specs, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dynamic", [insertion_spec, churn_spec])
    def test_static_grid_with_a_dynamic_run(self, backend, dynamic):
        assert_batch_equals_runs([static_grid(), dynamic()], backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dynamic", [insertion_spec, churn_spec])
    def test_messages_are_counted_per_run(self, backend, dynamic):
        """Deliveries are credited to the run that sent them."""
        from repro.jitsim import build_batch as build_jit_batch

        specs = [static_grid(), dynamic()]
        build = build_jit_batch if backend == "jit" else build_batch
        context = build([materialise(spec) for spec in specs])
        context.run_until(45.0)
        for spec, engine in zip(specs, context.engines):
            scalar = get_backend("fast").build(*materialise(spec))
            scalar.run(45.0)
            assert scalar.delivered_count > 0
            assert (engine.sent_count, engine.delivered_count) == (
                scalar.sent_count,
                scalar.delivered_count,
            )


class TestExtremumEligibility:
    """The design invariant: a batch is eligible iff each member is."""

    @pytest.mark.parametrize(
        "make_specs",
        [
            static_trio,
            lambda: [static_grid(), insertion_spec()],
            lambda: [static_grid(), churn_spec()],
            lambda: [insertion_spec(), churn_spec(), static_grid()],
        ],
        ids=["static-trio", "grid+insertion", "grid+churn", "insertion+churn+grid"],
    )
    def test_batch_is_eligible_iff_every_member_is(self, make_specs):
        specs = make_specs()
        batch = build_batch([materialise(spec) for spec in specs])
        alone = [VecEngine(*materialise(spec))._ctx for spec in specs]
        duration = specs[0].sim["duration"]
        while batch.time < duration - 1e-9:
            batch._step()
            for context in alone:
                context._step()
            assert eligible(batch) == all(eligible(context) for context in alone)

    def test_insertion_leaves_the_extremum_path_and_returns(self):
        batch = build_batch([materialise(static_grid()), materialise(insertion_spec())])
        history = []
        while batch.time < 45.0 - 1e-9:
            batch._step()
            history.append(eligible(batch))
        # Static before the edge appears, general while it climbs the
        # levels, extremum again once it reached its table's top level.
        assert [key for key, _ in itertools.groupby(history)] == [True, False, True]
        # The insertion run has fewer levels than the grid next to it.
        assert [engine.max_level for engine in batch.engines] == [5, 4]

    def test_churn_rebuilds_the_view_mid_run(self):
        batch = build_batch([materialise(static_grid()), materialise(churn_spec())])
        view = None
        rebuilds = 0
        while batch.time < 45.0 - 1e-9:
            batch._step()
            if batch._combined is not view:
                view = batch._combined
                rebuilds += 1
        static, churning = batch.engines
        assert static._csr_generation == 1
        assert rebuilds == churning._csr_generation > 2


class TestExtremumBranchUnit:
    """``evaluate_modes_vec`` on a two-table view == the scalar kernel per node."""

    def build_view(self):
        grid = materialise(bench_spec("grid", 9))
        graph, factory, config = materialise(bench_spec("line", 80))
        graph.remove_edge(0, 1)  # node 0 becomes an empty row
        context = build_batch([grid, (graph, factory, config)])
        context._refresh_structure()
        return context, context._combined

    def scalar_modes(self, context, ahead, logical, max_estimate, mode):
        expected = []
        for engine in context.engines:
            csr = engine._csr
            for i in range(engine.n):
                lo, hi = csr.indptr[i], csr.indptr[i + 1]
                g = engine._offset + i
                code = evaluate_mode_flat(
                    logical[g],
                    max_estimate[g],
                    context.iota[g],
                    hi - lo,
                    ahead[engine._edge_offset + lo : engine._edge_offset + hi].tolist(),
                    csr.level[lo:hi],
                    csr.tables[lo:hi],
                )
                expected.append(mode[g] if code == MODE_FREE else code)
        return expected

    def test_two_tables_padding_and_an_empty_row(self):
        context, view = self.build_view()
        n = context.node_count
        assert len(view.thresholds) == 2
        assert sorted(engine.max_level for engine in context.engines) == [5, 7]
        assert view.row_thresholds.shape == (4, 7, n)
        assert view.empty.sum() == 1
        # The shorter table is +inf beyond its own top level.
        assert np.isinf(view.row_thresholds[:, 5:, :9]).all()
        assert np.isfinite(view.row_thresholds[:, :, 9:]).all()
        rng = np.random.RandomState(11)
        finite = view.thresholds[np.isfinite(view.thresholds)]
        seen = set()
        for _ in range(40):
            # Exact threshold values (the >= / > boundary), their negations
            # and values in between.
            ahead = rng.choice(finite, size=view.edge_count) * rng.choice(
                [-1.0, 1.0, 0.5, -0.5, 1.5], size=view.edge_count
            )
            logical = rng.rand(n) * 50.0
            max_estimate = logical + rng.choice([0.0, 1e-10, 0.3, 5.0], size=n)
            mode = rng.randint(0, 2, size=n)
            expected = self.scalar_modes(context, ahead, logical, max_estimate, mode)
            got = kernels.evaluate_modes_vec(
                view, ahead.copy(), logical, max_estimate, context.iota, mode
            )
            assert got.tolist() == expected
            seen.update(expected)
            # The general path agrees on the same inputs.
            thresholds, view.row_thresholds = view.row_thresholds, None
            try:
                general = kernels.evaluate_modes_vec(
                    view, ahead.copy(), logical, max_estimate, context.iota, mode
                )
            finally:
                view.row_thresholds = thresholds
            assert general.tolist() == expected
        assert seen == {0, 1}

    def test_row_max_segments_keep_dense_rows_dense(self):
        """A hub graph between a grid and a line takes reduceat alone."""
        specs = [
            bench_spec("grid", 16),
            scenario("star_hub_failover", n=12, failover_time=8.0, duration=20.0),
            bench_spec("line", 10),
        ]
        context = build_batch([materialise(spec) for spec in specs])
        context._refresh_structure()
        view = context._combined
        kinds = [
            None if pad is None else len(pad)
            for pad, _, _, _ in view._row_max_segments
        ]
        assert kinds == [4, None, 2]
        values = np.random.RandomState(5).rand(view.edge_count)
        got = view.row_max_values(values)
        for engine in context.engines:
            indptr = engine._csr.indptr
            for i in range(engine.n):
                row = values[
                    engine._edge_offset + indptr[i] : engine._edge_offset + indptr[i + 1]
                ]
                assert got[engine._offset + i] == (row.max() if len(row) else -np.inf)
