"""Declarative scenario framework: spec, registry, runner, zoo golden.

The zoo smoke pins every committed scenario's full metrics output at
jobs=1 *and* jobs=2 — the scenario grid rides the same ServeCell pool
as every experiment, so parallel output must stay byte-identical to
serial, and the golden capture proves framework changes stay
behaviour-preserving end to end.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import (
    REGISTRY,
    SCHEMA_VERSION,
    BASE_POINT_KEY,
    ComponentBuildError,
    ScenarioError,
    UnknownComponentError,
    build_bindings,
    dumps,
    expand_sweep,
    from_dict,
    list_zoo,
    load_zoo,
    register,
    resolve_scenario,
    run_scenario,
    scenario_cells,
)
from repro.scenarios.spec import loads

GOLDEN = Path(__file__).parent / "golden" / "scenario_smoke.json"

ZOO_NAMES = [
    "correlated_failures",
    "diurnal_traffic",
    "flash_crowd",
    "llm_inference_tails",
    "mixed_tenants",
]


def minimal_doc(**overrides):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": "unit",
        "apps": {"component": "models", "kwargs": {"models": ["R50", "BERT"]}},
        "arrivals": {"component": "closed_loop", "kwargs": {"factor": 1.0}},
        "systems": ["GSLICE", "BLESS"],
        "requests": 2,
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def registry_snapshot():
    """Restore the global registry after tests that register components."""
    saved = dict(REGISTRY._components)
    yield REGISTRY
    REGISTRY._components.clear()
    REGISTRY._components.update(saved)


class TestSpecValidation:
    def test_round_trip_is_stable(self):
        spec = from_dict(minimal_doc(sweep={"arrivals.factor": [0.5, 1.0]}))
        text = dumps(spec)
        assert dumps(from_dict(json.loads(text))) == text
        assert dumps(from_dict(spec.to_dict())) == text

    def test_json_loads_round_trip(self):
        spec = from_dict(minimal_doc())
        assert loads(dumps(spec), fmt="json") == spec

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown top-level keys.*'typo'"):
            from_dict(minimal_doc(typo=1))

    def test_schema_version_pinned(self):
        with pytest.raises(ScenarioError, match="schema_version must be"):
            from_dict(minimal_doc(schema_version=SCHEMA_VERSION + 1))
        with pytest.raises(ScenarioError, match="schema_version"):
            from_dict({k: v for k, v in minimal_doc().items()
                       if k != "schema_version"})

    def test_name_required(self):
        doc = minimal_doc()
        del doc["name"]
        with pytest.raises(ScenarioError, match="'name'"):
            from_dict(doc)

    def test_systems_must_be_nonempty(self):
        with pytest.raises(ScenarioError, match="'systems'"):
            from_dict(minimal_doc(systems=[]))

    def test_component_ref_rejects_extra_keys(self):
        doc = minimal_doc(arrivals={"component": "load", "args": [1]})
        with pytest.raises(ScenarioError, match="unknown component-ref keys"):
            from_dict(doc)

    def test_unknown_cluster_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown cluster keys"):
            from_dict(minimal_doc(cluster={"gpus": 2, "nodes": 4}))

    def test_unsweepable_axis_rejected(self):
        with pytest.raises(ScenarioError, match="not sweepable"):
            from_dict(minimal_doc(sweep={"nonsense": [1]}))

    def test_cluster_axis_needs_cluster_section(self):
        with pytest.raises(ScenarioError, match="needs a 'cluster' section"):
            from_dict(minimal_doc(sweep={"cluster.gpus": [2, 4]}))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"requests": 0}, "'requests'"),
            ({"requests": True}, "'requests'"),
            ({"seed": True}, "'seed'"),
            ({"schema_version": True}, "schema_version"),
            ({"cluster": {"gpus": True}}, "cluster.gpus"),
            ({"sweep": {"requests": [0]}}, "'requests'"),
            ({"sweep": {"requests": [True]}}, "'requests'"),
            ({"sweep": {"seed": [True]}}, "'seed'"),
            ({"cluster": {"gpus": 2}, "sweep": {"cluster.gpus": [True]}},
             "cluster.gpus"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else None,
    )
    def test_counts_reject_zero_and_bool(self, overrides, match):
        # Sweep points are built by dataclasses.replace, so the checks
        # live in the spec itself and reach them too.
        with pytest.raises(ScenarioError, match=match):
            expand_sweep(from_dict(minimal_doc(**overrides)))

    def test_bad_yaml_reports_source(self, tmp_path):
        yaml = pytest.importorskip("yaml")  # noqa: F841
        from repro.scenarios import load_scenario

        path = tmp_path / "broken.yaml"
        path.write_text("{ not: valid: yaml:")
        with pytest.raises(ScenarioError, match="broken.yaml"):
            load_scenario(path)


class TestRegistry:
    def test_unknown_component_lists_alternatives(self):
        spec = from_dict(minimal_doc(arrivals="no_such_binder"))
        with pytest.raises(UnknownComponentError, match="closed_loop"):
            build_bindings(spec)

    def test_bad_kwargs_name_component_and_signature(self):
        spec = from_dict(minimal_doc(
            arrivals={"component": "closed_loop", "kwargs": {"factor": 1.0,
                                                            "warp": 9}}))
        with pytest.raises(ComponentBuildError, match="closed_loop.*warp"):
            build_bindings(spec)

    def test_unknown_system_fails_in_parent(self):
        spec = from_dict(minimal_doc(systems=["NOPE"]))
        with pytest.raises(UnknownComponentError, match="BLESS"):
            scenario_cells(spec)

    def test_register_decorator_and_shadowing(self, registry_snapshot):
        @register("arrivals", "unit_test_binder")
        def binder(apps, requests=2):
            from repro.workloads.suite import bind_continuous

            return bind_continuous(apps, requests=requests)

        assert REGISTRY.resolve("arrivals", "unit_test_binder") is binder
        spec = from_dict(minimal_doc(arrivals="unit_test_binder"))
        assert len(build_bindings(spec)) == 2

    def test_empty_models_named(self):
        spec = from_dict(minimal_doc(
            apps={"component": "models", "kwargs": {"models": []}}))
        with pytest.raises(ScenarioError, match="'models' must list"):
            resolve_scenario(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown component kind"):
            register("flavors", "vanilla", lambda: None)


class TestSweepExpansion:
    def test_no_sweep_yields_base_point(self):
        points = expand_sweep(from_dict(minimal_doc()))
        assert [key for key, _ in points] == [BASE_POINT_KEY]

    def test_expansion_order_is_deterministic(self):
        spec = from_dict(minimal_doc(
            sweep={"arrivals.factor": [0.5, 1.0], "seed": [0, 1]}))
        keys = [key for key, _ in expand_sweep(spec)]
        assert keys == [
            "arrivals.factor=0.5,seed=0",
            "arrivals.factor=0.5,seed=1",
            "arrivals.factor=1,seed=0",
            "arrivals.factor=1,seed=1",
        ]

    def test_overrides_land_in_point_specs(self):
        spec = from_dict(minimal_doc(
            cluster={"gpus": 2},
            sweep={"cluster.gpus": [2, 4], "requests": [1, 3]}))
        points = dict(expand_sweep(spec))
        point = points["cluster.gpus=4,requests=3"]
        assert point.cluster.gpus == 4
        assert point.requests == 3
        assert point.sweep == ()

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(
        ["arrivals.factor", "seed", "requests", "arrivals.jitter"]))
    def test_axis_insertion_order_is_irrelevant(self, order):
        values = {
            "arrivals.factor": [0.5, 1.0],
            "seed": [0, 1],
            "requests": [1, 2],
            "arrivals.jitter": [0.0, 0.1],
        }
        doc = minimal_doc(sweep={axis: values[axis] for axis in order})
        keys = [key for key, _ in expand_sweep(from_dict(doc))]
        sorted_doc = minimal_doc(
            sweep={axis: values[axis] for axis in sorted(values)})
        assert keys == [key for key, _ in expand_sweep(from_dict(sorted_doc))]


class TestZoo:
    def test_zoo_contents(self):
        assert list_zoo() == ZOO_NAMES

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_every_zoo_scenario_resolves(self, name):
        summary = resolve_scenario(load_zoo(name))
        assert summary["points"] >= 2
        assert summary["cells"] >= 4

    def test_unknown_scenario_lists_zoo(self):
        with pytest.raises(ScenarioError, match="llm_inference_tails"):
            load_zoo("does_not_exist")

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_matches_golden(self, name):
        measured = json.loads(json.dumps(
            run_scenario(load_zoo(name), jobs=1), sort_keys=True))
        golden = json.loads(GOLDEN.read_text())
        assert measured == golden[name]

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_parallel_matches_golden(self, name):
        measured = json.loads(json.dumps(
            run_scenario(load_zoo(name), jobs=2), sort_keys=True))
        golden = json.loads(GOLDEN.read_text())
        assert measured == golden[name]


class TestCLI:
    def test_scenario_list_and_show(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ZOO_NAMES:
            assert name in out
        assert main(["scenario", "show", "llm_inference_tails"]) == 0
        out = capsys.readouterr().out
        assert '"schema_version": 1' in out
        assert "arrivals.factor=0.5" in out

    def test_scenario_run_writes_output(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "out.json"
        assert main(["scenario", "run", "llm_inference_tails",
                     "--jobs", "1", "--output", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        golden = json.loads(GOLDEN.read_text())
        assert data == golden["llm_inference_tails"]
