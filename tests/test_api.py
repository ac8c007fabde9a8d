"""The package's public surface: the names in ``__all__`` and nothing else."""

import dataclasses
import inspect
import types

import wavemodel

API = [
    "AxiomViolation",
    "FiniteMetricSpace",
    "GridError",
    "IntervalError",
    "MetricError",
    "NetError",
    "ParseError",
    "TimeGrid",
    "WaveModelResult",
    "build_discrete",
    "build_from_graph",
    "build_from_matrix",
    "build_from_points",
    "build_segment_sample",
    "condition2_report",
    "default_grid",
    "load_edges",
    "load_matrix_csv",
    "load_points_csv",
    "make_grid",
    "wave_distance_matrix",
    "wave_model",
]


def test_all_lists_the_documented_api():
    assert sorted(wavemodel.__all__) == API
    assert all(hasattr(wavemodel, name) for name in API)


def test_no_public_name_outside_all():
    # submodules become package attributes when imported; they are not exports
    extra = {name for name, value in vars(wavemodel).items()
             if not name.startswith("_") and name not in wavemodel.__all__
             and not (isinstance(value, types.ModuleType)
                      and value.__name__ == f"wavemodel.{name}")}
    assert extra == set()


def test_a_space_is_its_distance_matrix():
    assert [f.name for f in dataclasses.fields(wavemodel.FiniteMetricSpace)] == ["dist"]
    assert list(inspect.signature(wavemodel.build_from_points).parameters) == ["coords"]
    assert list(inspect.signature(wavemodel.build_from_matrix).parameters) == ["rows"]
