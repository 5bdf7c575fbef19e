"""Result dataclasses are the report schema: `jsonify` writes each one as
{field name: value}, with measures and arrays as lists."""

import dataclasses
import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import robust_orlicz
from robust_orlicz import (Agent, CARAUtility, LinearUtility, MeasureVector,
                           OrliczFamily, Power, ScenarioModel, aggregate_family,
                           dominating_measure, dual_witness, dumps_report, jsonify,
                           luxemburg_norm, mixture_witness, moment_growth, option_basis,
                           project_onto_span, spanning_report, tail_membership,
                           uniform_integrability_report, verify_extension_bound,
                           verify_l1_reduction)
from robust_orlicz.diagnostics import Truncation, discretise_standard_normal

MODEL = ScenarioModel(["a", "b", "c", "d"],
                      [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4],
                       [0.25, 0.25, 0.5, 0.0]])
FAMILY = OrliczFamily.uniform(MODEL, Power(2.0))
X = np.array([1.5, -2.0, 0.5, 3.0])


def _results():
    """One instance of every result dataclass the library reports."""
    dom = dominating_measure(MODEL, FAMILY)
    basis = option_basis(MODEL, [1.0, 2.0, 3.0, 4.0])
    values, probs = discretise_standard_normal(T=4.0, h=0.05)
    ladder = [Truncation(model=MODEL, x=X, family=FAMILY, label="finite")]
    agents = [Agent(CARAUtility.normalised(1.5), ["P1", "P2", "P3"],
                    {"P1": 0.0, "P2": 0.5, "P3": 1.0}),
              Agent(LinearUtility(), ["P2", "P3"], {"P2": 0.0, "P3": 0.2})]
    return {
        "NormResult": luxemburg_norm(MODEL, X, FAMILY),
        "DualWitness": dual_witness(MODEL, X, FAMILY),
        "L1ReductionReport": verify_l1_reduction(MODEL, FAMILY, sample_size=5),
        "DominationReport": dom,
        "UIProfile": uniform_integrability_report(MODEL, dom.pstar, [0.0, 1.0, 2.0]),
        "MomentGrowthReport": moment_growth(values, probs, n_max=4),
        "TailProfile": tail_membership(ladder, [1.0, 2.0]),
        "MixtureWitnessReport": mixture_witness(MODEL, X, FAMILY),
        "OptionBasis": basis,
        "ProjectionResult": project_onto_span(MODEL, [0.5, -1.0, 2.0, 0.0], basis, FAMILY),
        "SpanningReport": spanning_report(MODEL, [1.0, 2.0, 2.0, 3.0], FAMILY, n_samples=2),
        "ExtensionBoundReport": verify_extension_bound(
            MODEL, agents, aggregate_family(MODEL, agents), sample_size=5),
    }


RESULTS = _results()


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_fields_are_the_keys(name):
    res = RESULTS[name]
    assert type(res).__name__ == name
    out = jsonify(res)
    assert list(out) == [f.name for f in dataclasses.fields(res)]
    # plain JSON values only, and the text report is that structure
    assert json.loads(json.dumps(out)) == out
    assert json.loads(dumps_report(res)) == out


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_measures_and_arrays_become_lists(name):
    res = RESULTS[name]
    out = jsonify(res)
    for f in dataclasses.fields(res):
        value = getattr(res, f.name)
        if isinstance(value, MeasureVector):
            value = value.masses
        if isinstance(value, np.ndarray):
            assert out[f.name] == jsonify(value.tolist())
            assert np.shape(out[f.name]) == value.shape


def test_measure_is_its_masses():
    dom = RESULTS["DominationReport"]
    assert jsonify(dom)["pstar"] == pytest.approx(dom.pstar.masses.tolist(), rel=1e-11)
    assert jsonify(MeasureVector([0.25, 0.75])) == [0.25, 0.75]


def test_absent_measure_is_null():
    rep = dataclasses.replace(RESULTS["MixtureWitnessReport"], mixture=None)
    assert jsonify(rep)["mixture"] is None


def test_two_dimensional_array():
    out = jsonify(RESULTS["OptionBasis"])
    assert out["vectors"] == RESULTS["OptionBasis"].vectors.tolist()


def test_dataclass_nested_in_a_dict():
    rep = RESULTS["ExtensionBoundReport"]
    out = jsonify({"family": {"P1": 1.0}, "extension_bound": rep})
    assert out["extension_bound"] == jsonify(rep)
    assert set(out["extension_bound"]) == {"n_checks", "max_slack", "violations"}


def test_floats_inside_results_are_rounded():
    res = dataclasses.replace(RESULTS["NormResult"], value=1.0 / 3.0,
                              bracket=(0.25, float("inf")))
    out = jsonify(res)
    assert out["value"] == 0.333333333333
    assert out["bracket"] == [0.25, "inf"]


def test_no_class_defines_to_dict():
    """The report format lives in `serialization` alone."""
    offenders = []
    for info in pkgutil.iter_modules(robust_orlicz.__path__):
        module = importlib.import_module(f"robust_orlicz.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "to_dict" in vars(cls):
                offenders.append(f"{module.__name__}.{name}")
    assert offenders == []


def test_report_writers_take_no_precision_knob():
    assert list(inspect.signature(jsonify).parameters) == ["obj"]
    assert list(inspect.signature(dumps_report).parameters) == ["obj"]
