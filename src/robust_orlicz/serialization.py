"""JSON schemas for models, Orlicz functions, families, and agents.

Schemas:
  model:   {"atoms": [...], "priors": [{"label": str, "masses": [...]}]}
  orlicz:  discriminated by "kind": power {p}, exponential {beta},
           ess_sup {}, piecewise_linear {breakpoints, slopes, bound?},
           scaled {inner, theta, one_plus_gamma}
  family:  {"uniform": orlicz} or {"per_prior": {label: orlicz}} or
           {"joint": orlicz, "theta": {label: t}?, "gamma": {label: g}?}
  agents:  {"agents": [{"utility": {...}, "priors": [...],
                        "penalty": {label: c}, "name"?: str}]}

Infinity is serialised as the string "inf"; emitted reports carry floats
rounded to SIG_DIGITS significant digits so equal runs produce identical
bytes. A report is the result dataclass itself: `jsonify` writes any
dataclass as {field name: value}, a `MeasureVector` as its masses and an
array as a list, so the fields of a result are its JSON schema.

Decoders raise ValidationError for a value of the wrong JSON type.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Dict

import numpy as np

from .errors import ValidationError
from .model import MeasureVector, ScenarioModel
from .norms import OrliczFamily
from .orlicz import (EssSupIndicator, Exponential, OrliczFunction,
                     PiecewiseLinear, Power, Scaled)
from .preferences import (Agent, CARAUtility, LinearUtility,
                          PiecewiseLinearUtility, Utility)

SIG_DIGITS = 12


def encode_float(v: float):
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def decode_float(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"expected a number, got {v!r}") from None


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{what} must be a list")
    return v


def _object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise ValidationError(f"{what} must be an object")
    return v


def _floats(v, what: str) -> list:
    return [decode_float(x) for x in _list(v, what)]


def _float_map(v, what: str) -> dict:
    return {k: decode_float(x) for k, x in _object(v, what).items()}


def jsonify(obj):
    """Recursively round floats to SIG_DIGITS significant digits and map
    infinities to strings, measures to their masses, arrays to lists and
    dataclasses to {field name: value}, producing a deterministic
    JSON-ready structure."""
    if isinstance(obj, MeasureVector):
        obj = obj.masses
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return encode_float(obj)
        if obj == 0.0 or math.isnan(obj):
            return 0.0 if obj == 0.0 else "nan"
        return float(f"{obj:.{SIG_DIGITS - 1}e}")
    return obj


# -- Orlicz functions -----------------------------------------------------


def orlicz_to_json(phi: OrliczFunction) -> Dict[str, Any]:
    if isinstance(phi, Power):
        return {"kind": "power", "p": phi.p}
    if isinstance(phi, Exponential):
        return {"kind": "exponential", "beta": phi.beta}
    if isinstance(phi, EssSupIndicator):
        return {"kind": "ess_sup"}
    if isinstance(phi, PiecewiseLinear):
        out = {"kind": "piecewise_linear",
               "breakpoints": list(phi.breakpoints),
               "slopes": list(phi.slopes)}
        if phi.bound is not None:
            out["bound"] = phi.bound
        return out
    if isinstance(phi, Scaled):
        return {"kind": "scaled", "inner": orlicz_to_json(phi.inner),
                "theta": phi.theta, "one_plus_gamma": phi.one_plus_gamma}
    raise ValidationError(f"cannot serialise Orlicz function {phi!r}")


def orlicz_from_json(data: Dict[str, Any]) -> OrliczFunction:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("orlicz spec must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "power":
            return Power(decode_float(data["p"]))
        if kind == "exponential":
            return Exponential(decode_float(data["beta"]))
        if kind == "ess_sup":
            return EssSupIndicator()
        if kind == "piecewise_linear":
            bound = data.get("bound")
            return PiecewiseLinear(
                _floats(data["breakpoints"], "breakpoints"),
                _floats(data["slopes"], "slopes"),
                None if bound is None else decode_float(bound))
        if kind == "scaled":
            one_plus_gamma = decode_float(data.get("one_plus_gamma", 1.0))
            # the schema's divisor is an additive penalty's 1 + gamma
            if not 1.0 <= one_plus_gamma < math.inf:
                raise ValidationError("additive divisor must be finite with 1 + gamma >= 1")
            return Scaled(orlicz_from_json(data["inner"]),
                          decode_float(data["theta"]), one_plus_gamma)
    except KeyError as e:
        raise ValidationError(f"orlicz spec of kind {kind!r} misses field {e}") from None
    raise ValidationError(f"unknown orlicz kind {kind!r}")


# -- models ---------------------------------------------------------------


def model_to_json(model: ScenarioModel) -> Dict[str, Any]:
    return {"atoms": list(model.atoms),
            "priors": [{"label": l, "masses": list(p)}
                       for l, p in zip(model.prior_labels, model.priors)]}


def model_from_json(data: Dict[str, Any]) -> ScenarioModel:
    if not isinstance(data, dict) or "atoms" not in data or "priors" not in data:
        raise ValidationError("model spec needs 'atoms' and 'priors'")
    priors, labels = [], []
    for i, p in enumerate(_list(data["priors"], "priors")):
        if "masses" not in _object(p, f"prior #{i}"):
            raise ValidationError(f"prior #{i} misses 'masses'")
        priors.append(_floats(p["masses"], f"masses of prior #{i}"))
        labels.append(p.get("label", f"P{i + 1}"))
    return ScenarioModel(_list(data["atoms"], "atoms"), priors, labels)


# -- families -------------------------------------------------------------


def family_to_json(model: ScenarioModel, family: OrliczFamily) -> Dict[str, Any]:
    return {"per_prior": {l: orlicz_to_json(family.phi(l))
                          for l in model.prior_labels}}


def family_from_json(data: Dict[str, Any], model: ScenarioModel) -> OrliczFamily:
    if not isinstance(data, dict):
        raise ValidationError("family spec must be an object")
    if "uniform" in data:
        return OrliczFamily.uniform(model, orlicz_from_json(data["uniform"]))
    if "per_prior" in data:
        return OrliczFamily({l: orlicz_from_json(spec) for l, spec
                             in _object(data["per_prior"], "per_prior").items()})
    if "joint" in data:
        phi = orlicz_from_json(data["joint"])
        theta = _float_map(data.get("theta", {}), "theta")
        gamma = _float_map(data.get("gamma", {}), "gamma")
        if theta and gamma:
            return OrliczFamily.doubly_penalised(model, phi, theta, gamma)
        if theta:
            return OrliczFamily.multiplicatively_weighted(model, phi, theta)
        if gamma:
            return OrliczFamily.additively_penalised(model, phi, gamma)
        return OrliczFamily.uniform(model, phi)
    raise ValidationError("family spec needs 'uniform', 'per_prior', or 'joint'")


# -- agents ---------------------------------------------------------------


def utility_from_json(data: Dict[str, Any]) -> Utility:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("utility spec must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "linear":
        return LinearUtility(decode_float(data.get("slope", 1.0)))
    if kind == "cara":
        beta = decode_float(data["beta"])
        if "scale" in data:
            return CARAUtility(beta=beta, scale=decode_float(data["scale"]))
        return CARAUtility.normalised(beta)
    if kind == "piecewise_linear":
        return PiecewiseLinearUtility(_floats(data["knots"], "knots"),
                                      _floats(data["slopes"], "slopes"))
    raise ValidationError(f"unknown utility kind {kind!r}")


def agents_from_json(data: Dict[str, Any]) -> list:
    if not isinstance(data, dict) or "agents" not in data:
        raise ValidationError("agents spec needs an 'agents' list")
    out = []
    for i, a in enumerate(_list(data["agents"], "agents")):
        _object(a, f"agent #{i}")
        try:
            out.append(Agent(
                utility=utility_from_json(a["utility"]),
                prior_labels=_list(a["priors"], f"priors of agent #{i}"),
                penalty=_float_map(a["penalty"], f"penalty of agent #{i}"),
                name=a.get("name", f"agent{i + 1}")))
        except KeyError as e:
            raise ValidationError(f"agent #{i} misses field {e}") from None
    return out


def dumps_report(obj) -> str:
    """Deterministic JSON text for a report: a result dataclass or any
    structure `jsonify` accepts."""
    return json.dumps(jsonify(obj), sort_keys=True, indent=2)
