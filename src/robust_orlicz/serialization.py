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
rounded to 12 significant digits so equal runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

from .errors import ValidationError
from .model import ScenarioModel
from .norms import OrliczFamily
from .orlicz import (EssSupIndicator, Exponential, OrliczFunction,
                     PiecewiseLinear, Power, Scaled)
from .preferences import (Agent, CARAUtility, LinearUtility,
                          PiecewiseLinearUtility, Utility)


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
    return float(v)


def jsonify(obj, sig_digits: int = 12):
    """Recursively round floats to significant digits and map infinities
    to strings, producing a deterministic JSON-ready structure."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v, sig_digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v, sig_digits) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return encode_float(obj)
        if obj == 0.0 or math.isnan(obj):
            return 0.0 if obj == 0.0 else "nan"
        return float(f"{obj:.{sig_digits - 1}e}")
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
                [decode_float(b) for b in data["breakpoints"]],
                [decode_float(s) for s in data["slopes"]],
                None if bound is None else decode_float(bound))
        if kind == "scaled":
            return Scaled(orlicz_from_json(data["inner"]),
                          decode_float(data["theta"]),
                          decode_float(data.get("one_plus_gamma", 1.0)))
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
    for i, p in enumerate(data["priors"]):
        if "masses" not in p:
            raise ValidationError(f"prior #{i} misses 'masses'")
        priors.append([decode_float(m) for m in p["masses"]])
        labels.append(p.get("label", f"P{i + 1}"))
    return ScenarioModel(data["atoms"], priors, labels)


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
        return OrliczFamily({l: orlicz_from_json(spec)
                             for l, spec in data["per_prior"].items()})
    if "joint" in data:
        phi = orlicz_from_json(data["joint"])
        theta = {l: decode_float(v) for l, v in data.get("theta", {}).items()}
        gamma = {l: decode_float(v) for l, v in data.get("gamma", {}).items()}
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
        return PiecewiseLinearUtility(
            [decode_float(k) for k in data["knots"]],
            [decode_float(s) for s in data["slopes"]])
    raise ValidationError(f"unknown utility kind {kind!r}")


def agents_from_json(data: Dict[str, Any]) -> list:
    if not isinstance(data, dict) or "agents" not in data:
        raise ValidationError("agents spec needs an 'agents' list")
    out = []
    for i, a in enumerate(data["agents"]):
        try:
            out.append(Agent(
                utility=utility_from_json(a["utility"]),
                prior_labels=a["priors"],
                penalty={k: decode_float(v) for k, v in a["penalty"].items()},
                name=a.get("name", f"agent{i + 1}")))
        except KeyError as e:
            raise ValidationError(f"agent #{i} misses field {e}") from None
    return out


def dumps_report(obj, sig_digits: int = 12) -> str:
    """Deterministic JSON text for a report structure."""
    return json.dumps(jsonify(obj, sig_digits), sort_keys=True, indent=2)
