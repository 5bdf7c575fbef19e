"""Command-line interface: JSON in, deterministic reports out.

Exit codes: 0 success, 2 validation failure (bad inputs), 3 numerical
inconsistency (independent computation routes disagree).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import diagnostics, domination, duality, norms, preferences, spanning
from .errors import ConsistencyError, ValidationError
from .model import ScenarioModel
from .norms import OrliczFamily
from .orlicz import validate_orlicz
from .serialization import (agents_from_json, decode_float, dumps_report,
                            family_from_json, jsonify, model_from_json)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from None


def _parse_vector(text: str) -> np.ndarray:
    items = _load_json(text[1:]) if text.startswith("@") else [
        t for t in text.split(",") if t.strip()]
    try:
        return np.asarray([decode_float(v) for v in items], dtype=float)
    except (TypeError, ValidationError):
        raise ValidationError(f"cannot parse vector {text!r}") from None


def _parse_number(text: str) -> float:
    v = _parse_vector(text)
    if v.size != 1:
        raise ValidationError(f"expected one number, got {text!r}")
    return float(v[0])


def _parse_mapping(text: str, model: ScenarioModel) -> dict:
    """Either a single number applied to every prior or label=value pairs."""
    text = text.strip()
    if "=" not in text:
        return dict.fromkeys(model.prior_labels, _parse_number(text))
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        label, _, val = part.partition("=")
        out[label.strip()] = _parse_number(val)
    return out


def _emit(args, payload, csv_rows: Optional[List[List]] = None,
          text: Optional[str] = None) -> None:
    if args.format == "csv":
        if csv_rows is None:
            raise ValidationError("csv output is only available for profile-shaped reports")
        body = "\n".join(",".join(str(jsonify(c)) for c in row) for row in csv_rows) + "\n"
    elif args.format == "text" and text is not None:
        body = text + "\n"
    else:
        body = dumps_report(payload) + "\n"
    if args.out:
        Path(args.out).write_text(body)
    else:
        sys.stdout.write(body)


def _model(args) -> ScenarioModel:
    if not args.model:
        raise ValidationError("--model is required for this command")
    return model_from_json(_load_json(args.model))


def _family(args, model) -> OrliczFamily:
    if not args.family:
        raise ValidationError("--family is required for this command")
    fam = family_from_json(_load_json(args.family), model)
    fam.check_model(model)
    return fam


def _fmt(v: float) -> str:
    if v == math.inf:
        return "inf"
    return f"{v:.12g}"


# -- command implementations ---------------------------------------------


def cmd_validate(args) -> int:
    checks = []
    ok = True

    def record(name, fn):
        nonlocal ok
        try:
            fn()
            checks.append((name, "pass", ""))
        except ValidationError as e:
            checks.append((name, "fail", str(e)))
            ok = False

    model_holder = {}
    record("model-schema", lambda: model_holder.update(m=_model(args)))
    if "m" in model_holder and args.family:
        model = model_holder["m"]
        fam_holder = {}
        record("family-schema", lambda: fam_holder.update(f=family_from_json(
            _load_json(args.family), model)))
        if "f" in fam_holder:
            record("family-labels", lambda: fam_holder["f"].check_model(model))
            for label in sorted(fam_holder["f"].functions):
                record(f"orlicz-axioms[{label}]",
                       lambda l=label: validate_orlicz(fam_holder["f"].phi(l)))
    for name, status, msg in checks:
        line = f"{name}: {status}"
        if msg:
            line += f" ({msg})"
        print(line)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_norm(args) -> int:
    model = _model(args)
    family = _family(args, model)
    x = _parse_vector(args.x)
    res = norms.luxemburg_norm(model, x, family, tol=args.tol,
                               max_iter=args.max_iter)
    _emit(args, res, text=_fmt(res.value))
    return EXIT_OK


def cmd_modular(args) -> int:
    model = _model(args)
    family = _family(args, model)
    x = _parse_vector(args.x)
    if args.lam is None or not args.lam > 0:
        raise ValidationError("--lam must be a positive scale")
    val = norms.modular(model, x, args.lam, family)
    _emit(args, {"modular": val, "lam": args.lam}, text=_fmt(val))
    return EXIT_OK


def cmd_risk(args) -> int:
    model = _model(args)
    x = _parse_vector(args.x)
    gamma = _parse_mapping(args.gamma or "0", model)
    val = norms.risk_measure(model, x, gamma)
    _emit(args, {"risk": val}, text=_fmt(val))
    return EXIT_OK


def cmd_dual_norm(args) -> int:
    model = _model(args)
    family = _family(args, model)
    mu = _parse_vector(args.mu)
    label = args.prior or model.prior_labels[0]
    val = duality.kothe_dual_norm(mu, model.prior(label), family.phi(label),
                                  tol=args.tol, method=args.method)
    _emit(args, {"dual_norm": val, "prior": label, "method": args.method},
          text=_fmt(val))
    return EXIT_OK


def cmd_dual_witness(args) -> int:
    model = _model(args)
    family = _family(args, model)
    x = _parse_vector(args.x)
    w = duality.dual_witness(model, x, family, tol=args.tol)
    _emit(args, w, text=_fmt(w.pairing))
    return EXIT_OK


def cmd_verify_l1(args) -> int:
    model = _model(args)
    family = _family(args, model)
    rep = duality.verify_l1_reduction(model, family, sample_size=args.samples,
                                      tol=args.tol, seed=args.seed)
    _emit(args, rep, text=_fmt(rep.max_rel_gap))
    return EXIT_OK


def cmd_dominate(args) -> int:
    model = _model(args)
    family = _family(args, model)
    rep = domination.dominating_measure(model, family, seed=args.seed)
    _emit(args, rep, text=",".join(_fmt(v) for v in rep.pstar.masses))
    return EXIT_OK


def cmd_ui_profile(args) -> int:
    model = _model(args)
    family = _family(args, model)
    rep = domination.dominating_measure(model, family, n_order_pairs=0)
    grid = _parse_vector(args.c_grid or "0,1,2,4,8")
    prof = domination.uniform_integrability_report(model, rep.pstar, grid)
    rows = [["c", "value"]] + [[c, v] for c, v in prof.profile]
    _emit(args, prof, csv_rows=rows)
    return EXIT_OK


def _ladder(args, finest: bool = False) -> list:
    """The Gaussian power ladder of --gaussian-ladder N, its rungs N/2,
    3N/4 and N coarsest first (only N with `finest`), or else the one
    finite truncation given by --model, --family and --x."""
    if args.gaussian_ladder is not None:
        n = args.gaussian_ladder
        rungs = [n] if finest else sorted({max(1, n // 2), max(1, 3 * n // 4), n})
        return [diagnostics.gaussian_power_ladder(k, T=args.T, h=args.h)
                for k in rungs]
    model = _model(args)
    family = _family(args, model)
    return [diagnostics.Truncation(model=model, x=_parse_vector(args.x),
                                   family=family, label="finite")]


def cmd_membership(args) -> int:
    ladder = _ladder(args)
    verdict = diagnostics.membership_classify(ladder, tol=args.tol)
    _emit(args, {"verdict": verdict}, text=verdict)
    return EXIT_OK


def cmd_tails(args) -> int:
    ladder = _ladder(args)
    levels = _parse_vector(args.levels or "1,2,3,4,5,6,7,8")
    prof = diagnostics.tail_membership(ladder, levels, tol=args.tol)
    rows = [["level", "tail_norm", "stable"]] + [
        [l, v, s] for l, v, s in zip(prof.levels, prof.tail_norms, prof.stable)]
    _emit(args, prof, csv_rows=rows, text=prof.verdict)
    return EXIT_OK


def cmd_moments(args) -> int:
    values, probs = diagnostics.discretise_standard_normal(T=args.T, h=args.h)
    rep = diagnostics.moment_growth(values, probs, n_max=args.n_max)
    rows = [["n", "root_moment", "oracle", "soft_flag", "hard_flag"]] + [
        [n + 1, r, o, s, hd] for n, (r, o, s, hd) in enumerate(
            zip(rep.roots, rep.oracle_roots, rep.deviation_flags, rep.hard_flags))]
    _emit(args, rep, csv_rows=rows)
    return EXIT_OK


def cmd_mixture_witness(args) -> int:
    [t] = _ladder(args, finest=True)
    rep = diagnostics.mixture_witness(t.model, t.x, t.family, tol=args.tol)
    _emit(args, rep, text=_fmt(rep.modular_lower_bound))
    return EXIT_OK


def cmd_span(args) -> int:
    model = _model(args)
    family = _family(args, model)
    x = _parse_vector(args.x)
    rep = spanning.spanning_report(model, x, family, tol=args.tol,
                                   seed=args.seed)
    _emit(args, rep, text=str(rep.dimension))
    return EXIT_OK


def cmd_project(args) -> int:
    model = _model(args)
    family = _family(args, model)
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    basis = spanning.option_basis(model, x)
    res = spanning.project_onto_span(model, y, basis, family, tol=args.tol,
                                     seed=args.seed)
    _emit(args, res, text=_fmt(res.residual_norm))
    return EXIT_OK


def cmd_aggregate(args) -> int:
    model = _model(args)
    if not args.agents:
        raise ValidationError("--agents is required for aggregate")
    agents = agents_from_json(_load_json(args.agents))
    family = preferences.aggregate_family(model, agents)
    rep = preferences.verify_extension_bound(model, agents, family,
                                             sample_size=args.samples,
                                             tol=args.tol, seed=args.seed)
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    payload = {"family": {l: {"kind": "aggregate",
                              "values_on_grid": dict(zip(
                                  map(str, grid), family.phi(l)(np.array(grid)).tolist()))}
                          for l in model.prior_labels},
               "extension_bound": rep}
    _emit(args, payload, text=_fmt(rep.max_slack))
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "norm": cmd_norm,
    "modular": cmd_modular,
    "risk": cmd_risk,
    "dual-norm": cmd_dual_norm,
    "dual-witness": cmd_dual_witness,
    "verify-l1": cmd_verify_l1,
    "dominate": cmd_dominate,
    "ui-profile": cmd_ui_profile,
    "membership": cmd_membership,
    "tails": cmd_tails,
    "moments": cmd_moments,
    "mixture-witness": cmd_mixture_witness,
    "span": cmd_span,
    "project": cmd_project,
    "aggregate": cmd_aggregate,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="robust-orlicz",
        description="Worst-case Orlicz norms, duals, dominating measures, "
                    "and diagnostics on discrete multi-prior models.")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--family", help="Orlicz family JSON path")
    p.add_argument("--agents", help="agents JSON path")
    p.add_argument("--x", help="random variable: comma-separated or @file")
    p.add_argument("--y", help="second random variable")
    p.add_argument("--mu", help="measure vector for dual-norm")
    p.add_argument("--prior", help="prior label for single-prior operations")
    p.add_argument("--gamma", help="penalties: number or label=value pairs")
    p.add_argument("--lam", type=float, help="modular scale")
    p.add_argument("--levels", help="comma-separated tail levels")
    p.add_argument("--c-grid", dest="c_grid", help="comma-separated UI grid")
    p.add_argument("--method", default="conjugate",
                   choices=["conjugate", "brute", "both"])
    p.add_argument("--gaussian-ladder", dest="gaussian_ladder", type=int,
                   help="use the built-in Gaussian power ladder with N priors")
    p.add_argument("--T", type=float, default=10.0, help="Gaussian truncation")
    p.add_argument("--h", type=float, default=1e-3, help="Gaussian grid step")
    p.add_argument("--n-max", dest="n_max", type=int, default=20)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="json", choices=["json", "csv", "text"])
    p.add_argument("--out", help="output path (default: stdout)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (args.tol > 0 and math.isfinite(args.tol)):
        print("error: --tol must be finite and positive", file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed < 0:
        print("error: --seed must be a nonnegative integer", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as e:
        print(f"inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
