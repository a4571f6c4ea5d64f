"""Command-line front end.

Subcommands: derive (pointwise geometry reports), simulate (grid runs
with trace export: CSV, JSON manifest, npz arrays), verify (numerical
verification suites), inverse (build a Lagrangian from a PDE spec).
Exit codes: 0 success / all-pass, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .contact import (energy, hessian, legendre, reeb,
                      reeb_derivative_of_energy, verify_reeb)
from .dynamics import assemble_sopde, verify_sopde
from .errors import ConfigError, KContactError, NotRegularError
from .hamiltonian import (_hdw_slab, hamiltonian_value, legendre_inverse,
                          momentum_path_from_arrays)
from .inverse import (PdeSpec, build_lagrangian, membrane_spec,
                      render_lagrangian, roundtrip_check)
from .jet import PhasePoint, _from_rows, evaluate_jet, random_phase_point
from .models import MODEL_NAMES, MODEL_PARAMS, MODELS, build_model
from .sim import (SCHEMA_VERSION, Grid, SimState, _TraceExport, _walk_maxima,
                  load_trace, run, trace_el_residual)
from .symmetry import (_dissipation_residual, builtin_symmetry_field,
                       check_contact_symmetry, dissipated_quantity)


def _number(tok: str) -> float:
    tok = tok.strip()
    if tok == "pi":
        return math.pi
    if tok.endswith("*pi"):
        return float(tok[:-3]) * math.pi
    return float(tok)


def parse_points(texts, n: int, k: int) -> PhasePoint:
    """Parse 'q=...;v=...;s=...' texts, with comma-separated entries,
    into one stack of points; the v entries are row-major over the
    (field, direction) pairs, and a coordinate left out is zero."""
    cols = {"q": slice(0, n), "v": slice(n, n + n * k),
            "s": slice(n + n * k, None)}
    rows = np.zeros((len(texts), n + n * k + k))
    for row, text in zip(rows, texts):
        try:
            for chunk in text.split(";"):
                key, eq, val = chunk.partition("=")
                at = cols.get(key.strip()) if eq else None
                if at is None:
                    raise ValueError(f"'{chunk}' is not q=..., v=... or s=...")
                vals = [_number(x) for x in val.split(",")]
                if (len(vals) != len(row[at])
                        or not all(map(math.isfinite, vals))):
                    raise ValueError(f"'{chunk}' must hold {len(row[at])} "
                                     f"finite numbers")
                row[at] = vals
        except ValueError as exc:
            raise ConfigError(f"bad point '{text}': {exc}")
    return _from_rows(rows, n, k)


def parse_grid(text: str, bc: str) -> Grid:
    """Parse 'lo,hi,count;lo,hi,count;...' (the token pi is accepted)."""
    bounds, counts = [], []
    try:
        for chunk in text.split(";") if text.strip() else ():
            fields = chunk.split(",")
            if len(fields) != 3:
                raise ConfigError(f"bad grid chunk '{chunk}'")
            bounds.append((_number(fields[0]), _number(fields[1])))
            counts.append(int(fields[2]))
        return Grid(bounds=tuple(bounds), counts=tuple(counts), bc=bc)
    except ValueError as exc:
        raise ConfigError(f"bad grid '{text}': {exc}")


@functools.lru_cache(maxsize=256)
def _template(shape, depth, ends="[]") -> str:
    """The %-template of json's indent=2 layout of an array of `shape`,
    or with ends "{}" of an object of shape[0] members, `depth` deep."""
    if not shape or not shape[0]:
        return ends if shape else "%s"
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join([_template(shape[1:], depth + 1)] * shape[0])
    return ends[0] + pad + body + pad[:-2] + ends[1]


def _to_json(x, depth=0) -> str:
    """`x` as json.dumps(x, indent=2, sort_keys=True) writes it, with
    ndarrays and numpy scalars written as their tolist(), a `_Columns` as
    its entries; a float64 array fills the cached template of its shape."""
    if isinstance(x, _Columns):
        return _columns_json(x, depth)
    if isinstance(x, np.ndarray) and x.dtype == float:
        vals = x.ravel().tolist()
        fmt = float.__repr__ if all(map(math.isfinite, vals)) else json.dumps
        return _template(x.shape, depth) % tuple(map(fmt, vals))
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, dict):
        return _template((len(x),), depth, "{}") % tuple(
            encode_basestring_ascii(key) + ": " + _to_json(x[key], depth + 1)
            for key in sorted(x))
    if isinstance(x, (list, tuple)):
        return _template((len(x),), depth) % tuple(
            _to_json(val, depth + 1) for val in x)
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    # NaN, Infinity, str, int, None: json's text, or its TypeError
    return "true" if x is True else "false" if x is False else json.dumps(x)


class _Columns(tuple):
    """A list of report entries held by column: (indices, tree) parts,
    each tree a dict of arrays whose last axis runs over the entries at
    those indices.  Together the parts hold every entry once."""


def _gather(tree, blocks, depth) -> str:
    """The %-template of one entry of a tree of columns.  The leaves are
    appended to `blocks` in json's key order as (entries, size) blocks."""
    if isinstance(tree, dict):
        return _template((len(tree),), depth, "{}") % tuple(
            encode_basestring_ascii(key) + ": "
            + _gather(tree[key], blocks, depth + 1) for key in sorted(tree))
    tree = np.asarray(tree)
    blocks.append(np.moveaxis(tree, -1, 0).reshape(
        tree.shape[-1], math.prod(tree.shape[:-1])))
    return _template(tree.shape[:-1], depth)


def _columns_json(parts, depth) -> str:
    """The text of a `_Columns` list.  Each part fills its entry template
    from all its leaves at once, with one float repr pass per leaf."""
    texts = [None] * sum(len(at) for at, _ in parts)
    for at, tree in parts:
        blocks = []
        entry = _gather(tree, blocks, depth + 1)
        rows = np.concatenate([np.frompyfunc(
            float.__repr__ if b.dtype == float and np.isfinite(b).all()
            else _to_json, 1, 1)(b) for b in blocks], axis=1)
        for i, row in zip(at.tolist(), rows.tolist()):
            texts[i] = entry % tuple(row)
    return _template((len(texts),), depth) % tuple(texts)


def _check_output(output):
    """Refuse, as `_emit` would, a report path that is a directory or in
    no directory, before the work; a full device fails in `_emit`."""
    if output and (Path(output).is_dir() or not Path(output).parent.is_dir()):
        raise ConfigError(f"cannot write report to {output}: not a file "
                          f"in an existing directory")


def _emit(report: dict, output):
    text = _to_json(report) + "\n"
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {output}: {exc}")
    else:
        sys.stdout.write(text)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


# applied after the config merge, so flags and config both override these
HARD_DEFAULTS = {"seed": 0, "num_points": 100, "bc": "dirichlet",
                 "dt": 0.0, "t_end": 1.0, "output_every": 1,
                 "init": "mode", "amplitude": 1.0}


# JSON value types each argparse option type accepts (bool is an int in
# Python, so it is excluded separately)
JSON_TYPES = {None: (str,), int: (int,), float: (int, float)}


def _check_config_value(key, val, action):
    """Raise ConfigError unless `val` fits the type and choices of the
    option `action`; repeatable options take a JSON list."""
    items = val if isinstance(action, argparse._AppendAction) else [val]
    if not isinstance(items, list):
        raise ConfigError(f"config key '{key}' must be a list")
    for item in items:
        if (isinstance(item, bool)
                or not isinstance(item, JSON_TYPES[action.type])
                or action.choices is not None
                and item not in action.choices):
            raise ConfigError(f"config key '{key}': bad value {item!r}")


def _merge_config(args, parser):
    """Flags override config-file values override hard defaults.  Each
    config value is checked against the option of `args.cmd` that it
    sets; a tolerance or amplitude must be finite."""
    cfg = {}
    if getattr(args, "config", None):
        cfg = _load_config(args.config)
        commands = next(action for action in parser._actions
                        if action.dest == "cmd")
        options = {action.dest: action
                   for action in commands.choices[args.cmd]._actions
                   if not isinstance(action, argparse._HelpAction)}
        unknown = set(cfg) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in cfg.items():
            _check_config_value(key, val, options[key])
    for key in vars(args):
        if getattr(args, key) is None:
            if key in cfg:
                setattr(args, key, cfg[key])
            elif key in HARD_DEFAULTS:
                setattr(args, key, HARD_DEFAULTS[key])
    if args.num_points < 1:
        raise ConfigError("--num-points must be at least 1")
    for key in ("tol", "amplitude"):
        val = getattr(args, key, None)
        if val is not None and not math.isfinite(val):
            raise ConfigError(f"--{key} {val!r} is not finite")
    return args


def _model_and_spec(args):
    """The model the flags name, and the --spec dict of an inverse model."""
    if not args.model:
        raise ConfigError("a model name is required")
    params = {key: getattr(args, key) for key in MODEL_PARAMS
              if getattr(args, key, None) is not None}
    if args.model == "inverse":
        if not getattr(args, "spec", None):
            raise ConfigError("inverse model requires --spec FILE")
        params["spec"] = _load_config(args.spec)
    return build_model(args.model, params), params.get("spec")


def _report_header(command: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S",
                                       time.gmtime())}


# -- derive --------------------------------------------------------------

def _take(tree, at):
    """The tree with the last axis of each leaf indexed by `at`."""
    if isinstance(tree, dict):
        return {key: _take(val, at) for key, val in tree.items()}
    return np.asarray(tree)[..., at]


def cmd_derive(args) -> int:
    model, spec = _model_and_spec(args)
    z = (parse_points(args.point, model.n, model.k) if args.point
         else _sample_points(model, args))
    jet = evaluate_jet(model, z)
    hw = hessian(jet)
    entries = {
        "point": {"q": z.q, "v": z.v, "s": z.s}, "L": jet.L,
        "energy": energy(jet, z), "p": jet.dLdv, "W": hw.W,
        "regular": hw.regular,
        "hessian_cond": np.where(np.isfinite(hw.cond), hw.cond, None)}
    points = [(np.flatnonzero(~hw.regular), _take(entries, ~hw.regular))]
    if np.any(hw.regular):
        # Reeb and SOPDE data exist at the regular points only
        if not np.all(hw.regular):
            z = PhasePoint(q=z.q[:, hw.regular], v=z.v[:, :, hw.regular],
                           s=z.s[:, hw.regular])
            jet = jet.take(hw.regular)
        vcomp = reeb(jet)
        sopde = assemble_sopde(jet, z)
        points.append((np.flatnonzero(hw.regular), {
            **_take(entries, hw.regular), "reeb": vcomp,
            "reeb_energy_derivative": reeb_derivative_of_energy(
                jet, z.v, vcomp),
            "sopde": {"Gamma": sopde.Gamma, "g": sopde.g,
                      "residual": verify_sopde(jet, z, sopde)},
            "verify_reeb": verify_reeb(jet, vcomp)}))
    report = _report_header("derive")
    report.update({"model": model.name, "params": model.params,
                   "n": model.n, "k": model.k, "points": _Columns(points)})
    if spec is not None:
        report["lagrangian"] = render_lagrangian(PdeSpec.from_dict(spec))
    _emit(report, args.output)
    return 0


# -- simulate ------------------------------------------------------------

def _initial_state(model, grid: Grid, kind: str, amplitude: float
                   ) -> SimState:
    S = grid.shape
    phi = np.zeros((model.n,) + S)
    if kind == "mode":  # else "zero", the only other --init choice
        bump = amplitude
        for (lo, hi), x in zip(grid.bounds, grid.mesh()):
            bump = bump * np.sin(math.pi * (x - lo) / (hi - lo))
        phi[0] = bump
    return SimState(phi=phi, phidot=np.zeros((model.n,) + S),
                    s1=np.zeros(S), t=0.0)


def _trace_residuals(model, trace) -> dict:
    """The manifest entries of a simulated trace's residuals."""
    rEL, rS = trace_el_residual(model, trace)
    F = dissipated_quantity(builtin_symmetry_field(model, "du"))
    try:
        du, = _walk_maxima(lambda *slab: [_dissipation_residual(F, *slab)],
                           model, trace)
    except NotRegularError:  # no Reeb fields, so no dissipation law
        du = None
    return {"max_el_residual": rEL, "max_s_residual": rS,
            "dissipated_quantity_residuals": {"du": du}}


def cmd_simulate(args) -> int:
    model = _model_and_spec(args)[0]
    grid = parse_grid(args.grid or "", args.bc)
    if not args.output:
        raise ConfigError("simulate requires --output DIR")
    initial = _initial_state(model, grid, args.init, args.amplitude)
    # trace.csv is formatted by the export's writer processes while the
    # steps run, and the residuals while they format the last frames; a
    # bad --output fails before the first step, and a residual error (an
    # interrupt too) after the export is finished, its trace kept
    error = None
    with _TraceExport(args.output, grid, model.n) as export:
        trace = run(model, grid, args.dt, args.t_end, initial,
                    output_every=args.output_every, on_frame=export.frame)
        try:
            residuals = _trace_residuals(model, trace)
        except BaseException as exc:
            residuals, error = {}, exc
        export.finish(trace, **residuals)
    if error is not None:
        raise error
    sys.stdout.write(f"trace written to {args.output} "
                     f"({trace.t.size} frames)\n")
    return 0


# -- verify --------------------------------------------------------------

def _sample_points(model, args) -> PhasePoint:
    """`--num-points` seeded random points, stacked."""
    return random_phase_point(model, np.random.default_rng(args.seed),
                              size=args.num_points)


def _suite_reeb(args, tol, sample) -> dict:
    model, _, jet = sample()
    res = verify_reeb(jet, reeb(jet))
    worst = float(max(np.max(res["eta"]), np.max(res["deta"])))
    return {"suite": "reeb", "model": model.name, "residual": worst,
            "tolerance": tol, "pass": worst <= tol}


def _suite_legendre(args, tol, sample) -> dict:
    model, z, jet = sample()
    mp = legendre(jet, z)
    back = legendre_inverse(model, mp, v0=z.v + 0.1)
    worst = float(max(np.max(np.abs(back.v - z.v)),
                      np.max(np.abs(hamiltonian_value(model, mp)
                                    - energy(jet, z)))))
    return {"suite": "legendre", "model": model.name, "residual": worst,
            "tolerance": tol, "pass": worst <= tol}


def _suite_sopde(args, tol, sample) -> dict:
    model, z, jet = sample()
    worst = float(np.max(verify_sopde(jet, z, assemble_sopde(jet, z))))
    return {"suite": "sopde", "model": model.name, "residual": worst,
            "tolerance": tol, "pass": worst <= tol}


def _symmetry_field(model, args):
    """The built-in field named by --field or its alias --symmetry
    (default du)."""
    if args.field and args.symmetry and args.field != args.symmetry:
        raise ConfigError(f"--field {args.field} and --symmetry "
                          f"{args.symmetry} name different fields")
    try:
        return builtin_symmetry_field(
            model, args.field or args.symmetry or "du")
    except ValueError as exc:
        raise ConfigError(str(exc))


def _suite_symmetry(args, tol, sample) -> dict:
    model, z, jet = sample()
    Y = _symmetry_field(model, args)
    res = check_contact_symmetry(jet, Y, z, tol=tol)
    # paperY is reported, not asserted: the closed-form symmetry status of
    # this field is an open question, so its residual is informational
    asserted = Y.name != "paperY"
    return {"suite": "symmetry", "model": model.name, "field": Y.name,
            **res, "asserted": asserted,
            "pass": bool(res["is_symmetry"]) or not asserted}


# a trace suite over two or more traces, coarsest first, passes when
# the observed order of accuracy of each trace to the next, log(r) /
# log(rho) for a residual ratio r under spacings finer by rho (Roy, J.
# Comput. Phys. 205 (2005) 131), lies within the orders this band of
# ratios gives under one halving; a second-order discretisation gives a
# ratio of ~4 there.  The acceptance criteria judge their refinement
# ratios by the same band.
REFINEMENT_BAND = (3.5, 4.5)


def _check_refinement(paths, traces) -> list:
    """Refuse (ConfigError) consecutive traces that are not one refinement:
    same model, parameters, bounds and bc, and every grid spacing and the
    output step finer by one ratio (to 1e-9 relative).  Returns that
    ratio per pair."""
    pairs, refinements = list(zip(paths, traces)), []
    for (p0, a), (p1, b) in zip(pairs, pairs[1:]):
        dt0, dt1 = (x.t[1] - x.t[0] if x.t.size > 1 else math.nan
                    for x in (a, b))
        rho = [dt0 / dt1, *map(operator.truediv, a.grid.spacing,
                               b.grid.spacing)]
        if ((a.model_name, a.params, a.grid.bounds, a.grid.bc)
                != (b.model_name, b.params, b.grid.bounds, b.grid.bc)):
            why = "model, parameters, grid bounds or boundary condition differ"
        elif not all(r > 1 for r in rho):
            why = "the grid spacing and the output step must both shrink"
        elif max(rho) - min(rho) > 1e-9 * min(rho):
            why = ("the grid spacing and the output step must shrink by "
                   "one ratio")
        else:
            refinements.append(rho[-1])  # exact for a halved spacing
            continue
        raise ConfigError(f"--trace {p1} does not refine --trace {p0}: {why}")
    return refinements


def _trace_verdict(residuals, tol, refinements) -> dict:
    """One trace is judged against `tol`, several by the observed order
    of each consecutive pair, whose spacings are finer by `refinements`:
    "refinement_ratio" and "observed_order" for a pair,
    "refinement_ratios" and "observed_orders" for more."""
    if len(residuals) == 1:
        return {"residuals": residuals, "tolerance": tol,
                "pass": bool(residuals[0] <= tol)}
    ratios = [coarse / max(fine, 1e-300)
              for coarse, fine in zip(residuals, residuals[1:])]
    orders = [math.log(r) / math.log(rho) if r > 0 else -math.inf
              for r, rho in zip(ratios, refinements)]
    lo, hi = (math.log(r) / math.log(2) for r in REFINEMENT_BAND)
    if len(ratios) == 1:
        entries = {"refinement_ratio": ratios[0], "observed_order": orders[0]}
    else:
        entries = {"refinement_ratios": ratios, "observed_orders": orders}
    return {"residuals": residuals, **entries,
            "pass": all(lo <= p <= hi for p in orders)}


def _dissipation_suite(args, model):
    """The dissipation suite's residual over one slab of a trace of
    `model`, and its report entries."""
    F = dissipated_quantity(_symmetry_field(model, args))
    return functools.partial(_dissipation_residual, F), {"field": F.Y.name}


def _hdw_suite(args, model):
    """The hdw suite's residual over one slab of a trace of `model`, the
    largest |r_q|, |r_p| or |r_s| at each point.  The slab's v is the
    preimage of the momenta its jet gives, so no Newton solve runs."""
    def residual(q, v, s, spacings, jet):
        r = _hdw_slab(momentum_path_from_arrays(jet, q, s, spacings), v,
                      jet)
        return np.maximum(np.maximum(np.abs(r.r_q).max(axis=(0, 1)),
                                     np.abs(r.r_p).max(axis=0)),
                          np.abs(r.r_s))
    return residual, {}


def _walk_traces(args, tols, traces, refinements) -> dict:
    """The report of each trace suite in `tols` (name: tolerance) over
    the loaded `traces`, refined by `refinements` pair by pair, from one
    slab walk per trace (`_walk_maxima`, in memory independent of the
    frame count): every suite reads each slab and its one jet in turn."""
    residuals = {name: [] for name in tols}
    for trace, model in traces:
        suites = {name: TRACE_SUITES[name](args, model) for name in tols}
        maxima = _walk_maxima(
            lambda *slab: [residual(*slab) for residual, _ in suites.values()],
            model, trace)
        for name, worst in zip(suites, maxima):
            residuals[name].append(worst)
    return {name: {"suite": name, **entries,
                   **_trace_verdict(residuals[name], tols[name],
                                    refinements)}
            for name, (_, entries) in suites.items()}


def _suite_inverse_roundtrip(args, tol, _sample) -> dict:
    if args.spec:
        spec = PdeSpec.from_dict(_load_config(args.spec))
    else:
        # the membrane with the flags of its parameters that are set
        spec = membrane_spec(**build_model("membrane", {
            key: getattr(args, key) for key in MODELS["membrane"][1]
            if getattr(args, key) is not None}).params)
    worst = roundtrip_check(spec, n_samples=args.num_points,
                            rng=np.random.default_rng(args.seed))
    return {"suite": "inverse-roundtrip", "residual": worst,
            "tolerance": tol, "pass": worst <= tol}


POINT_SUITES = {
    "reeb": _suite_reeb,
    "legendre": _suite_legendre,
    "sopde": _suite_sopde,
    "symmetry": _suite_symmetry,
    "inverse-roundtrip": _suite_inverse_roundtrip,
}

# per trace suite: (args, model) -> (the suite's residual over one slab
# of a trace of `model`, the suite's own report entries)
TRACE_SUITES = {
    "dissipation": _dissipation_suite,
    "hdw": _hdw_suite,
}

SUITE_DEFAULT_TOL = {
    "reeb": 1e-9, "legendre": 1e-10, "sopde": 1e-9,
    "inverse-roundtrip": 1e-9, "dissipation": 0.05, "hdw": 0.5,
    "symmetry": 1e-9,
}


def cmd_verify(args) -> int:
    if not args.suite:
        raise ConfigError("verify requires at least one --suite")

    # the model, its sample points and their jet are built on first use
    # and shared by every point suite
    @functools.cache
    def sample():
        model = _model_and_spec(args)[0]
        z = _sample_points(model, args)
        return model, z, evaluate_jet(model, z)

    def tol(name):
        return SUITE_DEFAULT_TOL[name] if args.tol is None else args.tol

    # the traces are read on first use and walked once, for every trace
    # suite requested
    @functools.cache
    def trace_reports():
        traces = [(trace, build_model(trace.model_name, trace.params))
                  for trace in map(load_trace, args.trace)]
        refinements = _check_refinement(args.trace,
                                        [trace for trace, _ in traces])
        return _walk_traces(args, {name: tol(name) for name in args.suite
                                   if name in TRACE_SUITES}, traces,
                            refinements)

    results = []
    for name in args.suite:  # --suite choices: the keys of both tables
        if name in POINT_SUITES:
            results.append(POINT_SUITES[name](args, tol(name), sample))
        elif not args.trace:
            raise ConfigError(f"{name} suite requires --trace DIR")
        else:
            results.append(trace_reports()[name])
    report = _report_header("verify")
    report["suites"] = results
    report["pass"] = all(r["pass"] for r in results)
    _emit(report, args.output)
    return 0 if report["pass"] else 3


# -- inverse -------------------------------------------------------------

def cmd_inverse(args) -> int:
    if not args.spec:
        raise ConfigError("inverse requires --spec FILE")
    spec = PdeSpec.from_dict(_load_config(args.spec))
    model = build_lagrangian(spec)
    worst = roundtrip_check(spec, n_samples=args.num_points,
                            rng=np.random.default_rng(args.seed))
    tol = (SUITE_DEFAULT_TOL["inverse-roundtrip"] if args.tol is None
           else args.tol)
    report = _report_header("inverse")
    report.update({"lagrangian": render_lagrangian(spec),
                   "n": model.n, "k": model.k,
                   "roundtrip_residual": worst,
                   "tolerance": tol, "pass": worst <= tol})
    _emit(report, args.output)
    return 0 if report["pass"] else 3


# -- argument plumbing ---------------------------------------------------

def _add_options(p, cmd):
    """The options of subcommand `cmd`, added to its parser `p`."""
    if cmd != "inverse":
        p.add_argument("--model", choices=MODEL_NAMES)
        p.add_argument("--spec", help="PDE spec JSON (inverse model)")
        for flag, kind in MODEL_PARAMS.items():
            p.add_argument(f"--{flag}", type=kind)
    p.add_argument("--config", help="JSON config; flags override it")
    p.add_argument("--output", help="report destination (default stdout)")
    p.add_argument("--seed", type=int)
    p.add_argument("--num-points", type=int)
    if cmd == "derive":
        p.add_argument("--point", action="append",
                       help='e.g. "q=0.5;v=1,2,-1;s=0.1,0,0" (repeatable)')
    elif cmd == "simulate":
        p.add_argument("--grid",
                       help='"lo,hi,count;..." per spatial direction')
        p.add_argument("--bc", choices=("dirichlet", "periodic"))
        p.add_argument("--dt", type=float)
        p.add_argument("--t-end", type=float)
        p.add_argument("--output-every", type=int)
        p.add_argument("--init", choices=("zero", "mode"))
        p.add_argument("--amplitude", type=float)
    elif cmd == "verify":
        p.add_argument("--suite", action="append", choices=sorted(
            POINT_SUITES.keys() | TRACE_SUITES.keys()))
        p.add_argument("--trace", action="append",
                       help="trace directory; repeat, coarsest first, for "
                       "one refinement ratio per consecutive pair")
        p.add_argument("--symmetry", help="symmetry field name")
        p.add_argument("--field", help="alias for --symmetry")
        p.add_argument("--tol", type=float)
    else:
        p.add_argument("--spec")
        p.add_argument("--tol", type=float)


def build_parser(cmd=None) -> argparse.ArgumentParser:
    """The CLI's parser.  It lists every subcommand, but with `cmd` set
    only that subcommand gets its options."""
    parser = argparse.ArgumentParser(
        prog="kcontact",
        description="k-contact Lagrangian field theory toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, text, func in (
            ("derive", "pointwise geometry report", cmd_derive),
            ("simulate", "method-of-lines run", cmd_simulate),
            ("verify", "verification suites", cmd_verify),
            ("inverse", "build L from a PDE spec", cmd_inverse)):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if cmd in (None, name):
            _add_options(p, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option value, so this names the subcommand
    parser = build_parser(next((a for a in argv if a[:1] != "-"), ""))
    args = parser.parse_args(argv)
    try:
        _merge_config(args, parser)
        if args.cmd != "simulate":  # whose --output is a trace directory
            _check_output(args.output)
        return args.func(args)
    except KContactError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
