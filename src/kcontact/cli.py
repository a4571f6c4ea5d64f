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
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .contact import (energy, hessian, legendre, reeb,
                      reeb_derivative_of_energy, verify_reeb)
from .dynamics import assemble_sopde, verify_sopde
from .errors import ConfigError, KContactError, NotRegularError
from .hamiltonian import (hamiltonian_value, hdw_residual, legendre_inverse,
                          momentum_path_from_arrays)
from .inverse import (PdeSpec, build_lagrangian, membrane_spec,
                      render_lagrangian, roundtrip_check)
from .jet import PhasePoint, _from_rows, evaluate_jet, random_phase_point
from .models import MODEL_NAMES, MODEL_PARAMS, MODELS, build_model
from .sim import (SCHEMA_VERSION, Grid, SimState, _trace_slabs,
                  _TraceExport, load_trace, run, trace_el_residual)
from .symmetry import (builtin_symmetry_field, check_contact_symmetry,
                       dissipated_quantity, dissipation_law_check)


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


def _emit(report: dict, output):
    text = _to_json(report) + "\n"
    if output:
        Path(output).write_text(text)
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
    sets."""
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


def _model_from_args(args) -> "LagrangianModel":
    return _model_and_spec(args)[0]


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
            jet = evaluate_jet(model, z)
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


def cmd_simulate(args) -> int:
    model = _model_from_args(args)
    grid = parse_grid(args.grid or "", args.bc)
    if not args.output:
        raise ConfigError("simulate requires --output DIR")
    initial = _initial_state(model, grid, args.init, args.amplitude)
    # trace.csv is formatted by the export's writer process while the
    # steps run; a bad --output fails before the first step
    with _TraceExport(args.output, grid, model.n) as export:
        trace = run(model, grid, args.dt, args.t_end, initial,
                    output_every=args.output_every, on_frame=export.frame)
        manifest = export.finish(trace)
    rEL, rS = trace_el_residual(model, trace)
    manifest["max_el_residual"] = rEL
    manifest["max_s_residual"] = rS
    try:
        du = float(np.max(np.abs(dissipation_law_check(
            model, dissipated_quantity(builtin_symmetry_field(model, "du")),
            trace))))
    except NotRegularError:  # no Reeb fields, so no dissipation law
        du = None
    manifest["dissipated_quantity_residuals"] = {"du": du}
    _emit(manifest, Path(args.output) / "manifest.json")
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


def _load_trace_and_model(path):
    trace = load_trace(path)
    return trace, build_model(trace.model_name, trace.params)


# a trace suite over two or more traces, coarsest first, passes when the
# residual ratio of each trace to the next lies in this band; a
# second-order discretisation under one grid halving gives ~4.  The
# acceptance criteria judge their refinement ratios by the same band.
REFINEMENT_BAND = (3.5, 4.5)


def _trace_verdict(residuals, tol) -> dict:
    """One trace is judged against `tol`, several by the refinement
    ratio of each consecutive pair: "refinement_ratio" for a pair,
    "refinement_ratios" for more."""
    if len(residuals) == 1:
        return {"residuals": residuals, "tolerance": tol,
                "pass": bool(residuals[0] <= tol)}
    ratios = [coarse / max(fine, 1e-300)
              for coarse, fine in zip(residuals, residuals[1:])]
    key, val = (("refinement_ratio", ratios[0]) if len(ratios) == 1
                else ("refinement_ratios", ratios))
    lo, hi = REFINEMENT_BAND
    return {"residuals": residuals, key: val,
            "pass": all(lo <= r <= hi for r in ratios)}


def _suite_dissipation(args, tol, traces) -> dict:
    residuals = []
    for trace, model in traces():
        Y = _symmetry_field(model, args)
        res = dissipation_law_check(model, dissipated_quantity(Y), trace)
        residuals.append(float(np.max(np.abs(res))))
    return {"suite": "dissipation", "field": Y.name,
            **_trace_verdict(residuals, tol)}


def _suite_hdw(args, tol, traces) -> dict:
    """Maxima of `hdw_residual` along each trace, taken slab by slab, in
    memory independent of the frame count."""
    residuals = []
    for trace, model in traces():
        maxima = []
        # hdw_residual strips two frames at both ends, so each slab
        # carries two more; v is the Legendre preimage of the path's
        # momenta, so the jet that gives them also starts the Newton solve
        for q, v, s, spacings, jet in _trace_slabs(model, trace, halo=2):
            path = momentum_path_from_arrays(jet, q, s, spacings)
            maxima.append(hdw_residual(model, path, v0=v, jet=jet).max())
        residuals.append(float(np.max(maxima)))
    return {"suite": "hdw", **_trace_verdict(residuals, tol)}


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

TRACE_SUITES = {
    "dissipation": _suite_dissipation,
    "hdw": _suite_hdw,
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
        model = _model_from_args(args)
        z = _sample_points(model, args)
        return model, z, evaluate_jet(model, z)

    # each trace is read on first use and shared by every trace suite
    load = functools.cache(_load_trace_and_model)

    def traces():
        return (load(path) for path in args.trace)

    results = []
    for name in args.suite:  # --suite choices: the keys of both tables
        tol = SUITE_DEFAULT_TOL[name] if args.tol is None else args.tol
        if name in POINT_SUITES:
            results.append(POINT_SUITES[name](args, tol, sample))
        elif not args.trace:
            raise ConfigError(f"{name} suite requires --trace DIR")
        else:
            results.append(TRACE_SUITES[name](args, tol, traces))
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
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KContactError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
