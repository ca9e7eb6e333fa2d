"""Batch front-end: ingest fields, run the pipeline, emit JSON reports.

Subcommands
-----------
decompose   full pipeline, report JSON
dual        involution solve only
primal      the optimal kernel from the assignment potentials, its value
verify      checks only, against a supplied involution and/or kernel
gallery     every builtin at sizes 16 / 32 / 64, one summary row each

Exit codes: 0 success, 1 solver non-convergence, 2 bad configuration,
3 a file that cannot be read or written. The pipeline takes no settings:
its step, tolerance, margin and seed are module constants, a run is
deterministic for a given problem, and reports embed every value used.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dual_solver, factorize, fields, primal_solver
from .conjugacy import regularize
from .domain import (
    AntiSymmetricKernel,
    Involution,
    SampledField,
    build_dual_points,
    build_grid,
    make_kernel,
    read_field_csv,
    sample_field,
    write_csv,
)

__all__ = ["RunConfig", "parse_config", "run", "main"]

@dataclass
class RunConfig:
    builtin: str | None = None
    params: dict = field(default_factory=dict)
    field_csv: str | None = None
    domain: dict | None = None
    n: int = 64
    out: str | None = None
    dump: str | None = None
    sigma: str | None = None
    kernel: str | None = None

    def validate(self) -> "RunConfig":
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if bool(self.builtin) == bool(self.field_csv):
            raise ValueError("give exactly one of --builtin or --field")
        if self.field_csv and not self.domain:
            raise ValueError("file-backed runs need a --domain spec")
        return self


# the config keys each subcommand reads, besides `out`: fields of RunConfig.
# Each key is also a flag, `--key` with dashes except those in _FLAG_NAMES,
# typed by the field's hint; argparse rejects every other flag and
# parse_config every other key.
_PROBLEM = ("builtin", "params", "field_csv", "domain", "n")
_COMMAND_KEYS = {
    "decompose": (*_PROBLEM, "dump"),
    "dual": _PROBLEM,
    "primal": _PROBLEM,
    "verify": (*_PROBLEM, "sigma", "kernel"),
    "gallery": (),
}
_FLAG_NAMES = {"field_csv": "--field"}
_TYPES = typing.get_type_hints(RunConfig)


def _check_type(key: str, value, hint) -> None:
    """Reject a value of another type than the field's; an int field takes
    no bool and no float."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ValueError(f"config value {key}={value!r} is not {names}")


def _flag_type(hint):
    """argparse type of a field: its hint without None; a dict arrives as
    JSON text."""
    t = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    return str if t is dict else t


def _read(path: str, what: str, load):
    """load(path), naming the input in the message of any OSError."""
    try:
        return load(path)
    except OSError as exc:
        raise OSError(f"cannot read {what} file: {exc}") from exc


def _load_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge a JSON config file (if given) with command-line flags.

    Flags win over file values; keys the subcommand does not read and
    values of the wrong type are rejected.
    """
    keys = (*_COMMAND_KEYS[args.command], "out")
    merged: dict = {}
    if args.config:
        merged = _read(args.config, "config", _load_json)
        if not isinstance(merged, dict):
            raise ValueError("config file must hold a JSON object")
        unread = set(merged) - set(keys)
        if unread:
            raise ValueError(f"{args.command} does not read config keys {sorted(unread)}")
    merged.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    if isinstance(merged.get("params"), str):
        merged["params"] = json.loads(merged["params"])
    if isinstance(merged.get("domain"), str):
        # inline JSON or a file name; an inline spec may exceed a file name's length
        src = merged["domain"]
        inline = src.lstrip().startswith("{")
        merged["domain"] = json.loads(src) if inline else _read(src, "domain", _load_json)
    for key, value in merged.items():
        _check_type(key, value, _TYPES[key])
    cfg = RunConfig(**merged)
    # the gallery runs every builtin and reads no problem settings
    if args.command == "gallery":
        return cfg
    cfg.validate()
    # a builtin sets its own grid; a field file reads its grid off --domain
    unread = set(merged) & ({"domain"} if cfg.builtin else {"params", "n"})
    if unread:
        kind = "--builtin" if cfg.builtin else "--field"
        raise ValueError(f"a {kind} problem does not read {sorted(unread)}")
    return cfg


def _load_problem(cfg: RunConfig):
    """Resolve the configured field into (domain, samples, extras)."""
    if cfg.builtin:
        bf = fields.builtin_field(cfg.builtin, cfg.n, cfg.params)
        dom = build_grid(bf.domain_spec)
        fld = sample_field(dom, bf.rule)
        return dom, fld, bf
    dom = build_grid(cfg.domain)
    pts, vals = _read(cfg.field_csv, "field", read_field_csv)
    # a NaN point would pass the test against the grid
    for what, a in (("point coordinate", pts), ("field value", vals)):
        if not np.isfinite(a).all():
            raise ValueError(f"field file {cfg.field_csv} has a non-finite {what}")
    if pts.shape != dom.points.shape:
        raise ValueError("field file does not match the domain grid size")
    scale = max(1.0, dom.radius)
    if np.abs(pts - dom.points).max() > 1e-9 * scale:
        raise ValueError("field file points do not match the domain grid")
    return dom, SampledField(vals), None


def _check_outputs(cfg: RunConfig) -> None:
    """Refuse an output path before anything runs, so that a run that fails
    on it writes nothing: its directory must exist and it must not name a
    directory."""
    for path in filter(None, (cfg.out, cfg.dump)):
        if Path(path).is_dir():
            raise OSError(f"cannot write output file {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise OSError(f"cannot write output file {path}: {Path(path).parent} is no directory")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _dump_cells(path: str, dom, fld, report) -> None:
    """Plot-ready dump: one row per cell with x, u, sigma(x), residual1."""
    header = [f"{c}{k}" for c in ("x", "u", "sx") for k in range(dom.dim)] + ["residual1"]
    sx = dom.points[report.sigma.sigma]
    table = np.hstack([dom.points, fld.values, sx, report.residual1.values[:, None]])
    write_csv(path, header, table)


def _cmd_decompose(cfg: RunConfig) -> int:
    dom, fld, bf = _load_problem(cfg)
    report = factorize.decompose(
        dom, fld, rule=bf.rule if bf else None, jacobian=bf.jacobian if bf else None
    )
    _emit(report.to_dict(), cfg.out)
    if cfg.dump:
        _dump_cells(cfg.dump, dom, fld, report)
    return 0 if report.tolerances["primal_converged"] else 1


def _cmd_dual(cfg: RunConfig) -> int:
    dom, fld, _ = _load_problem(cfg)
    sol = dual_solver.solve(dom, fld)
    _emit(
        {
            "D": sol.value,
            "sigma": [int(k) for k in sol.sigma.sigma],
            "certificate": sol.certificate,
            "bound": sol.bound,
        },
        cfg.out,
    )
    return 0


def _cmd_primal(cfg: RunConfig) -> int:
    dom, fld, _ = _load_problem(cfg)
    _, pot, bound = dual_solver.assignment_relaxation(dom, fld)
    kernel = primal_solver.optimal_kernel(dom, fld, pot)
    # P, its argmax and the floor do not depend on the involution
    cert = primal_solver.weak_duality(dom, fld, kernel, Involution.identity(dom.n))
    value, converged = cert.primal_value, primal_solver.primal_converged(cert, bound)
    _emit(
        {
            "P": value,
            "lower_bound": bound,
            "gap_vs_bound": value - bound,
            "converged": converged,
            "argmax": [int(k) for k in cert.argmax],
        },
        cfg.out,
    )
    return 0 if converged else 1


def _cmd_verify(cfg: RunConfig) -> int:
    """Check identities for supplied artifacts without solving.

    With a kernel, P is read off the weak-duality certificate; with an
    involution too, so is D, summed as dual_objective sums it, to the same bits.
    """
    dom, fld, bf = _load_problem(cfg)
    payload: dict = {}
    sigma = None
    if cfg.sigma:
        raw = _read(cfg.sigma, "sigma", _load_json)
        sigma = Involution(raw["sigma"] if isinstance(raw, dict) else raw)
    kernel = None
    if cfg.kernel:
        mat = _read(cfg.kernel, "kernel", lambda p: np.loadtxt(p, delimiter=","))
        kernel = AntiSymmetricKernel.from_matrix(np.atleast_2d(mat))
        payload["kernel_source"] = "file"
    elif bf is not None and bf.hamiltonian is not None:
        # builtins with a closed-form Hamiltonian verify against its table
        kernel = make_kernel(dom, bf.hamiltonian)
        payload["kernel_source"] = "builtin-analytic"
    if sigma is not None and kernel is None:
        payload["D"] = dual_solver.dual_objective(dom, fld, sigma)
    if kernel is not None:
        # P does not depend on the involution: a kernel alone is scored along the identity
        cert = primal_solver.weak_duality(dom, fld, kernel, sigma or Involution.identity(dom.n))
        payload["P"] = cert.primal_value
    if kernel is not None and sigma is not None:
        payload["D"] = cert.dual_value
        value, verdict = factorize.selfdual_test(kernel, sigma, dom.cell_measure)
        payload["weak_duality_gap"] = cert.gap
        payload["complementarity"] = {
            "min": float(cert.slack.min()),
            "max": float(cert.slack.max()),
            "sum": float(cert.slack.sum()),
        }
        payload["selfdual_sum"] = value
        payload["selfdual_verdict"] = verdict
        hreg = regularize(kernel, dom, build_dual_points(dom, fld))
        res2 = factorize.second_identity_check(dom, fld, hreg, sigma)
        payload["residual2"] = {"median": res2.median, "max": res2.max}
    payload["monotone"] = factorize.check_monotone(dom, fld).verdict
    _emit(payload, cfg.out)
    return 0


GALLERY_SIZES = (16, 32, 64)


def _cmd_gallery(cfg: RunConfig) -> int:
    rows = []
    for name in fields.builtin_names():
        for n in GALLERY_SIZES:
            bf = fields.builtin_field(name, n)
            dom = build_grid(bf.domain_spec)
            fld = sample_field(dom, bf.rule)
            report = factorize.decompose(dom, fld, rule=bf.rule, jacobian=bf.jacobian)
            row = {
                "builtin": name,
                "cells": dom.n,
                "P": report.p_value,
                "D": report.d_value,
                "gap": report.gap,
                "residual1_median": report.residual1.median,
                "residual2_median": report.residual2.median,
                "monotone": report.monotone.verdict,
                "uniqueness": report.uniqueness.verdict,
            }
            if bf.involutions is not None:
                row["known_involutions"] = {
                    label: dual_solver.dual_objective(dom, fld, s)
                    for label, s in bf.involutions(dom)
                }
            rows.append(row)
    _print_gallery(rows)
    if cfg.out:
        _emit({"gallery": rows}, cfg.out)
    return 0


def _print_gallery(rows) -> None:
    head = f"{'builtin':<11}{'cells':>6}{'P':>12}{'D':>12}{'gap':>11}{'res1med':>9}{'mono':>18}"
    print(head)
    print("-" * len(head))
    for r in rows:
        print(
            f"{r['builtin']:<11}{r['cells']:>6}{r['P']:>12.6f}{r['D']:>12.6f}"
            f"{r['gap']:>11.2e}{r['residual1_median']:>9.4f}{r['monotone']:>18}"
        )
        for label, val in r.get("known_involutions", {}).items():
            print(f"{'':<11}{'':>6}  {label}: D = {val:.6f}")


_HANDLERS = {
    "decompose": _cmd_decompose,
    "dual": _cmd_dual,
    "primal": _cmd_primal,
    "verify": _cmd_verify,
    "gallery": _cmd_gallery,
}

_HELP = {
    "builtin": f"builtin field: {', '.join(fields.builtin_names())}",
    "params": "JSON parameters for the builtin",
    "field_csv": "field CSV (x0..x{d-1}, u0..u{d-1})",
    "domain": "domain spec: inline JSON {...} or a JSON file",
    "n": "cell budget (default 64)",
    "dump": "write the plot-ready CSV here",
    "sigma": "involution JSON file",
    "kernel": "kernel CSV file",
    "out": "write the JSON payload here",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="selfdual",
        description="Factor a sampled vector field through a measure "
        "preserving involution and an anti-symmetric Hamiltonian.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in (*keys, "out"):
            p.add_argument(
                _FLAG_NAMES.get(key, "--" + key.replace("_", "-")),
                dest=key,
                type=_flag_type(_TYPES[key]),
                help=_HELP.get(key),
            )
    return ap


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args)
        _check_outputs(cfg)
        return _HANDLERS[args.command](cfg)
    except OSError as exc:
        # a file that cannot be read or written; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
