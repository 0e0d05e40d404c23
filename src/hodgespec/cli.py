"""Command-line front end.

Subcommands:
  spectrum torus | spectrum sphere   truncated spectra, JSON or CSV
  isospec                            compare two operators up to a cutoff
  recover base-set | torus-params | sphere-params | radius
  enumerate                          dump a lattice's dual-norm table

Exit codes: 0 success (isospec: isospectral), 1 isospec found a divergence,
2 malformed input, 3 computation refused (domain errors), 4 a recovery gave
up (BranchAmbiguous / CutoffTooSmall).  Errors print a single JSON object
on standard error: {"error": <kind>, "message": <text>}.

All stdout output is byte-deterministic for identical inputs; informational
notes (duality-extension degrees) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .errors import BranchAmbiguous, CutoffTooSmall, Error, ParseError, UnitMismatch
from .isospec import (
    first_divergence,
    reconstruct_base,
    recover_radius,
    recover_sphere_params,
    recover_torus_params,
)
from .lattice import (
    Lattice,
    _charge_dimension,
    brute_force_enumerate,
    dual,
    enumerate_norms,
    standard_lattice,
)
from .multiset import Unit, WeightedSpectrum
from .rationals import _echo_number, format_rational, parse_rational
from .sphere import SphereOperator
from .sphere import spectrum as sphere_spectrum
from .sphere import spectrum_parts as sphere_spectrum_parts
from .torus import TorusOperator, f_spectrum, f_spectrum_parts

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # surface usage problems as ParseError so main() can emit the JSON
    # error object and the documented exit code instead of argparse's exit
    def error(self, message):
        raise ParseError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be positive")
    return value


def _nonnegative_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value < 0:
        raise ParseError(f"expected a nonnegative rational, got {text!r}")
    return value


def _emit_error(err: Error) -> None:
    print(json.dumps({"error": err.kind, "message": str(err)}), file=sys.stderr)


def _extension_note(op, side: str = "") -> None:
    # called once the command has succeeded, so an error stays the only thing on stderr
    if not op.duality_extension:
        return
    where = f"{side} " if side else ""
    print(
        f"note: {where}degree p={op.p} is a boundary degree; "
        "the spectrum follows the duality convention",
        file=sys.stderr,
    )


def _write_output(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write output file {path}: {exc}") from None


@contextmanager
def _unlimited_digits():
    """Lift Python's int-to-str digit limit while output is formatted.

    Exact keys and multiplicities can outgrow it (4300 digits by default).
    Input parsing keeps the limit, so an oversize input number still exits 2.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _json_value(value):
    # json.dumps hook, so rationals and records are formatted inside the lifted limit
    if isinstance(value, Fraction):
        return format_rational(value)
    return value.to_json_dict()


def _write_json(path: str | None, payload) -> None:
    with _unlimited_digits():
        text = json.dumps(payload, indent=2, default=_json_value) + "\n"
    _write_output(path, text)


def _load_json(path: str, what: str):
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise ParseError(f"{what} file {path} is not valid UTF-8 JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what} file {path} nests too deeply") from None


def _load_spectrum(path: str) -> WeightedSpectrum:
    return WeightedSpectrum.from_json_dict(_load_json(path, "spectrum"))


def _load_lattice(args, side: str | None = None) -> Lattice:
    prefix = f"{side}_" if side else ""
    dash = f"--{side}-" if side else "--"
    path = getattr(args, f"{prefix}lattice")
    zn = getattr(args, f"{prefix}zn")
    if (path is None) == (zn is None):
        raise ParseError(f"provide exactly one of {dash}lattice and {dash}zn")
    if zn is not None:
        _charge_dimension(zn)  # before the n x n identity is built
        return standard_lattice(zn)
    return Lattice.from_json_dict(_load_json(path, "lattice"))


def _spectrum_csv(spec: WeightedSpectrum) -> str:
    lines = ["eigenvalue_num,eigenvalue_den,unit,multiplicity"]
    for key, mult in spec.entries:
        lines.append(f"{key.numerator},{key.denominator},{spec.unit.value},{mult}")
    return "\n".join(lines) + "\n"


def _emit_spectrum(args, spec: WeightedSpectrum) -> None:
    if args.format == "csv":
        with _unlimited_digits():
            text = _spectrum_csv(spec)
        _write_output(args.output, text)
    else:
        _write_json(args.output, spec)


def _emit_parts(args, alpha_part: WeightedSpectrum, beta_part: WeightedSpectrum) -> None:
    if args.format == "csv":
        raise ParseError("csv output is only defined for merged spectra")
    _write_json(args.output, {"alpha_part": alpha_part, "beta_part": beta_part})


def _cmd_spectrum_torus(args) -> int:
    lattice = _load_lattice(args)
    op = TorusOperator(
        lattice, args.p, args.alpha, args.beta, generic=args.mode == "generic"
    )
    if op.generic:
        _emit_parts(args, *f_spectrum_parts(op, args.cutoff))
    else:
        _emit_spectrum(args, f_spectrum(op, args.cutoff))
    _extension_note(op)
    return 0


def _cmd_spectrum_sphere(args) -> int:
    op = SphereOperator(
        args.n, args.p, args.alpha, args.beta, args.r2, generic=args.mode == "generic"
    )
    if op.generic:
        _emit_parts(args, *sphere_spectrum_parts(op, args.cutoff))
    else:
        _emit_spectrum(args, sphere_spectrum(op, args.cutoff))
    _extension_note(op)
    return 0


def _side_operator(args, side: str) -> tuple[TorusOperator | SphereOperator, WeightedSpectrum]:
    kind = getattr(args, f"{side}_kind")
    p = getattr(args, f"{side}_p")
    alpha = getattr(args, f"{side}_alpha")
    beta = getattr(args, f"{side}_beta")
    if kind == "torus":
        if getattr(args, f"{side}_n") is not None or getattr(args, f"{side}_r2") is not None:
            raise ParseError(f"--{side}-n and --{side}-r2 apply to sphere sides only")
        op = TorusOperator(_load_lattice(args, side), p, alpha, beta)
        return op, f_spectrum(op, args.cutoff)
    if getattr(args, f"{side}_lattice") is not None or getattr(args, f"{side}_zn") is not None:
        raise ParseError(f"--{side}-lattice and --{side}-zn apply to torus sides only")
    n = getattr(args, f"{side}_n")
    r2 = getattr(args, f"{side}_r2")
    if n is None or r2 is None:
        raise ParseError(f"a sphere side needs --{side}-n and --{side}-r2")
    op = SphereOperator(n, p, alpha, beta, r2)
    return op, sphere_spectrum(op, args.cutoff)


def _cmd_isospec(args) -> int:
    left_op, left = _side_operator(args, "left")
    right_op, right = _side_operator(args, "right")
    payload = {"isospectral": True, "cutoff": args.cutoff}
    divergence = first_divergence(left, right, args.cutoff)
    if divergence is not None:
        key, left_mult, right_mult = divergence
        payload["isospectral"] = False
        payload["first_divergence"] = {
            "key": key,
            "left_multiplicity": left_mult,
            "right_multiplicity": right_mult,
        }
    _write_json(args.output, payload)
    _extension_note(left_op, "left")
    _extension_note(right_op, "right")
    return 0 if divergence is None else 1


def _cmd_recover_base(args) -> int:
    m_spec = _load_spectrum(args.spectrum)
    result = reconstruct_base(
        m_spec, args.alpha, args.beta, args.copies_alpha, args.copies_beta
    )
    _write_json(args.output, result)
    return 0


def _cmd_recover_torus(args) -> int:
    m_spec = _load_spectrum(args.spectrum)
    base = _load_spectrum(args.base)
    result = recover_torus_params(m_spec, base, args.n, args.p)
    _write_json(args.output, result)
    return 0


def _cmd_recover_sphere(args) -> int:
    m_spec = _load_spectrum(args.spectrum)
    result = recover_sphere_params(m_spec, args.n, args.p, args.r2)
    _write_json(args.output, result)
    return 0


def _cmd_recover_radius(args) -> int:
    m_spec = _load_spectrum(args.spectrum)
    if m_spec.unit is not Unit.PLAIN:
        raise UnitMismatch(f"radius recovery needs a plain spectrum, got {m_spec.unit.value}")
    leading = m_spec.min_entry()
    r_squared = recover_radius(args.alpha, args.beta, args.n, args.p, leading[0])
    # the recovered sphere must start with exactly the input's leading entry
    op = SphereOperator(args.n, args.p, args.alpha, args.beta, r_squared)
    expected = sphere_spectrum(op, leading[0]).entries
    if expected != (leading,):
        raise BranchAmbiguous(
            f"leading entry {format_rational(leading[0])} x {_echo_number(leading[1])} is not the "
            f"first eigenvalue of a sphere with these parameters, which has multiplicity "
            f"{_echo_number(expected[0][1])}"
        )
    _write_json(args.output, r_squared)
    return 0


def _cmd_enumerate(args) -> int:
    dual_data = dual(_load_lattice(args))
    enumerate_fn = brute_force_enumerate if args.box else enumerate_norms
    table = enumerate_fn(dual_data, args.bound)
    _write_json(args.output, {"bound": table.cutoff, "counts": table.entries})
    return 0


def _parameter_flags(parser) -> None:
    parser.add_argument("--alpha", type=parse_rational, required=True, help="d-delta weight")
    parser.add_argument("--beta", type=parse_rational, required=True, help="delta-d weight")


def _output_flags(parser) -> None:
    parser.add_argument(
        "--mode",
        choices=("merged", "generic"),
        default="merged",
        help="generic keeps the alpha and beta series separate",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="output file, stdout when omitted")


def _lattice_flags(parser) -> None:
    parser.add_argument("--lattice", help="lattice JSON file, - for stdin")
    parser.add_argument("--zn", type=_positive_int, help="standard Z^n lattice")


def _side_flags(parser, side: str) -> None:
    parser.add_argument(f"--{side}-kind", choices=("torus", "sphere"), required=True)
    parser.add_argument(f"--{side}-lattice", help="lattice JSON file (torus side)")
    parser.add_argument(f"--{side}-zn", type=_positive_int, help="standard Z^n (torus side)")
    parser.add_argument(f"--{side}-n", type=_positive_int, help="sphere dimension")
    parser.add_argument(f"--{side}-p", type=int, required=True, help="form degree")
    parser.add_argument(f"--{side}-alpha", type=parse_rational, required=True)
    parser.add_argument(f"--{side}-beta", type=parse_rational, required=True)
    parser.add_argument(f"--{side}-r2", type=parse_rational, help="squared radius (sphere side)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hodgespec",
        description=(
            "Exact truncated spectra of alpha d delta + beta delta d on "
            "p-forms of flat tori and round spheres."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="compute a truncated spectrum")
    surface = spectrum.add_subparsers(dest="surface", required=True)

    torus_cmd = surface.add_parser("torus", help="flat torus R^n / lattice")
    _lattice_flags(torus_cmd)
    torus_cmd.add_argument("--p", type=int, required=True, help="form degree")
    _parameter_flags(torus_cmd)
    torus_cmd.add_argument(
        "--cutoff",
        type=_nonnegative_rational,
        required=True,
        help="truncation bound, in units of 4 pi^2",
    )
    _output_flags(torus_cmd)
    torus_cmd.set_defaults(handler=_cmd_spectrum_torus)

    sphere_cmd = surface.add_parser("sphere", help="round sphere S^n")
    sphere_cmd.add_argument("--n", type=_positive_int, required=True, help="sphere dimension")
    sphere_cmd.add_argument("--p", type=int, required=True, help="form degree")
    _parameter_flags(sphere_cmd)
    sphere_cmd.add_argument("--r2", type=parse_rational, required=True, help="squared radius")
    sphere_cmd.add_argument("--cutoff", type=_nonnegative_rational, required=True)
    _output_flags(sphere_cmd)
    sphere_cmd.set_defaults(handler=_cmd_spectrum_sphere)

    iso = sub.add_parser("isospec", help="compare two operators up to a cutoff")
    _side_flags(iso, "left")
    _side_flags(iso, "right")
    iso.add_argument("--cutoff", type=_nonnegative_rational, required=True)
    iso.add_argument("--output", help="output file, stdout when omitted")
    iso.set_defaults(handler=_cmd_isospec)

    recover = sub.add_parser("recover", help="run an inverse algorithm on spectrum files")
    what = recover.add_subparsers(dest="what", required=True)

    base_cmd = what.add_parser("base-set", help="invert a two-scale repeated union")
    base_cmd.add_argument("--spectrum", required=True, help="spectrum JSON file, - for stdin")
    base_cmd.add_argument("--alpha", type=parse_rational, required=True)
    base_cmd.add_argument("--beta", type=parse_rational, required=True)
    base_cmd.add_argument("--copies-alpha", type=_positive_int, required=True)
    base_cmd.add_argument("--copies-beta", type=_positive_int, required=True)
    base_cmd.add_argument("--output")
    base_cmd.set_defaults(handler=_cmd_recover_base)

    torus_params = what.add_parser("torus-params", help="read (alpha, beta) off a torus spectrum")
    torus_params.add_argument("--spectrum", required=True, help="p-form spectrum JSON file")
    torus_params.add_argument("--base", required=True, help="scalar spectrum JSON of the same lattice")
    torus_params.add_argument("--n", type=_positive_int, required=True)
    torus_params.add_argument("--p", type=int, required=True)
    torus_params.add_argument("--output")
    torus_params.set_defaults(handler=_cmd_recover_torus)

    sphere_params = what.add_parser("sphere-params", help="read (alpha, beta) off a sphere spectrum")
    sphere_params.add_argument("--spectrum", required=True, help="spectrum JSON file")
    sphere_params.add_argument("--n", type=_positive_int, required=True)
    sphere_params.add_argument("--p", type=int, required=True)
    sphere_params.add_argument("--r2", type=parse_rational, required=True, help="squared radius")
    sphere_params.add_argument("--output")
    sphere_params.set_defaults(handler=_cmd_recover_sphere)

    radius_cmd = what.add_parser("radius", help="read r^2 off a sphere spectrum's minimum")
    radius_cmd.add_argument("--spectrum", required=True, help="spectrum JSON file")
    radius_cmd.add_argument("--alpha", type=parse_rational, required=True)
    radius_cmd.add_argument("--beta", type=parse_rational, required=True)
    radius_cmd.add_argument("--n", type=_positive_int, required=True)
    radius_cmd.add_argument("--p", type=int, required=True)
    radius_cmd.add_argument("--output")
    radius_cmd.set_defaults(handler=_cmd_recover_radius)

    enum_cmd = sub.add_parser("enumerate", help="dump the dual-norm table of a lattice")
    _lattice_flags(enum_cmd)
    enum_cmd.add_argument("--bound", type=_nonnegative_rational, required=True)
    enum_cmd.add_argument(
        "--box", action="store_true", help="use the box-scan reference enumeration"
    )
    enum_cmd.add_argument("--output")
    enum_cmd.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as err:
        _emit_error(err)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (BranchAmbiguous, CutoffTooSmall) as err:
        _emit_error(err)
        return 4
    except ParseError as err:
        _emit_error(err)
        return 2
    except Error as err:
        _emit_error(err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
