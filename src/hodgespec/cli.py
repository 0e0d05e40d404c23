"""Command-line front end.

Subcommands:
  spectrum torus | spectrum sphere   truncated spectra, JSON or CSV
  isospec                            compare two operators up to a cutoff
  recover base-set | torus-params | sphere-params | radius
  enumerate                          dump a lattice's dual-norm table

Each operator or recovery flag is declared once, in ``_FLAGS``.  Argparse
requires an operator's p, alpha and beta; ``_operator`` checks its other flags,
for ``spectrum torus|sphere`` and for each isospec side (``--left-p``) alike.

Exit codes: 0 success (isospec: isospectral), 1 isospec found a divergence,
2 malformed input, 3 computation refused (domain errors), 4 a recovery gave
up (BranchAmbiguous / CutoffTooSmall).  The codes 2-4 live on the error
classes, as ``exit_code``.  Errors print a single JSON object on standard
error: {"error": <kind>, "message": <text>}.

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

from .errors import BranchAmbiguous, Error, ParseError, UnitMismatch
from .isospec import (
    first_divergence,
    reconstruct_base,
    recover_radius,
    recover_sphere_params,
    recover_torus_params,
)
from .lattice import Lattice, brute_force_enumerate, dual, enumerate_norms, standard_lattice
from .multiset import Unit, WeightedSpectrum
from .rationals import _echo, _echo_number, format_rational, parse_rational
from .sphere import SphereOperator
from .sphere import spectrum as sphere_spectrum
from .sphere import spectrum_parts as sphere_spectrum_parts
from .torus import TorusOperator, f_spectrum, f_spectrum_parts

__all__ = ["main"]

# merged spectrum and unmerged parts, per surface
_SPECTRA = {
    "torus": (f_spectrum, f_spectrum_parts),
    "sphere": (sphere_spectrum, sphere_spectrum_parts),
}


# the longest message argparse builds from the declared flags alone (isospec's
# required flags); past it, the rest is an offending value echoed in full
_USAGE_LIMIT = 150


class _Parser(argparse.ArgumentParser):
    # surface usage problems as ParseError so main() can emit the JSON
    # error object and the documented exit code instead of argparse's exit
    def error(self, message):
        cut = len(message) > _USAGE_LIMIT
        raise ParseError(message[:_USAGE_LIMIT] + "..." if cut else message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be positive")
    return value


def _nonnegative_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value < 0:
        raise ParseError(f"expected a nonnegative rational, got {_echo(text)}")
    return value


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


def _write(args, payload) -> None:
    """Write ``payload`` to ``--output``, or stdout when omitted or ``-``.

    The text is JSON, or CSV under ``--format csv``, which only a merged
    spectrum has.
    """
    csv = getattr(args, "format", "json") == "csv"
    if csv and not isinstance(payload, WeightedSpectrum):
        raise ParseError("csv output is only defined for merged spectra")
    with _unlimited_digits():
        if csv:
            unit = payload.unit.value
            lines = ["eigenvalue_num,eigenvalue_den,unit,multiplicity"]
            lines += [f"{k.numerator},{k.denominator},{unit},{m}" for k, m in payload.entries]
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(payload, indent=2, default=_json_value) + "\n"
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(args.output).write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", exc)
        raise ParseError(f"cannot write output file {_echo(args.output)}: {reason}") from None


def _load_json(path: str, what: str):
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", exc)
        raise ParseError(f"cannot read {what} file {_echo(path)}: {reason}") from None
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise ParseError(f"{what} file {_echo(path)} is not valid UTF-8 JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what} file {_echo(path)} nests too deeply") from None


def _load_spectrum(path: str) -> WeightedSpectrum:
    return WeightedSpectrum.from_json_dict(_load_json(path, "spectrum"))


def _load_lattice(path: str | None, zn: int | None, dash: str = "--") -> Lattice:
    if (path is None) == (zn is None):
        raise ParseError(f"provide exactly one of {dash}lattice and {dash}zn")
    if zn is not None:
        return standard_lattice(zn)
    return Lattice.from_json_dict(_load_json(path, "lattice"))


def _operator(args, kind: str, side: str = "") -> TorusOperator | SphereOperator:
    """The operator of ``spectrum torus|sphere``, or of the isospec side ``side``.

    A side's flags carry its name (``--left-p`` is ``args.left_p``).  A flag
    the command does not declare reads as None, so the checks that keep
    torus and sphere flags apart pass for both ``spectrum`` subcommands.
    """
    dash = f"--{side}-" if side else "--"

    def flag(name: str):
        return getattr(args, f"{side}_{name}" if side else name, None)

    generic = flag("mode") == "generic"
    p, alpha, beta = flag("p"), flag("alpha"), flag("beta")
    if kind == "torus":
        if flag("n") is not None or flag("r2") is not None:
            raise ParseError(f"{dash}n and {dash}r2 apply to sphere sides only")
        lattice = _load_lattice(flag("lattice"), flag("zn"), dash)
        return TorusOperator(lattice, p, alpha, beta, generic=generic)
    if flag("lattice") is not None or flag("zn") is not None:
        raise ParseError(f"{dash}lattice and {dash}zn apply to torus sides only")
    if flag("n") is None or flag("r2") is None:
        raise ParseError(f"a sphere operator needs {dash}n and {dash}r2")
    return SphereOperator(flag("n"), p, alpha, beta, flag("r2"), generic=generic)


def _cmd_spectrum(args) -> int:
    op = _operator(args, args.surface)
    spectrum, parts = _SPECTRA[args.surface]
    if op.generic:
        alpha_part, beta_part = parts(op, args.cutoff)
        _write(args, {"alpha_part": alpha_part, "beta_part": beta_part})
    else:
        _write(args, spectrum(op, args.cutoff))
    _extension_note(op)
    return 0


def _cmd_isospec(args) -> int:
    # the left side is built and computed first, so its refusals win
    sides = []
    for side in ("left", "right"):
        kind = getattr(args, f"{side}_kind")
        op = _operator(args, kind, side)
        sides.append((op, _SPECTRA[kind][0](op, args.cutoff)))
    (left_op, left), (right_op, right) = sides
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
    _write(args, payload)
    _extension_note(left_op, "left")
    _extension_note(right_op, "right")
    return 0 if divergence is None else 1


def _cmd_recover_base(args) -> int:
    m_spec = _load_spectrum(args.spectrum)
    _write(args, reconstruct_base(m_spec, args.alpha, args.beta, args.copies_alpha, args.copies_beta))
    return 0


def _cmd_recover_torus(args) -> int:
    m_spec = _load_spectrum(args.spectrum)
    base = _load_spectrum(args.base)
    _write(args, recover_torus_params(m_spec, base, args.n, args.p))
    return 0


def _cmd_recover_sphere(args) -> int:
    m_spec = _load_spectrum(args.spectrum)
    _write(args, recover_sphere_params(m_spec, args.n, args.p, args.r2))
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
    _write(args, r_squared)
    return 0


def _cmd_enumerate(args) -> int:
    dual_data = dual(_load_lattice(args.lattice, args.zn))
    enumerate_fn = brute_force_enumerate if args.box else enumerate_norms
    table = enumerate_fn(dual_data, args.bound)
    _write(args, {"bound": table.cutoff, "counts": table.entries})
    return 0


# Every flag that names an operator or a recovery input, declared once: a
# command picks its flags by name, and an isospec side prefixes them.
_FLAGS = {
    "lattice": {"help": "lattice JSON file, - for stdin"},
    "zn": {"type": _positive_int, "help": "standard Z^n lattice"},
    "n": {"type": _positive_int, "help": "dimension n"},
    "p": {"type": int, "help": "form degree"},
    "alpha": {"type": parse_rational, "help": "d-delta weight"},
    "beta": {"type": parse_rational, "help": "delta-d weight"},
    "r2": {"type": parse_rational, "help": "squared radius"},
    "copies-alpha": {"type": _positive_int},
    "copies-beta": {"type": _positive_int},
    "base": {"help": "scalar spectrum JSON of the same lattice"},
}
# each kind's own operator flags; every kind also has p, alpha and beta
_KIND_FLAGS = {"torus": ("lattice", "zn"), "sphere": ("n", "r2")}


def _flags(parser, names, required=(), dash: str = "--") -> None:
    for name in names:
        parser.add_argument(dash + name, required=name in required, **_FLAGS[name])


def _operator_flags(parser, kinds, side: str = "") -> None:
    """The operator flags of ``kinds``, named ``--<side>-p`` etc. for an isospec side."""
    shared = ("p", "alpha", "beta")
    own = tuple(name for kind in kinds for name in _KIND_FLAGS[kind])
    _flags(parser, own + shared, shared, f"--{side}-" if side else "--")


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

    for kind, help, unit in (
        ("torus", "flat torus R^n / lattice", ", in units of 4 pi^2"),
        ("sphere", "round sphere S^n", ""),
    ):
        cmd = surface.add_parser(kind, help=help)
        _operator_flags(cmd, (kind,))
        cmd.add_argument(
            "--cutoff", type=_nonnegative_rational, required=True, help=f"truncation bound{unit}"
        )
        cmd.add_argument(
            "--mode",
            choices=("merged", "generic"),
            default="merged",
            help="generic keeps the alpha and beta series separate",
        )
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--output", help="output file, stdout when omitted")
        cmd.set_defaults(handler=_cmd_spectrum)

    iso = sub.add_parser("isospec", help="compare two operators up to a cutoff")
    for side in ("left", "right"):
        iso.add_argument(f"--{side}-kind", choices=("torus", "sphere"), required=True)
        _operator_flags(iso, ("torus", "sphere"), side)
    iso.add_argument("--cutoff", type=_nonnegative_rational, required=True)
    iso.add_argument("--output", help="output file, stdout when omitted")
    iso.set_defaults(handler=_cmd_isospec)

    recover = sub.add_parser("recover", help="run an inverse algorithm on spectrum files")
    what = recover.add_subparsers(dest="what", required=True)
    # every recover flag after --spectrum is required
    for name, help, spectrum_help, flags, handler in (
        ("base-set", "invert a two-scale repeated union", "spectrum JSON file, - for stdin",
         ("alpha", "beta", "copies-alpha", "copies-beta"), _cmd_recover_base),
        ("torus-params", "read (alpha, beta) off a torus spectrum", "p-form spectrum JSON file",
         ("base", "n", "p"), _cmd_recover_torus),
        ("sphere-params", "read (alpha, beta) off a sphere spectrum", "spectrum JSON file",
         ("n", "p", "r2"), _cmd_recover_sphere),
        ("radius", "read r^2 off a sphere spectrum's minimum", "spectrum JSON file",
         ("alpha", "beta", "n", "p"), _cmd_recover_radius),
    ):
        cmd = what.add_parser(name, help=help)
        cmd.add_argument("--spectrum", required=True, help=spectrum_help)
        _flags(cmd, flags, flags)
        cmd.add_argument("--output")
        cmd.set_defaults(handler=handler)

    enum_cmd = sub.add_parser("enumerate", help="dump the dual-norm table of a lattice")
    _flags(enum_cmd, _KIND_FLAGS["torus"])
    enum_cmd.add_argument("--bound", type=_nonnegative_rational, required=True)
    enum_cmd.add_argument(
        "--box", action="store_true", help="use the box-scan reference enumeration"
    )
    enum_cmd.add_argument("--output")
    enum_cmd.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Error as err:
        print(json.dumps({"error": err.kind, "message": str(err)}), file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
