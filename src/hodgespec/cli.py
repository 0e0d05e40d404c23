"""Command-line front end.

Subcommands:
  spectrum torus | spectrum sphere   truncated spectra, JSON or CSV
  isospec                            compare two operators up to a cutoff
  recover base-set | torus-params | sphere-params | radius
  enumerate                          dump a lattice's dual-norm table

Every flag is declared once, in ``_FLAGS``; each command names its flags, in
order, in one ``_flags`` call, and an isospec side prefixes them (``--left-p``).
Argparse requires an operator's p, alpha and beta; ``_operator`` checks its
other flags against ``_KIND_FLAGS``, for ``spectrum torus|sphere`` and for each
isospec side alike.

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
from .rationals import _charge, _echo, _echo_number, format_rational, parse_rational
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


# A flag type refuses with ArgumentTypeError, so argparse words the refusal
# "argument --<flag>: <reason>" and _Parser.error makes it a ParseError.
def _rational(text: str) -> Fraction:
    """A rational flag, read by ``parse_rational``."""
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(text: str) -> int:
    """An integer flag, read as a rational literal (ASCII digits, no ``_``) that is whole."""
    if (value := _rational(text)).denominator != 1:
        raise argparse.ArgumentTypeError(f"expected an integer, got {_echo(text)}")
    return value.numerator


def _positive_int(text: str) -> int:
    if (value := _integer(text)) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {_echo(text)}")
    return value


def _nonnegative_rational(text: str) -> Fraction:
    if (value := _rational(text)) < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative rational, got {_echo(text)}")
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

    for other, names in _KIND_FLAGS.items():
        if other != kind and any(flag(name) is not None for name in names):
            raise ParseError(f"{dash}{names[0]} and {dash}{names[1]} apply to {other} sides only")
    generic = flag("mode") == "generic"
    p, alpha, beta = flag("p"), flag("alpha"), flag("beta")
    if kind == "torus":
        lattice = _load_lattice(flag("lattice"), flag("zn"), dash)
        return TorusOperator(lattice, p, alpha, beta, generic=generic)
    if flag("n") is None or flag("r2") is None:
        raise ParseError(f"a sphere operator needs {dash}n and {dash}r2")
    return SphereOperator(flag("n"), p, alpha, beta, flag("r2"), generic=generic)


def _cmd_spectrum(args) -> int:
    op = _operator(args, args.surface)
    spectrum, parts = _SPECTRA[args.surface]
    spectra = parts(op, args.cutoff) if op.generic else (spectrum(op, args.cutoff),)
    # CPython writes an int in decimal in time quadratic in its length: each
    # multiplicity, key numerator and key denominator of b bits is charged
    # (b >> 10)^2, so one under 1024 bits is free
    mults = keys = 0
    for key, mult in (entry for part in spectra for entry in part):
        mults += (mult.bit_length() >> 10) ** 2
        keys += (key.numerator.bit_length() >> 10) ** 2 + (key.denominator.bit_length() >> 10) ** 2
    _charge(mults, lambda: f"writing the multiplicities in decimal needs {_echo_number(mults)} work")
    _charge(keys, lambda: f"writing the keys in decimal needs {_echo_number(keys)} work")
    _write(args, dict(zip(("alpha_part", "beta_part"), spectra)) if op.generic else spectra[0])
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
    divergence = first_divergence(left, right, args.cutoff)
    payload = {"isospectral": divergence is None, "cutoff": args.cutoff}
    if divergence is not None:
        fields = ("key", "left_multiplicity", "right_multiplicity")
        payload["first_divergence"] = dict(zip(fields, divergence))
    _write(args, payload)
    _extension_note(left_op, "left")
    _extension_note(right_op, "right")
    return 0 if divergence is None else 1


def _cmd_recover(args) -> int:
    # the spectrum file is read first, so its refusals win over --base's
    _write(args, args.recover(args, _load_spectrum(args.spectrum)))
    return 0


def _recover_radius(args, m_spec: WeightedSpectrum) -> Fraction:
    """r^2 of ``recover radius``, checked against the spectrum's leading entry."""
    if m_spec.unit is not Unit.PLAIN:
        raise UnitMismatch(f"radius recovery needs a plain spectrum, got {m_spec.unit.value}")
    leading = m_spec.min_entry()
    r_squared = recover_radius(args.alpha, args.beta, args.n, args.p, leading[0])
    # the recovered sphere must start with exactly the input's leading entry
    op = SphereOperator(args.n, args.p, args.alpha, args.beta, r_squared)
    expected = sphere_spectrum(op, leading[0]).entries
    if expected != (leading,):
        raise BranchAmbiguous(
            f"leading entry {_echo_number(leading[0])} x {_echo_number(leading[1])} is not the "
            f"first eigenvalue of a sphere with these parameters, which has multiplicity "
            f"{_echo_number(expected[0][1])}"
        )
    return r_squared


def _cmd_enumerate(args) -> int:
    dual_data = dual(_load_lattice(args.lattice, args.zn))
    enumerate_fn = brute_force_enumerate if args.box else enumerate_norms
    table = enumerate_fn(dual_data, args.bound)
    _write(args, {"bound": table.cutoff, "counts": table.entries})
    return 0


# Every flag of every command, declared once: a command picks its flags by
# name and in order with one _flags call, and an isospec side prefixes them.
_FLAGS = {
    "kind": {"choices": ("torus", "sphere")},
    "spectrum": {"help": "spectrum JSON file, - for stdin"},
    "lattice": {"help": "lattice JSON file, - for stdin"},
    "zn": {"type": _positive_int, "help": "standard Z^n lattice"},
    "n": {"type": _positive_int, "help": "dimension n"},
    "p": {"type": _integer, "help": "form degree"},
    "alpha": {"type": _rational, "help": "d-delta weight"},
    "beta": {"type": _rational, "help": "delta-d weight"},
    "r2": {"type": _rational, "help": "squared radius"},
    "copies-alpha": {"type": _positive_int},
    "copies-beta": {"type": _positive_int},
    "base": {"help": "scalar spectrum JSON of the same lattice"},
    "cutoff": {"type": _nonnegative_rational, "help": "truncation bound (torus: units of 4 pi^2)"},
    "bound": {"type": _nonnegative_rational},
    "box": {"action": "store_true", "help": "use the box-scan reference enumeration"},
    "mode": {"choices": ("merged", "generic"), "default": "merged",
             "help": "generic keeps the alpha and beta series separate"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "output": {"help": "output file, stdout when omitted"},
}
# each kind's own operator flags; every kind also has p, alpha and beta
_KIND_FLAGS = {"torus": ("lattice", "zn"), "sphere": ("n", "r2")}


def _flags(parser, names, required, dash: str = "--") -> None:
    for name in names:
        parser.add_argument(dash + name, required=name in required, **_FLAGS[name])


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
    for kind, help in (("torus", "flat torus R^n / lattice"), ("sphere", "round sphere S^n")):
        cmd = surface.add_parser(kind, help=help)
        names = (*_KIND_FLAGS[kind], "p", "alpha", "beta", "cutoff", "mode", "format", "output")
        _flags(cmd, names, ("p", "alpha", "beta", "cutoff"))
        cmd.set_defaults(handler=_cmd_spectrum)

    iso = sub.add_parser("isospec", help="compare two operators up to a cutoff")
    for side in ("left", "right"):
        names = ("kind", "lattice", "zn", "n", "r2", "p", "alpha", "beta")
        _flags(iso, names, ("kind", "p", "alpha", "beta"), f"--{side}-")
    _flags(iso, ("cutoff", "output"), ("cutoff",))
    iso.set_defaults(handler=_cmd_isospec)

    recover = sub.add_parser("recover", help="run an inverse algorithm on spectrum files")
    what = recover.add_subparsers(dest="what", required=True)
    # every recover flag but --output is required; each row computes recover(args, m_spec)
    for name, help, flags, recover in (
        ("base-set", "invert a two-scale repeated union",
         ("alpha", "beta", "copies-alpha", "copies-beta"), lambda args, m_spec: reconstruct_base(
             m_spec, args.alpha, args.beta, args.copies_alpha, args.copies_beta)),
        ("torus-params", "read (alpha, beta) off a torus spectrum", ("base", "n", "p"),
         lambda args, m_spec: recover_torus_params(
             m_spec, _load_spectrum(args.base), args.n, args.p)),
        ("sphere-params", "read (alpha, beta) off a sphere spectrum", ("n", "p", "r2"),
         lambda args, m_spec: recover_sphere_params(m_spec, args.n, args.p, args.r2)),
        ("radius", "read r^2 off a sphere spectrum's minimum", ("alpha", "beta", "n", "p"),
         _recover_radius),
    ):
        cmd = what.add_parser(name, help=help)
        _flags(cmd, ("spectrum", *flags, "output"), ("spectrum", *flags))
        cmd.set_defaults(handler=_cmd_recover, recover=recover)

    enum_cmd = sub.add_parser("enumerate", help="dump the dual-norm table of a lattice")
    _flags(enum_cmd, ("lattice", "zn", "bound", "box", "output"), ("bound",))
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
