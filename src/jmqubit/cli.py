"""Command-line surface.

Subcommands: check (POVM set -> structure and minimal incompatible sets), joint
(POVM set -> explicit joint POVM), realize (named structure -> certificate),
verify (certificate -> report), atlas (20-entry manifest), bounds (closed-form
threshold tables as CSV).

Exit codes: 0 success/verified, 2 verification failure, 3 undecided or
inconclusive outcomes, 64 malformed JSON input or a usage error (sysexits'
EX_USAGE; argparse's own 2 would read as a failed verify), 65 precondition
violation. JSON goes to stdout (floats serialized via shortest round-trip
repr); a short human-readable summary goes to stderr.

The argparse parsers are built once per process. ``main`` hands the arguments
after a subcommand's name straight to that subcommand's parser, so one parser
level runs; the top-level parser runs only for ``--help`` and for a missing or
unknown subcommand. ``main`` looks up ``cmd_<name>`` on this module at call
time, so a function replaced on the module (by a test or a tracer) is the one
that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from operator import itemgetter
from pathlib import Path

from . import oracle as oracle_mod
from . import realizer
from .criteria import UNKNOWN, pair_same_purity_bound, planar_nwise_bound
from .povm import EPS_MARG, InvalidPovmError, JointPovm, povms_from_json_dict
from .structures import structure_of
from .surgery import build_general_binary_joint

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_UNDECIDED = 3
EXIT_BAD_JSON = EXIT_USAGE = 64
EXIT_PRECONDITION = 65

# Largest `realize --n` per family. An n-cycle certificate grows as N^2
# (5.3 MB at N = 256); an n-Specker certificate holds N witnesses of 2^(N-1)
# effects each (2,048 at N = 12), so its size and time double with each N.
REALIZE_N_CAP = {"n-cycle": 256, "n-specker": 12}


# what a JSON document of the wrong shape raises while it is read; an integer
# too large for a float raises OverflowError
SCHEMA_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def parse_angle(text: str) -> float:
    """Angle with unit suffix: '30deg', '0.5236rad', bare value = radians.
    The angle must be finite."""
    t = text.strip().lower()
    try:
        if t.endswith("deg"):
            phi = math.radians(float(t[:-3]))
        elif t.endswith("rad"):
            phi = float(t[:-3])
        else:
            phi = float(t)
    except ValueError:
        raise CliError(EXIT_PRECONDITION, f"cannot parse angle {text!r}") from None
    if not math.isfinite(phi):
        raise CliError(EXIT_PRECONDITION, f"angle {text!r} is not finite")
    return phi


def _load_json(path: str) -> dict:
    """The JSON document in the file path, or on stdin for '-', read as UTF-8
    (RFC 8259, section 8.1). CliError: exit 65 when it cannot be read, 64
    when it is not UTF-8, not JSON, or nested deeper than the parser
    recurses."""
    try:
        if path == "-":
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            text = sys.stdin.read()
        else:
            text = Path(path).read_text(encoding="utf-8")
        return json.loads(text)
    except OSError as exc:
        raise CliError(EXIT_PRECONDITION, f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(EXIT_BAD_JSON, f"malformed JSON in {path}: {exc}") from None


def _from_json(load, d, what: str):
    """load(d). CliError, exit 65, when d does not follow the schema or holds
    a POVM out of range; the second is a bad value, not a schema fault."""
    try:
        return load(d)
    except InvalidPovmError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    except KeyError as exc:  # the loaders look fields up by name
        raise CliError(EXIT_PRECONDITION, f'bad {what} schema: missing field "{exc.args[0]}"') from None
    except SCHEMA_ERRORS as exc:
        raise CliError(EXIT_PRECONDITION, f"bad {what} schema: {exc}") from None


def _load_povms(path: str):
    povms = _from_json(povms_from_json_dict, _load_json(path), "POVM-set")
    if not povms:
        raise CliError(EXIT_PRECONDITION, "POVM set is empty")
    return povms


# CPython's C encoder, compact and with sorted keys; json.dumps drops to the
# pure-Python encoder whenever it is given an indent
_ascii = json.encoder.encode_basestring_ascii
_c_encode = json.encoder.c_make_encoder(None, None, _ascii, None, ": ", ",", True, False, True)
_SCALARS = frozenset((str, int, float, bool, type(None)))
# scalars whose JSON text holds no comma and no bracket
_ATOMS = frozenset((int, float, bool, type(None)))
_LISTS = frozenset((list, tuple))
_DICTS = frozenset((dict,))
_STRS = frozenset((str,))


def _dumps(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte.

    Dicts with str keys, lists and tuples are laid out here; every scalar
    goes to the C encoder. Three kinds of value are laid out in one pass
    each, since no atom (a number, a bool or None) writes a comma or a
    bracket:
    - a flat list of atoms: one C call, indented at its commas;
    - a list of flat lists of atoms (`maximal`, `undecided`): one C call,
      split at its inner brackets and indented at its commas;
    - a list of flat records, dicts with the same str keys whose values are,
      key by key, all atoms, all strings or all flat lists of atoms (check's
      and a certificate's `incompatible`, a certificate's `povms`): each
      key's values are encoded as one column, and the records are filled
      into one template.
    A JointPovm is written as json.dumps writes its to_json_dict(), by its
    indented_text. Anything else (a dict with a non-str key, a subclass of a
    scalar type, an unknown type) is handed to json.dumps itself and
    indented to its place.
    """
    chunks: list = []
    _layout(payload, "\n", chunks)
    return "".join(chunks)


def _layout(x, newline: str, chunks: list) -> None:
    if type(x) in _SCALARS:
        chunks += _c_encode(x, 0)
        return
    inner = newline + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            chunks.append("[]")
        elif _ATOMS.issuperset(map(type, x)):
            flat = "".join(_c_encode(x, 0))
            chunks += ("[", inner, flat[1:-1].replace(",", "," + inner), newline, "]")
        elif items := _flat_lists(x, inner) or _records(x, inner):
            chunks += ("[", inner, ("," + inner).join(items), newline, "]")
        else:
            sep = "[" + inner
            for v in x:
                chunks.append(sep)
                _layout(v, inner, chunks)
                sep = "," + inner
            chunks += (newline, "]")
        return
    if isinstance(x, dict):
        try:  # a non-str key fails to encode, and mixed keys fail to sort
            items = [(_ascii(k), x[k]) for k in sorted(x)]
        except TypeError:
            pass
        else:
            if not items:
                chunks.append("{}")
                return
            sep = "{" + inner
            for name, v in items:
                chunks += (sep, name, ": ")
                _layout(v, inner, chunks)
                sep = "," + inner
            chunks += (newline, "}")
            return
    if isinstance(x, JointPovm):
        chunks.append(x.indented_text(newline))
        return
    # JSON strings hold no raw newline, so every newline is layout
    chunks.append(json.dumps(x, indent=2, sort_keys=True).replace("\n", newline))


def _flat_lists(x, newline: str):
    """The texts of x's items, each a list laid out at newline, or None
    unless every item is a list or tuple of atoms. All are encoded in one C
    call, which is split into lists at '],[' and into items at ','."""
    if not (_LISTS.issuperset(map(type, x)) and _ATOMS.issuperset(map(type, chain.from_iterable(x)))):
        return None
    inner = newline + "  "
    opener, sep, closer = "[" + inner, "," + inner, newline + "]"
    encoded = "".join(_c_encode(x, 0))[2:-2].split("],[")
    return [opener + s.replace(",", sep) + closer if s else "[]" for s in encoded]


def _records(x, newline: str):
    """The texts of x's items, each a record laid out at newline, or None
    unless x is a list of flat records (see _dumps)."""
    first = x[0]
    if not (_DICTS.issuperset(map(type, x)) and first and _STRS.issuperset(map(type, first))
            and len(set(map(len, x))) == 1):
        return None
    inner = newline + "  "
    template, columns = "{", []
    for key in sorted(first):
        try:
            column = list(map(itemgetter(key), x))
        except KeyError:  # same size, other keys
            return None
        kinds = set(map(type, column))
        if _ATOMS.issuperset(kinds):
            texts = "".join(_c_encode(column, 0))[1:-1].split(",")
        elif kinds == _STRS:
            texts = list(map(_ascii, column))
        elif (texts := _flat_lists(column, inner)) is None:
            return None
        columns.append(texts)
        template += inner + _ascii(key).replace("%", "%%") + ": %s,"
    template = template[:-1] + newline + "}"
    return list(map(template.__mod__, zip(*columns)))


def _print_stdout(text: str) -> None:
    """Print text to stdout and flush it. When the reader has closed the
    pipe (`jmqubit realize ... | head`), stdout's file descriptor is pointed
    at os.devnull instead, so the flush at exit stays quiet, and the command
    goes on to return its own exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write(text: str, out: str | None) -> None:
    """text and a newline to the file out, or to stdout when out is not
    given; CliError (exit 65) when the file cannot be written."""
    if not out:
        _print_stdout(text)
        return
    try:
        Path(out).write_text(text + "\n")
    except OSError as exc:
        raise CliError(EXIT_PRECONDITION, f"cannot write {out}: {exc}") from None


def _emit(payload, out: str | None, summary: str) -> None:
    _write(_dumps(payload), out)
    print(summary, file=sys.stderr)


def _decider_for_mode(povms, mode: str):
    closed = realizer.closed_form_decider(povms)
    if mode == "closed-form":
        return closed
    via_oracle = realizer.oracle_decider(povms)
    if mode == "oracle":
        return via_oracle
    def both(combo):
        v = closed(combo)
        return v if v.decision != UNKNOWN else via_oracle(combo)
    return both


def cmd_check(args) -> int:
    povms = _load_povms(args.input)
    n = len(povms)
    decider = _decider_for_mode(povms, args.mode)
    struct = structure_of(povms, decider)
    maximal = struct.sorted_maximal()
    payload = {
        "structure": {"n": n, "maximal": maximal},
        "undecided": sorted(map(sorted, struct.undecided)),
        "incompatible": [
            {"subset": list(s), "criterion": v.criterion_id, "margin": v.margin}
            for s, v in struct.incompatible
        ],
    }
    n_und = len(struct.undecided)
    _emit(
        payload,
        args.out,
        f"check: {n} POVMs, maximal compatible sets {maximal}, {n_und} undecided subset(s)",
    )
    return EXIT_UNDECIDED if n_und else EXIT_OK


def cmd_joint(args) -> int:
    povms = _load_povms(args.input)
    if args.constructor == "chain":
        joint, relab = build_general_binary_joint(povms)
        summary = (
            f"joint: chain construction, order {list(relab.order)}, "
            f"flips {list(relab.flips)}"
        )
    else:  # oracle
        res = oracle_mod.decide(povms)
        if res.status != oracle_mod.FEASIBLE:
            raise CliError(
                EXIT_UNDECIDED if res.status == oracle_mod.INCONCLUSIVE else EXIT_FAIL,
                f"oracle status {res.status} (residual {res.residual:.3e})",
            )
        joint = res.witness
        summary = (
            f"joint: oracle witness after {res.iterations} Newton step(s), "
            f"PSD and marginals within {res.residual:.1e}"
        )
        if res.residual > EPS_MARG:  # an extremal problem: no interior to reach
            summary += (
                f"; it reloads at witness_tol = {res.params.witness_tol:g}, "
                f"not at EPS_MARG = {EPS_MARG:g}"
            )
    _emit(joint, args.out, summary)
    return EXIT_OK


def _realize_from_name(args) -> realizer.RealizationCertificate:
    name = args.structure
    if name in REALIZE_N_CAP:
        cap = REALIZE_N_CAP[name]
        if args.n is None:
            raise CliError(EXIT_PRECONDITION, f"{name} needs --n")
        if args.n > cap:
            raise CliError(EXIT_PRECONDITION, f"{name} --n {args.n} exceeds the cap of {cap}")
        realize = realizer.realize_n_cycle if name == "n-cycle" else realizer.realize_n_specker
        return realize(args.n, args.eta)
    atlas_id = name[len("four-vertex-"):]
    if name.startswith("four-vertex-") and atlas_id.isdecimal():
        return realizer.realize_four_vertex(int(atlas_id), args.variant, args.eta)
    if name in realizer.MISC_SCENARIOS:
        return realizer.realize_misc(name, args.eta)
    known = (
        ["n-cycle", "n-specker"]
        + [f"four-vertex-{i}" for i in realizer.ATLAS_IDS]
        + sorted(realizer.MISC_SCENARIOS)
    )
    raise CliError(EXIT_PRECONDITION, f"unknown structure {name!r}; known: {known}")


def cmd_realize(args) -> int:
    cert = _realize_from_name(args)
    _emit(
        cert.to_json_dict(joint_objects=True),
        args.out,
        f"realize: {cert.label} at eta {cert.eta!r}, window "
        f"({cert.eta_window[0]!r}, {cert.eta_window[1]!r}], "
        f"maximal {cert.claimed.sorted_maximal()}",
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = _from_json(realizer.RealizationCertificate.from_json_dict, _load_json(args.input), "certificate")
    report = realizer.verify_certificate(cert, args.mode)
    payload = {
        "ok": report.ok,
        "issues": list(report.issues),
        "inconclusive": list(report.inconclusive),
    }
    status = "verified" if report.ok else "FAILED"
    _emit(
        payload,
        args.out,
        f"verify ({args.mode}): {status}, {len(report.issues)} issue(s), "
        f"{len(report.inconclusive)} inconclusive item(s)",
    )
    if not report.ok:
        return EXIT_FAIL
    return EXIT_UNDECIDED if report.inconclusive else EXIT_OK


def cmd_atlas(args) -> int:
    certs = realizer.atlas_certificates()
    manifest = realizer.atlas_manifest(certs)
    summary = "atlas: 20-entry manifest (use --out DIR for certificates)"
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(EXIT_PRECONDITION, f"cannot write {out_dir}: {exc}") from None
        payloads = {"manifest": manifest, **{k: c.to_json_dict(joint_objects=True) for k, c in certs.items()}}
        for name, payload in payloads.items():
            _write(_dumps(payload), str(out_dir / f"{name}.json"))
        summary = f"atlas: manifest + {len(certs)} certificates written to {out_dir}"
    _emit(manifest, None, summary)
    return EXIT_OK


def _parse_n_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        rng = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise CliError(EXIT_PRECONDITION, f"bad --n range {text!r}") from None
    if not rng:
        raise CliError(EXIT_PRECONDITION, f"empty range {text!r}")
    return rng


def cmd_bounds(args) -> int:
    rows = []
    if args.family == "planar-symmetric":
        if args.n is None:
            raise CliError(EXIT_PRECONDITION, "bounds needs --n (e.g. 3..8)")
        rows.append("family,n,bound")
        for n in _parse_n_range(args.n):
            rows.append(f"planar-symmetric,{n},{planar_nwise_bound(n)!r}")
    elif args.family in ("n-cycle", "n-specker"):
        if args.n is None:
            raise CliError(EXIT_PRECONDITION, "bounds needs --n (e.g. 3..8)")
        window = (
            realizer.n_cycle_window if args.family == "n-cycle" else realizer.n_specker_window
        )
        rows.append("family,n,lo,hi")
        for n in _parse_n_range(args.n):
            lo, hi = window(n)
            rows.append(f"{args.family},{n},{lo!r},{hi!r}")
    else:  # pair-angle, the last of the family choices
        if not args.angle:
            raise CliError(EXIT_PRECONDITION, "pair-angle needs --angle (e.g. 90deg)")
        rows.append("family,angle_radians,bound")
        for text in args.angle:
            phi = parse_angle(text)
            rows.append(f"pair-angle,{phi!r},{pair_same_purity_bound(phi)!r}")
    _write("\n".join(rows), args.out)
    print(f"bounds: {len(rows) - 1} row(s) for family {args.family}", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, exiting EXIT_USAGE on a usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser() -> tuple:
    """The top-level parser, and the subcommands' parsers by name."""
    parser = _Parser(
        prog="jmqubit",
        description="joint-measurability toolbox for binary qubit POVMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structure and minimal incompatible sets of a POVM set")
    p.add_argument("input", nargs="?", default="-", help="POVM-set JSON file or - for stdin")
    p.add_argument("--mode", choices=["closed-form", "oracle", "both"], default="closed-form")
    p.add_argument("--out")

    p = sub.add_parser("joint", help="construct an explicit joint POVM")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--constructor", choices=["chain", "oracle"], default="chain")
    p.add_argument("--out")

    p = sub.add_parser("realize", help="emit a certified realization")
    p.add_argument("--structure", required=True)
    p.add_argument(
        "--n",
        type=int,
        help="N for " + " and ".join(f"{k} (at most {v})" for k, v in REALIZE_N_CAP.items()),
    )
    p.add_argument("--eta", type=float)
    p.add_argument(
        "--variant",
        choices=["mixed-purity", "non-coplanar"],
        default="mixed-purity",
        help="recipe choice for four-vertex-6",
    )
    p.add_argument("--out")

    p = sub.add_parser("verify", help="re-derive a certificate's evidence")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--mode", choices=["closed-form", "oracle", "both"], default="closed-form")
    p.add_argument("--out")

    p = sub.add_parser("atlas", help="four-vertex manifest and certificates")
    p.add_argument("--out", help="directory for manifest.json and certificates")

    p = sub.add_parser("bounds", help="closed-form threshold tables (CSV)")
    p.add_argument("--family", required=True,
                   choices=["planar-symmetric", "n-cycle", "n-specker", "pair-angle"])
    p.add_argument("--n", help="N or range lo..hi")
    p.add_argument("--angle", action="append",
                   help="angle with deg/rad suffix (repeatable, pair-angle only)")
    p.add_argument("--out")
    for name, p in sub.choices.items():
        p.set_defaults(command=name)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as -1e-3, -inf or -30deg after --eta or
    # --angle for an option; joined to the flag it reaches the value checks.
    # A following --option is left to argparse, which reports the missing value
    for i in range(len(argv) - 2, 0, -1):
        if argv[i] in ("--eta", "--angle") and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    parser, subcommands = build_parser()
    sub = subcommands.get(argv[0]) if argv else None
    args = sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
