"""Batch command-line interface.

Subcommands mirror the library: form operations on Gram matrices or
diagonal entry lists, Hilbert symbols, and local/global degrees of
polynomial systems.  Exit codes: 0 success, 1 domain error (degenerate
form, non-isolated zeros, ...) or a stdout the reader closed, 2 parse
error.

`main` parses an argv that names a leaf (`form decompose`, `degree
local`, ...) with that leaf's parser alone.  No arguments, help at the
top or middle level, an unknown or missing command, and a leaf's argv
with unrecognized words go through the full parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import degrees, forms, witt
from .fields import (CC, QQ, RR, _CHAR_BITS_CAP, FieldDesc, gf_construct,
                     is_prime)
from .poly import _NAME, Ideal, ParseError, PolyRing, parse_polynomial

_FIELD_RE = re.compile(r"^(QQ|RR|CC)$|^GF\((\d+)\)$")
_SCALAR_RE = re.compile(r"^-?\d+(/\d+)?$")


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(q: int):
    """(p, k) with q = p^k and p prime, or None; no factoring needed.

    q's least root p, taken through prime exponents, decides: q is a prime
    power iff p is prime, so p alone gets a full test, once its size is
    checked.
    """
    p, k = q, 1
    for j in range(2, q.bit_length()):
        if not is_prime(j):
            continue
        r = _integer_root(p, j)
        while r ** j == p:
            p, k = r, k * j
            r = _integer_root(p, j)
    if p.bit_length() > _CHAR_BITS_CAP:
        raise ValueError(f"GF(q) is too large: its characteristic would have "
                         f"{p.bit_length()} bits, more than {_CHAR_BITS_CAP}")
    return (p, k) if is_prime(p) else None


@functools.lru_cache(maxsize=64)
def parse_field(text: str, modulus=None) -> FieldDesc:
    """The field text names; a GF(p^k) takes the given modulus, if any."""
    m = _FIELD_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad field spec {text!r}; expected QQ, RR, CC or GF(q)", 0)
    if m.group(1):
        return {"QQ": QQ, "RR": RR, "CC": CC}[m.group(1)]
    try:
        q = int(m.group(2))
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError("integer literal too long", 3) from None
    pk = _prime_power(q)
    if pk is None:
        raise ParseError(f"GF({q}): order must be a prime power", 3)
    return gf_construct(*pk, modulus)


def parse_scalar(text: str, position: int = 0) -> Fraction:
    text = text.strip()
    if not _SCALAR_RE.match(text):
        raise ParseError(f"bad entry {text!r}; integers and fractions a/b only",
                         position)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"bad entry {text!r}; zero denominator",
                         position) from None
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError("integer literal too long", position) from None


def parse_matrix(text: str) -> list[list[Fraction]]:
    """Rows in brackets, each a bracketed `parse_entries` list that ends at
    its first ']'; errors report a character offset into the stripped text.
    The rows are read and counted first, so a matrix of more than
    forms.MAX_MADE_RANK rows is refused before any entry is parsed."""
    s = text.strip()
    space = re.compile(r"\s*").match

    def expect(ch, pos):
        """The offset past ``ch``, which must come next but for whitespace."""
        pos = space(s, pos).end()
        if not s.startswith(ch, pos):
            raise ParseError(f"expected {ch!r}", pos)
        return pos + 1

    pos, rows = expect("[", 0), []
    try:
        while True:
            start = expect("[", pos)
            end = s.find("]", start)
            if end < 0:
                end = len(s)
            rows.append((start, end))
            pos = space(s, expect("]", end)).end()
            if not s.startswith(",", pos):
                break
            pos += 1
        pos = space(s, expect("]", pos)).end()
        if pos != len(s):
            raise ParseError("unexpected trailing input", pos)
    except ParseError:  # a bad entry read before it is reported first
        for start, end in rows:
            parse_entries(s[start:end], start)
        raise
    if len(rows) > forms.MAX_MADE_RANK:
        raise ValueError(f"matrix rank {len(rows)} exceeds "
                         f"{forms.MAX_MADE_RANK}")
    return [parse_entries(s[start:end], start) for start, end in rows]


def parse_entries(text: str, offset: int = 0) -> list[Fraction]:
    """Comma-separated scalars; errors report the entry's character offset,
    counted from ``offset``."""
    out, start = [], offset
    for part in text.split(","):
        out.append(parse_scalar(part, start + len(part) - len(part.lstrip())))
        start += len(part) + 1
    return out


def read_source(value: str) -> str:
    """'-' reads stdin and '@PATH' the file PATH, as UTF-8 text; anything
    else is the text itself, since no polynomial starts with '@'.  A bare
    '@' names no file; a source that cannot be read or decoded is named in
    the ValueError."""
    if value != "-" and not value.startswith("@"):
        return value
    if value == "@":
        raise ParseError("no file name after '@'", 1)
    name = "stdin" if value == "-" else value[1:]
    try:
        if value == "-":  # strict UTF-8 from the bytes, whatever the locale
            stdin = getattr(sys.stdin, "buffer", None)
            return stdin.read().decode("utf-8") if stdin else sys.stdin.read()
        with open(name, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {name}: not UTF-8 ({exc.reason} at "
                         f"byte {exc.start})") from None


def split_polys(text: str) -> list[str]:
    parts = [p.strip() for chunk in text.splitlines() for p in chunk.split(";")]
    return [p for p in parts if p]


# The most entries of a diagonal payload, `--diag` or a diagonal list of
# `form isomorphic`.  Its class is a dense Gram matrix, so the cost grows
# with the square of the count: on a 2-core Intel Xeon VM with Python 3.11
# the slowest subcommand, `form diagonalize --json`, took 0.49 s and a peak
# RSS of 62 MB at 512 entries, 1.2 s and 117 MB at 768, and 1.8 s and
# 198 MB at 1024.  It lies above forms.MAX_MADE_RANK, so a class with a Witt
# index past that bound can still be decomposed.
MAX_DIAG_ENTRIES = 512


def diagonal_class(text: str, field: FieldDesc,
                   cap: int = MAX_DIAG_ENTRIES) -> forms.GWClass:
    """The diagonal class of the entry list, refused past ``cap`` entries,
    counted by their commas before any is parsed: MAX_DIAG_ENTRIES for a
    payload that is classified, forms.MAX_MADE_RANK for `form make
    diagonal`."""
    count = text.count(",") + 1
    if count > cap:
        raise ValueError(f"diagonal rank {count} exceeds {cap}")
    return forms.make_diagonal_form(field, parse_entries(text))


def matrix_class(text: str, field: FieldDesc) -> forms.GWClass:
    """The class of the Gram matrix text, refused past forms.MAX_MADE_RANK
    rows by `parse_matrix`.  A dense matrix costs far more to classify
    than a diagonal: on a 2-core Intel Xeon VM, `form invariants` of a
    random symmetric QQ matrix with entries in +-9 took 6.6 s of CPU at 256
    rows and 167 s at 512, to exit 1 on a square class too large to
    factor."""
    return forms.make_gw_class(parse_matrix(text), field)


def payload_class(args) -> forms.GWClass:
    field = parse_field(args.field)
    given = [p for p in (args.matrix, args.diag) if p is not None]
    if len(given) != 1:
        raise ParseError("provide exactly one of --matrix or --diag", 0)
    if args.matrix is not None:
        return matrix_class(args.matrix, field)
    return diagonal_class(args.diag, field)


def class_from_text(text: str, field: FieldDesc) -> forms.GWClass:
    text = text.strip()
    if text.startswith("["):
        return matrix_class(text, field)
    return diagonal_class(text, field)


# ---------------------------------------------------------------------------
# JSON encoding.


def field_to_json(field: FieldDesc) -> dict:
    out = {"name": str(field)}
    if field.kind == "GF":
        out["modulus"] = list(field.modulus)
    return out


def field_from_json(obj: dict) -> FieldDesc:
    modulus = obj.get("modulus")
    return parse_field(obj["name"], None if modulus is None else tuple(modulus))


def gwclass_to_json(beta: forms.GWClass, extra: dict | None = None) -> dict:
    out = {
        "field": field_to_json(beta.field),
        "gram": [[str(c) for c in row] for row in beta.gram],
        "rank": beta.rank,
    }
    inv = forms.get_invariants(beta)
    if inv.signature is not None:
        out["signature"] = inv.signature
    if beta.rank:
        out["discriminant"] = str(inv.discriminant)
    if inv.hasse_witt is not None:
        out["hasse_witt"] = {str(p): v for p, v in sorted(inv.hasse_witt.items())}
    if extra:
        out.update(extra)
    return out


def gwclass_from_json(obj: dict) -> forms.GWClass:
    field = field_from_json(obj["field"])
    rows = [[_entry_from_str(s, field) for s in row] for row in obj["gram"]]
    return forms.make_gw_class(rows, field)


def _entry_from_str(s: str, field: FieldDesc):
    if field.kind != "GF":
        return parse_scalar(s)
    # Entries render as polynomials in t of degree < k over GF(p).
    residue = parse_polynomial(PolyRing(field, ("t",)), s)
    if residue.total_degree() >= field.degree:
        raise ParseError(f"{field} entry {s!r} has degree >= {field.degree}", 0)
    coeffs = [0] * field.degree
    for (i,), c in residue.terms.items():
        coeffs[i] = c.value
    return field.coerce(tuple(coeffs))


def emit(args, pretty_lines, json_obj):
    """Print one format: call json_obj() under --json, else pretty_lines()."""
    if args.json:
        print(json.dumps(json_obj(), indent=2))
    else:
        for line in pretty_lines():
            print(line)


# ---------------------------------------------------------------------------
# Subcommand handlers.


def cmd_form_diagonalize(args):
    beta = payload_class(args)
    diag = forms.make_diagonal_form(beta.field, beta.diagonal_entries())
    # The diagonal has beta's pivots, so beta's record is its record too.
    emit(args, lambda: [str(diag)], lambda: gwclass_to_json(
        beta, {"gram": [[str(c) for c in row] for row in diag.gram]}))


def cmd_form_invariants(args):
    beta = payload_class(args)

    def lines():
        inv = forms.get_invariants(beta)
        yield f"rank: {inv.rank}"
        if inv.signature is not None:
            yield f"signature: {inv.signature}"
        yield f"discriminant: {inv.discriminant}"
        if inv.hasse_witt is not None:
            hw = ", ".join(f"{p}: {v}" for p, v in sorted(inv.hasse_witt.items()))
            yield f"hasse_witt: {{{hw}}}"
    emit(args, lines, lambda: gwclass_to_json(beta))


def cmd_form_decompose(args):
    beta = payload_class(args)
    report = witt.sum_decomposition(beta)
    emit(args, lambda: [report.display], lambda: gwclass_to_json(beta, {
        "witt_index": report.witt_index,
        "decomposition": report.display,
        # beta is nondegenerate: isotropic exactly when H splits off
        "isotropic": report.witt_index > 0,
        "anisotropic_part": [[str(c) for c in row]
                             for row in report.anisotropic_part.gram],
    }))


def cmd_form_anisotropic_part(args):
    part = witt.anisotropic_part(payload_class(args))
    emit(args, lambda: [str(part)], lambda: gwclass_to_json(part))


def cmd_form_isomorphic(args):
    field = parse_field(args.field)
    b1 = class_from_text(args.first, field)
    b2 = class_from_text(args.second, field)
    result = forms.is_isomorphic_form(b1, b2)
    emit(args, lambda: [str(result).lower()], lambda: {"isomorphic": result})


def cmd_form_make(args):
    field = parse_field(args.field)
    if args.kind == "diagonal":
        if args.entries is None:
            raise ParseError("make diagonal requires --entries", 0)
        beta = diagonal_class(args.entries, field, forms.MAX_MADE_RANK)
    elif args.kind == "hyperbolic":
        if args.rank is None:
            raise ParseError("make hyperbolic requires --rank", 0)
        beta = forms.make_hyperbolic_form(field, args.rank)
    else:
        if args.entries is None:
            raise ParseError("make pfister requires --entries", 0)
        beta = forms.make_pfister_form(field, parse_entries(args.entries))
    emit(args, lambda: [str(beta)], lambda: gwclass_to_json(beta))


def cmd_symbol_hilbert(args):
    a = parse_scalar(args.a)
    b = parse_scalar(args.b)
    value = forms.hilbert_symbol(a, b, args.p)
    emit(args, lambda: [str(value)],
         lambda: {"a": str(a), "b": str(b), "p": args.p, "symbol": value})


def _system_from_args(args):
    field = parse_field(args.field)
    if field.kind in ("RR", "CC"):
        raise ValueError(
            "degrees over RR/CC must be computed over QQ and base-changed; "
            "use --field QQ with --base-change " + field.kind)
    names, start = [], 0
    for part in args.vars.split(","):
        name, at = part.strip(), start + len(part) - len(part.lstrip())
        if name:
            if not _NAME.fullmatch(name):  # no polynomial can name it
                raise ParseError(f"bad variable name {name!r}", at)
            if name in names:
                raise ParseError(f"repeated variable name {name!r}", at)
            names.append(name)
        start += len(part) + 1
    if not names:
        raise ParseError("no variable names", 0)
    ring = PolyRing(field, tuple(names))
    polys = split_polys(read_source(args.polys))
    return ring, degrees.EndoSystem.of(ring, *polys)


def _point_ideal(ring, args):
    gens = split_polys(read_source(args.ideal))
    return Ideal.of(ring, *gens)


def _emit_degree(args, beta):
    if args.base_change:
        beta = forms.base_change(beta, parse_field(args.base_change))
    emit(args, lambda: [str(beta), f"rank: {beta.rank}"],
         lambda: gwclass_to_json(beta))


def cmd_degree_global(args):
    _, system = _system_from_args(args)
    _emit_degree(args, degrees.global_a1_degree(system))


def cmd_degree_local(args):
    ring, system = _system_from_args(args)
    point = _point_ideal(ring, args)
    _emit_degree(args, degrees.local_a1_degree(system, point))


def cmd_basis_local(args):
    ring, system = _system_from_args(args)
    point = _point_ideal(ring, args)
    basis = degrees.local_algebra_basis(system, point)
    mons = [str(m) for m in basis.basis]
    emit(args, lambda: mons, lambda: {"basis": mons, "size": len(mons)})


# ---------------------------------------------------------------------------


def _add_payload(parser):
    parser.add_argument("--field", required=True,
                        help="QQ, RR, CC or GF(q) with q an odd prime power")
    parser.add_argument("--matrix", help='Gram matrix, e.g. "[[1,3],[3,7]]"')
    parser.add_argument("--diag", help='diagonal entries, e.g. "3,-3,2,5"')
    parser.add_argument("--json", action="store_true")


def _add_system(parser, with_ideal):
    parser.add_argument("--field", required=True)
    parser.add_argument("--vars", required=True,
                        help="comma-separated variable names (fixes the "
                             "grevlex order)")
    parser.add_argument("--polys", required=True,
                        help="inline polynomials separated by ';', "
                             "'@PATH' for a file, or '-' for stdin; "
                             "coefficients are integer literals, so over "
                             "GF(p^k) they lie in GF(p) (no 't')")
    if with_ideal:
        parser.add_argument("--ideal", required=True,
                            help="generators of the point's maximal ideal")
    parser.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="a1deg",
        description="Exact A1-Brouwer degrees and symmetric bilinear forms.")
    sub = top.add_subparsers(dest="command", required=True)

    form = sub.add_parser("form", help="operations on Gram matrices")
    fsub = form.add_subparsers(dest="subcommand", required=True)
    for name, handler in [("diagonalize", cmd_form_diagonalize),
                          ("invariants", cmd_form_invariants),
                          ("decompose", cmd_form_decompose),
                          ("anisotropic-part", cmd_form_anisotropic_part)]:
        p = fsub.add_parser(name)
        _add_payload(p)
        p.set_defaults(handler=handler)
    p = fsub.add_parser("isomorphic")
    p.add_argument("--field", required=True)
    p.add_argument("first", help="Gram matrix or diagonal entry list")
    p.add_argument("second")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_form_isomorphic)
    p = fsub.add_parser("make")
    p.add_argument("kind", choices=["diagonal", "hyperbolic", "pfister"])
    p.add_argument("--field", required=True)
    p.add_argument("--entries")
    p.add_argument("--rank", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_form_make)

    symbol = sub.add_parser("symbol", help="Hilbert symbols")
    ssub = symbol.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("hilbert")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("p", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_symbol_hilbert)

    degree = sub.add_parser("degree", help="A1-Brouwer degrees")
    dsub = degree.add_subparsers(dest="subcommand", required=True)
    for name, handler in [("global", cmd_degree_global),
                          ("local", cmd_degree_local)]:
        p = dsub.add_parser(name)
        _add_system(p, with_ideal=name == "local")
        p.add_argument("--base-change", choices=["RR", "CC"],
                       dest="base_change")
        p.set_defaults(handler=handler)

    basis = sub.add_parser("basis", help="local algebra bases")
    bsub = basis.add_subparsers(dest="subcommand", required=True)
    p = bsub.add_parser("local")
    _add_system(p, with_ideal=True)
    p.set_defaults(handler=cmd_basis_local)
    # Each leaf parser by its two command words, for main's dispatch.
    top.leaves = {(command, name): leaf
                  for command, action in [("form", fsub), ("symbol", ssub),
                                          ("degree", dsub), ("basis", bsub)]
                  for name, leaf in action.choices.items()}
    return top


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one query; repeated calls in a process share one parser.

    An argv that starts with a leaf's two command words is parsed by that
    leaf's parser alone, so the two upper levels do not scan it again.
    Any other argv, and a leaf's argv with words the leaf does not know,
    goes through the full parser, so usage, help and errors come from the
    same parser objects either way.
    """
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else argv
    leaf = parser.leaves.get(tuple(argv[:2]))
    args, unknown = leaf.parse_known_args(argv[2:]) if leaf else (None, True)
    if unknown:
        args = parser.parse_args(argv)
    try:
        args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): the query ends with exit 1
        # and no traceback.  fd 1 goes to devnull, so that the interpreter's
        # exit flush of what is left in the buffer cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
