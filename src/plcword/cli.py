"""Command-line front end; every run emits one JSON document.

Exit status: 0 on success, 2 on validation errors (bad flags, malformed
input files), 1 on internal assertion failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain, repeat

from . import arithmetic, cf, classify, repetitions, tm, witness, words

SCHEMA_VERSION = 1


def _read(path: str) -> str:
    """The text of a UTF-8 file, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def digits_io(path: str, base: int) -> str:
    """Read a digit word from a file (or stdin for '-'), ignoring whitespace."""
    word = "".join(_read(path).split())
    words._require_digits(word, base)
    return word


def _cmd_gen(args) -> dict:
    morphism = words.parse_morphism(_read(args.morphism))
    word = words.fixed_point_prefix(morphism, args.start, args.length)
    return {"word": word}


def _cmd_detect(args) -> dict:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    word = digits_io(args.digits, args.p)
    if args.kind == "overlap":
        occs = repetitions.find_overlaps(word, args.limit)
        return {"overlaps": _Rows(repetitions._OVERLAP_KEYS, occs)}
    keys = ("pos", "period", "repeats", "frac_len")
    if args.kind == "complement":
        occs = repetitions.find_complement_squares(word, args.p, args.min_frac, args.limit)
        rows = [(pos, v, 1, f, True) for pos, v, f in occs]
        return {"occurrences": _Rows((*keys, "complement"), rows)}
    occs = repetitions.find_fractional_squares(word, args.min_frac, args.squares, args.limit)
    return {"occurrences": _Rows(keys, occs)}


def _certificate_rows(certs) -> _Rows:
    """The certificates as ``cert`` writes them, with one text of p**-s per
    distinct (p, s) of the list."""
    texts = {ps: witness._bound_text(*ps) for ps in {(c.p, c.s) for c in certs}}
    return _Rows(witness._CERT_KEYS, [c._row(texts[c.p, c.s]) for c in certs])


def _cmd_cert(args) -> dict:
    word = digits_io(args.digits, args.p)
    depth = args.depth if args.depth is not None else len(word)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > len(word):
        raise ValueError(f"word has only {len(word)} letters, asked for {depth}")
    certs = witness.scan_and_certify(word[:depth], args.p, args.target_s)
    return {"certificates": _certificate_rows(certs)}


def _cmd_verify(args) -> dict:
    if args.digits == args.cert == "-":
        raise ValueError("--digits and --cert cannot both read stdin ('-')")
    word = digits_io(args.digits, args.p)
    try:
        payload = json.loads(_read(args.cert))
    except RecursionError:
        raise ValueError("certificate file is nested too deeply") from None
    if isinstance(payload, dict) and "result" in payload:
        payload = payload["result"]  # a whole ``cert --out`` document
    if not isinstance(payload, dict):
        raise ValueError("certificate file must hold a JSON object")
    cert_list = payload["certificates"] if "certificates" in payload else [payload]
    if not isinstance(cert_list, list):
        raise ValueError("certificates must be a JSON list")
    results = []
    bounds = {}  # one gcd per distinct (p, period) of the list
    for data in cert_list:
        cert = witness.PlcCertificate.from_json(data, bounds)
        ok = witness.verify_certificate(word, cert, args.p)
        # from_json checked the bound against p**-s, with s worked out from the window
        results.append((ok, cert.window_len, data["bound"] if ok else None))
    keys = ("combinatorial_ok", "window_checked", "guaranteed_bound")
    if "certificates" in payload:
        return {"results": _Rows(keys, results)}
    return dict(zip(keys, results[0]))


def _cmd_bruteforce(args) -> dict:
    word = digits_io(args.digits, args.p)
    res = witness.brute_force_min(word, args.p, args.Q, args.K)
    return {
        "q": res.q,
        "k": res.k,
        "lo": arithmetic.format_rational(res.value_lo),
        "hi": arithmetic.format_rational(res.value_hi),
    }


def _cmd_cf(args) -> dict:
    return cf.cf_expand(arithmetic.parse_rational(args.x))._asdict()


def _cmd_orbit(args) -> dict:
    best = cf.orbit_max_quotient(arithmetic.parse_rational(args.x), args.p, args.K)
    return {
        "rows": _Rows(("k", "i", "a"), best.rows),
        "max": {"a": best.max_quotient, "k": best.k, "i": best.i},
    }


def _cmd_decompose(args) -> dict:
    word = digits_io(args.digits, 2)
    chain = tm.extract_tm_prefix(word)
    return {**chain._asdict(), "levels": _Rows(("u", "v"), chain.levels)}


def _cmd_tm(args) -> dict:
    constant = tm.tm_constant(args.a, args.b, args.n, args.L)
    checks = tm.tm_identity_suite(args.n, args.L)
    return {
        "constant": arithmetic.format_rational(constant),
        "identities": [c._asdict() for c in checks],
    }


def _cmd_classify(args) -> dict:
    morphism = words.parse_morphism(_read(args.morphism))
    result = classify.classify_binary(morphism, args.start, depth=args.depth)
    return result.to_json()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcword",
        description="Morphic words, repetition detection, and exact "
        "p-adic Littlewood approximation certificates.",
    )
    parser.add_argument("--seed", type=int, default=0, help="recorded in the output")
    parser.add_argument("--out", help="write the JSON document to this path")
    sub = parser.add_subparsers(dest="command", required=True)
    # detect, cert, verify and bruteforce read a digit word and its base
    digit_args = argparse.ArgumentParser(add_help=False)
    digit_args.add_argument("--digits", required=True)
    digit_args.add_argument("--p", type=int, default=2)
    digit_command = functools.partial(sub.add_parser, parents=[digit_args])

    p_gen = sub.add_parser("gen", help="prefix of a morphic fixed point")
    p_gen.add_argument("--morphism", required=True)
    p_gen.add_argument("--start", required=True)
    p_gen.add_argument("--length", type=int, required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_detect = digit_command("detect", help="repetition occurrences in a digit word")
    p_detect.add_argument("--kind", choices=["square", "complement", "overlap"], default="square")
    p_detect.add_argument("--squares", type=int, choices=[2, 3], default=3)
    p_detect.add_argument("--min-frac", type=int, default=1, dest="min_frac")
    p_detect.add_argument("--limit", type=int, default=None)
    p_detect.set_defaults(func=_cmd_detect)

    p_cert = digit_command("cert", help="scan a digit word and build certificates")
    p_cert.add_argument("--depth", type=int, default=None)
    p_cert.add_argument("--target-s", type=int, default=1, dest="target_s")
    p_cert.set_defaults(func=_cmd_cert)

    p_verify = digit_command("verify", help="check certificates against digits")
    p_verify.add_argument("--cert", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_brute = digit_command("bruteforce", help="interval-exact minimisation")
    p_brute.add_argument("--Q", type=int, required=True)
    p_brute.add_argument("--K", type=int, required=True)
    p_brute.set_defaults(func=_cmd_bruteforce)

    p_cf = sub.add_parser("cf", help="continued fraction of a rational")
    p_cf.add_argument("--x", required=True, help='rational as "num/den"')
    p_cf.set_defaults(func=_cmd_cf)

    p_orbit = sub.add_parser("orbit", help="partial quotients along p^k x")
    p_orbit.add_argument("--x", required=True)
    p_orbit.add_argument("--p", type=int, default=2)
    p_orbit.add_argument("--K", type=int, required=True)
    p_orbit.set_defaults(func=_cmd_orbit)

    p_dec = sub.add_parser("decompose", help="Thue-Morse factorisation chain")
    p_dec.add_argument("--digits", required=True)
    p_dec.set_defaults(func=_cmd_decompose)

    p_tm = sub.add_parser("tm", help="coded Thue-Morse constants and identities")
    p_tm.add_argument("--a", type=int, required=True)
    p_tm.add_argument("--b", type=int, required=True)
    p_tm.add_argument("--n", type=int, required=True)
    p_tm.add_argument("--L", type=int, required=True)
    p_tm.set_defaults(func=_cmd_tm)

    p_cls = sub.add_parser("classify", help="binary pure morphic classification")
    p_cls.add_argument("--morphism", required=True)
    p_cls.add_argument("--start", required=True)
    p_cls.add_argument("--depth", type=int, default=4096)
    p_cls.set_defaults(func=_cmd_classify)

    return parser


def _resolved_config(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


@functools.cache
def _encode(level: int):
    """``encode`` of a C-backed encoder (it needs indent None) whose item
    separator is a newline and ``level`` indents of two spaces."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


class _Rows:
    """A list of rows that share their str keys, declared by the command
    that builds it: ``keys`` in order, and ``rows`` an iterable of rows,
    each an iterable (a tuple, say) of exactly ``len(keys)`` values in key
    order.  It is written as ``json.dumps`` writes ``[dict(zip(keys, row))
    for row in rows]``, by ``_rows``.  It is neither a list nor a tuple, so
    no encoder can write it as an array by mistake.  ``_rows`` checks only
    that the values fill whole rows, so a row of another width would put
    values under the wrong keys; the tests check every producer's rows."""

    __slots__ = ("keys", "rows")

    def __init__(self, keys: tuple[str, ...], rows):
        self.keys = keys
        self.rows = rows


def _scalars(types: set) -> bool:
    """No dict, list, tuple or ``_Rows`` among the types, which
    ``set(map(type, values))`` reads in C."""
    return not any(issubclass(t, (dict, list, tuple, _Rows)) for t in types)


def _rows(obj: _Rows, level: int) -> str:
    """``_dumps`` of declared rows, with one call over all their values.

    The values are flattened in row order and must fill whole rows of
    ``len(keys)`` values (AssertionError otherwise); no rows write ``[]``.
    If every value is a plain int (not a bool), that call is one ``%``
    format of the row template repeated: ``%d`` writes an int as json does,
    and raises the same ValueError past the int-to-str digit limit.
    Otherwise every value, which must be a scalar (TypeError otherwise), is
    encoded at once with a newline as the item separator, so the text
    splits into one piece per value: no encoded scalar holds a raw newline
    (``ensure_ascii`` escapes it).  The pieces are then interleaved with the
    indented ``"key": `` heads.
    """
    keys = obj.keys
    values = tuple(chain.from_iterable(obj.rows))
    count, rest = divmod(len(values), len(keys))
    assert not rest, f"{len(values)} values do not fill rows of the {len(keys)} keys {keys}"
    if not count:
        return "[]"
    types = set(map(type, values))
    outer, inner, deeper = ("\n" + "  " * (level + d) for d in range(3))
    if types == {int}:
        fields = (_encode(0)(key).replace("%", "%%") + ": %d" for key in keys)
        row = "{" + deeper + ("," + deeper).join(fields) + inner + "}"
        return ("[" + inner + ("," + inner).join(repeat(row, count)) + outer + "]") % values
    if not _scalars(types):
        raise TypeError(f"row values must be scalars, got {sorted(t.__name__ for t in types)}")
    pieces = iter(json.JSONEncoder(separators=("\n", ": ")).encode(values)[1:-1].split("\n"))
    heads = ["," + deeper + _encode(0)(key) + ": " for key in keys]
    heads[0] = "," + inner + "{" + heads[0][1:]
    # zip(repeat(head_0), pieces, repeat(head_1), pieces, ..., repeat(close))
    # yields one row at a time
    columns = chain.from_iterable((repeat(head), pieces) for head in heads)
    text = chain.from_iterable(zip(*columns, repeat(inner + "}")))
    next(text)  # the first row's head, whose comma would follow no row
    return "".join(chain(["[" + heads[0][1:]], text, [outer + "]"]))


def _dumps(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, with the C encoder doing the work,
    where a ``_Rows`` is written as its list of dicts.

    Declared rows, such as certificates or ``orbit`` rows, are one encoder
    call over the flat tuple of all their values, or one ``%`` format if they
    are all ints (``_rows``).  A dict or list of scalars is one encoder call
    a level deeper, its brackets then moved onto their own lines.  Anything
    else recurses item by item, a plain list of dicts included.
    """
    if isinstance(obj, _Rows):
        return _rows(obj, level)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return _encode(0)(obj)
    outer, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    is_dict = isinstance(obj, dict)
    if _scalars(set(map(type, obj.values() if is_dict else obj))):
        text = _encode(level + 1)(obj)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        # the key as json writes it: a str, or an int, float, bool or None as text
        items = (_encode(0)({key: None})[1:-7] + ": " + _dumps(value, level + 1)
                 for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    return "[" + inner + ("," + inner).join(_dumps(v, level + 1) for v in obj) + outer + "]"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "p" in vars(args):  # before any input is read
            words._require_base(args.p)
        document = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "config": _resolved_config(args),
            "result": args.func(args),
        }
        # an int past the int-to-str digit limit fails here, as ValueError
        text = _dumps(document)
        if args.out:
            with open(args.out, "w", encoding="ascii") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
