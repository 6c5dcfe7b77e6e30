"""Command-line front end; every run emits one JSON document.

Exit status: 0 on success, 2 on validation errors (bad flags, malformed
input files), 1 on internal assertion failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import arithmetic, cf, classify, repetitions, tm, witness, words

SCHEMA_VERSION = 1


def digits_io(path: str, base: int) -> str:
    """Read a digit word from a file (or stdin for '-'), ignoring whitespace."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    word = "".join(text.split())
    words._require_digits(word, base)
    return word


def _read_morphism(path: str) -> words.Morphism:
    with open(path, "r", encoding="ascii") as handle:
        return words.parse_morphism(handle.read())


def _cmd_gen(args) -> dict:
    morphism = _read_morphism(args.morphism)
    word = words.fixed_point_prefix(morphism, args.start, args.length)
    return {"word": word}


def _cmd_detect(args) -> dict:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    word = digits_io(args.digits, args.p)
    if args.kind == "overlap":
        occs = repetitions.find_overlaps(word, args.limit)
        return {"overlaps": [o.to_json() for o in occs]}
    if args.kind == "complement":
        occs = repetitions.find_complement_squares(word, args.p, args.min_frac)
    else:
        occs = repetitions.find_fractional_squares(word, args.min_frac, args.squares)
    return {"occurrences": [o.to_json() for o in occs[: args.limit]]}


def _cmd_cert(args) -> dict:
    word = digits_io(args.digits, args.p)
    depth = args.depth if args.depth is not None else len(word)
    stream = words.LiteralStream(word)
    certs = witness.scan_and_certify(stream, args.p, depth, args.target_s)
    return {"certificates": [c.to_json() for c in certs]}


def _cmd_verify(args) -> dict:
    word = digits_io(args.digits, args.p)
    with open(args.cert, "r", encoding="ascii") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and "result" in payload:
        payload = payload["result"]  # a whole ``cert --out`` document
    if not isinstance(payload, dict):
        raise ValueError("certificate file must hold a JSON object")
    cert_list = payload["certificates"] if "certificates" in payload else [payload]
    if not isinstance(cert_list, list):
        raise ValueError("certificates must be a JSON list")
    results = []
    for data in cert_list:
        cert = witness.PlcCertificate.from_json(data)
        res = dataclasses.asdict(witness.verify_certificate(word, cert, args.p))
        if res["guaranteed_bound"] is not None:
            res["guaranteed_bound"] = arithmetic.format_rational(res["guaranteed_bound"])
        results.append(res)
    return {"results": results} if "certificates" in payload else results[0]


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
    expansion = cf.cf_expand(arithmetic.parse_rational(args.x))
    return {"a0": expansion.a0, "quotients": list(expansion.quotients)}


def _cmd_orbit(args) -> dict:
    best = cf.orbit_max_quotient(arithmetic.parse_rational(args.x), args.p, args.K)
    return {
        "rows": [{"k": k, "i": i, "a": a} for k, i, a in best.rows],
        "max": {"a": best.max_quotient, "k": best.k, "i": best.i},
    }


def _cmd_decompose(args) -> dict:
    word = digits_io(args.digits, 2)
    chain = tm.extract_tm_prefix(word)
    return {
        **dataclasses.asdict(chain),
        "levels": [{"u": u, "v": v} for u, v in chain.levels],
    }


def _cmd_tm(args) -> dict:
    constant = tm.tm_constant(args.a, args.b, args.n, args.L)
    checks = tm.tm_identity_suite(args.n, args.L)
    return {
        "constant": arithmetic.format_rational(constant),
        "identities": [dataclasses.asdict(c) for c in checks],
    }


def _cmd_classify(args) -> dict:
    morphism = _read_morphism(args.morphism)
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

    p_gen = sub.add_parser("gen", help="prefix of a morphic fixed point")
    p_gen.add_argument("--morphism", required=True)
    p_gen.add_argument("--start", required=True)
    p_gen.add_argument("--length", type=int, required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_detect = sub.add_parser("detect", help="repetition occurrences in a digit word")
    p_detect.add_argument("--digits", required=True)
    p_detect.add_argument("--p", type=int, default=2)
    p_detect.add_argument("--kind", choices=["square", "complement", "overlap"], default="square")
    p_detect.add_argument("--squares", type=int, choices=[2, 3], default=3)
    p_detect.add_argument("--min-frac", type=int, default=1, dest="min_frac")
    p_detect.add_argument("--limit", type=int, default=None)
    p_detect.set_defaults(func=_cmd_detect)

    p_cert = sub.add_parser("cert", help="scan a digit word and build certificates")
    p_cert.add_argument("--digits", required=True)
    p_cert.add_argument("--p", type=int, default=2)
    p_cert.add_argument("--depth", type=int, default=None)
    p_cert.add_argument("--target-s", type=int, default=1, dest="target_s")
    p_cert.set_defaults(func=_cmd_cert)

    p_verify = sub.add_parser("verify", help="check certificates against digits")
    p_verify.add_argument("--digits", required=True)
    p_verify.add_argument("--p", type=int, default=2)
    p_verify.add_argument("--cert", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_brute = sub.add_parser("bruteforce", help="interval-exact minimisation")
    p_brute.add_argument("--digits", required=True)
    p_brute.add_argument("--p", type=int, default=2)
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
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    base = getattr(args, "p", None)
    if base is not None and not 2 <= base <= 10:
        print(f"error: base {base} out of range (2..10)", file=sys.stderr)
        return 2
    try:
        result = args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    document = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "config": _resolved_config(args),
        "result": result,
    }
    text = json.dumps(document, indent=2)
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
