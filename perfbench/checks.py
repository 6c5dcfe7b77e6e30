"""Output checks that do not import plcword.

Each ``check_*`` function takes the parsed JSON document that one
``plcword`` CLI job wrote, re-derives what the document claims from the
job's inputs with plain integer arithmetic and string operations, and
returns the number of work units the job did (digits certified,
occurrences written, candidates scanned, ...).  A claim that does not hold
raises ``CheckFailed``.

The reference helpers here (Thue-Morse digits by popcount parity, fixed
points by plain string iteration, distance-to-integer enclosures) are also
what the input generator uses, so inputs never depend on the code under
test either.
"""

from __future__ import annotations

from fractions import Fraction

MU_IMAGES = {"0": "01", "1": "10"}

# Plain iteration is quadratic on slowly growing words; every witness the
# classifier reports for the census lies far inside these limits.
_MAX_ITERATIONS = 4096
_MAX_LETTERS = 1 << 20


class CheckFailed(Exception):
    """A job's output does not hold up against the independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tm_word(n: int, start: str = "0") -> str:
    """First n letters of the Thue-Morse word (start '0') or its complement."""
    flip = int(start)
    return "".join(str((bin(i).count("1") + flip) & 1) for i in range(n))


def apply_images(images: dict[str, str], word: str) -> str:
    return "".join(images[ch] for ch in word)


def fixed_point(images: dict[str, str], start: str, n: int) -> str:
    """First n letters of the word obtained by iterating the morphism on
    ``start``; a word that stops growing is repeated periodically."""
    word = start
    for _ in range(_MAX_ITERATIONS):
        if len(word) >= n:
            return word[:n]
        grown = apply_images(images, word)
        if len(grown) == len(word):
            return (word * (n // len(word) + 1))[:n]
        word = grown
    raise CheckFailed(f"fixed point did not reach {n} letters")


def _grows(images: dict[str, str], letter: str) -> bool:
    """Whether |phi^n(letter)| keeps increasing, from letter counts alone."""
    counts = {a: int(a == letter) for a in images}

    def step(c):
        out = dict.fromkeys(images, 0)
        for a, k in c.items():
            for ch in images[a]:
                out[ch] += k
        return out

    for _ in range(8):
        counts = step(counts)
    early = sum(counts.values())
    for _ in range(8):
        counts = step(counts)
    return sum(counts.values()) > early


def complement(word: str, p: int) -> str:
    return "".join(str(p - 1 - int(ch)) for ch in word)


def _dist_num(a: int, den: int) -> int:
    """den * ||a / den||."""
    r = a % den
    return min(r, den - r)


def dist_enclosure(a: int, b: int, den: int) -> tuple[Fraction, Fraction]:
    """Exact minimum and maximum of ||y|| over y in [a/den, b/den], a <= b."""
    ends = (_dist_num(a, den), _dist_num(b, den))
    has_integer = b // den >= -(-a // den)
    lo = Fraction(0) if has_integer else Fraction(min(ends), den)
    # y = j/2 for odd j  <=>  j * den in [2a, 2b]
    first, last = -(-2 * a // den), 2 * b // den
    has_half = last >= first and (first % 2 == 1 or last > first)
    hi = Fraction(1, 2) if has_half else Fraction(max(ends), den)
    return lo, hi


def rational_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cf_value(quotients: list[int]) -> Fraction:
    acc = Fraction(0)
    for a in reversed(quotients):
        require(isinstance(a, int) and a >= 1, f"partial quotient {a!r} is not positive")
        acc = 1 / (a + acc)
    return acc


def _canonical(quotients: list[int]) -> None:
    require(not quotients or quotients[-1] >= 2, "last partial quotient is 1")


def result_of(doc: dict, command: str):
    require(doc.get("schema") == 1, "unexpected schema")
    require(doc.get("command") == command, f"document is not a {command} result")
    return doc["result"]


def check_detect(doc: dict, word: str, p: int, kind: str) -> int:
    occs = result_of(doc, "detect")["occurrences"]
    for occ in occs:
        pos, v, f = occ["pos"], occ["period"], occ["frac_len"]
        m = len(v)
        require(m >= 1 and f >= 1 and pos >= 0, f"malformed occurrence {occ}")
        if kind == "complement":
            require(occ.get("complement") is True and occ["repeats"] == 1 and f <= m,
                    f"malformed complement occurrence {occ}")
            pattern = v + complement(v, p) + v[:f]
        else:
            require(occ["repeats"] >= 2 and f < m, f"malformed square occurrence {occ}")
            pattern = v * occ["repeats"] + v[:f]
        require(word[pos : pos + len(pattern)] == pattern, f"occurrence {occ} not in word")
    return len(occs)


def check_cert_item(cert: dict, word: str, p: int, target_s: int) -> None:
    """The bound must hold for every continuation of the certified window.

    With the window w read at k and x' = {p^k x} in [A/p^|w|, (A+1)/p^|w|],
    q * ||q p^k x|| = q * ||q x'||, whose exact maximum over that interval
    must stay below p^-s.
    """
    k, q, s, v = cert["k"], cert["q"], cert["s"], cert["period"]
    repeats, f = cert["repeats"], cert["frac_len"]
    require(cert["p"] == p and cert["kind"] in ("gcd", "square3"), f"bad kind/base {cert}")
    require(k >= 0 and q >= 1 and v and repeats >= 1 and 0 <= f < len(v), f"malformed {cert}")
    require(s >= target_s, f"certificate below target: {cert}")
    require(cert["bound"] == rational_text(Fraction(1, p**s)), f"bound is not p^-s: {cert}")
    require(cert["vacuous"] is False, f"vacuous flag wrong: {cert}")
    window = v * repeats + v[:f]
    require(word[k : k + len(window)] == window, f"window not in word: {cert}")
    den = p ** len(window)
    a = q * int(window, p)
    _, hi = dist_enclosure(a, a + q, den)
    require(q * hi * p**s < 1, f"bound fails on some continuation: {cert}")


def check_cert(doc: dict, word: str, p: int, target_s: int) -> int:
    for cert in result_of(doc, "cert")["certificates"]:
        check_cert_item(cert, word, p, target_s)
    return len(word)


def check_verify(doc: dict, cert_list: dict) -> int:
    certs = cert_list["certificates"]
    results = result_of(doc, "verify")["results"]
    require(len(results) == len(certs), "verify skipped certificates")
    for res, cert in zip(results, certs):
        require(res["combinatorial_ok"] is True, f"verify rejected {cert}")
        require(res["guaranteed_bound"] == cert["bound"], f"verify changed the bound of {cert}")
    return len(certs)


def check_bruteforce(doc: dict, word: str, p: int, max_q: int, max_k: int) -> int:
    res = result_of(doc, "bruteforce")
    q, k = res["q"], res["k"]
    require(1 <= q <= max_q and 0 <= k <= max_k, f"pair out of range {res}")
    value = int(word, p)
    scale = q * p**k
    lo, hi = dist_enclosure(scale * value, scale * (value + 1), p ** len(word))
    require(res["lo"] == rational_text(q * lo) and res["hi"] == rational_text(q * hi),
            f"enclosure mismatch at q={q}, k={k}: {res}")
    return max_q * (max_k + 1)


def check_cf(doc: dict, x: Fraction) -> int:
    res = result_of(doc, "cf")
    _canonical(res["quotients"])
    require(res["a0"] + _cf_value(res["quotients"]) == x, "quotients do not rebuild x")
    return 1


def check_orbit(doc: dict, x: Fraction, p: int, max_k: int) -> int:
    res = result_of(doc, "orbit")
    rows = res["rows"]
    best = None
    for k in range(max_k + 1):
        quotients = [r["a"] for r in rows if r["k"] == k]
        require([r["i"] for r in rows if r["k"] == k] == list(range(1, len(quotients) + 1)),
                f"row indices out of order at k={k}")
        _canonical(quotients)
        y = x * p**k
        require(_cf_value(quotients) == y - y.numerator // y.denominator,
                f"quotients do not rebuild p^{k} x")
        for i, a in enumerate(quotients, start=1):
            if best is None or a > best[0]:
                best = (a, k, i)
    require(len(rows) == sum(1 for r in rows if 0 <= r["k"] <= max_k), "row k out of range")
    expected = dict(zip(("a", "k", "i"), best or (None, None, None)))
    require(res["max"] == expected, f"max {res['max']} != {expected}")
    return 1


def check_tm(doc: dict, a: int, b: int, n: int, length: int) -> int:
    res = result_of(doc, "tm")
    value = int("".join(str(b if ch == "1" else a) for ch in tm_word(length)), n)
    require(res["constant"] == rational_text(Fraction(value, n**length)), "constant mismatch")
    identities = res["identities"]
    require(len(identities) == n + 1 + n * (n + 1) // 2, "identity count mismatch")
    require(all(c["ok"] is True for c in identities), "an identity failed")
    return 1


def check_classify(doc: dict, images: dict[str, str], start: str, depth: int) -> int:
    res = result_of(doc, "classify")
    tag = res["tag"]
    if tag == "P1":
        letter = {"M": "0", "M~": "1"}.get(res.get("matched"))
        require(letter is not None and res.get("depth_checked") == depth, f"bad P1 {res}")
        require(fixed_point(images, start, depth) == tm_word(depth, letter),
                "P1 word is not Thue-Morse")
    elif tag == "P2":
        witness, power = res["witness"], res["confirmed_power"]
        require(witness and power >= 3, f"bad P2 {res}")
        target = witness * power
        size = 64 + 4 * len(target)
        while fixed_point(images, start, size).find(target) < 0:
            require(size < _MAX_LETTERS, f"P2 witness power {target!r} not found")
            size *= 2
    elif tag == "P3":
        ov = res["overlap"]
        u, x, pos = ov["u"], ov["x"], ov["pos"]
        pattern = u + x + u + x + u
        require(len(u) == 1 and res.get("growing_letter") == u, f"bad P3 {res}")
        prefix = fixed_point(images, start, pos + len(pattern))
        require(prefix[pos:] == pattern, f"P3 overlap not at {pos}")
        require(_grows(images, u), f"overlap letter {u!r} does not grow")
    else:
        raise CheckFailed(f"unresolved classification {res}")
    return 1


def check_decompose(doc: dict, word: str) -> int:
    res = result_of(doc, "decompose")
    rebuilt = res["core"]
    for level in reversed(res["levels"]):
        u, v = level["u"], level["v"]
        require(len(u) <= 2 and len(v) <= 2, "level border longer than 2")
        rebuilt = u + apply_images(MU_IMAGES, rebuilt) + v
    require(rebuilt == word, "chain does not reassemble the word")
    depth, length, offset = res["depth"], res["tm_prefix_len"], res["offset"]
    require(depth == len(res["levels"]) and length == 2**depth, "depth mismatch")
    require(8 * length >= len(word) + 4, "Thue-Morse prefix shorter than (n+4)/8")
    require(offset == sum(len(lv["u"]) << i for i, lv in enumerate(res["levels"])),
            "offset mismatch")
    letter = res["letter"]
    require(letter == res["core"][:1] and res["target"] == {"0": "M", "1": "M~"}[letter],
            "letter mismatch")
    require(word[offset : offset + length] == tm_word(length, letter),
            "window is not a Thue-Morse prefix")
    return len(word)
