"""The package namespace is exactly the union of the modules' ``__all__``,
and every module uses what it imports."""

import ast
import types
from fractions import Fraction
from pathlib import Path

import pytest

import plcword
from plcword import arithmetic, cf, classify, repetitions, tm, witness, words

MODULES = (arithmetic, cf, classify, repetitions, tm, witness, words)


def test_all_lists_are_pairwise_disjoint():
    # a star import would let a later module shadow a duplicate silently
    owners: dict[str, str] = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_listed_names_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(plcword, name) is getattr(module, name), name


def test_no_other_public_names():
    listed = {name for module in MODULES for name in module.__all__}
    extra = {
        name
        for name, value in vars(plcword).items()
        if not name.startswith("_")
        and name not in listed
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"plcword.{name}")
    }
    assert extra == set()


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_every_import_is_used():
    # nothing else lints the package: an import that a deletion leaves
    # behind would otherwise stay
    unused = {}
    for path in Path(plcword.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale = imported_names(tree) - used
        if stale:
            unused[path.name] = stale
    assert unused == {}


RECORDS = [
    (
        repetitions.RepetitionOccurrence(3, "01", 2, 1),
        ("position", "period_word", "whole_repeats", "frac_len"),
    ),
    (repetitions.ComplementOccurrence(3, "01", 2), ("position", "period_word", "frac_len")),
    (repetitions.OverlapOccurrence(3, "0", "1"), ("position", "u", "x")),
    (
        witness.PlcCertificate(2, "gcd", 3, 3, "01", 2, 1, 1),
        ("p", "kind", "k", "q", "period", "repeats", "frac_len", "s"),
    ),
    (arithmetic.GcdBound(2, 1, 3, 2), ("m", "d", "q_max", "ell")),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable_and_hashable(record, fields):
    assert type(record)._fields == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert hash(record) == hash(type(record)(*record))


# The result records: each built from its required fields alone, with its
# fields in declaration order and the defaults of the rest.
RESULT_RECORDS = [
    (arithmetic.ComplementDivisibility, (15, 3, 5), ("value", "divisor", "quotient"), {}),
    (cf.ContinuedFraction, (1, (2, 2)), ("a0", "quotients"), {}),
    (cf.OrbitMaxResult, (2, 0, 1), ("max_quotient", "k", "i", "quotients"), {"quotients": ()}),
    (
        cf.SandwichResult,
        (2, Fraction(2, 5), Fraction(1, 4), Fraction(1, 2), True),
        ("sup_quotient", "min_quality", "lower", "upper", "holds"),
        {},
    ),
    (
        classify.Classification,
        ("P2",),
        ("tag", "matched", "depth_checked", "witness", "case_label", "confirmed_power",
         "overlap", "growing_letter"),
        dict.fromkeys(("matched", "depth_checked", "witness", "case_label", "confirmed_power",
                       "overlap", "growing_letter")),
    ),
    (tm.Decomposition, ("0", "01", "1"), ("u", "y", "v"), {}),
    (tm.OverlapFreePair, (True, True), ("y_free", "mu_y_free"), {}),
    (
        tm.DecompositionChain,
        ((("0", "1"),), "01", 1, 2, 1, "0", "M"),
        ("levels", "core", "depth", "tm_prefix_len", "offset", "letter", "target"),
        {},
    ),
    (tm.IdentityCheck, ("scaling", {"r": 1}, True), ("identity", "params", "ok"), {}),
    (
        witness.BruteForceResult,
        (3, 0, Fraction(0), Fraction(1, 2)),
        ("q", "k", "value_lo", "value_hi"),
        {},
    ),
]


@pytest.mark.parametrize(
    "cls, args, fields, defaults", RESULT_RECORDS, ids=[c.__name__ for c, *_ in RESULT_RECORDS]
)
def test_result_records_keep_their_fields_and_defaults(cls, args, fields, defaults):
    record = cls(*args)
    assert record._fields == fields
    assert cls._field_defaults == defaults
    assert [getattr(record, name) for name in fields] == [*args, *defaults.values()]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
