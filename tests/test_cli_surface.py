"""The command-line surface, flag by flag: a flag that is dropped, renamed,
re-typed or moved fails here. Help texts are not pinned."""

import argparse

import pytest

from strikeaudit.cli import build_parser

S = argparse.SUPPRESS
POLICIES = ("as_no", "drop_row")
HELP = (("-h", "--help"), "help", None, None, False, S, None)
IO = [
    (("--input",), "input", None, None, True, None, None),
    (("--catalog",), "catalog", None, None, True, None, None),
    (("--out",), "out", None, None, False, "out", None),
]
# option strings, dest, type, choices, required, default, metavar
MISSING_POLICY = (("--missing-policy",), "missing_policy", None, POLICIES, False, S, None)
SEED = (("--seed",), "seed", "int", None, False, S, None)
TRAIN_FRACTION = (("--train-fraction",), "train_fraction", "float", None, False, S, None)
K_MAX = (("--k-max",), "k_max", "int", None, False, S, None)
FOLDS = (("--folds",), "folds", "int", None, False, S, None)
RIDGE = (("--ridge",), "ridge", "float", None, False, S, None)
BUDGET = (("--budget",), "node_budget", "int", None, False, S, "BUDGET")
MAX_DEPTH = (("--max-depth",), "max_depth", "int", None, False, S, None)
MIN_LEAF = (("--min-leaf",), "min_leaf", "int", None, False, S, None)
ALPHA_GRID = (("--alpha-grid",), "alpha_grid", "_floats", None, False, S, None)
ALPHA_LEVEL = (("--alpha-level",), "alpha_level", "float", None, False, S, None)
SEARCH = [MISSING_POLICY, SEED, TRAIN_FRACTION, K_MAX, FOLDS, RIDGE, BUDGET]

SURFACE = {
    "synth": [
        HELP,
        (("--config",), "config", None, None, True, None, None),
        (("--n",), "n", "int", None, False, None, None),
        (("--seed",), "seed", "int", None, False, 0, None),
        (("--out",), "out", None, None, True, None, None),
        (("--catalog-out",), "catalog_out", None, None, False, None, None),
    ],
    "ofs": [HELP, *IO, *SEARCH],
    "stepwise": [
        HELP, *IO, MISSING_POLICY,
        (("--thresholds",), "thresholds", "_floats", None, False, (0.1, 0.05), None),
    ],
    "tree": [
        HELP, *IO, MISSING_POLICY, SEED, TRAIN_FRACTION, MAX_DEPTH, MIN_LEAF, ALPHA_GRID, FOLDS,
    ],
    "disparity": [
        HELP, *IO, (("--tree",), "tree", None, None, True, None, None), ALPHA_LEVEL,
    ],
    "ablate": [HELP, *IO, *SEARCH],
    "audit": [
        HELP, *IO, *SEARCH, MAX_DEPTH, MIN_LEAF, ALPHA_GRID, ALPHA_LEVEL,
        (("--config",), "config", None, None, False, None, None),
    ],
    "report": [
        HELP,
        (("--report",), "report", None, None, True, None, None),
        (("--out",), "out", None, None, False, "out", None),
    ],
}


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def test_subcommands_in_order():
    assert list(_subcommands()) == list(SURFACE)


@pytest.mark.parametrize("command", SURFACE)
def test_flags_of_each_subcommand(command):
    got = [
        (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
         None if a.choices is None else tuple(a.choices), a.required, a.default, a.metavar)
        for a in _subcommands()[command]._actions
    ]
    assert got == SURFACE[command]
