"""Every numeric and name argument of every ``repro`` verb, generated from
the parser.

Each float gets ``nan``, ``inf``, ``-inf``, ``-1`` and ``0``; each int
gets ``-1`` and ``0``.  A value must either run the verb to strict JSON
(no ``NaN`` or ``Infinity``) or exit 2 with nothing on stdout and a
message naming the flag or its dest, never a traceback.  Each argument
that accepts only known names (a model, an arrival process, a trace, a
scaler or cache policy, an exporter) gets an unknown name, and must exit
2 with one error line that names the flag and lists the known names
comma-joined.  Flags added later are covered without editing this file;
only a new verb needs base arguments in :data:`BASE`.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, Iterable

import pytest

from repro.cli import build_parser, main

VALUES = {"float": ("nan", "inf", "-inf", "-1", "0"), "int": ("-1", "0")}

#: The name every name argument is given: no registry or table holds it.
UNKNOWN = "no-such-name"

#: The ``repro bench`` sweep of the cases, and of the baseline they
#: ``--compare`` against (so every delta is 0 and the gate stays open).
BENCH_SWEEP = [
    "--quick", "--backend", "cpu", "--batch", "1", "--max-rows", "64",
    "--no-cluster", "--no-autoscale", "--no-sharding", "--no-tiering",
    "--no-telemetry",
]

#: Small, fast arguments per verb: (positionals by dest, options).
#: ``{tmp}`` stands for the case's temporary directory and ``{baseline}``
#: for the bench baseline.
BASE: dict[str, tuple[dict[str, str], list[str]]] = {
    "plan": ({"model": "small"}, ["--max-rows", "256"]),
    "infer": ({"model": "small"}, ["--max-rows", "64", "--batch", "2"]),
    "fleet": ({"model": "small", "qps": "100000"}, ["--max-rows", "64"]),
    "serve": (
        {"model": "small"},
        ["--max-rows", "64", "--backend", "cpu", "--process", "poisson",
         "--utilisation", "0.5", "--duration-s", "0.01"],
    ),
    "cluster": (
        {"model": "small"},
        ["--max-rows", "64", "--tier", "cpu", "--duration-s", "0.01"],
    ),
    "plan-shards": (
        {"model": "small"},
        ["--max-rows", "64", "--tier", "cpu:2", "--duration-s", "0.01"],
    ),
    "autoscale": (
        {"model": "small"},
        ["--max-rows", "64", "--backend", "cpu", "--policy", "static",
         "--windows", "2", "--interval-s", "0.01"],
    ),
    "tiers": (
        {"model": "small"},
        ["--max-rows", "64", "--utilisation", "0.5", "--duration-s", "0.01",
         "--warm-accesses", "256", "--sim-queries", "64"],
    ),
    "stats": (
        {"model": "small"},
        ["--max-rows", "64", "--duration-s", "0.01", "--spans"],
    ),
    "bench": (
        {},
        [*BENCH_SWEEP, "--output", "{tmp}/BENCH_flags.json",
         "--compare", "{baseline}"],
    ),
}


@pytest.fixture(scope="module")
def bench_baseline(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("bench") / "BENCH_base.json")
    assert main(["bench", *BENCH_SWEEP, "--output", path]) == 0
    return path


def _kind(action: argparse.Action) -> str | None:
    """``"int"`` or ``"float"`` when the argument parses "1" as one."""
    if action.type is None:
        return None
    try:
        value = action.type("1")
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None  # a name, not a number
    return type(value).__name__ if type(value) in (int, float) else None


def _takes_names(action: argparse.Action) -> bool:
    """Whether the argument accepts only known names."""
    if action.type is None:
        return False
    try:
        action.type(UNKNOWN)
    except argparse.ArgumentTypeError as exc:
        return str(exc).startswith("unknown ")
    except (TypeError, ValueError):
        pass
    return False


def _cases(values_of: Callable[[argparse.Action], Iterable[str]]) -> list:
    """One case per verb, argument and value in ``values_of(action)``."""
    parser = build_parser()
    (verbs,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    cases = []
    for verb, verb_parser in verbs.choices.items():
        for action in verb_parser._actions:
            flag = action.option_strings[0] if action.option_strings else None
            for value in values_of(action):
                cases.append(
                    pytest.param(
                        verb, flag, action.dest, value,
                        id=f"{verb} {flag}={value}" if flag
                        else f"{verb} {action.dest}={value}",
                    )
                )
    return cases


def _numeric_cases() -> list:
    return _cases(lambda action: VALUES.get(_kind(action), ()))


def _name_cases() -> list:
    return _cases(lambda action: (UNKNOWN,) if _takes_names(action) else ())


def _reject(constant: str):
    raise ValueError(f"non-JSON constant {constant} on stdout")


def _run(capsys, tmp_path, bench_baseline, verb, flag, dest, value):
    """``repro <verb> --json`` on its base arguments with one argument
    set to ``value``: (exit code, stdout, stderr)."""
    assert verb in BASE, f"add small base arguments for `repro {verb}`"
    positionals, options = BASE[verb]
    positionals = dict(positionals)
    options = [
        option.format(tmp=tmp_path, baseline=bench_baseline)
        for option in options
    ]
    if flag is None:
        positionals[dest] = value
    else:
        # `--flag=value`: spaced, argparse would take `-inf` for an option.
        options.append(f"{flag}={value}")
    argv = [verb, *options, "--json"]
    if positionals:
        argv += ["--", *positionals.values()]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(("verb", "flag", "dest", "value"), _numeric_cases())
def test_numeric_argument_fails_only_at_the_boundary(
    capsys, tmp_path, bench_baseline, verb, flag, dest, value
):
    code, out, err = _run(
        capsys, tmp_path, bench_baseline, verb, flag, dest, value
    )
    if code == 0:
        json.loads(out, parse_constant=_reject)
        return
    assert code == 2, f"repro {verb} {flag or dest}={value} exited {code}: {err}"
    assert out == ""
    assert "Traceback" not in err
    assert (flag is not None and flag in err) or dest in err, err


def test_the_walk_sees_every_verb_with_numbers():
    verbs = {case.values[0] for case in _numeric_cases()}
    assert verbs == set(BASE)


@pytest.mark.parametrize(("verb", "flag", "dest", "value"), _name_cases())
def test_unknown_name_lists_the_known_ones(
    capsys, tmp_path, bench_baseline, verb, flag, dest, value
):
    code, out, err = _run(
        capsys, tmp_path, bench_baseline, verb, flag, dest, value
    )
    assert code == 2, f"repro {verb} {flag or dest}={value} exited {code}: {err}"
    assert out == ""
    assert "Traceback" not in err
    line = err.splitlines()[-1]
    assert f"argument {flag or dest}: unknown " in line, line
    listing = line.partition(f"{value!r}; available: ")[2]
    # Comma-joined names, not a Python list repr.
    assert listing and "[" not in listing and "'" not in listing, line
    assert all(listing.split(", ")), line


def test_the_walk_sees_every_name_argument():
    arguments = {
        (verb, flag or dest)
        for verb, flag, dest, _ in (case.values for case in _name_cases())
    }
    assert {
        ("plan", "model"),
        ("serve", "--process"),
        ("autoscale", "--trace"),
        ("autoscale", "--policy"),
        ("tiers", "--policy"),
        ("stats", "--exporter"),
    } <= arguments


@pytest.mark.parametrize("verb", ["cluster", "plan-shards", "stats"])
def test_unknown_tier_model_names_the_flag(capsys, verb):
    # A --tier's MODEL is checked after parsing, so the walk above
    # never reaches it.
    positionals, options = BASE[verb]
    text = f"cpu:1:{UNKNOWN}"
    code = main(
        [verb, *options, f"--tier={text}", "--json", "--",
         *positionals.values()]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"bad --tier {text!r}; unknown model {UNKNOWN!r}; "
        "available: small, large, dlrm-rmc2"
    ]
