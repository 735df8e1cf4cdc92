"""Mutation fuzzing of the CLI's four inputs: a params document, a v4 manifest, a scenario
document and argv.

Each example starts from a valid input (k=3 over GF(2^8)), mutates it once or twice and runs
`mscr.cli.main` in-process.  A mutation replaces a leaf by null, a bool, a huge or negative
int, a float, an odd hex string or a list; deletes a key or a list item; or adds a list item.
Whatever the input, the exit code is 0, 1 or 2 and no exception escapes; exit 1 prints one
`error:` line (or the violations or failed steps it found); and a refused command writes no
output.  Sizes stay small: the inputs larger than memory are `test_cli.py`'s, in a child
process under its own address-space cap.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mscr.cli import main

ODD_LEAVES = (None, True, False, 1 << 64, 10 ** 30, -1, -(1 << 40), 0.5, 1e300,
              "0x", "0xZZ", "zz", "", "0x1ffffffffff", [], [1, 2])
# argv items a mutation may put in: odd values, and options of every command.
ODD_ARGS = ("", "-1", "0", "99999999999999999999", "1.5", "0xZZ", "null", "[1]", "1,2",
            "--k", "--nodes", "--out", "--params", "--field-degree", "--reduction-poly")
MAX_RANDOM_BYTES = 1 << 16  # the scenario's random data; the memory cases are test_cli's


def _paths(doc, at=()):
    """The path of every node under the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from _paths(value, at + (key,))


def _mutate(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        *head, last = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        parent = reduce(getitem, head, doc)
        op = data.draw(st.sampled_from(("leaf", "delete", "add")), label="op")
        if op == "leaf":
            parent[last] = copy.deepcopy(data.draw(st.sampled_from(ODD_LEAVES), label="leaf"))
        elif op == "delete":  # a key, or a list item
            del parent[last]
        elif isinstance(parent[last], list):
            items = parent[last]
            items.append(copy.deepcopy(items[0]) if items else 1)
    return doc


def _mutate_argv(data, argv):
    argv = list(argv)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        i = data.draw(st.integers(1, len(argv)), label="index")  # argv[0] names the command
        op = data.draw(st.sampled_from(("replace", "delete", "insert")), label="op")
        if op == "delete" and i < len(argv):
            del argv[i]
        else:
            value = data.draw(st.sampled_from(ODD_ARGS), label="value")
            argv[i:i + (op == "replace")] = [value]
    return argv


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid inputs: params, an encoded directory, a scenario and an input file."""
    base = tmp_path_factory.mktemp("valid")
    params = base / "params.json"
    assert main(["gen-params", "--k", "3", "--seed", "7", "--out", str(params)]) == 0
    (base / "input.bin").write_bytes(bytes(range(256)) * 2)
    assert main(["encode", "--params", str(params), "--in", str(base / "input.bin"),
                 "--out-dir", str(base / "shards")]) == 0
    (base / "scenario.json").write_text(json.dumps({
        "k": 3, "seed": 7, "data": {"random": {"bytes": 300, "seed": 1}},
        "steps": [{"fail": [1, 4]}, {"fail": [5, 6]}], "verify": "exact"}))
    return base


def _argv(kind, valid, inputs):
    """A valid command line of each input kind, reading from `inputs`."""
    params = str(valid / "params.json")
    return {
        "params": ["validate-params", "--params", str(inputs / "params.json")],
        "manifest": ["extract", "--params", params, "--in-dir", str(inputs), "--nodes", "2,4,6",
                     "--out", "out.bin"],
        "scenario": ["simulate", "--scenario", str(inputs / "scenario.json"),
                     "--report", "report.json"],
        "gen-params": ["gen-params", "--k", "3", "--seed", "7", "--max-retries", "5",
                       "--out", "params.json"],
        "encode": ["encode", "--params", params, "--in", str(valid / "input.bin"),
                   "--out-dir", "shards"],
        "extract": ["extract", "--params", params, "--in-dir", str(valid / "shards"),
                    "--nodes", "1,5,6", "--out", "out.bin"],
        "simulate": ["simulate", "--scenario", str(valid / "scenario.json"),
                     "--report", "report.json"],
    }[kind]


def _run(argv, out_dir):
    """main(argv) run in out_dir: (exit code, stdout, stderr lines).  argparse's exit 2 is a
    SystemExit; any other exception escapes."""
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(out_dir)  # relative outputs, odd ones included, land in out_dir
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), stderr.getvalue().splitlines()


def _check(code, out, err, out_dir):
    assert code in (0, 1, 2), (code, out, err)
    refused = code == 2 or bool(err)
    if code == 1:
        # one error line, or a command that ran and reports what it found
        assert (len(err) == 1 and err[0].startswith("error: ")) or (
            not err and ("violation: " in out or "result=FAILED" in out)), (out, err)
    if refused:
        assert not any(Path(out_dir).iterdir()), (code, err)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["params", "manifest", "scenario"])
def test_mutated_documents_end_in_an_exit_code(valid, tmp_path_factory, kind, data):
    name = {"params": "params.json", "manifest": "manifest.json",
            "scenario": "scenario.json"}[kind]
    source = valid / ("shards" if kind == "manifest" else "") / name
    doc = _mutate(data, json.loads(source.read_text()))
    if kind == "scenario":
        with contextlib.suppress(LookupError, TypeError):
            nbytes = doc["data"]["random"]["bytes"]
            assume(not (type(nbytes) is int and nbytes > MAX_RANDOM_BYTES))
    example = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    inputs, out_dir = example / "in", example / "out"
    if kind == "manifest":
        shutil.copytree(valid / "shards", inputs)
    else:
        inputs.mkdir()
    out_dir.mkdir()
    (inputs / name).write_text(json.dumps(doc))
    _check(*_run(_argv(kind, valid, inputs), out_dir), out_dir)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_argv_ends_in_an_exit_code(valid, tmp_path_factory, data):
    kind = data.draw(st.sampled_from(("gen-params", "encode", "extract", "simulate")))
    argv = _mutate_argv(data, _argv(kind, valid, valid))
    out_dir = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    _check(*_run(argv, out_dir), out_dir)
