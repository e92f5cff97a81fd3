"""The CLI's exit-code contract, as a property over edited inputs.

``cli.main`` returns 0 when every check passes, 1 when a check fails and 2
on a usage error, which it reports on exactly one ``error:`` line; no
exception escapes it.  Hypothesis makes one or two structural edits of the
four kinds of generated document at p = 3, d = 2 (it deletes keys and list
items, swaps types, shifts integers, clears, extends and shuffles lists and
nests values), after setting f, N_gamma or headroom to 64, 100 or 10^40 in
some, and runs each edited file through a module verb.  It also edits the
argv of ``gen``: residue degrees up to 64 (and 10^40), p in {3, 5} and
primes' neighbours, N_gamma and headroom up to 100 (and 10^40).

The examples are derandomized and their number fixed, so every run makes
the same inputs.  Contexts that an example builds are dropped from the
shared cache after it, so that memory stays flat.
"""

import contextlib
import copy
import io
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flbreuil import ambient
from flbreuil import serialize as SER
from flbreuil.cli import main
from flbreuil.fl import _random_fl
from flbreuil.functors import fl_to_breuil
from flbreuil.kisin import kisin_to_breuil, random_gls

KINDS = ["fl", "kisin-gls", "breuil-from-fl", "breuil-from-kisin"]
S_VERBS = [["apply", "mfl"], ["apply", "mfl", "--adjoin-zero-n"], ["section"]]
# the verbs that take each kind's file, and every verb
VERBS = {kind: [["apply", "mls"]] if kind == "fl" else S_VERBS for kind in KINDS}
ALL_VERBS = [["apply", "mls"], *S_VERBS]

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# values a flag of gen may take, the odd ones included; the residue degree
# and N_gamma reach 64 and 10^40 rarely, so that few examples build a
# degree-64 context
FLAGS = {
    "--p": [3, 3, 5, 5, 9, 1, 2, 0, -3, 4, "x"],
    "--f": [1, 1, 1, 1, 2, 2, 3, 0, -1, 24, 64, 10**40],
    "--d": [0, 1, 2, 2, 3, -1],
    "--Np": [1, 2, 6, 0, -1],
    "--Ngamma": [5, 14, 40, 100, -1, 10**40],
    "--headroom": [0, 7, 100, -1, 9000],
    "--r": [0, 1, 2, 3, -1],
    "--a": [-1, 1, 2, 3, 0, 10**40],
    "--jumps": ["0,1", "1,0", "0", "0,0,1", "", "x", "0,,1", "5,5", "-1,0", "0..1"],
    "--seed": [1, 2, -1, 10**40],
}
ODD_VALUES = [None, True, False, 1.5, "x", "7", "", [], {}, 0, -1, 10**40]
SHIFTS = [1, -1, 3, -3, 10**40, -(10**40)]
PARAM_EXTREMES = [64, 100, 10**40]
ERROR_LINE = re.compile(r"(flbreuil( [a-z]+)?: )?error: ")


@pytest.fixture(scope="module")
def documents():
    """The document of each kind at p = 3, d = 2, jumps (0, 1)."""
    amb = ambient.shared_params(p=3, r=1)
    rng = random.Random("exit-codes")
    fl = _random_fl(amb, rng, 2, (0, 1))
    kisin = random_gls(amb, rng, 2, jumps=(0, 1))
    objs = {"fl": fl, "kisin-gls": kisin, "breuil-from-fl": fl_to_breuil(fl),
            "breuil-from-kisin": kisin_to_breuil(kisin)}
    return {kind: json.dumps(SER.to_json(obj)) for kind, obj in objs.items()}


def run(argv) -> tuple:
    """main's return code and its stderr lines; contexts it added to the
    shared cache are dropped afterwards."""
    before = set(ambient._SHARED)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
    finally:
        for key in set(ambient._SHARED) - before:
            del ambient._SHARED[key]
    return code, err.getvalue().splitlines()


def assert_contract(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        # argparse's own refusals print the usage first and name the program
        # (and verb) before "error:"
        assert len([line for line in err if ERROR_LINE.match(line)]) == 1, err


def paths(node, prefix=()):
    """The path of every node below the root, in document order."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def edit(draw, doc) -> None:
    """One structural edit, at a depth drawn first and then a node at that
    depth, so that the few shallow nodes are hit as often as the many deep
    ones."""
    by_depth = {}
    for path in paths(doc):
        by_depth.setdefault(len(path), []).append(path)
    if not by_depth:
        return
    *steps, key = draw(st.sampled_from(by_depth[draw(st.sampled_from(sorted(by_depth)))]))
    parent = doc
    for step in steps:
        parent = parent[step]
    node = parent[key]
    ops = ["delete", "swap", "nest"]
    if type(node) is int or (isinstance(node, str) and node.lstrip("-").isdigit()):
        # most integer edits shift, as a shifted coefficient often leaves a
        # document that loads and runs to a verdict
        ops += ["shift"] * 6
    if isinstance(node, list):
        ops += ["clear", "extend", "shuffle"]
    op = draw(st.sampled_from(ops))
    if op == "delete":
        del parent[key]
    elif op == "swap":
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    elif op == "nest":
        parent[key] = draw(st.sampled_from([[node], {"value": node}]))
    elif op == "shift":
        value = int(node) + draw(st.sampled_from(SHIFTS))
        parent[key] = str(value) if isinstance(node, str) else value
    elif op == "clear":
        node.clear()
    elif op == "extend":
        node.append(draw(st.sampled_from([copy.deepcopy(v) for v in node[-1:]] + ODD_VALUES)))
    else:
        node[:] = draw(st.permutations(node))


@SETTINGS
@given(data=st.data())
def test_an_edited_document_exits_by_the_contract(documents, tmp_path_factory, data):
    kind = data.draw(st.sampled_from(KINDS))
    doc = json.loads(documents[kind])
    # a context's sizes at their bounds and far past them, then the edits
    field = data.draw(st.sampled_from([None, None, "f", "N_gamma", "headroom"]))
    if field:
        doc["params"][field] = data.draw(st.sampled_from(PARAM_EXTREMES))
    for _ in range(data.draw(st.integers(1, 2))):
        edit(data.draw, doc)
    folder = tmp_path_factory.mktemp("edited")
    path = folder / "in.json"
    path.write_text(json.dumps(doc))
    verb = data.draw(st.sampled_from(VERBS[kind]) | st.sampled_from(ALL_VERBS))
    assert_contract(*run([*verb, "--in", path, "--out", folder / "out.json"]))


@SETTINGS
@given(data=st.data())
def test_an_edited_gen_command_exits_by_the_contract(tmp_path_factory, data):
    argv = ["gen", data.draw(st.sampled_from(KINDS + ["nonsense"]))]
    for flag in data.draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=4, unique=True)):
        argv += [flag, data.draw(st.sampled_from(FLAGS[flag]))]
    argv += data.draw(st.sampled_from([[], ["--bogus"], ["--f"], ["--d", "two"]]))
    assert_contract(*run([*argv, "--out", tmp_path_factory.mktemp("gen") / "out.json"]))
