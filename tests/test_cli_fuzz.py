"""Fuzz the CLI's exit-code contract: whatever the argv or the structure-
constant payload, `excalg` exits 0, 1 or 2 and never lets an exception
escape.  Only cheap subcommands and small values are drawn, so every
example runs in milliseconds."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from excalg import cli

junk = st.text(max_size=12)
small_int = st.integers(-3, 9).map(str)
scalar = st.sampled_from(
    ["0/1", "1", "-1", "1/2", "1/0", "i", "2-3i", "(1/1)+(1/2)i", "x", "", "1/2/3"]
)
scalar_text = scalar | junk

VALUES = {
    "--algebra": st.sampled_from(["R", "C", "H", "O", "split-O", "sextonion", "Q"]) | junk,
    "--n": small_int | junk,
    "--form": st.sampled_from(["e[1,2,3]", "e[1,2,3]+e[4,5,6]", "e[1,2]", "e[9,9,9]"]) | junk,
    "--type": st.sampled_from(["G2", "F4", "A3", "B2", "E6", "X2", "G", ""]) | junk,
    "--node": small_int | junk,
    "--a": small_int | junk,
    "--input": st.sampled_from(['{"a": 1, "diag": ["1", "2", "3"]}', '{"a": 1}', "{", "[]"]) | junk,
    "--chi": st.lists(scalar_text, min_size=0, max_size=9).map(",".join),
    "--seed": small_int | junk,
    "--format": st.sampled_from(["json", "text"]) | junk,
    "--mode": st.sampled_from(["full", "sampled"]) | junk,
    "--samples": small_int | junk,
}
# per subcommand: positional choices, required flags, optional flags
COMMANDS = {
    "classify-form": ([], ["--form"], ["--n"]),
    "mul-table": ([], ["--algebra"], []),
    "derive": ([], ["--algebra"], ["--constants"]),
    "magic-square": ([], ["--table"], []),
    "grading": ([], ["--type", "--node"], ["--affine"]),
    "dims": ([], ["--a"], []),
    "jordan": (["det", "adj", "rank", "ch-check", "trace"], ["--a", "--input"], []),
    "spinor": ([], ["--chi"], ["--omega-chi"]),
    # a path that does not exist; real payloads are fuzzed below
    "verify": (["missing.json", ""], [], ["--mode", "--samples"]),
    "bogus": ([], [], []),
}


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(sorted(COMMANDS)))
    positional, required, optional = COMMANDS[sub]
    argv = [sub]
    if positional:
        argv.append(draw(st.sampled_from(positional)))
    flags = required + draw(st.lists(st.sampled_from(optional + ["--seed", "--format"]), max_size=3))
    if required and draw(st.integers(0, 9)) == 0:
        flags.remove(draw(st.sampled_from(required)))
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag in VALUES:
            argv.append(draw(VALUES[flag]))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(junk))
    return argv


json_leaf = st.none() | st.booleans() | st.integers(-2, 5) | st.sampled_from(["1/1", "x"])
json_any = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def payloads(draw):
    """Structure-constant JSON near the to_json schema: small dim, indices
    around range(dim), coefficient lists around dim strings."""
    dim = draw(st.integers(-1, 3))
    size = max(dim, 0)
    entry = st.tuples(
        st.integers(-1, 3) | json_leaf,
        st.integers(0, 3),
        st.lists(scalar, min_size=size, max_size=size) | st.lists(scalar_text, max_size=4),
    ).map(list)
    data = {"dim": dim, "entries": draw(st.lists(entry, max_size=4))}
    if draw(st.booleans()):
        data["skew"] = draw(json_leaf)
    return data


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code


FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(argvs())
@example(["spinor", "--chi", "1/0,0,0,0,0,0,0,0"])  # ZeroDivisionError escaped
@example(["grading", "--type", "", "--node", "1"])  # IndexError escaped
def test_argv_exit_codes(argv):
    exit_code(argv)


# tri(H) builds in hundredths of a second, so (h, h) and (h, r) are drawn;
# names that build tri(O) or a larger algebra are left out
HEAVY_KEYS = {"o", "sedenion", "sextonion", "split-c", "split-h", "split-o"}
SMALL_KEYS = ["r", "c", "h", "R", "C", "H"]
build_key = st.sampled_from(SMALL_KEYS) | junk.filter(
    lambda s: s.strip().lower() not in HEAVY_KEYS
)


@settings(FUZZ, max_examples=20)
@given(build_key, build_key)
@example("c", "c")
@example("r", " c")
@example("h", "H")
@example("H", "r")
def test_magic_square_build_exit_codes(a, b):
    code = exit_code(["magic-square", "--build", a, b])
    if {a, b} <= set(SMALL_KEYS):
        assert code == 0


@FUZZ
@given(st.one_of(payloads(), json_any), st.sampled_from(["full", "sampled"]), st.integers(0, 5))
@example({"dim": 1, "entries": [[0, 0, ["1/0"]]]}, "full", 0)  # ZeroDivisionError escaped
def test_verify_payload_exit_codes(data, mode, samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "constants.json"
        path.write_text(json.dumps(data), encoding="utf8")
        exit_code(["verify", str(path), "--mode", mode, "--samples", str(samples)])


@st.composite
def jordan_payloads(draw):
    """Jordan element JSON near the to_json schema: a in {0, 1, 2, 4, 8} or
    junk, diag and off lists around three slots of a entries."""
    a = draw(st.sampled_from([0, 1, 2, 4, 8]) | json_leaf | junk)
    size = a if type(a) is int and a >= 0 else 1
    entry = scalar | json_leaf
    data = {"a": a, "diag": draw(st.lists(entry, min_size=2, max_size=4) | json_leaf)}
    if draw(st.booleans()):
        slot = st.lists(entry, min_size=max(size - 1, 0), max_size=size + 1) | json_leaf
        data["off"] = draw(st.lists(slot, max_size=4) | json_leaf)
    return data


@FUZZ
@given(st.one_of(jordan_payloads(), json_any), st.sampled_from(["det", "adj", "rank", "ch-check"]))
@example({"a": 1, "diag": ["1", "1", "1"], "off": [["1", "2"], ["0"], ["0"]]}, "det")  # "2" dropped
@example({"a": 1, "diag": None}, "det")  # TypeError escaped
@example({"a": 1, "diag": ["1", "1", "1"], "off": [1, 2, 3]}, "det")  # TypeError escaped
@example({"a": 1, "diag": ["1", "1", "1"], "off": [["1"], ["0"], ["0"], ["0"]]}, "det")  # IndexError escaped
@example({"a": [1], "diag": ["1", "1", "1"]}, "det")  # TypeError escaped
def test_jordan_payload_exit_codes(data, op):
    a = data["a"] if isinstance(data, dict) and type(data.get("a")) is int else 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "element.json"
        path.write_text(json.dumps(data), encoding="utf8")
        assert exit_code(["jordan", "--a", str(a), op, "--input", str(path)]) in (0, 2)


coefficient_text = st.text(alphabet="0123456789+-/*()i", max_size=8)


@FUZZ
@given(coefficient_text)
@example("")  # read as 1, exit 0
@example("()*")
@example("-")
def test_coefficient_text_exit_codes(text):
    # a term's coefficient and a spinor coordinate: exit 0 or 2, never 1
    assert exit_code(["classify-form", "--form", text + "e[1,2,3]"]) in (0, 2)
    assert exit_code(["spinor", "--chi", ",".join([text] + ["0"] * 7)]) in (0, 2)


@FUZZ
@given(st.text(max_size=40))
def test_verify_raw_text_exit_codes(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "constants.json"
        path.write_text(text, encoding="utf8")
        exit_code(["verify", str(path)])
