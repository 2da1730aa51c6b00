import hashlib
import json

import numpy as np
import pytest

from excalg import cli


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestClassifyForm:
    def test_w1_example(self, capsys):
        code, out = run_cli(
            capsys, "classify-form", "--n", "7", "--form", "e[1,2,5]+e[1,3,6]+e[1,4,7]"
        )
        assert code == 0
        data = json.loads(out)
        assert data["label"] == "W1"
        assert data["support_rank"] == 7 and data["q_rank"] == 1
        assert data["stab_dim"] == 28

    def test_parse_error_exit_two(self, capsys):
        code, _ = run_cli(capsys, "classify-form", "--form", "nonsense")
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = ("classify-form", "--n", "7", "--form", "e[1,2,3]+e[4,5,6]")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second


class TestTables:
    def test_mul_table_octonions(self, capsys):
        code, out = run_cli(capsys, "mul-table", "--algebra", "O")
        data = json.loads(out)
        assert code == 0 and data["dim"] == 8
        # e1 * e2 = e3
        assert data["table"][1][2][3] == "1/1"

    def test_mul_table_sextonion(self, capsys):
        code, out = run_cli(capsys, "mul-table", "--algebra", "sextonion")
        assert code == 0 and json.loads(out)["dim"] == 6

    def test_magic_square_needs_table_or_build(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["magic-square"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage:") and "--table --build" in err

    def test_magic_square_table(self, capsys):
        code, out = run_cli(capsys, "--format", "text", "magic-square", "--table")
        assert code == 0
        assert out.strip().endswith("e8(248)")


class TestDerive:
    def test_octonions(self, capsys):
        code, out = run_cli(capsys, "derive", "--algebra", "O")
        assert code == 0 and json.loads(out)["derivation_dim"] == 14


class TestJordanPayloads:
    @pytest.mark.parametrize(
        "payload",
        [
            # a slot of two entries for a = 1: off_index(0, 1) is off_index(1, 0),
            # so the "2" would be overwritten and the request answer {"det":"0/1"}
            {"a": 1, "diag": ["1", "1", "1"], "off": [["1", "2"], ["0"], ["0"]]},
            {"a": 1, "diag": None},
            {"a": 1, "diag": ["1", "1", "1"], "off": [1, 2, 3]},
            {"a": 1, "diag": ["1", "1", "1"], "off": [["1"], ["0"], ["0"], ["0"]]},
            {"a": [1], "diag": ["1", "1", "1"]},
            {"a": 1, "diag": ["1", "1"]},
            {"a": 1, "diag": ["1", "1", None]},
            {"a": 1, "diag": ["1", "1", "1"], "off": [["1"], ["0"]]},
            {"a": 0, "diag": ["1", "1", "1"], "off": [["0"], ["0"], ["0"]]},
            {"a": True, "diag": ["1", "1", "1"]},
            {"diag": ["1", "1", "1"]},
        ],
        ids=["slot-too-long", "diag-null", "off-not-lists", "fourth-slot", "a-list", "diag-short",
             "diag-null-entry", "two-slots", "a0-entries", "a-bool", "a-missing"],
    )
    def test_malformed_exit_two(self, capsys, payload):
        code = cli.main(["jordan", "--a", "1", "det", "--input", json.dumps(payload)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ")

    def test_non_object_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "element.json"
        path.write_text("[1, 2, 3]")
        assert cli.main(["jordan", "--a", "1", "det", "--input", str(path)]) == 2

    @pytest.mark.parametrize("where", ["inline", "file", "verify"])
    def test_nested_too_deeply_exit_two(self, capsys, tmp_path, where):
        # written as raw text: json.dumps of such a structure recurses too
        depth = 5000 if where == "inline" else 100000
        text = '{"a": ' + "[" * depth + "]" * depth + "}"
        path = tmp_path / "deep.json"
        path.write_text(text)
        argv = {"inline": ["jordan", "--a", "1", "det", "--input", text],
                "file": ["jordan", "--a", "1", "det", "--input", str(path)],
                "verify": ["verify", str(path)]}[where]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "payload, det",
        [
            ({"a": 1, "diag": ["2", "3", "5"]}, "30/1"),
            ({"a": 0, "diag": ["2", "3", "5"], "off": [[], [], []]}, "30/1"),
            ({"a": 2, "diag": [1, 1, 1], "off": []}, "1/1"),
            ({"a": 2, "diag": ["1", "1", "1"], "off": [["1", "2"], ["0", "0"], ["0", "0"]]}, "-4/1"),
        ],
        ids=["off-omitted", "a0-empty-slots", "off-empty", "a2-slot"],
    )
    def test_valid(self, capsys, payload, det):
        code, out = run_cli(capsys, "jordan", "--a", str(payload["a"]), "det", "--input", json.dumps(payload))
        assert code == 0 and json.loads(out) == {"det": det}


class TestCheckFailure:
    def test_calibration_failure_exit_one(self, capsys, monkeypatch):
        from excalg import magicsquare as ms

        def fail(*args, **kwargs):
            raise ms.CalibrationFailed("inconsistent")

        monkeypatch.setattr(ms, "vinberg_build", fail)
        code = cli.main(["magic-square", "--build", "r", "r"])
        assert code == 1 and capsys.readouterr().err == "check failed: inconsistent\n"

    def test_flipped_coupling_exit_one(self, capsys, monkeypatch):
        # the real build and its Jacobi certificate, on one wrong constant
        from excalg import magicsquare as ms

        monkeypatch.setitem(ms.COUPLINGS, "c", ((-2, -4), (-2, -2), (-4, -2)))
        code = cli.main(["magic-square", "--build", "c", "c"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("check failed: the bracket of c,c fails the Jacobi identity")
        assert "Traceback" not in captured.err


GAUSSIAN_H3O = json.dumps({
    "a": 8, "diag": ["1/2+i", "-3", "2-1/3i"],
    "off": [["1", "i", "0", "-2/5", "0", "0", "1+i", "0"],
            ["0", "3/2", "0", "0", "-i", "0", "0", "2"],
            ["-1", "0", "1/3i", "0", "0", "4", "0", "0"]],
})


class TestOutputPin:
    # SHA-256 of stdout, recorded before every rational elimination moved to
    # the certified modular path; the JSON must stay byte-identical
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("derive", "--algebra", "O", "--constants"),
             "492bc4e1535602ccdd94a00f998c51f5bc3505127667cfdf02c64983161b9633"),
            (("magic-square", "--build", "h", "h", "--constants"),
             "9aa230ac4fdd8b95e4449a1a91528e1c261a211ac551e4c24ba41c3ea8ebe223"),
            (("derive", "--algebra", "sedenion", "--constants"),
             "a3ac6333984b3eef3d8fd6cce0f19e0bb0f5691bd70543fd2cf290eda2ebe496"),
            (("derive", "--algebra", "split-O", "--constants"),
             "d6dd8fa384ac3683393a55eb8950c25f58c2b5b8c40540cb0fb6595ba646f3a6"),
            # f4, through tri(O)
            (("magic-square", "--build", "r", "o", "--constants"),
             "aa430375b36d32b3285d4056ab743e5949ee738eeaecce36dea3a25b81c83c18"),
            # e7, recorded while SCAlgebra kept a Scalar copy of its cells
            (("magic-square", "--build", "h", "o", "--constants"),
             "f0b48b7a3f64fcb96f4ffd61be039355b7fefb1f114969431739d8ad78dd3c6b"),
            # recorded while the adjugate was the interpolated gradient of Det
            (("jordan", "--a", "8", "adj", "--input", GAUSSIAN_H3O),
             "83853c4f12b980bdde4f31a2c24a26152a6572769aaca9ca0b4e96d511fd0523"),
            (("jordan", "--a", "8", "det", "--input", GAUSSIAN_H3O),
             "b027a9b5896bb2bbfae022921ddda57f116082a7afb4dbc8357ccc9a5372c822"),
            (("jordan", "--a", "8", "rank", "--input", GAUSSIAN_H3O),
             "261066b72993f3f09d86a42a0d00a02a5124c667a6f19aa6b585e077f88c72c6"),
            # recorded while the doubled tables were filled by Scalar products
            (("mul-table", "--algebra", "sedenion"),
             "9ac87b67e613436c9a45c0339e8bd0cbbf3684b5ef7f9565de685b3ec3a577cd"),
            (("mul-table", "--algebra", "split-O"),
             "241934893aa48d9dbd5228e296e3614b9f620215480ce81147ebee21052b827f"),
            (("mul-table", "--algebra", "H"),
             "c3ceebd03a9797f2c785c54326eff6f78644df9065946c3ba6519c697c02c3be"),
        ],
        ids=["derive-O", "magic-square-h-h", "derive-sedenion", "derive-split-O", "magic-square-r-o",
             "magic-square-h-o", "jordan-adj", "jordan-det", "jordan-rank", "mul-table-sedenion", "mul-table-split-O",
             "mul-table-H"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def moved_form(label, seed, field="rational", n=7):
    """The text of a representative, embedded in n variables, pulled back
    by a seeded invertible matrix."""
    from excalg import forms as fm
    from excalg import threeform as tf
    from excalg.linalg import random_invertible

    rep = tf.representative(label)
    g = random_invertible(n, seed=seed, height=2, field=field)
    return fm.pullback(g, fm.KForm(3, n, dict(rep.terms))).to_text()


class TestClassifyFormPin:
    # SHA-256 of `classify-form` stdout, recorded before the trivector
    # invariants moved to integer arrays; the JSON must stay byte-identical
    @pytest.mark.parametrize(
        "form, digest",
        [
            (("W1", 11), "1791290364ae5e30d3ad7832a8397e71f345e601962d0eb3e70e30fb5ddad3ce"),
            (("W2", 12), "5cca07be1a8eff3298e2d6032c92dc6130a77bc9a7b7edec1c1eff5455aa18f7"),
            (("W3", 13), "8325ee45fce1cf78353a8590ebd67ed9f3a374c3c3cf9484ca9ddb413d4ff188"),
            (("W4", 14), "40f41293e0477fd9bcb476fd17e63e059479c9e694d84350c9ca6d86ebc3f009"),
            (("W5", 15), "8962604cf164ca0a84f905bb382d4d936a9d794fe2ad4cc3c5c7c36444c5c0df"),
            (("W4", 16, "gaussian"),
             "40f41293e0477fd9bcb476fd17e63e059479c9e694d84350c9ca6d86ebc3f009"),
            (("RANK6_GENERIC", 17), "8947289364c0115cfbd4b21708bea4096b6ef3e2daa848293d00df429b7e0d08"),
            (("RANK6_TANGENT", 18), "c95e5ea10b1613853a4233923daf7bcf955564ac57277e45261ea63a9a29b22d"),
            (("RANK5", 19), "cd679531e31f9e78003031e2dcf1e0cdfbd1deacc0c9de2f60fbe8722264dcff"),
            (("RANK3_DECOMPOSABLE", 20),
             "8aa3152dbb4770c2e90ff2fc9f2a9785f498e5fce1a2fa2cb8b0652853e0b5d3"),
            ("99999999999999999999*e[1,2,5]+e[1,3,6]+e[1,4,7]+e[2,3,4]+e[5,6,7]",
             "8962604cf164ca0a84f905bb382d4d936a9d794fe2ad4cc3c5c7c36444c5c0df"),
            # recorded before psi, the quartic and I7 moved to integer tables
            (("RANK6_GENERIC", 21, "gaussian"),
             "8947289364c0115cfbd4b21708bea4096b6ef3e2daa848293d00df429b7e0d08"),
            (("RANK6_TANGENT", 22, "gaussian"),
             "c95e5ea10b1613853a4233923daf7bcf955564ac57277e45261ea63a9a29b22d"),
            # the kernel of the contraction is spanned by e_7, and by e_1
            ("e[1,2,3]+e[4,5,6]", "8947289364c0115cfbd4b21708bea4096b6ef3e2daa848293d00df429b7e0d08"),
            ("e[2,3,4]+e[5,6,7]", "8947289364c0115cfbd4b21708bea4096b6ef3e2daa848293d00df429b7e0d08"),
        ],
        ids=["W1", "W2", "W3", "W4", "W5", "gaussian-W4", "rank6-generic", "rank6-tangent",
             "rank5", "rank3", "W5-past-2^63", "gaussian-rank6-generic", "gaussian-rank6-tangent",
             "rank6-kernel-e7", "rank6-kernel-e1"],
    )
    def test_stdout_digest(self, capsys, form, digest):
        text = form if isinstance(form, str) else moved_form(*form)
        code, out = run_cli(capsys, "classify-form", "--n", "7", "--form", text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "form, digest",
        [
            (("RANK6_GENERIC", 23), "865530d7dbfe22db088dcf900011e1a699b785aa7876012d16fa5b11411c45e3"),
            (("RANK6_TANGENT", 24), "5e55bd05f2c52555491fda7486c162741c10b3b71c5bdf9498f7e9fe8e2bec15"),
            (("RANK6_GENERIC", 25, "gaussian"),
             "865530d7dbfe22db088dcf900011e1a699b785aa7876012d16fa5b11411c45e3"),
            (("RANK6_TANGENT", 26, "gaussian"),
             "5e55bd05f2c52555491fda7486c162741c10b3b71c5bdf9498f7e9fe8e2bec15"),
        ],
        ids=["generic", "tangent", "gaussian-generic", "gaussian-tangent"],
    )
    def test_six_variable_digest(self, capsys, form, digest):
        code, out = run_cli(capsys, "classify-form", "--n", "6", "--form", moved_form(*form, n=6))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEmptyCoefficients:
    # only the coefficient of i may omit its digits, and a term's coefficient
    # sits on one side of e[..], joined by at most one "*"; each of these
    # used to be answered with exit 0
    @pytest.mark.parametrize(
        "argv",
        [
            ("jordan", "--a", "1", "det", "--input", '{"a":1,"diag":["","",""]}'),
            ("jordan", "--a", "1", "det", "--input", '{"a":1,"diag":["-","+","()"]}'),
            ("spinor", "--chi=,,,,,,,"),
            ("spinor", "--chi=1,0,0,0,0,0,0,-"),
            ("classify-form", "--form", "*e[1,2,3]"),
            ("classify-form", "--form", "e[1,2,3]*"),
            ("classify-form", "--form", "()*e[1,2,3]"),
            ("classify-form", "--form=-*e[1,2,3]"),
            ("classify-form", "--form", "(+)*e[1,2,3]"),
            # read as 23 and as 2
            ("classify-form", "--form", "2e[1,2,3]3"),
            ("classify-form", "--form", "2**e[1,2,3]"),
        ],
        ids=["jordan-empty", "jordan-signs", "spinor-empty", "spinor-sign", "form-star-before",
             "form-star-after", "form-empty-group", "form-sign-star", "form-sign-group",
             "form-both-sides", "form-two-stars"],
    )
    def test_exit_two(self, capsys, argv):
        code = cli.main(list(argv))
        assert code == 2 and capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "form, terms",
        [
            ("e[1,2,3]", [[1, 2, 3], "1/1"]),
            ("-e[1,2,3]", [[1, 2, 3], "-1/1"]),
            ("2*e[1,2,3]", [[1, 2, 3], "2/1"]),
            ("i*e[1,2,3]", [[1, 2, 3], "(0/1)+(1/1)i"]),
            ("-i*e[1,2,3]", [[1, 2, 3], "(0/1)+(-1/1)i"]),
            ("(2+i)*e[1,2,3]", [[1, 2, 3], "(2/1)+(1/1)i"]),
            ("(1-i)*e[1,2,3]", [[1, 2, 3], "(1/1)+(-1/1)i"]),
            ("(1/2)*e[1,2,3]", [[1, 2, 3], "1/2"]),
            ("e[1,2,3]*2", [[1, 2, 3], "2/1"]),
        ],
    )
    def test_valid(self, capsys, form, terms):
        from excalg import forms as fm

        w = fm.parse_form(form, 7)
        assert [[list(idx), str(c)] for idx, c in w.terms.items()] == [terms]
        code, out = run_cli(capsys, "classify-form", f"--form={form}")
        assert code == 0 and json.loads(out)["label"] == "RANK3_DECOMPOSABLE"


class TestAsciiDigits:
    # every integer in a scalar literal is [+-]?[0-9]+; int() alone would
    # read "1_0" as 10 and the Arabic-Indic digit three as 3
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify-form", "--n", "7", "--form", "1_0*e[1,2,3]"),
            ("jordan", "--a", "1", "det", "--input", json.dumps({"a": 1, "diag": ["\u0663", "1", "1"]})),
        ],
        ids=["underscore", "arabic-indic"],
    )
    def test_exit_two(self, capsys, argv):
        code = cli.main(list(argv))
        assert code == 2 and capsys.readouterr().out == ""


def so3_entries(zero="0/1"):
    """The so(3) entries [i, j, coefficients], [e0, e1] = e2 and cyclic,
    with zero written as given in every zero slot."""
    entries = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for a, b, sign in ((i, j, "1/1"), (j, i, "-1/1")):
            entries.append([a, b, [sign if t == k else zero for t in range(3)]])
    return sorted(entries)


class TestVerifyFile:
    def test_roundtrip(self, capsys, tmp_path):
        code, out = run_cli(capsys, "derive", "--algebra", "H", "--constants")
        constants = json.loads(out)["structure_constants"]
        path = tmp_path / "derH.json"
        path.write_text(json.dumps(constants))
        code, out = run_cli(capsys, "verify", str(path), "--mode", "full")
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize(
        "argv",
        [("derive", "--algebra", "H", "--constants"), ("magic-square", "--build", "c", "c", "--constants")],
        ids=["derive", "magic-square"],
    )
    def test_reads_saved_command_output(self, capsys, tmp_path, argv):
        _, out = run_cli(capsys, *argv)
        path = tmp_path / "saved.json"
        path.write_text(out)
        code, out = run_cli(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_sampled_needs_a_sample(self, capsys, tmp_path, samples):
        _, out = run_cli(capsys, "derive", "--algebra", "H", "--constants")
        path = tmp_path / "derH.json"
        path.write_text(out)
        code = cli.main(["verify", str(path), "--mode", "sampled", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: sampled mode needs at least one sample, got {samples}\n"

    def test_corrupted_fails(self, capsys, tmp_path):
        code, out = run_cli(capsys, "derive", "--algebra", "O", "--constants")
        constants = json.loads(out)["structure_constants"]
        entry = constants["entries"][5]
        i, j, coeffs = entry
        k = next(k for k, c in enumerate(coeffs) if c != "0/1")
        coeffs[k] = "17/1"
        for other in constants["entries"]:
            if other[0] == j and other[1] == i:
                other[2][k] = "-17/1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(constants))
        code, out = run_cli(capsys, "verify", str(path), "--mode", "full")
        assert code == 1
        # the first failing triple in lexicographic order, and the triples up to its row
        assert out == '{"checked":196,"dim":14,"mode":"full","passed":false,"witness":[0,2,6]}\n'

    @pytest.mark.parametrize(
        "payload",
        # each payload is skew, so only the schema check can reject it
        [
            {"dim": 3, "entries": [[0, 3, ["1/1", "0/1", "0/1"]], [3, 0, ["-1/1", "0/1", "0/1"]]]},
            {"dim": 3, "entries": [[0, 1, ["0/1", "0/1", "0/1", "1/1"]], [1, 0, ["0/1", "0/1", "0/1", "-1/1"]]]},
            {"dim": 3, "entries": [[0, 1, ["0/1", "1/1"]], [1, 0, ["0/1", "-1/1"]]]},
            [[0, 1, ["0/1", "0/1", "1/1"]], [1, 0, ["0/1", "0/1", "-1/1"]]],
            {"structure_constants": {"dim": 3, "entries": [[0, 3, ["1/1", "0/1", "0/1"]], [3, 0, ["-1/1", "0/1", "0/1"]]]}},
        ],
        ids=["index-out-of-range", "list-too-long", "list-too-short", "top-level-list", "wrapped-index-out-of-range"],
    )
    def test_malformed_constants_exit_two(self, capsys, tmp_path, payload):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["verify", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ")


    def test_repeated_pair_exit_two(self, capsys, tmp_path):
        # one cell per (i, j, k): a pair listed twice is refused, not merged
        entries = so3_entries()
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"dim": 3, "entries": entries + [entries[2]]}))
        code = cli.main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: entry (1, 0) is listed twice\n"

    @pytest.mark.parametrize("spelling", ["0", "-0/1", "0/5"])
    def test_zero_spellings_read_as_zero(self, capsys, tmp_path, spelling):
        # every coefficient but the canonical "0/1" is parsed; zeros drop out
        canonical, spelled = tmp_path / "canonical.json", tmp_path / "spelled.json"
        canonical.write_text(json.dumps({"dim": 3, "entries": so3_entries()}))
        spelled.write_text(json.dumps({"dim": 3, "entries": so3_entries(spelling)}))
        _, want = run_cli(capsys, "verify", str(canonical))
        code, out = run_cli(capsys, "verify", str(spelled))
        assert code == 0 and out == want and json.loads(out)["checked"] == 27

    @pytest.mark.parametrize("text", ["x", "1/0", ""])
    def test_malformed_coefficient_in_zero_slot_exit_two(self, capsys, tmp_path, text):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"dim": 3, "entries": so3_entries(text)}))
        code = cli.main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error: ")

    def test_huge_dim_refused_before_allocating(self, capsys, tmp_path, monkeypatch):
        # refused by the reader, before the Jacobi check's O(dim) arrays
        def no_room(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "bincount", no_room)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 1000000, "entries": []}))
        code = cli.main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: need an integer 'dim' from 1 to 65536 and a list 'entries'\n"


class TestGradingAndDims:
    def test_grading(self, capsys):
        code, out = run_cli(capsys, "grading", "--type", "E8", "--node", "1", "--affine")
        data = json.loads(out)
        assert code == 0 and data["dims"] == {"0": 120, "1": 128}

    @pytest.mark.parametrize("typ,zero", [("B10", "B9"), ("C10", "C9"), ("D12", "D11")])
    def test_grading_above_rank_eight(self, capsys, typ, zero):
        code, out = run_cli(capsys, "grading", "--type", typ, "--node", "1")
        assert code == 0 and json.loads(out)["zero_part_type"] == zero

    def test_dims(self, capsys):
        code, out = run_cli(capsys, "dims", "--a", "8")
        assert code == 0 and json.loads(out)["dim_V4"] == 248


class TestJordanAndSpinor:
    def test_jordan_det(self, capsys):
        payload = json.dumps({"a": 0, "diag": ["2/1", "3/1", "5/1"], "off": []})
        code, out = run_cli(capsys, "jordan", "--a", "0", "det", "--input", payload)
        assert code == 0 and json.loads(out)["det"] == "30/1"

    def test_jordan_ch(self, capsys):
        payload = json.dumps(
            {
                "a": 1,
                "diag": ["1/1", "2/1", "3/1"],
                "off": [["1/1"], ["1/2"], ["-1/1"]],
            }
        )
        code, out = run_cli(capsys, "jordan", "--a", "1", "ch-check", "--input", payload)
        assert code == 0 and json.loads(out)["cayley_hamilton"]

    def test_spinor(self, capsys):
        code, out = run_cli(
            capsys, "spinor", "--omega-chi", "--chi", "1,0,0,0,0,0,0,1"
        )
        data = json.loads(out)
        assert code == 0 and data["label"]["label"] == "W5"
