import hashlib
import json

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
        ],
        ids=["derive-O", "magic-square-h-h", "derive-sedenion", "derive-split-O", "magic-square-r-o"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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


class TestGradingAndDims:
    def test_grading(self, capsys):
        code, out = run_cli(capsys, "grading", "--type", "E8", "--node", "1", "--affine")
        data = json.loads(out)
        assert code == 0 and data["dims"] == {"0": 120, "1": 128}

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
