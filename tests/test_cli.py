"""Command-line interface: golden outputs, exit codes, JSON schema."""

import json
import subprocess
import sys

import pytest

from pibisim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenExamples:
    def test_steps_tau(self, capsys):
        code, out, _ = run(capsys, "steps", "--prefix", "", "tau.0")
        assert code == 0
        assert out.splitlines() == ["{} ; tau ; 0"]

    def test_steps_no_transition(self, capsys):
        code, out, _ = run(
            capsys, "steps", "--prefix", "nabla x, nabla z", "(nu y)[x=y]x!z.0"
        )
        assert code == 1
        assert out.strip() == ""

    def test_steps_match_forall(self, capsys):
        code, out, _ = run(
            capsys, "steps", "--prefix", "forall x, forall y", "[x=y]tau.0"
        )
        assert code == 0
        assert out.splitlines() == ["{x:=y} ; tau ; 0"]

    def test_steps_bound(self, capsys):
        code, out, _ = run(
            capsys, "steps", "--bound", "--prefix", "nabla x", "(nu z)x!z.tau.0"
        )
        assert code == 0
        assert out.splitlines() == ["{} ; x!(w) ; tau.0"]

    def test_bisim_late_negative_example(self, capsys):
        code, out, _ = run(
            capsys,
            "bisim",
            "--mode",
            "late",
            "--prefix",
            "nabla x, nabla z",
            "(nu y)[x=y]x!z.0",
            "0",
        )
        assert code == 0
        assert out.splitlines()[0] == "bisimilar"

    def test_bisim_open_sangiorgi(self, capsys):
        code, out, _ = run(
            capsys,
            "bisim",
            "--mode",
            "open",
            "--prefix",
            "forall x, forall z",
            "x?(u).(tau.tau.0+tau.0)",
            "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)",
        )
        assert code == 1
        assert out.splitlines()[0] == "not bisimilar"
        assert "witness:" in out and "formula:" in out

    def test_check_ground_budget_example(self, capsys):
        code, _, _ = run(
            capsys,
            "check",
            "--mode",
            "ground",
            "--prefix",
            "nabla a",
            "a?(x).0",
            "[a?(x)]L [x=a] false",
        )
        assert code == 0

    def test_check_fresh_zero(self, capsys):
        code, _, _ = run(
            capsys,
            "check",
            "--mode",
            "ground",
            "--prefix",
            "nabla a",
            "--fresh",
            "0",
            "a?(x).0",
            "[a?(x)]L [x=a] false",
        )
        assert code == 1

    def test_parse_command(self, capsys):
        code, out, _ = run(capsys, "parse", "--prefix", "nabla x", "x!x.0 | 0")
        assert code == 0
        assert "x!x.0" in out


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["bisim", "--mode", "weird", "p", "q"]) == 2

    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "parse", "--prefix", "", "((")
        assert code == 2
        assert err.startswith("error:")

    def test_unbound_name_is_2(self, capsys):
        code, _, err = run(capsys, "steps", "--prefix", "", "x!x.0")
        assert code == 2
        assert err.startswith("error:")

    def test_replication_bisim_is_2(self, capsys):
        code, _, err = run(capsys, "bisim", "--prefix", "", "!tau.0", "tau.0")
        assert code == 2
        assert err.startswith("error:")

    def test_ground_check_forall_prefix_is_2(self, capsys):
        code, _, err = run(
            capsys, "check", "--mode", "ground", "--prefix", "forall x",
            "x!x.0", "true",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_missing_defs_file_is_2(self, capsys):
        code, _, err = run(
            capsys, "steps", "--defs", "/nonexistent/defs.pi", "--prefix", "", "0"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_deep_prefix_chain_is_2(self, capsys):
        code, out, err = run(capsys, "parse", "tau." * 3000 + "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_wide_sum_bisim_is_2(self, capsys):
        p = " + ".join(["tau.0"] * 600)
        code, out, err = run(capsys, "bisim", p, p)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_internal_error_is_3(self, capsys, monkeypatch):
        import pibisim.bisim
        from pibisim.unify import InternalError

        def broken(*args, **kwargs):
            raise InternalError("invariant violated")

        monkeypatch.setattr(pibisim.bisim, "open_bisim", broken)
        code, out, err = run(capsys, "bisim", "tau.0", "tau.0")
        assert code == 3
        assert out == ""
        assert err.strip() == "internal error: invariant violated"

    def test_formula_audit_failure_is_3(self, capsys, monkeypatch):
        import pibisim.bisim

        monkeypatch.setattr(pibisim.bisim._Game, "_holds_left_only", lambda *a: False)
        code, out, err = run(capsys, "bisim", "--mode", "late", "tau.0", "0")
        assert code == 3
        assert out == ""
        assert err.strip() == "internal error: constructed formula failed verification"
        assert "Traceback" not in err

    def test_no_separator_by_construction_is_reported(self, capsys):
        inner = "(a?(v).[w=a]tau.0 + a?(v).[v=a]tau.0)"
        left, right = f"a?(w).{inner}", f"a?(w).{inner} + a?(w).a?(v).[w=a]tau.0"
        code, out, err = run(capsys, "bisim", "--prefix", "forall a", left, right)
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "not bisimilar"
        assert lines[-1] == "formula: (none by construction in the open sublogic)"


class TestJson:
    def test_bisim_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "bisim",
            "--json",
            "--mode",
            "open",
            "--prefix",
            "forall x, forall y",
            "[x=y]tau.0",
            "0",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["command"] == "bisim"
        assert doc["verdict"] is False
        assert doc["certificate"] is None
        assert set(doc["stats"]) == {"goals", "branches", "time_ms"}
        witness = doc["witness"]
        assert witness["formula"] is not None
        assert witness["formula_holds"] in ("left", "right")
        trace = witness["trace"]
        assert trace and {"side", "theta", "action", "instantiation",
                          "attacker_index", "defender_count",
                          "chosen_continuation_index"} <= set(trace[0])

    def test_bisim_json_bisimilar_certificate(self, capsys):
        code, out, _ = run(
            capsys, "bisim", "--json", "--prefix", "", "tau.0", "tau.0 + tau.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["witness"] is None
        assert isinstance(doc["certificate"], list) and doc["certificate"]

    def test_witness_formula_replay(self, capsys):
        """The emitted witness formula drives check to the same verdict."""
        code, out, _ = run(
            capsys,
            "bisim",
            "--json",
            "--mode",
            "open",
            "--prefix",
            "forall x, forall z",
            "x?(u).(tau.tau.0+tau.0)",
            "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)",
        )
        assert code == 1
        doc = json.loads(out)
        formula = doc["witness"]["formula"]
        procs = ["x?(u).(tau.tau.0+tau.0)", "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)"]
        holds = doc["witness"]["formula_holds"]
        sat_codes = []
        for proc in procs:
            c, _, _ = run(
                capsys, "check", "--mode", "open",
                "--prefix", "forall x, forall z", proc, formula,
            )
            sat_codes.append(c)
        expected = [0, 1] if holds == "left" else [1, 0]
        assert sat_codes == expected

    def test_check_json(self, capsys):
        code, out, _ = run(
            capsys, "check", "--json", "--prefix", "nabla a", "tau.0", "<tau>true"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "check" and doc["verdict"] is True
        assert doc["data"]["mode"] == "ground"

    def test_steps_json(self, capsys):
        code, out, _ = run(capsys, "steps", "--json", "--prefix", "", "tau.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["transitions"][0]["action"] == "tau"


class TestFlags:
    def test_defs_file(self, tmp_path, capsys):
        f = tmp_path / "lib.pi"
        f.write_text("d(x) := x!x.0\n")
        code, out, _ = run(
            capsys, "steps", "--defs", str(f), "--prefix", "nabla a", "d(a)"
        )
        assert code == 0
        assert "a!a" in out

    def test_distinct_flag(self, capsys):
        args = [
            "bisim", "--mode", "open", "--prefix", "forall x, forall y",
            "[x=y]tau.0", "0",
        ]
        assert main(args) == 1
        capsys.readouterr()
        assert main(args + ["--distinct", "x#y"]) == 0

    def test_distinct_flag_bad_pair(self, capsys):
        code, _, err = run(
            capsys, "bisim", "--prefix", "forall x", "--distinct", "x#x",
            "tau.0", "tau.0",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_dot_export(self, tmp_path, capsys):
        out_file = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "lts", "--prefix", "", "--dot", str(out_file), "tau.tau.0"
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("digraph") and "tau" in text

    def test_lts_max_states(self, capsys):
        code, _, err = run(
            capsys, "lts", "--prefix", "", "--max-states", "2", "!tau.0"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_bisim_early_mode(self, capsys):
        code, _, _ = run(
            capsys, "bisim", "--mode", "early", "--prefix", "nabla x",
            "x?(u).tau.0 + x?(v).0",
            "x?(u).tau.0 + x?(v).0 + x?(w).[w=x]tau.0",
        )
        assert code == 0

    def test_bisim_late_same_pair_differs(self, capsys):
        code, _, _ = run(
            capsys, "bisim", "--mode", "late", "--prefix", "nabla x",
            "x?(u).tau.0 + x?(v).0",
            "x?(u).tau.0 + x?(v).0 + x?(w).[w=x]tau.0",
        )
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pibisim.cli", "steps", "--prefix", "", "tau.0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["{} ; tau ; 0"]

    def test_deterministic_output(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(
                capsys, "bisim", "--json", "--mode", "open",
                "--prefix", "forall x, forall z",
                "x?(u).(tau.tau.0+tau.0)",
                "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)",
            )
            doc = json.loads(out)
            doc.pop("stats")  # wall time varies
            outs.add(json.dumps(doc, sort_keys=True))
        assert len(outs) == 1
