import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import llschain
from llschain import simple_basis
from llschain.cli import main
from llschain.exactla import Subspace
from llschain.lattice import Edge, Multidegree
from llschain.lls_core import instance_from_json, instance_to_json, load_instance, save_instance
from llschain.generator import DEGRADE_MODES, GenSpec, degrade, gen_simple


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli_process(*argv, preexec_fn=None):
    """Run the CLI in a fresh interpreter, so an escaping exception shows up
    as a traceback on stderr instead of failing the test process."""
    env = dict(os.environ, PYTHONPATH=str(Path(llschain.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "llschain.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr


def _limit_address_space():
    """Cap the child at 1 GiB, so a parser that builds an enormous grid
    fails with a MemoryError instead of starving the machine."""
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.fixture(scope="module")
def worked_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    inst_path = base / "inst.json"
    code, out, err = run_cli("gen", "--d", "1", "--r", "0",
                             "--strategy", "from-sections", "--seed", "7",
                             "-o", str(inst_path))
    assert code == 0, err
    return base, inst_path


class TestGenAndCertify:
    def test_gen_writes_instance_and_certificate(self, worked_files):
        base, inst_path = worked_files
        assert inst_path.exists()
        assert (base / "inst.cert.json").exists()

    def test_certify_round_trip(self, worked_files):
        base, inst_path = worked_files
        code, out, _ = run_cli("certify", str(inst_path))
        assert code == 0
        assert out.startswith("simple")

    def test_worked_degree_one_certificate_support(self, worked_instance, tmp_path):
        inst_path = tmp_path / "worked.json"
        save_instance(inst_path, worked_instance)
        code, out, _ = run_cli("certify", str(inst_path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["simple"] is True
        assert data["verdict"]["certificate"]["support"] == [[1, 0, 0]]


class TestValidateAnalyze:
    def test_validate_ok(self, worked_files):
        _, inst_path = worked_files
        code, out, _ = run_cli("validate", str(inst_path))
        assert code == 0 and out.strip() == "valid"

    def test_analyze_degraded_names_injected_edge(self, tmp_path):
        result = gen_simple(GenSpec(d=2, r=1, seed=91))
        broken = degrade(result.instance, "break-exactness", seed=4)
        path = tmp_path / "broken.json"
        save_instance(path, broken.instance)
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli("analyze", str(path), "--report", str(report_path))
        assert code == 1
        assert "inexact edge" in out
        report = json.loads(report_path.read_text())
        assert report["grid"]["exact"] is False
        failing = [e for e in report["exactness"]["edges"] if not e["exact"]]
        assert failing
        loc = broken.at.location
        assert any(_edge_string(e) == loc for e in failing)

    def test_analyze_good_instance_exits_zero(self, worked_files):
        _, inst_path = worked_files
        code, out, _ = run_cli("analyze", str(inst_path))
        assert code == 0
        assert "codim sum 1 (r+1 = 1)" in out


def _edge_string(edge_json):
    def fmt(triple):
        return f"Multidegree(i={triple[0]}, j={triple[1]}, l={triple[2]})"
    return f"{fmt(edge_json['from'])}->{fmt(edge_json['to'])}"


class TestReadableLocations:
    """Text output writes multidegrees as ``(i,j,l)`` and edges as
    ``(i,j,l)->(i,j,l)``; the JSON reports keep their fields."""

    @pytest.fixture(scope="class")
    def broken(self):
        base = gen_simple(GenSpec(d=2, r=1, seed=91)).instance
        return base, degrade(base, "break-exactness", seed=4)

    def test_certify_witness_edge(self, broken, tmp_path):
        _, result = broken
        path = tmp_path / "broken.json"
        save_instance(path, result.instance)
        report = tmp_path / "report.json"
        code, out, _ = run_cli("certify", str(path), "--report", str(report))
        assert code == 1
        edge = result.at
        assert out == f"not simple: not-exact (witness {edge.label})\n"
        assert out.count("->") == 1 and "Multidegree" not in out
        witness = json.loads(report.read_text())["verdict"]["witness"]
        assert witness == {"from": edge.source.to_json(), "to": edge.target.to_json()}

    def test_analyze_inexact_edges(self, broken, tmp_path):
        _, result = broken
        path = tmp_path / "broken.json"
        save_instance(path, result.instance)
        code, out, _ = run_cli("analyze", str(path))
        assert code == 1
        assert f"  inexact edge {result.at.label}\n" in out
        assert "Multidegree" not in out

    def test_gen_degrade_location(self, broken, tmp_path):
        base, result = broken
        source = tmp_path / "base.json"
        save_instance(source, base)
        code, out, _ = run_cli("gen", "--d", "2", "--r", "1", "--strategy", "degrade",
                               "--mode", "break-exactness", "--seed", "4",
                               "--input", str(source), "-o", str(tmp_path / "out.json"))
        assert code == 0
        assert out.endswith(f"(injected break-exactness at {result.at.label})\n")
        code, out, _ = run_cli("gen", "--d", "2", "--r", "1", "--strategy", "degrade",
                               "--mode", "shrink-V", "--input", str(source),
                               "-o", str(tmp_path / "shrunk.json"))
        assert code == 0
        assert out.endswith("(injected shrink-V at (2,0,0))\n")

    def test_input_errors_name_compact_locations(self, broken, tmp_path):
        base, _ = broken
        data = instance_to_json(base)
        data["maps"] = [m for m in data["maps"]
                        if (m["from"], m["to"]) != ([2, 0, 0], [1, 1, 0])]
        path = tmp_path / "unmapped.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli("validate", str(path))
        assert code == 2
        assert err == "input error: maps: missing edge (2,0,0)->(1,1,0)\n"
        source = tmp_path / "base.json"
        save_instance(source, base)
        cert = tmp_path / "empty.cert.json"
        cert.write_text(json.dumps({"support": [[0, 2, 0]], "sections": {"0,0": []}}))
        code, _, err = run_cli("certify", str(source), "--certificate", str(cert))
        assert code == 2
        assert err == ("input error: sections.0,0: "
                       "support multidegree (0,2,0) carries no sections\n")


    def test_analyze_linking_violation(self, tmp_path):
        base = gen_simple(GenSpec(d=2, r=1, seed=91)).instance
        result = degrade(base, "break-linking", seed=2)
        assert isinstance(result.at, Edge)
        path = tmp_path / "unlinked.json"
        save_instance(path, result.instance)
        report = tmp_path / "report.json"
        code, out, _ = run_cli("analyze", str(path), "--report", str(report))
        assert code == 1
        assert f"  linking at {result.at.label}: " in out
        assert "Multidegree" not in out
        linking = [v for v in json.loads(report.read_text())["validation"]["violations"]
                   if v["kind"] == "linking"]
        assert linking[0]["location"] == result.at.location

    def test_ambient_law_violations(self, tmp_path):
        data = instance_to_json(gen_simple(GenSpec(d=2, r=1, seed=91)).instance)
        data["maps"][0]["matrix"][0][0] = "5"
        path = tmp_path / "laws.json"
        path.write_text(json.dumps(data))
        report = tmp_path / "report.json"
        code, out, _ = run_cli("validate", str(path), "--report", str(report))
        assert code == 1
        laws = [v for v in json.loads(report.read_text())["violations"]
                if v["kind"] == "ambient-law"]
        assert laws and "Multidegree" not in out
        for v in laws:
            compact = re.sub(r"Multidegree\(i=(\d+), j=(\d+), l=(\d+)\)", r"(\1,\2,\3)",
                             v["location"])
            assert compact != v["location"]
            assert f"  ambient-law at {compact}: {v['message']}\n" in out
        code, out, _ = run_cli("laws", str(path))
        assert code == 1 and "Multidegree" not in out
        assert out.count("\n  ") == len(laws)


class TestGrid:
    def test_worked_triangle(self, worked_instance, tmp_path):
        path = tmp_path / "worked.json"
        save_instance(path, worked_instance)
        code, out, _ = run_cli("grid", str(path))
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 2
        assert lines[0].split() == ["1/D", "0/D"]
        assert lines[1].split() == ["0/D"]
        assert lines[1].index("0/D") > lines[0].index("1/D")


class TestLaws:
    def test_fresh_chain(self):
        code, out, _ = run_cli("laws", "--d", "3")
        assert code == 0 and "pass" in out

    def test_instance_file(self, worked_files):
        _, inst_path = worked_files
        code, out, _ = run_cli("laws", str(inst_path))
        assert code == 0
        assert "ambient laws: pass" in out and "identity suite: pass" in out

    def test_needs_some_input(self):
        code, _, err = run_cli("laws")
        assert code == 2 and "instance file or --d" in err


class TestExitCodes:
    def test_missing_file_is_io_error(self):
        code, _, err = run_cli("validate", "/nonexistent/file.json")
        assert code == 2

    @pytest.mark.parametrize("where", ["instance", "--report", "--certificate-out"])
    def test_directory_path_is_io_error(self, worked_files, tmp_path, where):
        _, inst_path = worked_files
        paths = {"instance": str(inst_path), "--report": str(tmp_path / "r.json"),
                 "--certificate-out": str(tmp_path / "c.json")}
        paths[where] = str(tmp_path)
        code, _, err = run_cli("certify", paths["instance"], "--report", paths["--report"],
                               "--certificate-out", paths["--certificate-out"])
        assert code == 2
        assert err.startswith("input error:") and "directory" in err

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run_cli("validate", str(bad))
        assert code == 2
        assert "line" in err

    def test_schema_error_reports_field(self, tmp_path, worked_instance):
        from llschain.lls_core import instance_to_json
        data = instance_to_json(worked_instance)
        data["maps"][0]["matrix"] = [["1"]]
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli("validate", str(bad))
        assert code == 2
        assert "maps[0].matrix" in err

    def test_invalid_genspec_is_input_error(self, tmp_path):
        code, _, err = run_cli("gen", "--d", "1", "--r", "5",
                               "-o", str(tmp_path / "x.json"))
        assert code == 2

    def test_degrade_strategy_via_cli(self, worked_files, tmp_path):
        _, inst_path = worked_files
        out_path = tmp_path / "degraded.json"
        code, out, _ = run_cli("gen", "--d", "1", "--r", "0",
                               "--strategy", "degrade", "--mode", "shrink-V",
                               "--input", str(inst_path), "-o", str(out_path),
                               "--seed", "1")
        assert code == 0 and out_path.exists()
        code2, _, _ = run_cli("validate", str(out_path))
        assert code2 == 1

    @pytest.mark.parametrize("strategy", ["exact-search", "degrade"])
    def test_certificate_out_needs_from_sections(self, worked_files, tmp_path, strategy):
        """Only from-sections writes a certificate, so any other strategy
        refuses ``--certificate-out`` before it generates anything."""
        _, inst_path = worked_files
        out_path, cert_path = tmp_path / "c.json", tmp_path / "x.json"
        extra = (["--input", str(inst_path), "--mode", "shrink-V"]
                 if strategy == "degrade" else [])
        code, out, err = run_cli("gen", "--d", "1", "--r", "0", "--strategy", strategy,
                                 "--seed", "0", "-o", str(out_path),
                                 "--certificate-out", str(cert_path), *extra)
        assert code == 2 and out == ""
        assert "gen: --certificate-out needs --strategy from-sections" in err
        assert not out_path.exists() and not cert_path.exists()


class TestConflictingOptions:
    """Options that a command would ignore, let clobber each other or that
    contradict the input exit 2 with the command's name, before anything is
    written."""

    def test_certificate_out_with_certificate(self, worked_files, tmp_path):
        base, inst_path = worked_files
        out_path = tmp_path / "o.json"
        code, out, err = run_cli("certify", str(inst_path),
                                 "--certificate", str(base / "inst.cert.json"),
                                 "--certificate-out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("input error: certify: --certificate-out")
        assert not out_path.exists()

    @pytest.mark.parametrize("strategy", ["from-sections", "exact-search"])
    @pytest.mark.parametrize("extra", [["--input", "missing.json"], ["--mode", "shrink-V"],
                                       ["--input", "missing.json", "--mode", "shrink-V"]])
    def test_degrade_options_need_degrade(self, tmp_path, strategy, extra):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli("gen", "--d", "1", "--r", "0", "--strategy", strategy,
                                 "-o", str(out_path), *extra)
        assert code == 2 and out == ""
        assert err.startswith("input error: gen: --input and --mode need --strategy degrade")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("d, r", [("5", "2"), ("1", "1"), ("2", "0")])
    def test_degrade_degree_and_rank_match_the_input(self, worked_files, tmp_path, d, r):
        _, inst_path = worked_files
        out_path = tmp_path / "q.json"
        code, out, err = run_cli("gen", "--d", d, "--r", r, "--strategy", "degrade",
                                 "--input", str(inst_path), "--mode", "shrink-V",
                                 "-o", str(out_path))
        assert code == 2 and out == ""
        assert err == ("input error: gen: --d and --r must match the --input instance "
                       "(d = 1, r = 0)\n")
        assert list(tmp_path.iterdir()) == []

    def test_laws_takes_an_instance_or_a_degree(self, worked_files):
        _, inst_path = worked_files
        code, out, err = run_cli("laws", str(inst_path), "--d", "5")
        assert code == 2 and out == ""
        assert err.startswith("input error: laws: give an instance file or --d, not both")

    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("spelling", ["same.json", "./same.json"])
    def test_certificate_out_is_not_the_instance(self, tmp_path, monkeypatch, spelling,
                                                 absolute):
        monkeypatch.chdir(tmp_path)
        cert_path = str(tmp_path / spelling) if absolute else spelling
        code, out, err = run_cli("gen", "--d", "1", "--r", "0", "-o", "same.json",
                                 "--certificate-out", cert_path)
        assert code == 2 and out == ""
        assert err.startswith("input error: gen: --certificate-out and -o name the same file")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, clash", [
        (["certify", "i.json", "--certificate-out", "i.json"],
         "certify: --certificate-out and the instance"),
        (["certify", "i.json", "--certificate-out", "o.json", "--report", "o.json"],
         "certify: --report and --certificate-out"),
        (["certify", "i.json", "--certificate", "c.json", "--report", "c.json"],
         "certify: --report and --certificate"),
        *[([command, "i.json", "--report", "./i.json"], f"{command}: --report and the instance")
          for command in ("validate", "analyze", "certify", "grid", "laws")],
        (["gen", "--d", "1", "--r", "0", "--strategy", "degrade", "--mode", "shrink-V",
          "--input", "i.json", "-o", "i.json"], "gen: -o and --input"),
    ], ids=["certify-out-instance", "certify-report-out", "certify-report-certificate",
            "validate", "analyze", "certify", "grid", "laws", "gen-degrade"])
    def test_no_file_is_read_and_written(self, worked_files, tmp_path, monkeypatch, argv,
                                         clash):
        """An output naming an input or another output would overwrite it,
        so the command refuses and leaves every file as it was."""
        base, inst_path = worked_files
        monkeypatch.chdir(tmp_path)
        (tmp_path / "i.json").write_bytes(inst_path.read_bytes())
        (tmp_path / "c.json").write_bytes((base / "inst.cert.json").read_bytes())
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err == f"input error: {clash} name the same file\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestDeterminism:
    def test_reports_are_byte_stable(self, worked_files, tmp_path):
        _, inst_path = worked_files
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert run_cli("analyze", str(inst_path), "--report", str(r1))[0] == 0
        assert run_cli("analyze", str(inst_path), "--report", str(r2))[0] == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_gen_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            assert run_cli("gen", "--d", "2", "--r", "1", "--seed", "11",
                           "-o", str(target))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestFrontDoor:
    def write(self, tmp_path, data, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("command", ["certify", "analyze", "grid", "laws"])
    def test_empty_v_is_refused_with_violation(self, tmp_path, worked_instance, command):
        data = instance_to_json(worked_instance)
        data["V"] = {}
        code, out, err = run_cli_process(command, str(self.write(tmp_path, data)))
        assert code == 1
        assert "Traceback" not in err
        assert "dimension at" in out and "no subspace stored" in out

    def test_certify_refuses_unlinked_instance(self, tmp_path):
        result = gen_simple(GenSpec(d=2, r=1, seed=3))
        broken = degrade(result.instance, "break-linking", seed=1)
        path = tmp_path / "unlinked.json"
        save_instance(path, broken.instance)
        report = tmp_path / "report.json"
        code, out, err = run_cli("certify", str(path), "--report", str(report))
        assert code == 1
        assert f"linking at {broken.at.label}: " in out
        data = json.loads(report.read_text())
        assert not data["validation"]["ok"] and "verdict" not in data

    @pytest.mark.parametrize("mode", DEGRADE_MODES)
    def test_degrade_refuses_wrong_dimension(self, tmp_path, worked_instance, mode):
        data = instance_to_json(worked_instance)
        data["V"]["0,1"] = [["1", "0"], ["0", "1"]]
        out_path = tmp_path / "degraded.json"
        code, out, _ = run_cli("gen", "--d", "1", "--r", "0", "--strategy", "degrade",
                               "--mode", mode, "--input", str(self.write(tmp_path, data)),
                               "-o", str(out_path))
        assert code == 1
        assert out.startswith("invalid") and "dimension at (0,0,1): dim 2" in out
        assert not out_path.exists()

    def test_missing_vanishing_key_names_field(self, tmp_path, worked_instance):
        data = instance_to_json(worked_instance)
        del data["vanishing"]["0,1"]["X2"]
        code, _, err = run_cli_process("validate", str(self.write(tmp_path, data)))
        assert code == 2
        assert "Traceback" not in err
        assert "vanishing.0,1.X2" in err

    def test_huge_degree_is_refused_before_the_grid(self, tmp_path):
        data = instance_to_json(gen_simple(GenSpec(d=2, r=1, seed=3)).instance)
        data["d"] = 1_000_000_000
        code, _, err = run_cli_process("validate", str(self.write(tmp_path, data)),
                                       preexec_fn=_limit_address_space)
        assert code == 2
        assert "Traceback" not in err
        assert "ambient_dim" in err

    @pytest.mark.parametrize("field, d, r", [("d", 1, 1), ("r", 1, 1),
                                             ("ambient_dim.0,0", 0, 0)])
    def test_boolean_counts_are_refused(self, tmp_path, field, d, r):
        # Each field holds 1 in the chosen instance, so ``true`` would
        # otherwise load as that 1 and the file would validate.
        data = instance_to_json(gen_simple(GenSpec(d=d, r=r, seed=3)).instance)
        *parents, key = field.split(".")
        holder = data[parents[0]] if parents else data
        assert holder[key] == 1
        holder[key] = True
        code, _, err = run_cli("validate", str(self.write(tmp_path, data)))
        assert code == 2
        assert f"{field}: must be a nonnegative integer" in err

    @pytest.mark.parametrize("field", ["V", "vanishing"])
    @pytest.mark.parametrize("alias_first", [False, True])
    def test_aliased_keys_are_refused(self, tmp_path, worked_instance, field, alias_first):
        """``"1, 0"`` would name the node of ``"1,0"``; only the written
        form loads, so neither copy silently wins, whatever their order."""
        data = instance_to_json(worked_instance)
        alias = {"1, 0": [] if field == "V" else {"X1": [], "X2": [], "X3": []}}
        data[field] = {**alias, **data[field]} if alias_first else {**data[field], **alias}
        code, out, err = run_cli("validate", str(self.write(tmp_path, data)))
        assert code == 2 and out == ""
        assert f"{field}.1, 0: multidegree key '1, 0' is not written 1,0" in err

    def test_aliased_certificate_keys_are_refused(self, tmp_path, worked_files):
        base, inst_path = worked_files
        data = json.loads((base / "inst.cert.json").read_text())
        key = next(iter(data["sections"]))
        data["sections"][key + " "] = []
        cert = self.write(tmp_path, data, "cert.json")
        code, out, err = run_cli("certify", str(inst_path), "--certificate", str(cert))
        assert code == 2 and out == ""
        assert f"sections.{key} : multidegree key '{key} ' is not written {key}" in err

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400", "0.5"])
    def test_numbers_must_be_integers(self, tmp_path, worked_files, literal):
        """Python's JSON reader takes these: an instance carrying one in its
        provenance used to validate, and degrade copied ``NaN`` and
        ``Infinity`` into a file that is not JSON."""
        base, inst_path = worked_files
        bad_inst, bad_cert = tmp_path / "instance.json", tmp_path / "cert.json"
        for path, source in ((bad_inst, inst_path), (bad_cert, base / "inst.cert.json")):
            data = {**json.loads(source.read_text()), "provenance": "?"}
            path.write_text(json.dumps(data).replace('"?"', literal))
        degraded = tmp_path / "degraded.json"
        for argv in (["validate", str(bad_inst)],
                     ["gen", "--d", "1", "--r", "0", "--strategy", "degrade", "--mode", "shrink-V",
                      "--input", str(bad_inst), "-o", str(degraded)],
                     ["certify", str(inst_path), "--certificate", str(bad_cert)]):
            code, out, err = run_cli(*argv)
            assert (code, out) == (2, "")
            assert err == f"input error: $: number {literal} is not an integer\n"
        assert not degraded.exists()

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 990 + "0" + "}" * 990],
                             ids=["lists", "objects"])
    def test_deep_nesting_is_refused(self, tmp_path, worked_files, text):
        _, inst_path = worked_files
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        for argv in (["validate", str(deep)],
                     ["certify", str(inst_path), "--certificate", str(deep)]):
            code, out, err = run_cli_process(*argv)
            assert (code, out) == (2, "")
            assert "Traceback" not in err and err.startswith("input error: ")

    def test_explicit_empty_vanishing_is_zero(self, worked_instance):
        data = instance_to_json(worked_instance)
        data["vanishing"]["0,1"]["X1"] = []
        inst = instance_from_json(data)
        assert inst.vanishing[Multidegree(0, 0, 1)][1] == Subspace.zero(2)

    def test_construction_error_exits_one(self, monkeypatch, worked_files):
        _, inst_path = worked_files

        def corrupt(inst):
            raise simple_basis.ConstructionError("seed images at the corner are dependent")

        monkeypatch.setattr(simple_basis, "extract_certificate", corrupt)
        code, _, err = run_cli("certify", str(inst_path))
        assert code == 1
        assert "Traceback" not in err
        assert "seed images at the corner are dependent" in err
