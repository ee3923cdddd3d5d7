"""Front-door fuzzing: instance and certificate files with one field dropped,
retyped, made boolean, huge or ragged, run through the CLI.

The property is the front-door contract: the command either exits 2 naming
a field path on stderr, or the file was well formed (it loads) and the
command answers 0 or 1.  ``main`` runs in-process, so an exception that
would end a real process with a traceback escapes and fails the test.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from llschain.cli import main
from llschain.generator import DEGRADE_MODES, GenSpec, gen_simple
from llschain.lls_core import InstanceFormatError, instance_from_json, instance_to_json
from llschain.simple_basis import certificate_from_json, certificate_to_json

SOURCE = gen_simple(GenSpec(d=2, r=1, seed=3))
INSTANCE = instance_to_json(SOURCE.instance)
CERTIFICATE = certificate_to_json(SOURCE.certificate)

ROOT_FIELDS = {"$", "d", "r", "multidegrees", "ambient_dim", "maps", "vanishing", "V",
               "support", "sections"}
PATH = re.compile(r"input error: ([^\s:]+): ")

REPLACEMENTS = {
    "retype": [None, {}, [], "x", 1.5, 7, "1/2", [["1"]]],
    "boolean": [True, False],
    "huge": [10 ** 40, -(10 ** 40), "9" * 5000, "1/" + "9" * 5000, "1e999999999",
             [["1"] * 60] * 60],
}


def field_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from field_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from field_paths(value, prefix + (k,))


@st.composite
def mutated(draw, doc):
    """A deep copy of ``doc`` with one field dropped, replaced or made ragged."""
    out = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(field_paths(doc))))
    kind = draw(st.sampled_from(["drop", "ragged", *REPLACEMENTS]))
    if not path:
        return draw(st.sampled_from(REPLACEMENTS["retype"]))
    *parents, last = path
    holder = out
    for step in parents:
        holder = holder[step]
    if kind == "drop":
        del holder[last]
    elif kind == "ragged":
        target = holder[last]
        if isinstance(target, list) and target and draw(st.booleans()):
            target.pop()
        elif isinstance(target, list):
            target.append(copy.deepcopy(target[-1]) if target else "1")
        else:
            holder[last] = [target]
    else:
        holder[last] = draw(st.sampled_from(REPLACEMENTS[kind]))
    return out


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def loads(loader, doc) -> bool:
    try:
        loader(doc)
    except InstanceFormatError:
        return False
    return True


def check_front_door(code: int, err: str, well_formed: bool) -> None:
    assert "Traceback" not in err
    if code == 2:
        match = PATH.match(err)
        assert match, err
        assert re.split(r"[.\[]", match.group(1))[0] in ROOT_FIELDS, err
    else:
        assert code in (0, 1) and well_formed, (code, err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def instance_argv(command, path, workdir):
    """A command reading the instance file ``path``; a degrade mode stands
    for ``gen --strategy degrade`` with that mode."""
    if command in DEGRADE_MODES:
        return ["gen", "--d", "2", "--r", "1", "--strategy", "degrade", "--mode", command,
                "--input", str(path), "-o", str(workdir / "degraded.json")]
    return [command, str(path)]


@FUZZ
@given(doc=mutated(INSTANCE),
       command=st.sampled_from(["validate", "analyze", "certify", "grid", "laws",
                                *DEGRADE_MODES]))
@example(doc={**INSTANCE, "V": {k: v for k, v in INSTANCE["V"].items() if k != "2,0"}},
         command="shrink-V")
def test_malformed_instances_exit_two_with_a_field_path(workdir, doc, command):
    path = workdir / "instance.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(instance_argv(command, path, workdir))
    check_front_door(code, err, loads(instance_from_json, doc))


@FUZZ
@given(doc=mutated(CERTIFICATE))
def test_malformed_certificates_exit_two_with_a_field_path(workdir, doc):
    inst_path = workdir / "source.json"
    inst_path.write_text(json.dumps(INSTANCE))
    cert_path = workdir / "certificate.json"
    cert_path.write_text(json.dumps(doc))
    code, err = run_cli(["certify", str(inst_path), "--certificate", str(cert_path)])
    check_front_door(code, err, loads(lambda data: certificate_from_json(data, 2), doc))


def test_source_certificate_verifies_through_the_cli(workdir):
    inst_path = workdir / "source.json"
    inst_path.write_text(json.dumps(INSTANCE))
    cert_path = workdir / "certificate.json"
    cert_path.write_text(json.dumps(CERTIFICATE))
    code, err = run_cli(["certify", str(inst_path), "--certificate", str(cert_path)])
    assert (code, err) == (0, "")
