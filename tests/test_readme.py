"""The README's python examples run as written, and its lists of
certificate keys name the keys `certify` writes."""

import json
import pathlib
import re

from gridforge import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_python_blocks_execute(capsys):
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks
    for match in blocks:
        # pad so tracebacks point at README line numbers
        code = "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_certificate_key_lists_match_the_packaged_certificate(tmp_path):
    # the `checks` bullets come before the verdict paragraph, the
    # `theorem1.facts` bullets between it and the spectrum paragraph
    text = README.read_text()
    text = text[text.index("### certify"):text.index("### simulate")]
    checks, rest = text.split("**The verdict comes from the structure.**")
    facts = rest.split("**The spectrum is a cross-check.**")[0]
    scenario = str(cli.packaged_scenario_path())
    bundle, cert = tmp_path / "bundle.json", tmp_path / "cert.json"
    assert cli.main(["synth", scenario, "--out", str(bundle)]) == 0
    assert cli.main(["certify", scenario, str(bundle), "--out",
                     str(cert)]) == 0
    doc = json.loads(cert.read_text())
    for part, keys in ((checks, doc["checks"]),
                       (facts, doc["theorem1"]["facts"])):
        assert sorted(re.findall(r"^- `(\w+)`:", part, re.M)) == sorted(keys)
