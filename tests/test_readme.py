"""The README's command-line examples run at their seeds and give their
pinned outputs.

Each ``json`` config of the README is written to ``<name>.json`` in a
temporary working directory, and each ``quantquad`` line of its ``sh``
examples runs there through ``cli.main``, in order.  The SHA-256 of each
file they write and of each command's stdout is pinned, leaving out the
``written_at`` and ``config_file`` lines.

The checksums are a tripwire for bit-identity, not a bound: a change that
moves one updates it here and says why.  KL paths go through BLAS
products, so they hold on ``conftest.PINNED_ENV`` only; on another env the
test fails and names the difference.
"""
import contextlib
import hashlib
import io
import json
import os
import re
import shlex

from conftest import PINNED_ENV, moved_env

from quantquad import cli

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

_CHECKSUMS = {
    "cb.csv": "497581a41036c1aef0d626c8d27690c8c54e916d72555bed48289b7f8df2d314",
    "mc.json": "7eae2edf1345c6764bf9e9a4acb2d08f2171a6530dbbd484c83bc15bee37dac7",
    "vr.json": "a539e2f2b140afb6bff04a35b640f83491a4847bc662fb15ea21e95d3ce4fac2",
    "euler.json": "e903a1aaa933063f2e37d1131566b6829164df7006da573017dbbd64b0baf59e",
    "gs.json": "984947329c84bf52a9cc9321aa3b5cce32f810227779586d1772fb678734befa",
    "results/vrmc-demo.csv": "866011fa21eb746915491629200d17f6a53c8a2f2b1a7a243c18e932ddc3ce40",
    "results/vrmc-demo.plot.csv":
        "0af39d9fc887b6d5b2b9a63fd7771f6d2fcdeda4b8e8879b4a0912f530a526d6",
    "results/euler-demo.csv": "3f041f97ac065bd8874b253b7baf06f311cd6b888fc4bcf86cc3e257cb174f39",
    "results/euler-demo.plot.csv":
        "ce2f7eadc4b094a7c1f414340adf6fce7352f827698ead9df7f9f25325c59b6b",
    "widths.csv": "10110c389c1d0607be65c1ac7767f287f370d6e619d64d6faa803681609324ea",
    "stdout of quantize --measure uniform_cube:1":
        "bcd0ca1d860efce2ee131d552091d1a8c1e606a6718d833d384649d37be07aa5",
    "stdout of quad --algo mc":
        "6878d00af30b04a301032ad09486a154783dc8a708a9dcd4f8476fcee62201d3",
    "stdout of quad --algo vrmc":
        "5caea9295b48a31f9937275d60052895424fec0106d071b24e4a07fca58fd760",
    "stdout of quad --algo euler":
        "fbf5ac7221d6c0dc5e951fcb6faae3ded4f283ea6051077b9bc72a7c2a769051",
    "stdout of quad --algo gauss-sub":
        "56a5963d427d2a6861fa933e6932a76021e930913bf3d4b1c9c5d406d91439b9",
    "stdout of adversary --check gap-identity":
        "730e02aa837ffc3640f49e5a25bdefb774088be5d6649b8017c8d680f8603694",
    "stdout of adversary --check events":
        "ffadec387fe8c73a75753a3616a913d65135590f32e14c0d15f3a706e597c362",
    "stdout of adversary --check lipschitz":
        "365bf49ebc330430e8c9b42c74244a57557c4044ec6feb04b5e3598bc8d36ef5",
    "stdout of rates --config vrmc-demo.json":
        "6347eb3f8375d7caf8f46ff9653e52055f3ae975dd84fc0866282065a3c8d054",
    "stdout of rates --config euler-demo.json":
        "cabc33ce994700001767b12974ebae63e1832295a9e876c5a7c5460006546485",
    "stdout of widths --measure brownian_kl:200":
        "91e035fbd38a0e5fb04032b5d30fa702e125fe89a8d559e91873afafff22b5ff",
}


def _examples():
    # (configs, argvs): the README's json configs and its quantquad lines.
    with open(_README) as handle:
        blocks = re.findall(r"```(sh|json)\n(.*?)```", handle.read(), re.S)
    configs = [json.loads(body) for lang, body in blocks if lang == "json"]
    lines = "".join(body for lang, body in blocks if lang == "sh").replace("\\\n", " ")
    argvs = [shlex.split(line)[1:] for line in lines.splitlines()
             if line.startswith("quantquad ")]
    return configs, argvs


def _digest(text: str) -> str:
    kept = [line for line in text.splitlines()
            if "written_at" not in line and "config_file" not in line]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def test_readme_examples_give_their_pinned_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    configs, argvs = _examples()
    inputs = {f"{config['name']}.json": config for config in configs}
    for path, config in inputs.items():
        with open(path, "w") as handle:
            json.dump(config, handle)
    digests = {}
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        label = "stdout of " + " ".join(argv[:3])
        assert label not in digests
        digests[label] = _digest(out.getvalue())
    for root, _, names in os.walk(tmp_path):
        for name in names:
            path = os.path.relpath(os.path.join(root, name), tmp_path)
            if path not in inputs:
                with open(path) as handle:
                    digests[path] = _digest(handle.read())
    moved = moved_env()
    assert not moved, f"checksums are pinned on {PINNED_ENV}; (pinned, here): {moved}"
    assert digests == _CHECKSUMS
